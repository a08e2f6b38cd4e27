#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace nexit::util {

double sum(const std::vector<double>& xs) {
  double total = 0.0;
  for (double x : xs) total += x;
  return total;
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) throw std::invalid_argument("mean: empty sample");
  return sum(xs) / static_cast<double>(xs.size());
}

double median(const std::vector<double>& xs) { return percentile(xs, 50.0); }

double percentile(const std::vector<double>& xs, double p) {
  return percentile(std::vector<double>(xs), p);
}

double percentile(std::vector<double>&& xs, double p) {
  if (xs.empty()) throw std::invalid_argument("percentile: empty sample");
  if (p < 0.0 || p > 100.0)
    throw std::invalid_argument("percentile: p out of [0,100]");
  if (xs.size() == 1) return xs[0];
  const double rank = (p / 100.0) * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  // Order statistics by selection: xs[lo] lands where a sort would put it,
  // with everything above it in (lo, end), so the next order statistic is
  // that partition's minimum. Same values, same expression as interpolating
  // a sorted copy, in linear time.
  const auto nth = xs.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(xs.begin(), nth, xs.end());
  const double at_lo = *nth;
  const double at_hi = hi == lo ? at_lo : *std::min_element(nth + 1, xs.end());
  return at_lo + (at_hi - at_lo) * frac;
}

Cdf::Cdf(std::vector<double> samples) : samples_(std::move(samples)), sorted_(false) {
  ensure_sorted();
}

void Cdf::add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

void Cdf::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Cdf::fraction_leq(double x) const {
  if (samples_.empty()) throw std::logic_error("Cdf::fraction_leq: empty");
  ensure_sorted();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

double Cdf::value_at(double q) const {
  if (samples_.empty()) throw std::logic_error("Cdf::value_at: empty");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("Cdf::value_at: q");
  ensure_sorted();
  if (samples_.size() == 1) return samples_[0];
  const double rank = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] + (samples_[hi] - samples_[lo]) * frac;
}

double Cdf::min() const {
  if (samples_.empty()) throw std::logic_error("Cdf::min: empty");
  ensure_sorted();
  return samples_.front();
}

double Cdf::max() const {
  if (samples_.empty()) throw std::logic_error("Cdf::max: empty");
  ensure_sorted();
  return samples_.back();
}

std::string format_cdf_table(const std::vector<std::string>& names,
                             const std::vector<const Cdf*>& cdfs,
                             const std::vector<double>& percentiles_wanted,
                             int width, int precision) {
  if (names.size() != cdfs.size())
    throw std::invalid_argument("format_cdf_table: names/cdfs size mismatch");
  std::ostringstream os;
  os << std::setw(8) << "pct";
  for (const auto& n : names) os << std::setw(width) << n;
  os << "\n";
  os << std::fixed << std::setprecision(precision);
  for (double p : percentiles_wanted) {
    os << std::setw(7) << std::setprecision(1) << p << "%"
       << std::setprecision(precision);
    for (const Cdf* c : cdfs) {
      if (c == nullptr || c->empty()) {
        os << std::setw(width) << "-";
      } else {
        os << std::setw(width) << c->value_at(p / 100.0);
      }
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace nexit::util
