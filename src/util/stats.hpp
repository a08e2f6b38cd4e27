#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace nexit::util {

/// Left-to-right sum of a sample. This is the canonical accumulation
/// order of the repo: FP addition is non-associative, so routing every
/// reduction through one helper keeps digests bit-identical across code
/// paths (the determinism lint flags ad-hoc `+=` loops).
double sum(const std::vector<double>& xs);

/// Mean of a non-empty sample (sum(xs) / size).
double mean(const std::vector<double>& xs);

/// Median (average of the two middle elements for even sizes).
double median(const std::vector<double>& xs);

/// p-th percentile, p in [0, 100], linear interpolation between order
/// statistics. Requires a non-empty sample. The input is left untouched;
/// the two order statistics are selected from one internal copy in linear
/// time (callers that need many percentiles of the same sample should
/// build a Cdf instead, which sorts once).
double percentile(const std::vector<double>& xs, double p);

/// Zero-copy overload for callers done with their sample: selects in place
/// (leaving `xs` partially reordered). Bit-identical to interpolating a
/// sorted copy. Used on the oracle-evaluation hot path
/// (quantization_scale).
double percentile(std::vector<double>&& xs, double p);

/// Empirical cumulative distribution over a sample, in the style the paper
/// plots: for a value x, `fraction_leq(x)` is the fraction of samples <= x.
/// Also produces fixed-percentile tables for textual "figures".
class Cdf {
 public:
  Cdf() = default;
  explicit Cdf(std::vector<double> samples);

  void add(double x);
  [[nodiscard]] std::size_t size() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }

  /// Fraction of samples <= x, in [0, 1].
  [[nodiscard]] double fraction_leq(double x) const;

  /// Value at cumulative fraction q in [0, 1] (inverse CDF).
  [[nodiscard]] double value_at(double q) const;

  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

 private:
  void ensure_sorted() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

/// Renders one row per requested percentile: "p10 p25 p50 p75 p90 ..." for
/// several named CDFs side by side. Used by the bench binaries to print the
/// series behind each paper figure.
std::string format_cdf_table(const std::vector<std::string>& names,
                             const std::vector<const Cdf*>& cdfs,
                             const std::vector<double>& percentiles_wanted,
                             int width = 12, int precision = 3);

}  // namespace nexit::util
