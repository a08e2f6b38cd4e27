#include "core/preference.hpp"

#include "obs/registry.hpp"
#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace nexit::core {

namespace {

/// std::lround for |v| <= kMaxPrefRange, inline: truncate toward zero, then
/// step away from zero when the dropped fraction is at least one half. Both
/// steps are exact (v - t is exact for |v| < 2^52), so halves round away
/// from zero and nextafter(0.5, 0) rounds to 0, as lround does.
PrefClass round_half_away(double v) {
  const auto t = static_cast<PrefClass>(v);
  const double frac = v - t;
  return t + (frac >= 0.5 ? 1 : 0) - (frac <= -0.5 ? 1 : 0);
}

}  // namespace

PreferenceList quantize_deltas(const Matrix<double>& deltas,
                               const PreferenceConfig& config, double scale) {
  if (config.range < 1 || config.range > kMaxPrefRange)
    throw std::invalid_argument("quantize_deltas: range out of [1, " +
                                std::to_string(kMaxPrefRange) + "]");
  if (std::isinf(scale))
    throw std::invalid_argument("quantize_deltas: infinite scale");
  PreferenceList out(deltas.rows(), deltas.cols());
  const std::span<const double> in = deltas.values();
  const std::span<PrefClass> classes = out.values();
  const double range = static_cast<double>(config.range);
  for (std::size_t i = 0; i < in.size(); ++i) {
    const double d = in[i];
    if (std::isnan(d))
      throw std::logic_error("quantize_deltas: NaN preference delta");
    PrefClass c = 0;
    if (config.ordinal) {
      if (d > 1e-12) c = 1;
      else if (d < -1e-12) c = -1;
    } else if (scale > 0.0) {
      // Clamp before narrowing: an outlier far beyond the scale must land
      // on +-P, not wrap through the int conversion.
      const double scaled = d / scale * range;
      c = round_half_away(std::clamp(scaled, -range, range));
    }
    classes[i] = c;
  }
  return out;
}

double quantization_scale(const Matrix<double>& deltas,
                          const PreferenceConfig& config) {
  const obs::PhaseTimer timer(obs::Phase::kQuantizationScale);
  std::vector<double> magnitudes;
  for (double d : deltas.values())
    if (std::abs(d) > 1e-12) magnitudes.push_back(std::abs(d));
  if (magnitudes.empty()) return 0.0;
  return util::percentile(std::move(magnitudes), config.scale_percentile);
}

}  // namespace nexit::core
