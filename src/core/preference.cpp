#include "core/preference.hpp"

#include "obs/registry.hpp"
#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace nexit::core {

std::vector<PrefClass> quantize_deltas(const std::vector<double>& deltas,
                                       const PreferenceConfig& config,
                                       double scale) {
  if (config.range < 1 || config.range > kMaxPrefRange)
    throw std::invalid_argument("quantize_deltas: range out of [1, " +
                                std::to_string(kMaxPrefRange) + "]");
  std::vector<PrefClass> out;
  out.reserve(deltas.size());
  for (double d : deltas) {
    PrefClass c = 0;
    if (config.ordinal) {
      if (d > 1e-12) c = 1;
      else if (d < -1e-12) c = -1;
    } else if (scale > 0.0) {
      // Clamp before narrowing: an outlier far beyond the scale must land
      // on +-P, not wrap through lround's long or the int conversion.
      const double range = static_cast<double>(config.range);
      const double scaled = d / scale * range;
      c = static_cast<PrefClass>(std::lround(std::clamp(scaled, -range, range)));
    }
    out.push_back(c);
  }
  return out;
}

double quantization_scale(const std::vector<std::vector<double>>& deltas,
                          const PreferenceConfig& config) {
  const obs::PhaseTimer timer(obs::Phase::kQuantizationScale);
  std::vector<double> magnitudes;
  for (const auto& row : deltas)
    for (double d : row)
      if (std::abs(d) > 1e-12) magnitudes.push_back(std::abs(d));
  if (magnitudes.empty()) return 0.0;
  return util::percentile(std::move(magnitudes), config.scale_percentile);
}

}  // namespace nexit::core
