#pragma once

#include <cstddef>
#include <vector>

#include "traffic/traffic.hpp"

namespace nexit::core {

/// Opaque preference class (paper §4): an integer in [-P, P]. Class 0 is by
/// definition the flow's *default* alternative (what would happen without
/// negotiation); positive classes are better than the default from the ISP's
/// own point of view, negative are worse. The mapping from internal metrics
/// to classes is private to each ISP, which is the information-hiding point
/// of the design.
using PrefClass = int;

/// Upper bound on P. Combined classes (own + remote) and the disclosed gains
/// summed over a negotiation stay far inside `int`, and
/// `std::numeric_limits<int>::min()` stays free as the position index's
/// closed-position sentinel (core/side.hpp).
inline constexpr int kMaxPrefRange = 1 << 20;

struct PreferenceConfig {
  /// P: classes live in [-range, range]. The paper uses 10 and reports that
  /// larger ranges do not noticeably help (reproduced by
  /// `nexit_run --scenario=abl_pref_range`).
  int range = 10;
  /// Disclose only the ordering of alternatives (classes compressed to
  /// {-1, 0, +1} relative to default) — the paper's suggestion for ISPs that
  /// want to leak even less information.
  bool ordinal = false;
  /// The |delta| percentile that maps to the extreme class +-P. Scaling by
  /// the bulk of the distribution (not the max) keeps one outlier alternative
  /// from compressing every other flow into class 0; deltas beyond the scale
  /// simply clamp to +-P.
  double scale_percentile = 90.0;
};

/// Preferences of one ISP for one negotiable flow: one class per candidate
/// interconnection, aligned with the candidate list of the negotiation.
struct FlowPreferences {
  traffic::FlowId flow;
  std::vector<PrefClass> pref_of_candidate;
};

/// One ISP's full preference list, aligned with the negotiable-flow list of
/// the negotiation problem.
struct PreferenceList {
  std::vector<FlowPreferences> flows;
};

/// Linear quantisation of metric deltas into preference classes.
/// `deltas[c]` is how much better (positive) or worse (negative) candidate c
/// is than the default, in the ISP's internal metric units. `scale` is the
/// metric value that maps to the extreme class (usually the largest |delta|
/// in the whole advertised list, so the biggest swing lands on ±P). Throws
/// std::invalid_argument unless 1 <= range <= kMaxPrefRange.
std::vector<PrefClass> quantize_deltas(const std::vector<double>& deltas,
                                       const PreferenceConfig& config,
                                       double scale);

/// Quantisation scale for a whole advertised list: the configured percentile
/// of the nonzero |delta| distribution (0 when every delta is zero).
double quantization_scale(const std::vector<std::vector<double>>& deltas,
                          const PreferenceConfig& config);

}  // namespace nexit::core
