#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "routing/pair_routing.hpp"

namespace nexit::core {

/// Everything both ISPs agree on before negotiating: the flows on the table,
/// the interconnections available, and what happens if negotiation does
/// nothing (the default assignment, which anchors preference class 0).
///
/// `negotiable` holds indices into `flows` — the distance experiments put
/// every flow on the table; the failure experiments only the flows whose
/// interconnection failed (paper §5.2: "in the interest of stability, ISPs
/// are likely to reroute only such flows").
struct NegotiationProblem {
  const routing::PairRouting* routing = nullptr;
  const std::vector<traffic::Flow>* flows = nullptr;
  std::vector<std::size_t> negotiable;
  std::vector<std::size_t> candidates;  // interconnection indices currently up
  routing::Assignment default_assignment;  // per flow, for ALL flows
  /// Destination-based mode (paper footnote 2): negotiable[pos] is the
  /// representative of group_members[pos], and an accepted alternative moves
  /// every member together (one exit per destination prefix, as with MEDs).
  /// Empty = plain source-destination routing (every group a singleton).
  std::vector<std::vector<std::size_t>> group_members;

  [[nodiscard]] const traffic::Flow& negotiable_flow(std::size_t pos) const {
    return (*flows)[negotiable[pos]];
  }
  /// Flow indices moved together when position `pos` is negotiated (a view
  /// into the problem, valid while it is unchanged).
  [[nodiscard]] std::span<const std::size_t> members_of(std::size_t pos) const {
    if (pos < group_members.size() && !group_members[pos].empty())
      return group_members[pos];
    return std::span<const std::size_t>(negotiable).subspan(pos, 1);
  }
  [[nodiscard]] std::size_t default_ix(std::size_t pos) const {
    return default_assignment.ix_of_flow[negotiable[pos]];
  }
  /// Position of the default interconnection within `candidates`.
  [[nodiscard]] std::size_t default_candidate(std::size_t pos) const;

  /// Total traffic volume of the negotiable flows (drives the "reassign
  /// every 5% of traffic" rule).
  [[nodiscard]] double negotiable_volume() const;

  /// Throws std::invalid_argument if the problem is malformed (sizes
  /// disagree, defaults not within candidates, ...).
  void validate() const;
};

/// Convenience builder: all flows negotiable, defaults = early-exit over the
/// given candidates (the paper's default routing).
NegotiationProblem make_distance_problem(const routing::PairRouting& routing,
                                         const std::vector<traffic::Flow>& flows,
                                         std::vector<std::size_t> candidates);

/// Destination-based variant (paper footnote 2): one negotiation unit per
/// (direction, destination PoP); the unit's default exit is the early-exit
/// of its largest member (the prefix's dominant ingress), and the default
/// assignment routes every member through it — both the baseline and the
/// negotiated routing are destination-based, as with plain BGP + MEDs.
NegotiationProblem make_destination_problem(
    const routing::PairRouting& routing,
    const std::vector<traffic::Flow>& flows,
    std::vector<std::size_t> candidates);

/// Builder for the failure scenario: flows whose pre-failure early-exit used
/// `failed_ix` become negotiable; defaults are re-computed by early-exit over
/// the surviving candidates; all other flows keep their pre-failure route.
NegotiationProblem make_failure_problem(const routing::PairRouting& routing,
                                        const std::vector<traffic::Flow>& flows,
                                        std::size_t failed_ix);

}  // namespace nexit::core
