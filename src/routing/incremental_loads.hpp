#pragma once

#include <cstddef>
#include <vector>

#include "routing/loads.hpp"

namespace nexit::routing {

/// Delta-maintained link loads of one ISP's backbone that stay
/// *bit-identical* to that side of a full `compute_loads()` rebuild after
/// any sequence of moves.
///
/// Floating-point accumulation is order-dependent, so naively applying
/// `-old_path +new_path` deltas to a load vector drifts from the full
/// rebuild by ulps — enough to flip a preference class at a quantisation
/// boundary and make an "incremental" negotiation diverge from the
/// reference. Instead, this structure tracks, per backbone link, the
/// ascending set of flow indices currently crossing it, and recomputes a
/// *touched* link's load as the flow-index-ordered sum of its members' sizes
/// — exactly the sequence of additions `compute_loads()` performs on that
/// link. Untouched links are never revisited, so a move costs O(path length
/// + flows on the touched links) instead of O(all flows x path length).
class IncrementalLoads {
 public:
  /// Tracks the links of ISP `side` (0 = A, 1 = B). `routing` and `flows`
  /// must outlive this object.
  IncrementalLoads(const PairRouting& routing,
                   const std::vector<traffic::Flow>& flows, int side);

  /// (Re)build from scratch: every counted flow contributes at
  /// `assignment`'s interconnection. `counted` is aligned with the flow list
  /// (nonzero = contributes load); nullptr counts every flow. Clears the
  /// touched set. Loads are accumulated directly (same cost and summation
  /// order as compute_loads()); the per-link membership index is built
  /// lazily by the first move_flow()/count_flow(), so a rebuild consumed
  /// only through loads() — the full-recompute mode — pays no indexing.
  void rebuild(const Assignment& assignment, const std::vector<char>* counted);

  /// Moves one flow to `to_ix` (no-op when it is already there). Uncounted
  /// flows only update their recorded position.
  void move_flow(std::size_t flow, std::size_t to_ix);

  /// Starts counting `flow` at its current position (no-op when counted).
  /// Used by the kExcluded open-flow model when a flow settles.
  void count_flow(std::size_t flow);

  /// Current loads of the tracked side, per backbone edge; recomputes only
  /// the links touched since the last call. Bit-identical to
  /// compute_loads().per_side[side] over the counted flows at their current
  /// interconnections.
  const std::vector<double>& loads();

  /// Links whose crossing-flow set changed since the previous take_touched()
  /// (or rebuild); clears the set. Safe to call before or after loads().
  std::vector<graph::EdgeIndex> take_touched();

 private:
  struct Link {
    std::vector<std::size_t> flows;  // ascending flow indices crossing it
    bool dirty = false;              // load sum needs recomputation
    bool touched = false;            // changed since last take_touched()
  };

  /// The flow's path through the tracked side when routed via `ix`.
  [[nodiscard]] const std::vector<graph::EdgeIndex>& path(
      std::size_t flow, std::size_t ix) const;
  /// Builds the per-link membership index from ix_of_/counted_ if it does
  /// not exist yet (first mutation after a rebuild).
  void ensure_index();
  /// Resets all dirty/touched marks (loads_ is already correct).
  void clear_marks();
  void mark(graph::EdgeIndex e);
  /// Adds (insert) or removes the flow's membership along its path via `ix`.
  void place(std::size_t flow, std::size_t ix, bool insert);

  const PairRouting* routing_;
  const std::vector<traffic::Flow>* flows_;
  int side_;
  bool indexed_ = false;
  std::vector<Link> links_;
  std::vector<std::size_t> ix_of_;
  std::vector<char> counted_;
  std::vector<double> loads_;
  std::vector<graph::EdgeIndex> dirty_list_;
  std::vector<graph::EdgeIndex> touched_list_;
};

}  // namespace nexit::routing
