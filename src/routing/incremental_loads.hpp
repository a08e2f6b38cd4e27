#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "routing/loads.hpp"

namespace nexit::routing {

/// Delta-maintained link loads that stay *bit-identical* to a full
/// `compute_loads()` rebuild after any sequence of moves.
///
/// Floating-point accumulation is order-dependent, so naively applying
/// `-old_path +new_path` deltas to a LoadMap drifts from the full rebuild by
/// ulps — enough to flip a preference class at a quantisation boundary and
/// make an "incremental" negotiation diverge from the reference. Instead,
/// this structure tracks, per backbone link, the ascending set of flow
/// indices currently crossing it, and recomputes a *touched* link's load as
/// the flow-index-ordered sum of its members' sizes — exactly the sequence
/// of additions `compute_loads()` performs on that link. Untouched links are
/// never revisited, so a move costs O(path length + flows on the touched
/// links) instead of O(all flows x path length).
class IncrementalLoads {
 public:
  /// `track_side` restricts bookkeeping to one ISP's links (0 = A, 1 = B;
  /// the other side's load vector stays empty), -1 tracks both. `routing`
  /// and `flows` must outlive this object.
  IncrementalLoads(const PairRouting& routing,
                   const std::vector<traffic::Flow>& flows,
                   int track_side = -1);

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

  /// Current loads; recomputes only the links touched since the last call.
  /// Bit-identical to compute_loads() over the counted flows at their
  /// current interconnections (untracked sides read as all-zero).
  const LoadMap& loads();

  /// Links whose crossing-flow set changed since the previous take_touched()
  /// (or rebuild), per side; clears the set. Safe to call before or after
  /// loads().
  std::array<std::vector<graph::EdgeIndex>, 2> take_touched();

 private:
  struct Link {
    std::vector<std::size_t> flows;  // ascending flow indices crossing it
    bool dirty = false;              // load sum needs recomputation
    bool touched = false;            // changed since last take_touched()
  };

  [[nodiscard]] bool tracked(int side) const {
    return track_side_ < 0 || track_side_ == side;
  }
  /// Builds the per-link membership index from ix_of_/counted_ if it does
  /// not exist yet (first mutation after a rebuild).
  void ensure_index();
  /// Resets all dirty/touched marks (loads_ is already correct).
  void clear_marks();
  void mark(int side, graph::EdgeIndex e);
  void link_insert(int side, graph::EdgeIndex e, std::size_t flow);
  void link_erase(int side, graph::EdgeIndex e, std::size_t flow);
  /// Adds (insert) or removes the flow's membership along its path via `ix`.
  void place(std::size_t flow, std::size_t ix, bool insert);

  const PairRouting* routing_;
  const std::vector<traffic::Flow>* flows_;
  int track_side_;
  bool indexed_ = false;
  std::array<std::vector<Link>, 2> links_;
  std::vector<std::size_t> ix_of_;
  std::vector<char> counted_;
  LoadMap loads_;
  std::array<std::vector<graph::EdgeIndex>, 2> dirty_list_;
  std::array<std::vector<graph::EdgeIndex>, 2> touched_list_;
};

}  // namespace nexit::routing
