#include "routing/incremental_loads.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/registry.hpp"

namespace nexit::routing {

IncrementalLoads::IncrementalLoads(const PairRouting& routing,
                                   const std::vector<traffic::Flow>& flows,
                                   int track_side)
    : routing_(&routing), flows_(&flows), track_side_(track_side) {
  if (track_side < -1 || track_side > 1)
    throw std::invalid_argument("IncrementalLoads: track_side must be -1/0/1");
  const topology::IspPair& pair = routing.pair();
  for (int side = 0; side < 2; ++side) {
    const std::size_t edges = side == 0 ? pair.a().backbone().edge_count()
                                        : pair.b().backbone().edge_count();
    if (tracked(side)) {
      links_[static_cast<std::size_t>(side)].resize(edges);
      loads_.per_side[static_cast<std::size_t>(side)].assign(edges, 0.0);
    }
  }
  ix_of_.assign(flows.size(), 0);
  counted_.assign(flows.size(), 0);
}

void IncrementalLoads::mark(int side, graph::EdgeIndex e) {
  Link& link = links_[static_cast<std::size_t>(side)][static_cast<std::size_t>(e)];
  if (!link.dirty) {
    link.dirty = true;
    dirty_list_[static_cast<std::size_t>(side)].push_back(e);
  }
  if (!link.touched) {
    link.touched = true;
    touched_list_[static_cast<std::size_t>(side)].push_back(e);
  }
}

void IncrementalLoads::link_insert(int side, graph::EdgeIndex e,
                                   std::size_t flow) {
  Link& link = links_[static_cast<std::size_t>(side)][static_cast<std::size_t>(e)];
  const auto it = std::lower_bound(link.flows.begin(), link.flows.end(), flow);
  if (it != link.flows.end() && *it == flow)
    throw std::logic_error("IncrementalLoads: flow already on link");
  link.flows.insert(it, flow);
  mark(side, e);
}

void IncrementalLoads::link_erase(int side, graph::EdgeIndex e,
                                  std::size_t flow) {
  Link& link = links_[static_cast<std::size_t>(side)][static_cast<std::size_t>(e)];
  const auto it = std::lower_bound(link.flows.begin(), link.flows.end(), flow);
  if (it == link.flows.end() || *it != flow)
    throw std::logic_error("IncrementalLoads: flow not on link");
  link.flows.erase(it);
  mark(side, e);
}

void IncrementalLoads::place(std::size_t flow, std::size_t ix, bool insert) {
  const traffic::Flow& f = (*flows_)[flow];
  const int up = traffic::upstream_side(f.direction);
  const int down = traffic::downstream_side(f.direction);
  if (tracked(up)) {
    for (graph::EdgeIndex e : routing_->upstream_path_edges(f, ix)) {
      if (insert) link_insert(up, e, flow);
      else link_erase(up, e, flow);
    }
  }
  if (tracked(down)) {
    for (graph::EdgeIndex e : routing_->downstream_path_edges(f, ix)) {
      if (insert) link_insert(down, e, flow);
      else link_erase(down, e, flow);
    }
  }
}

void IncrementalLoads::clear_marks() {
  for (int side = 0; side < 2; ++side) {
    auto& side_links = links_[static_cast<std::size_t>(side)];
    for (graph::EdgeIndex e : dirty_list_[static_cast<std::size_t>(side)])
      side_links[static_cast<std::size_t>(e)].dirty = false;
    for (graph::EdgeIndex e : touched_list_[static_cast<std::size_t>(side)])
      side_links[static_cast<std::size_t>(e)].touched = false;
    dirty_list_[static_cast<std::size_t>(side)].clear();
    touched_list_[static_cast<std::size_t>(side)].clear();
  }
}

void IncrementalLoads::rebuild(const Assignment& assignment,
                               const std::vector<char>* counted) {
  const obs::PhaseTimer timer(obs::Phase::kLoadsMaintain);
  if (assignment.ix_of_flow.size() != flows_->size())
    throw std::invalid_argument("IncrementalLoads: assignment size mismatch");
  if (counted != nullptr && counted->size() != flows_->size())
    throw std::invalid_argument("IncrementalLoads: counted mask size mismatch");
  for (int side = 0; side < 2; ++side) {
    if (indexed_) {
      for (Link& link : links_[static_cast<std::size_t>(side)]) {
        link.flows.clear();
        link.dirty = false;
        link.touched = false;
      }
    }
    dirty_list_[static_cast<std::size_t>(side)].clear();
    touched_list_[static_cast<std::size_t>(side)].clear();
    auto& side_loads = loads_.per_side[static_cast<std::size_t>(side)];
    side_loads.assign(side_loads.size(), 0.0);
  }
  indexed_ = false;
  ix_of_.assign(flows_->size(), 0);
  counted_.assign(flows_->size(), 0);
  // Direct accumulation in flow order — the exact summation sequence of
  // compute_loads(), and also of the per-link ordered re-sums a later
  // incremental recompute performs, so all three agree bit for bit. The
  // membership index is deferred to ensure_index(): a rebuild that is only
  // ever read (full-recompute mode) never pays for it.
  for (std::size_t i = 0; i < flows_->size(); ++i) {
    const traffic::Flow& f = (*flows_)[i];
    ix_of_[i] = assignment.ix_of_flow[i];
    counted_[i] = counted == nullptr ? 1 : (*counted)[i];
    if (!counted_[i]) continue;
    const int up = traffic::upstream_side(f.direction);
    const int down = traffic::downstream_side(f.direction);
    if (tracked(up)) {
      auto& side_loads = loads_.per_side[static_cast<std::size_t>(up)];
      for (graph::EdgeIndex e : routing_->upstream_path_edges(f, ix_of_[i]))
        side_loads[static_cast<std::size_t>(e)] += f.size;
    }
    if (tracked(down)) {
      auto& side_loads = loads_.per_side[static_cast<std::size_t>(down)];
      for (graph::EdgeIndex e : routing_->downstream_path_edges(f, ix_of_[i]))
        side_loads[static_cast<std::size_t>(e)] += f.size;
    }
  }
}

void IncrementalLoads::ensure_index() {
  if (indexed_) return;
  // Ascending flow order keeps every link's membership list sorted without
  // a per-link sort. The inserts mark links dirty/touched as a side effect;
  // loads_ is already correct, so the marks are reset afterwards.
  for (std::size_t i = 0; i < flows_->size(); ++i)
    if (counted_[i]) place(i, ix_of_[i], /*insert=*/true);
  clear_marks();
  indexed_ = true;
}

void IncrementalLoads::move_flow(std::size_t flow, std::size_t to_ix) {
  if (flow >= flows_->size())
    throw std::invalid_argument("IncrementalLoads: flow out of range");
  if (ix_of_[flow] == to_ix) return;
  if (counted_[flow]) {
    ensure_index();
    place(flow, ix_of_[flow], /*insert=*/false);
    place(flow, to_ix, /*insert=*/true);
  }
  ix_of_[flow] = to_ix;
}

void IncrementalLoads::count_flow(std::size_t flow) {
  if (flow >= flows_->size())
    throw std::invalid_argument("IncrementalLoads: flow out of range");
  if (counted_[flow]) return;
  ensure_index();
  counted_[flow] = 1;
  place(flow, ix_of_[flow], /*insert=*/true);
}

const LoadMap& IncrementalLoads::loads() {
  for (int side = 0; side < 2; ++side) {
    auto& list = dirty_list_[static_cast<std::size_t>(side)];
    if (list.empty()) continue;
    auto& side_loads = loads_.per_side[static_cast<std::size_t>(side)];
    auto& side_links = links_[static_cast<std::size_t>(side)];
    for (graph::EdgeIndex e : list) {
      Link& link = side_links[static_cast<std::size_t>(e)];
      double sum = 0.0;
      for (std::size_t i : link.flows) sum += (*flows_)[i].size;
      side_loads[static_cast<std::size_t>(e)] = sum;
      link.dirty = false;
    }
    list.clear();
  }
  return loads_;
}

std::array<std::vector<graph::EdgeIndex>, 2> IncrementalLoads::take_touched() {
  std::array<std::vector<graph::EdgeIndex>, 2> out;
  for (int side = 0; side < 2; ++side) {
    out[static_cast<std::size_t>(side)] =
        std::move(touched_list_[static_cast<std::size_t>(side)]);
    touched_list_[static_cast<std::size_t>(side)].clear();
    for (graph::EdgeIndex e : out[static_cast<std::size_t>(side)])
      links_[static_cast<std::size_t>(side)][static_cast<std::size_t>(e)]
          .touched = false;
  }
  return out;
}

}  // namespace nexit::routing
