#include "routing/incremental_loads.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/registry.hpp"

namespace nexit::routing {

IncrementalLoads::IncrementalLoads(const PairRouting& routing,
                                   const std::vector<traffic::Flow>& flows,
                                   int side)
    : routing_(&routing), flows_(&flows), side_(side) {
  if (side != 0 && side != 1)
    throw std::invalid_argument("IncrementalLoads: side must be 0 or 1");
  const topology::IspPair& pair = routing.pair();
  const std::size_t edges = side == 0 ? pair.a().backbone().edge_count()
                                      : pair.b().backbone().edge_count();
  links_.resize(edges);
  loads_.assign(edges, 0.0);
  ix_of_.assign(flows.size(), 0);
  counted_.assign(flows.size(), 0);
}

const std::vector<graph::EdgeIndex>& IncrementalLoads::path(
    std::size_t flow, std::size_t ix) const {
  const traffic::Flow& f = (*flows_)[flow];
  if (side_ == traffic::upstream_side(f.direction))
    return routing_->upstream_path_edges(f, ix);
  return routing_->downstream_path_edges(f, ix);
}

void IncrementalLoads::mark(graph::EdgeIndex e) {
  Link& link = links_[static_cast<std::size_t>(e)];
  if (!link.dirty) {
    link.dirty = true;
    dirty_list_.push_back(e);
  }
  if (!link.touched) {
    link.touched = true;
    touched_list_.push_back(e);
  }
}

void IncrementalLoads::place(std::size_t flow, std::size_t ix, bool insert) {
  for (graph::EdgeIndex e : path(flow, ix)) {
    std::vector<std::size_t>& on_link = links_[static_cast<std::size_t>(e)].flows;
    const auto it = std::lower_bound(on_link.begin(), on_link.end(), flow);
    const bool present = it != on_link.end() && *it == flow;
    if (insert == present)
      throw std::logic_error(insert ? "IncrementalLoads: flow already on link"
                                    : "IncrementalLoads: flow not on link");
    if (insert) on_link.insert(it, flow);
    else on_link.erase(it);
    mark(e);
  }
}

void IncrementalLoads::clear_marks() {
  for (graph::EdgeIndex e : dirty_list_)
    links_[static_cast<std::size_t>(e)].dirty = false;
  for (graph::EdgeIndex e : touched_list_)
    links_[static_cast<std::size_t>(e)].touched = false;
  dirty_list_.clear();
  touched_list_.clear();
}

void IncrementalLoads::rebuild(const Assignment& assignment,
                               const std::vector<char>* counted) {
  const obs::PhaseTimer timer(obs::Phase::kLoadsMaintain);
  if (assignment.ix_of_flow.size() != flows_->size())
    throw std::invalid_argument("IncrementalLoads: assignment size mismatch");
  if (counted != nullptr && counted->size() != flows_->size())
    throw std::invalid_argument("IncrementalLoads: counted mask size mismatch");
  if (indexed_) {
    for (Link& link : links_) {
      link.flows.clear();
      link.dirty = false;
      link.touched = false;
    }
  }
  dirty_list_.clear();
  touched_list_.clear();
  loads_.assign(loads_.size(), 0.0);
  indexed_ = false;
  ix_of_.assign(flows_->size(), 0);
  counted_.assign(flows_->size(), 0);
  // Direct accumulation in flow order — the exact summation sequence of
  // compute_loads(), and also of the per-link ordered re-sums a later
  // incremental recompute performs, so all three agree bit for bit. The
  // membership index is deferred to ensure_index(): a rebuild that is only
  // ever read (full-recompute mode) never pays for it.
  for (std::size_t i = 0; i < flows_->size(); ++i) {
    ix_of_[i] = assignment.ix_of_flow[i];
    counted_[i] = counted == nullptr ? 1 : (*counted)[i];
    if (!counted_[i]) continue;
    for (graph::EdgeIndex e : path(i, ix_of_[i]))
      loads_[static_cast<std::size_t>(e)] += (*flows_)[i].size;
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

const std::vector<double>& IncrementalLoads::loads() {
  for (graph::EdgeIndex e : dirty_list_) {
    Link& link = links_[static_cast<std::size_t>(e)];
    double sum = 0.0;
    for (std::size_t i : link.flows) sum += (*flows_)[i].size;
    loads_[static_cast<std::size_t>(e)] = sum;
    link.dirty = false;
  }
  dirty_list_.clear();
  return loads_;
}

std::vector<graph::EdgeIndex> IncrementalLoads::take_touched() {
  std::vector<graph::EdgeIndex> out = std::move(touched_list_);
  touched_list_.clear();
  for (graph::EdgeIndex e : out) links_[static_cast<std::size_t>(e)].touched = false;
  return out;
}

}  // namespace nexit::routing
