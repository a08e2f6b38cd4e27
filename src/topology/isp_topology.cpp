#include "topology/isp_topology.hpp"

#include <stdexcept>

namespace nexit::topology {

IspTopology::IspTopology(AsNumber asn, std::string name, std::vector<Pop> pops,
                         graph::Graph backbone)
    : asn_(asn), name_(std::move(name)), pops_(std::move(pops)),
      backbone_(std::move(backbone)) {
  if (pops_.size() != backbone_.node_count())
    throw std::invalid_argument("IspTopology: pops/backbone size mismatch");
  for (std::size_t i = 0; i < pops_.size(); ++i) {
    if (pops_[i].id.value() != static_cast<std::int32_t>(i))
      throw std::invalid_argument("IspTopology: PoP ids must be 0..n-1 in order");
  }
  if (!pops_.empty() && !backbone_.connected())
    throw std::invalid_argument("IspTopology: backbone must be connected");
}

std::optional<PopId> IspTopology::pop_in_city(std::size_t city_index) const {
  for (const Pop& p : pops_) {
    if (p.city_index == city_index) return p.id;
  }
  return std::nullopt;
}

IspPair::IspPair(IspTopology a, IspTopology b, std::vector<Interconnection> links)
    : a_(std::move(a)), b_(std::move(b)), links_(std::move(links)) {
  if (links_.empty()) throw std::invalid_argument("IspPair: no interconnections");
  for (const auto& l : links_) {
    if (!l.pop_a.valid() || static_cast<std::size_t>(l.pop_a.value()) >= a_.pop_count())
      throw std::invalid_argument("IspPair: bad pop_a");
    if (!l.pop_b.valid() || static_cast<std::size_t>(l.pop_b.value()) >= b_.pop_count())
      throw std::invalid_argument("IspPair: bad pop_b");
  }
}

std::optional<IspPair> make_pair_if_peers(const IspTopology& a,
                                          const IspTopology& b,
                                          std::size_t min_links) {
  std::vector<Interconnection> links;
  for (const Pop& pa : a.pops()) {
    const auto pb = b.pop_in_city(pa.city_index);
    if (!pb) continue;
    links.push_back(Interconnection{pa.id, *pb, pa.city_index, pa.city_name});
  }
  if (links.size() < min_links) return std::nullopt;
  return IspPair{a, b, std::move(links)};
}

}  // namespace nexit::topology
