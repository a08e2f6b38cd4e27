#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "geo/city_db.hpp"
#include "geo/coord.hpp"
#include "graph/graph.hpp"
#include "util/ids.hpp"

namespace nexit::topology {

struct PopTag {};
/// PoP identifier, local to one ISP; equals the node index in the ISP graph.
using PopId = util::StrongId<PopTag>;

struct AsTag {};
/// Autonomous-system number of an ISP.
using AsNumber = util::StrongId<AsTag>;

/// Point of presence: one city-level location of an ISP.
struct Pop {
  PopId id;
  std::size_t city_index = 0;  // index into the CityDb the ISP was built from
  std::string city_name;
  geo::Coord coord;
  double population_millions = 0.0;
};

/// PoP-level map of a single ISP: PoPs in cities plus weighted backbone
/// links. Mirrors the Rocketfuel-style measured topologies the paper uses
/// (PoP coordinates + inferred link weights); see DESIGN.md §1.
class IspTopology {
 public:
  IspTopology(AsNumber asn, std::string name, std::vector<Pop> pops,
              graph::Graph backbone);

  [[nodiscard]] AsNumber asn() const { return asn_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t pop_count() const { return pops_.size(); }
  [[nodiscard]] const Pop& pop(PopId id) const {
    return pops_.at(static_cast<std::size_t>(id.value()));
  }
  [[nodiscard]] const std::vector<Pop>& pops() const { return pops_; }
  [[nodiscard]] const graph::Graph& backbone() const { return backbone_; }

  /// PoP located in the given city, if any (each ISP has at most one PoP per
  /// city).
  [[nodiscard]] std::optional<PopId> pop_in_city(std::size_t city_index) const;

 private:
  AsNumber asn_;
  std::string name_;
  std::vector<Pop> pops_;
  graph::Graph backbone_;
};

/// One inter-ISP link ("interconnection" in the paper). The two ISPs peer in
/// a shared city, so its geographic length is ~0; a small constant is used so
/// paths remain well-defined.
struct Interconnection {
  PopId pop_a;  // PoP in ISP A
  PopId pop_b;  // PoP in ISP B
  std::size_t city_index = 0;
  std::string city_name;
};

/// Two neighboring ISPs plus their interconnections. This is the negotiation
/// unit of the paper: pairs with >= 2 interconnections for the distance
/// experiments, >= 3 for the failure (bandwidth) experiments.
class IspPair {
 public:
  IspPair(IspTopology a, IspTopology b, std::vector<Interconnection> links);

  [[nodiscard]] const IspTopology& a() const { return a_; }
  [[nodiscard]] const IspTopology& b() const { return b_; }
  [[nodiscard]] const std::vector<Interconnection>& interconnections() const {
    return links_;
  }
  [[nodiscard]] std::size_t interconnection_count() const { return links_.size(); }

  [[nodiscard]] std::string label() const { return a_.name() + "|" + b_.name(); }

 private:
  IspTopology a_;
  IspTopology b_;
  std::vector<Interconnection> links_;
};

/// Builds the interconnection list for two ISPs: one interconnection in every
/// shared city. Returns nullopt if they share fewer than `min_links` cities.
std::optional<IspPair> make_pair_if_peers(const IspTopology& a,
                                          const IspTopology& b,
                                          std::size_t min_links);

}  // namespace nexit::topology
