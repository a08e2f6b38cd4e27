#include <gtest/gtest.h>

#include <set>

#include "topology/generator.hpp"
#include "topology/isp_topology.hpp"

namespace nexit::topology {
namespace {

IspTopology tiny_isp(AsNumber asn, std::vector<std::size_t> city_idx) {
  const auto& db = geo::CityDb::builtin();
  std::vector<Pop> pops;
  graph::Graph g(city_idx.size());
  for (std::size_t i = 0; i < city_idx.size(); ++i) {
    const auto& c = db.at(city_idx[i]);
    pops.push_back(Pop{PopId{static_cast<std::int32_t>(i)}, city_idx[i], c.name,
                       c.coord, c.population_millions});
    if (i > 0)
      g.add_edge(static_cast<graph::NodeIndex>(i - 1),
                 static_cast<graph::NodeIndex>(i), 1.0, 100.0);
  }
  return IspTopology{asn, "T" + std::to_string(asn.value()), std::move(pops),
                     std::move(g)};
}

TEST(IspTopology, PopLookupByCity) {
  IspTopology t = tiny_isp(AsNumber{1}, {0, 1, 2});
  EXPECT_TRUE(t.pop_in_city(1).has_value());
  EXPECT_EQ(t.pop_in_city(1)->value(), 1);
  EXPECT_FALSE(t.pop_in_city(99).has_value());
}

TEST(IspTopology, RejectsDisconnectedBackbone) {
  const auto& db = geo::CityDb::builtin();
  std::vector<Pop> pops;
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& c = db.at(i);
    pops.push_back(Pop{PopId{static_cast<std::int32_t>(i)}, i, c.name, c.coord,
                       c.population_millions});
  }
  graph::Graph g(3);
  g.add_edge(0, 1, 1, 1);  // node 2 isolated
  EXPECT_THROW(IspTopology(AsNumber{1}, "X", std::move(pops), std::move(g)),
               std::invalid_argument);
}

TEST(IspTopology, RejectsOutOfOrderPopIds) {
  const auto& db = geo::CityDb::builtin();
  std::vector<Pop> pops{
      Pop{PopId{1}, 0, db.at(0).name, db.at(0).coord, 1.0},
      Pop{PopId{0}, 1, db.at(1).name, db.at(1).coord, 1.0},
  };
  graph::Graph g(2);
  g.add_edge(0, 1, 1, 1);
  EXPECT_THROW(IspTopology(AsNumber{1}, "X", std::move(pops), std::move(g)),
               std::invalid_argument);
}

TEST(IspPair, SharedCitiesBecomeInterconnections) {
  IspTopology a = tiny_isp(AsNumber{1}, {0, 1, 2, 3});
  IspTopology b = tiny_isp(AsNumber{2}, {2, 3, 4, 5});
  auto pair = make_pair_if_peers(a, b, 2);
  ASSERT_TRUE(pair.has_value());
  EXPECT_EQ(pair->interconnection_count(), 2u);
  std::set<std::size_t> cities;
  for (const auto& l : pair->interconnections()) cities.insert(l.city_index);
  EXPECT_EQ(cities, (std::set<std::size_t>{2, 3}));
}

TEST(IspPair, TooFewSharedCitiesReturnsNullopt) {
  IspTopology a = tiny_isp(AsNumber{1}, {0, 1, 2});
  IspTopology b = tiny_isp(AsNumber{2}, {2, 3, 4});
  EXPECT_FALSE(make_pair_if_peers(a, b, 2).has_value());
  EXPECT_TRUE(make_pair_if_peers(a, b, 1).has_value());
}

class GeneratorTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorTest, GeneratedIspIsWellFormed) {
  util::Rng rng(GetParam());
  TopologyGenerator gen(geo::CityDb::builtin(), GeneratorConfig{});
  IspTopology isp = gen.generate(AsNumber{77}, rng);

  EXPECT_GE(isp.pop_count(), gen.config().min_pops);
  EXPECT_LE(isp.pop_count(), gen.config().max_pops);
  EXPECT_TRUE(isp.backbone().connected());
  // Each PoP in a distinct city.
  std::set<std::size_t> cities;
  for (const auto& p : isp.pops()) cities.insert(p.city_index);
  EXPECT_EQ(cities.size(), isp.pop_count());
  // Link weights positive, roughly proportional to length.
  for (const auto& e : isp.backbone().edges()) {
    EXPECT_GT(e.weight, 0.0);
    EXPECT_GE(e.length_km, 1.0);
    EXPECT_GE(e.weight, e.length_km * 0.8);
    EXPECT_LE(e.weight, e.length_km * 1.2 + 50.0);
  }
  // Average degree in a plausible backbone range.
  const double avg_degree =
      2.0 * static_cast<double>(isp.backbone().edge_count()) /
      static_cast<double>(isp.pop_count());
  EXPECT_GE(avg_degree, 1.5);
  EXPECT_LE(avg_degree, 6.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorTest,
                         ::testing::Values(1, 2, 3, 17, 42, 1234, 99999));

TEST(Generator, DeterministicGivenSeed) {
  TopologyGenerator gen(geo::CityDb::builtin(), GeneratorConfig{});
  util::Rng r1(42), r2(42);
  IspTopology a = gen.generate(AsNumber{5}, r1);
  IspTopology b = gen.generate(AsNumber{5}, r2);
  ASSERT_EQ(a.pop_count(), b.pop_count());
  for (std::size_t i = 0; i < a.pop_count(); ++i) {
    EXPECT_EQ(a.pops()[i].city_index, b.pops()[i].city_index);
  }
  EXPECT_EQ(a.backbone().edge_count(), b.backbone().edge_count());
}

TEST(Generator, UniverseHasPeeringPairs) {
  TopologyGenerator gen(geo::CityDb::builtin(), GeneratorConfig{});
  util::Rng rng(7);
  auto isps = gen.generate_universe(20, rng);
  ASSERT_EQ(isps.size(), 20u);
  int pairs_2plus = 0;
  for (std::size_t i = 0; i < isps.size(); ++i)
    for (std::size_t j = i + 1; j < isps.size(); ++j)
      if (make_pair_if_peers(isps[i], isps[j], 2).has_value()) ++pairs_2plus;
  // Population-biased sampling makes shared big cities common.
  EXPECT_GT(pairs_2plus, 10);
}

TEST(Generator, BadConfigThrows) {
  GeneratorConfig cfg;
  cfg.min_pops = 10;
  cfg.max_pops = 5;
  EXPECT_THROW(TopologyGenerator(geo::CityDb::builtin(), cfg),
               std::invalid_argument);
  GeneratorConfig cfg2;
  cfg2.max_pops = 100000;
  EXPECT_THROW(TopologyGenerator(geo::CityDb::builtin(), cfg2),
               std::invalid_argument);
}

TEST(Generator, FootprintClassification) {
  EXPECT_EQ(TopologyGenerator::classify_city({40.71, -74.01}),
            Footprint::kNorthAmerica);
  EXPECT_EQ(TopologyGenerator::classify_city({48.86, 2.35}), Footprint::kEurope);
  EXPECT_EQ(TopologyGenerator::classify_city({35.68, 139.69}), Footprint::kGlobal);
  EXPECT_EQ(TopologyGenerator::classify_city({-33.87, 151.21}), Footprint::kGlobal);
}

}  // namespace
}  // namespace nexit::topology
