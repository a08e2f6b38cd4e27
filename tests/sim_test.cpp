#include <gtest/gtest.h>

#include <iostream>

#include "sim/bandwidth_experiment.hpp"
#include "sim/distance_experiment.hpp"
#include "sim/pair_universe.hpp"
#include "sim/spec.hpp"
#include "util/stats.hpp"

namespace nexit::sim {
namespace {

UniverseConfig small_universe(std::uint64_t seed) {
  UniverseConfig u;
  u.isp_count = 18;
  u.seed = seed;
  u.max_pairs = 12;
  return u;
}

/// small_universe() as a spec, with the series these tests read switched
/// on: the Fig. 5 flow baselines (distance) or the Fig. 8 unilateral LP
/// (bandwidth).
ExperimentSpec small_spec(std::uint64_t seed, ExperimentKind kind) {
  ExperimentSpec spec;
  spec.experiment = kind;
  spec.isps = 18;
  spec.seed = seed;
  spec.pairs = 12;
  spec.pop_max = 24;  // the generator's default, as in small_universe()
  spec.flow_baselines = kind == ExperimentKind::kDistance;
  spec.unilateral = kind == ExperimentKind::kBandwidth;
  return spec;
}

TEST(PairUniverse, DeterministicAndCapped) {
  auto a = build_pair_universe(small_universe(7), 2);
  auto b = build_pair_universe(small_universe(7), 2);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_LE(a.size(), 12u);
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label(), b[i].label());
    EXPECT_GE(a[i].interconnection_count(), 2u);
  }
}

TEST(PairUniverse, MinLinksRespected) {
  for (const auto& p : build_pair_universe(small_universe(9), 3))
    EXPECT_GE(p.interconnection_count(), 3u);
}

class DistanceInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DistanceInvariants, HoldOnSmallUniverse) {
  auto samples = run_distance_experiment(
      small_spec(GetParam(), ExperimentKind::kDistance));
  ASSERT_FALSE(samples.empty());
  for (const auto& s : samples) {
    // Optimal is per-flow argmin: no method can beat it.
    EXPECT_LE(s.optimal_km, s.default_km + 1e-6);
    EXPECT_LE(s.optimal_km, s.negotiated_km + 1e-6);
    // Negotiation never loses versus default in total...
    EXPECT_LE(s.negotiated_km, s.default_km + 1e-6);
    // ...and no individual ISP ends more than marginally below its default
    // (preference class 0 absorbs swings below one quantisation step).
    for (int side = 0; side < 2; ++side) {
      EXPECT_GE(s.side_gain_pct(s.negotiated_side_km, side), -0.75)
          << s.pair_label << " side " << side;
    }
    // Fig. 5 baselines never beat the optimal.
    EXPECT_LE(s.optimal_km, s.pareto_km + 1e-6);
    EXPECT_LE(s.optimal_km, s.bothbetter_km + 1e-6);
    EXPECT_EQ(s.flow_gain_pct_optimal.size(), s.flow_count);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistanceInvariants,
                         ::testing::Values(11, 22, 33));

TEST(DistanceExperiment, NegotiationTracksOptimalClosely) {
  auto samples =
      run_distance_experiment(small_spec(5, ExperimentKind::kDistance));
  ASSERT_FALSE(samples.empty());
  std::vector<double> opt_gain, neg_gain;
  for (const auto& s : samples) {
    opt_gain.push_back(s.total_gain_pct(s.optimal_km));
    neg_gain.push_back(s.total_gain_pct(s.negotiated_km));
  }
  const double mo = util::median(opt_gain);
  const double mn = util::median(neg_gain);
  std::cout << "[ shape ] median total gain: optimal " << mo << "%, negotiated "
            << mn << "%\n";
  // The headline result: negotiated is close to optimal (within a couple of
  // percentage points of total distance at the median).
  EXPECT_GE(mn, 0.0);
  EXPECT_GE(mn, mo - 2.5);
}

TEST(DistanceExperiment, CheatingReducesBothGains) {
  const ExperimentSpec honest = small_spec(77, ExperimentKind::kDistance);
  ExperimentSpec cheat = honest;
  cheat.objective[0].cheat = true;
  auto hs = run_distance_experiment(honest);
  auto cs = run_distance_experiment(cheat);
  ASSERT_EQ(hs.size(), cs.size());
  double honest_total = 0.0, cheat_total = 0.0;
  for (std::size_t i = 0; i < hs.size(); ++i) {
    honest_total += hs[i].total_gain_pct(hs[i].negotiated_km);
    cheat_total += cs[i].total_gain_pct(cs[i].negotiated_km);
  }
  std::cout << "[ shape ] mean total gain: honest " << honest_total / hs.size()
            << "%, one cheater " << cheat_total / cs.size() << "%\n";
  EXPECT_LT(cheat_total, honest_total);
  // The truthful ISP must never end below its default even against a liar.
  for (const auto& s : cs) {
    EXPECT_GE(s.side_gain_pct(s.negotiated_side_km, 1), -0.75) << s.pair_label;
  }
}

TEST(DistanceExperiment, GroupNegotiationLosesGain) {
  const ExperimentSpec whole = small_spec(31, ExperimentKind::kDistance);
  ExperimentSpec grouped = whole;
  grouped.groups = 8;
  auto ws = run_distance_experiment(whole);
  auto gs = run_distance_experiment(grouped);
  ASSERT_EQ(ws.size(), gs.size());
  double whole_gain = 0.0, group_gain = 0.0;
  for (std::size_t i = 0; i < ws.size(); ++i) {
    whole_gain += ws[i].total_gain_pct(ws[i].negotiated_km);
    group_gain += gs[i].total_gain_pct(gs[i].negotiated_km);
  }
  std::cout << "[ shape ] mean gain whole-set " << whole_gain / ws.size()
            << "% vs 8 groups " << group_gain / gs.size() << "%\n";
  EXPECT_LE(group_gain, whole_gain + 1e-9);
}

class BandwidthInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BandwidthInvariants, HoldOnSmallUniverse) {
  ExperimentSpec spec = small_spec(GetParam(), ExperimentKind::kBandwidth);
  spec.pairs = 4;
  spec.reassign = 0.05;
  auto samples = run_bandwidth_experiment(spec);
  ASSERT_FALSE(samples.empty());
  for (const auto& s : samples) {
    // The fractional LP lower-bounds every integral routing, side-wise max.
    const double opt_total = std::max(s.mel_optimal[0], s.mel_optimal[1]);
    const double def_total = std::max(s.mel_default[0], s.mel_default[1]);
    const double neg_total = std::max(s.mel_negotiated[0], s.mel_negotiated[1]);
    EXPECT_GE(def_total, opt_total - 1e-6) << s.pair_label;
    EXPECT_GE(neg_total, opt_total - 1e-6) << s.pair_label;
    EXPECT_GT(s.affected_flows, 0u);
    EXPECT_GT(s.affected_volume_fraction, 0.0);
    EXPECT_LE(s.affected_volume_fraction, 1.0 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BandwidthInvariants, ::testing::Values(3, 13));

TEST(BandwidthExperiment, NegotiationControlsOverload) {
  ExperimentSpec spec = small_spec(101, ExperimentKind::kBandwidth);
  spec.isps = 24;
  spec.pairs = 8;
  spec.reassign = 0.05;
  auto samples = run_bandwidth_experiment(spec);
  ASSERT_GE(samples.size(), 4u);
  std::vector<double> def_ratio_up, neg_ratio_up;
  for (const auto& s : samples) {
    def_ratio_up.push_back(s.ratio(s.mel_default, 0));
    neg_ratio_up.push_back(s.ratio(s.mel_negotiated, 0));
  }
  const double md = util::median(def_ratio_up);
  const double mn = util::median(neg_ratio_up);
  std::cout << "[ shape ] upstream MEL/optimal: default median " << md
            << ", negotiated median " << mn << " (n=" << samples.size() << ")\n";
  // Negotiated routing should sit well below default and near the optimal.
  EXPECT_LE(mn, md + 1e-9);
  EXPECT_LE(mn, 1.8);
  EXPECT_GE(mn, 1.0 - 1e-6);
}

TEST(BandwidthExperiment, DiverseCriteriaFillsDistanceGain) {
  ExperimentSpec spec = small_spec(55, ExperimentKind::kBandwidth);
  spec.pairs = 4;
  spec.objective[1] = {"distance", false};
  spec.unilateral = false;
  spec.reassign = 0.05;
  auto samples = run_bandwidth_experiment(spec);
  ASSERT_FALSE(samples.empty());
  bool any_distance_gain = false;
  for (const auto& s : samples) {
    EXPECT_GE(s.downstream_distance_gain_pct, -0.75);
    any_distance_gain |= s.downstream_distance_gain_pct > 1.0;
  }
  EXPECT_TRUE(any_distance_gain);
}

TEST(BandwidthExperiment, DeterministicGivenSeed) {
  ExperimentSpec spec = small_spec(8, ExperimentKind::kBandwidth);
  spec.pairs = 3;
  spec.reassign = 0.05;
  auto a = run_bandwidth_experiment(spec);
  auto b = run_bandwidth_experiment(spec);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].pair_label, b[i].pair_label);
    EXPECT_DOUBLE_EQ(a[i].mel_negotiated[0], b[i].mel_negotiated[0]);
    EXPECT_DOUBLE_EQ(a[i].mel_optimal[1], b[i].mel_optimal[1]);
  }
}

}  // namespace
}  // namespace nexit::sim
