#include <gtest/gtest.h>

#include "core/cheating.hpp"
#include "core/preference.hpp"

namespace nexit::core {
namespace {

TEST(Quantize, LinearMappingWithScale) {
  PreferenceConfig cfg;
  cfg.range = 10;
  // scale 100 -> +100km saved maps to +10, -50 to -5.
  auto prefs = quantize_deltas({100.0, -50.0, 0.0, 10.0}, cfg, 100.0);
  EXPECT_EQ(prefs, (std::vector<PrefClass>{10, -5, 0, 1}));
}

TEST(Quantize, ClampsToRange) {
  PreferenceConfig cfg;
  cfg.range = 5;
  auto prefs = quantize_deltas({1000.0, -1000.0}, cfg, 100.0);
  EXPECT_EQ(prefs, (std::vector<PrefClass>{5, -5}));
}

TEST(Quantize, ZeroScaleMapsEverythingToZero) {
  PreferenceConfig cfg;
  auto prefs = quantize_deltas({3.0, -7.0}, cfg, 0.0);
  EXPECT_EQ(prefs, (std::vector<PrefClass>{0, 0}));
}

TEST(Quantize, OrdinalModeSignsOnly) {
  PreferenceConfig cfg;
  cfg.ordinal = true;
  auto prefs = quantize_deltas({42.0, -0.5, 0.0}, cfg, 42.0);
  EXPECT_EQ(prefs, (std::vector<PrefClass>{1, -1, 0}));
}

TEST(Quantize, RoundsToNearestClass) {
  PreferenceConfig cfg;
  cfg.range = 10;
  // 14 km on scale 100: 1.4 -> 1; 16 km: 1.6 -> 2.
  auto prefs = quantize_deltas({14.0, 16.0, -14.0, -16.0}, cfg, 100.0);
  EXPECT_EQ(prefs, (std::vector<PrefClass>{1, 2, -1, -2}));
}

TEST(Quantize, BadRangeThrows) {
  PreferenceConfig cfg;
  cfg.range = 0;
  EXPECT_THROW(quantize_deltas({1.0}, cfg, 1.0), std::invalid_argument);
}

// --- Cheating transform (§5.4) --------------------------------------------

TEST(Cheating, InflatesBestAlternativeToMaxSum) {
  // Own truth: {2, 0}; remote: {0, 5}. Max sum is alt1 (0+5=5). The cheater's
  // best is alt0; it inflates alt0 to 5 - 0 = 5 so alt0 ties the max.
  auto lie = CheatingOracle::transform_flow({2, 0}, {0, 5}, 10);
  EXPECT_EQ(lie[0] + 0, 5);
  EXPECT_LE(lie[1] + 5, lie[0] + 0 + 0 + 5);  // alt0 sum is max
  EXPECT_GE(lie[0] + 0, lie[1] + 5);
}

TEST(Cheating, NoChangeWhenAlreadyMaxSum) {
  // Own best already attains max combined sum: disclose truthfully.
  auto lie = CheatingOracle::transform_flow({5, 0}, {0, 0}, 10);
  EXPECT_EQ(lie, (std::vector<PrefClass>{5, 0}));
}

TEST(Cheating, DeflatesOthersWhenCapBinds) {
  // Own: {1, 0}; remote: {0, 20}. With P=10, inflating alt0 to 20 is
  // impossible (cap 10); competitors must be deflated so alt0 still wins:
  // alt1 <= 10 + 0 - 20 = -10.
  auto lie = CheatingOracle::transform_flow({1, 0}, {0, 20}, 10);
  EXPECT_EQ(lie[0], 10);
  EXPECT_LE(lie[1], -10);
  EXPECT_GE(lie[0] + 0, lie[1] + 20);
}

TEST(Cheating, PreservesOrderingAmongOthers) {
  // Inflation touches only the best alternative when the cap is not binding.
  auto lie = CheatingOracle::transform_flow({3, 2, -1}, {4, 0, 0}, 10);
  // Max sum initially: alt0: 3+4=7; own best alt0 already max: unchanged.
  EXPECT_EQ(lie, (std::vector<PrefClass>{3, 2, -1}));
}

TEST(Cheating, BestAlternativeWinsSelectionAfterLie) {
  // Whatever the inputs, after the lie the cheater's best alternative must
  // attain the maximum combined (disclosed + remote) sum.
  const std::vector<std::vector<PrefClass>> owns = {
      {0, 0, 0}, {5, -5, 2}, {-3, -1, -2}, {10, 9, 8}};
  const std::vector<std::vector<PrefClass>> remotes = {
      {1, 7, -2}, {0, 0, 10}, {-5, 5, 0}, {3, 3, 3}};
  for (const auto& own : owns) {
    for (const auto& remote : remotes) {
      auto lie = CheatingOracle::transform_flow(own, remote, 10);
      std::size_t best = 0;
      for (std::size_t c = 1; c < own.size(); ++c)
        if (own[c] > own[best]) best = c;
      int max_sum = lie[0] + remote[0];
      for (std::size_t c = 0; c < own.size(); ++c)
        max_sum = std::max(max_sum, lie[c] + remote[c]);
      EXPECT_EQ(lie[best] + remote[best], max_sum)
          << "best alt not selected after lie";
      for (PrefClass p : lie) {
        EXPECT_GE(p, -10);
        EXPECT_LE(p, 10);
      }
    }
  }
}

TEST(Cheating, SizeMismatchThrows) {
  EXPECT_THROW(CheatingOracle::transform_flow({1}, {1, 2}, 10),
               std::invalid_argument);
}

}  // namespace
}  // namespace nexit::core
