#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/cheating.hpp"
#include "core/preference.hpp"

namespace nexit::core {
namespace {

TEST(Quantize, LinearMappingWithScale) {
  PreferenceConfig cfg;
  cfg.range = 10;
  // scale 100 -> +100km saved maps to +10, -50 to -5.
  auto prefs = quantize_deltas({{100.0, -50.0, 0.0, 10.0}}, cfg, 100.0);
  EXPECT_EQ(prefs, (PreferenceList{{10, -5, 0, 1}}));
}

TEST(Quantize, ClampsToRange) {
  PreferenceConfig cfg;
  cfg.range = 5;
  auto prefs = quantize_deltas({{1000.0, -1000.0}}, cfg, 100.0);
  EXPECT_EQ(prefs, (PreferenceList{{5, -5}}));
}

TEST(Quantize, ZeroScaleMapsEverythingToZero) {
  PreferenceConfig cfg;
  auto prefs = quantize_deltas({{3.0, -7.0}}, cfg, 0.0);
  EXPECT_EQ(prefs, (PreferenceList{{0, 0}}));
}

TEST(Quantize, OrdinalModeSignsOnly) {
  PreferenceConfig cfg;
  cfg.ordinal = true;
  auto prefs = quantize_deltas({{42.0, -0.5, 0.0}}, cfg, 42.0);
  EXPECT_EQ(prefs, (PreferenceList{{1, -1, 0}}));
}

TEST(Quantize, RoundsToNearestClass) {
  PreferenceConfig cfg;
  cfg.range = 10;
  // 14 km on scale 100: 1.4 -> 1; 16 km: 1.6 -> 2.
  auto prefs = quantize_deltas({{14.0, 16.0, -14.0, -16.0}}, cfg, 100.0);
  EXPECT_EQ(prefs, (PreferenceList{{1, 2, -1, -2}}));
}

TEST(Quantize, BadRangeThrows) {
  PreferenceConfig cfg;
  cfg.range = 0;
  EXPECT_THROW(quantize_deltas({{1.0}}, cfg, 1.0), std::invalid_argument);
  cfg.range = kMaxPrefRange + 1;
  EXPECT_THROW(quantize_deltas({{1.0}}, cfg, 1.0), std::invalid_argument);
}

TEST(Quantize, ClampsBeforeNarrowing) {
  // At the largest P, deltas far beyond the scale overflow int (and long)
  // once scaled; they must still land on +-P.
  PreferenceConfig cfg;
  cfg.range = kMaxPrefRange;
  auto prefs = quantize_deltas({{1e12, -1e12, 1e300, 0.5}}, cfg, 1.0);
  EXPECT_EQ(prefs, (PreferenceList{{kMaxPrefRange, -kMaxPrefRange,
                                           kMaxPrefRange, kMaxPrefRange / 2}}));
}

TEST(Quantize, RoundsLikeLroundAtEveryHalf) {
  // At range = scale = 2^20 the scaling is exact, so each cell rounds its
  // own delta: every half in [-P - 0.5, P + 0.5], the largest double below
  // one half, a negative zero, and values past +-P (the outermost halves
  // among them) and infinities, which clamp first.
  PreferenceConfig cfg;
  cfg.range = kMaxPrefRange;
  const double range = kMaxPrefRange;
  std::vector<double> in;
  for (int k = 0; k <= kMaxPrefRange; ++k) {
    in.push_back(k + 0.5);
    in.push_back(-(k + 0.5));
  }
  const double inf = std::numeric_limits<double>::infinity();
  for (double v : {std::nextafter(0.5, 0.0), -std::nextafter(0.5, 0.0), -0.0,
                   0.0, range + 1, -range - 1, 1e300, -1e300, inf, -inf})
    in.push_back(v);
  Matrix<double> deltas(1, in.size());
  std::copy(in.begin(), in.end(), deltas[0].begin());
  const PreferenceList got = quantize_deltas(deltas, cfg, range);
  for (std::size_t i = 0; i < in.size(); ++i)
    ASSERT_EQ(got[0][i], std::lround(std::clamp(in[i], -range, range)))
        << "delta " << in[i];
  EXPECT_EQ(got[0][in.size() - 10], 0);  // nextafter(0.5, 0)
}

TEST(Quantize, NanDeltaFailsLoudly) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  PreferenceConfig cfg;
  EXPECT_THROW(quantize_deltas({{1.0, nan}}, cfg, 1.0), std::logic_error);
  EXPECT_THROW(quantize_deltas({{nan}}, cfg, 0.0), std::logic_error);
  cfg.ordinal = true;
  EXPECT_THROW(quantize_deltas({{nan, 1.0}}, cfg, 1.0), std::logic_error);
}

TEST(Quantize, InfiniteScaleThrows) {
  PreferenceConfig cfg;
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(quantize_deltas({{inf}}, cfg, inf), std::invalid_argument);
}

// --- Cheating transform (§5.4) --------------------------------------------

/// The cheater's disclosed row for one flow.
std::vector<PrefClass> lie_for(const std::vector<PrefClass>& own,
                               const std::vector<PrefClass>& remote,
                               int range) {
  std::vector<PrefClass> lie(own.size());
  CheatingOracle::transform_flow(own, remote, range, lie);
  return lie;
}

TEST(Cheating, InflatesBestAlternativeToMaxSum) {
  // Own truth: {2, 0}; remote: {0, 5}. Max sum is alt1 (0+5=5). The cheater's
  // best is alt0; it inflates alt0 to 5 - 0 = 5 so alt0 ties the max.
  auto lie = lie_for({2, 0}, {0, 5}, 10);
  EXPECT_EQ(lie[0] + 0, 5);
  EXPECT_LE(lie[1] + 5, lie[0] + 0 + 0 + 5);  // alt0 sum is max
  EXPECT_GE(lie[0] + 0, lie[1] + 5);
}

TEST(Cheating, NoChangeWhenAlreadyMaxSum) {
  // Own best already attains max combined sum: disclose truthfully.
  auto lie = lie_for({5, 0}, {0, 0}, 10);
  EXPECT_EQ(lie, (std::vector<PrefClass>{5, 0}));
}

TEST(Cheating, DeflatesOthersWhenCapBinds) {
  // Own: {1, 0}; remote: {0, 20}. With P=10, inflating alt0 to 20 is
  // impossible (cap 10); competitors must be deflated so alt0 still wins:
  // alt1 <= 10 + 0 - 20 = -10.
  auto lie = lie_for({1, 0}, {0, 20}, 10);
  EXPECT_EQ(lie[0], 10);
  EXPECT_LE(lie[1], -10);
  EXPECT_GE(lie[0] + 0, lie[1] + 20);
}

TEST(Cheating, PreservesOrderingAmongOthers) {
  // Inflation touches only the best alternative when the cap is not binding.
  auto lie = lie_for({3, 2, -1}, {4, 0, 0}, 10);
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
      auto lie = lie_for(own, remote, 10);
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
  EXPECT_THROW(lie_for({1}, {1, 2}, 10), std::invalid_argument);
  // The output row must match the inputs too.
  const std::vector<PrefClass> own{1, 2}, remote{0, 0};
  std::vector<PrefClass> short_out(1);
  EXPECT_THROW(CheatingOracle::transform_flow(own, remote, 10, short_out),
               std::invalid_argument);
}

}  // namespace
}  // namespace nexit::core
