#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "util/digest.hpp"
#include "util/flags.hpp"
#include "util/ids.hpp"
#include "util/json_report.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace nexit::util {
namespace {

struct FooTag {};
struct BarTag {};
using FooId = StrongId<FooTag>;
using BarId = StrongId<BarTag>;

TEST(StrongId, DefaultIsInvalid) {
  FooId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, FooId::invalid());
}

TEST(StrongId, ValueRoundTrip) {
  FooId id{42};
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 42);
}

TEST(StrongId, Comparisons) {
  EXPECT_LT(FooId{1}, FooId{2});
  EXPECT_NE(FooId{1}, FooId{2});
  EXPECT_EQ(FooId{7}, FooId{7});
}

TEST(StrongId, DistinctTagsDoNotConvert) {
  static_assert(!std::is_convertible_v<FooId, BarId>);
  static_assert(!std::is_convertible_v<int, FooId>);
}

TEST(StrongId, Hashable) {
  std::set<FooId> s{FooId{1}, FooId{2}, FooId{1}};
  EXPECT_EQ(s.size(), 2u);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(13), 13u);
}

TEST(Rng, NextBelowZeroThrows) {
  Rng rng(7);
  EXPECT_THROW(rng.next_below(0), std::invalid_argument);
}

TEST(Rng, NextIntInclusiveRange) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ForkIndependentButDeterministic) {
  Rng a(5);
  Rng c1 = a.fork();
  Rng a2(5);
  Rng c2 = a2.fork();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(c1.next_u64(), c2.next_u64());
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Stats, MeanMedian) {
  EXPECT_DOUBLE_EQ(mean({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(median({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(median({5, 1, 3}), 3.0);
}

TEST(Stats, MeanEmptyThrows) {
  EXPECT_THROW(mean({}), std::invalid_argument);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs{0, 10};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 0.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 2.5);
}

TEST(Stats, PercentileOutOfRangeThrows) {
  EXPECT_THROW(percentile({1.0}, -1), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 101), std::invalid_argument);
}

TEST(Stats, PercentileLeavesInputUntouched) {
  // percentile/median take the sample by const reference and select from
  // an internal copy; the caller's ordering must survive.
  const std::vector<double> xs{5, 1, 4, 2, 3};
  const std::vector<double> original = xs;
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(median(xs), 3.0);
  EXPECT_EQ(xs, original);
}

/// The reference percentile() must reproduce bit for bit: linear
/// interpolation over a fully sorted copy.
double sorted_percentile(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  if (xs.size() == 1) return xs[0];
  const double rank = (p / 100.0) * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(Stats, PercentileSelectionMatchesSortedReferenceBitForBit) {
  Rng rng(17);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = 1 + rng.next_below(2000);
    // Heavy duplicates: every third sample draws from at most four values.
    const std::size_t distinct = 1 + rng.next_below(trial % 3 == 0 ? 4 : n);
    std::vector<double> pool(distinct);
    for (double& v : pool) v = rng.next_double(-1e3, 1e3);
    std::vector<double> xs(n);
    for (double& x : xs) x = pool[rng.next_below(distinct)];
    std::vector<double> ps = {0, 0.1, 25, 50, 90, 99.9, 100};
    ps.push_back(rng.next_double(0.0, 100.0));
    for (double p : ps) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " n " +
                   std::to_string(n) + " p " + std::to_string(p));
      const double want = sorted_percentile(xs, p);
      EXPECT_TRUE(same_bits(percentile(std::vector<double>(xs), p), want));
      EXPECT_TRUE(same_bits(percentile(xs, p), want));
    }
    EXPECT_TRUE(same_bits(median(xs), sorted_percentile(xs, 50.0)));
  }
}

TEST(Cdf, SizeStableAcrossAddAndSortCycles) {
  // Regression for the dead ternary in size(): the count must track add()
  // exactly, whether or not a query sorted the sample in between.
  Cdf c;
  EXPECT_EQ(c.size(), 0u);
  EXPECT_TRUE(c.empty());
  for (int i = 0; i < 5; ++i) {
    c.add(5.0 - i);
    EXPECT_EQ(c.size(), static_cast<std::size_t>(i + 1));
  }
  (void)c.value_at(0.5);  // forces a sort
  EXPECT_EQ(c.size(), 5u);
  c.add(0.0);  // un-sorts again
  EXPECT_EQ(c.size(), 6u);
  (void)c.min();
  (void)c.fraction_leq(2.0);
  EXPECT_EQ(c.size(), 6u);
  EXPECT_FALSE(c.empty());
}

TEST(Cdf, FractionLeq) {
  Cdf c({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(c.fraction_leq(0.5), 0.0);
  EXPECT_DOUBLE_EQ(c.fraction_leq(1.0), 0.25);
  EXPECT_DOUBLE_EQ(c.fraction_leq(2.5), 0.5);
  EXPECT_DOUBLE_EQ(c.fraction_leq(10), 1.0);
}

TEST(Cdf, ValueAtInverse) {
  Cdf c({10, 20, 30});
  EXPECT_DOUBLE_EQ(c.value_at(0.0), 10);
  EXPECT_DOUBLE_EQ(c.value_at(1.0), 30);
  EXPECT_DOUBLE_EQ(c.value_at(0.5), 20);
}

TEST(Cdf, AddThenQuery) {
  Cdf c;
  c.add(3);
  c.add(1);
  c.add(2);
  EXPECT_DOUBLE_EQ(c.min(), 1);
  EXPECT_DOUBLE_EQ(c.max(), 3);
  EXPECT_DOUBLE_EQ(c.value_at(0.5), 2);
}

TEST(Cdf, EmptyThrows) {
  Cdf c;
  EXPECT_THROW((void)c.value_at(0.5), std::logic_error);
  EXPECT_THROW((void)c.min(), std::logic_error);
}

TEST(Cdf, FormatTableHasHeaderAndRows) {
  Cdf a({1, 2, 3});
  Cdf b({4, 5, 6});
  const std::string t = format_cdf_table({"one", "two"}, {&a, &b}, {50.0, 90.0});
  EXPECT_NE(t.find("one"), std::string::npos);
  EXPECT_NE(t.find("two"), std::string::npos);
  EXPECT_NE(t.find("50.0%"), std::string::npos);
}

TEST(Result, OkPath) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(Result, ErrorPath) {
  Result<int> r(make_error("boom"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().message, "boom");
  EXPECT_THROW((void)r.value(), std::runtime_error);
}

TEST(Flags, ParsesEqualsAndBareForms) {
  const char* argv[] = {"prog", "--pairs=20", "--seed=7", "--verbose", "pos"};
  Flags f(5, const_cast<char**>(argv));
  EXPECT_EQ(f.get_int("pairs", 0), 20);
  EXPECT_EQ(f.get_int("seed", 0), 7);
  EXPECT_TRUE(f.get_bool("verbose", false));
  EXPECT_EQ(f.get_int("absent", -1), -1);
  ASSERT_EQ(f.positional().size(), 1u);
  EXPECT_EQ(f.positional()[0], "pos");
}

TEST(Flags, DoubleAndString) {
  const char* argv[] = {"prog", "--ratio=2.5", "--name=abc"};
  Flags f(3, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(f.get_double("ratio", 0.0), 2.5);
  EXPECT_EQ(f.get_string("name", ""), "abc");
}

TEST(Flags, UnknownListsFlagsNeverQueried) {
  const char* argv[] = {"prog", "--seed=7", "--seeed=9", "--verbose"};
  Flags f(4, const_cast<char**>(argv));
  EXPECT_EQ(f.get_int("seed", 0), 7);
  const std::vector<std::string> unknown = f.unknown();
  ASSERT_EQ(unknown.size(), 2u);  // sorted: the typo and the unread bare flag
  EXPECT_EQ(unknown[0], "seeed");
  EXPECT_EQ(unknown[1], "verbose");
}

TEST(Flags, QueryingWithAnyAccessorMarksKnown) {
  const char* argv[] = {"prog", "--a=1", "--b=2.0", "--c=x", "--d", "--e"};
  Flags f(6, const_cast<char**>(argv));
  (void)f.get_int("a", 0);
  (void)f.get_double("b", 0.0);
  (void)f.get_string("c", "");
  (void)f.get_bool("d", false);
  (void)f.has("e");
  EXPECT_TRUE(f.unknown().empty());
}

TEST(Flags, QueryingAbsentNamesLeavesNoUnknowns) {
  const char* argv[] = {"prog"};
  Flags f(1, const_cast<char**>(argv));
  EXPECT_EQ(f.get_int("missing", 3), 3);
  EXPECT_TRUE(f.unknown().empty());
}

TEST(Flags, KvConstructorMirrorsTheCommandLineForm) {
  Flags f(std::vector<std::string>{"seed=7", "verbose", "name=a=b"});
  EXPECT_EQ(f.get_int("seed", 0), 7);
  EXPECT_TRUE(f.get_bool("verbose", false));
  // Everything after the first '=' is the value, like --name=a=b.
  EXPECT_EQ(f.get_string("name", ""), "a=b");
  EXPECT_TRUE(f.unknown().empty());
  EXPECT_TRUE(f.positional().empty());
}

TEST(Flags, GetChoiceAcceptsListedValuesAndFallsBack) {
  const char* argv[] = {"prog", "--transport=socket"};
  Flags f(2, const_cast<char**>(argv));
  EXPECT_EQ(f.get_choice("transport", {"memory", "socket"}, "memory"),
            "socket");
  // Absent flag: fallback wins, even when not a member of the allowed set
  // (the driver uses an out-of-set sentinel to detect "not given").
  EXPECT_EQ(f.get_choice("mode", {"a", "b"}, "neither"), "neither");
  EXPECT_TRUE(f.unknown().empty());  // get_choice marks the name queried
}

TEST(FlagsDeathTest, GetChoiceRejectsOutOfSetValuesListingTheChoices) {
  const char* argv[] = {"prog", "--transport=pigeon"};
  Flags f(2, const_cast<char**>(argv));
  EXPECT_EXIT(
      (void)f.get_choice("transport", {"memory", "socket"}, "memory"),
      ::testing::ExitedWithCode(2),
      "--transport expects one of \\{memory, socket\\}, got \"pigeon\"");
}

TEST(Flags, GetChoiceHelpRunReturnsFallback) {
  const char* argv[] = {"prog", "--help", "--transport=pigeon"};
  Flags f(3, const_cast<char**>(argv));
  EXPECT_EQ(f.get_choice("transport", {"memory", "socket"}, "memory"),
            "memory");
}

TEST(JsonReport, NonFiniteNumbersEmitNullNotInvalidJson) {
  const std::string path = ::testing::TempDir() + "json_report_nonfinite.json";
  JsonReport report(path, "util_test");
  report.metric("ok", 1.5);
  report.metric("too_big", std::numeric_limits<double>::infinity());
  report.metric("too_small", -std::numeric_limits<double>::infinity());
  report.metric("undefined", std::numeric_limits<double>::quiet_NaN());
  report.config("undefined_config", std::numeric_limits<double>::quiet_NaN());
  report.write();

  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  std::remove(path.c_str());

  // %.17g used to print bare `inf` / `nan`, which no JSON parser accepts.
  EXPECT_EQ(text.find("inf"), std::string::npos) << text;
  EXPECT_EQ(text.find("nan"), std::string::npos) << text;
  EXPECT_NE(text.find("\"too_big\": null"), std::string::npos) << text;
  EXPECT_NE(text.find("\"too_small\": null"), std::string::npos) << text;
  EXPECT_NE(text.find("\"undefined\": null"), std::string::npos) << text;
  EXPECT_NE(text.find("\"undefined_config\": null"), std::string::npos) << text;
  EXPECT_NE(text.find("\"ok\": 1.5"), std::string::npos) << text;
}

TEST(JsonReport, SpecSectionIsEmittedOnlyWhenPopulated) {
  const std::string with = ::testing::TempDir() + "json_report_spec.json";
  JsonReport spec_report(with, "util_test");
  spec_report.spec_entry("oracle-a", "cheat:piecewise");
  spec_report.metric("digest", std::string("00ff"));
  spec_report.write();
  std::stringstream a;
  a << std::ifstream(with).rdbuf();
  std::remove(with.c_str());
  EXPECT_NE(a.str().find("\"spec\": {"), std::string::npos) << a.str();
  EXPECT_NE(a.str().find("\"oracle-a\": \"cheat:piecewise\""),
            std::string::npos)
      << a.str();
  EXPECT_NE(a.str().find("\"digest\": \"00ff\""), std::string::npos)
      << a.str();

  const std::string without = ::testing::TempDir() + "json_report_plain.json";
  JsonReport plain_report(without, "util_test");
  plain_report.metric("n", static_cast<std::int64_t>(3));
  plain_report.write();
  std::stringstream b;
  b << std::ifstream(without).rdbuf();
  std::remove(without.c_str());
  EXPECT_EQ(b.str().find("\"spec\""), std::string::npos) << b.str();
}

TEST(Digest, HexSpellingIsStableAndFixedWidth) {
  EXPECT_EQ(digest_hex(0), "0000000000000000");
  EXPECT_EQ(digest_hex(0xdeadbeefull), "00000000deadbeef");
  EXPECT_EQ(digest_hex(~0ull), "ffffffffffffffff");
  // The FNV scheme itself must not drift: pin one known chain.
  std::uint64_t h = kFnvOffsetBasis;
  h = fnv1a_mix(h, 1);
  h = fnv1a_mix(h, double_bits(2.5));
  EXPECT_EQ(h, fnv1a_mix(fnv1a_mix(kFnvOffsetBasis, 1), double_bits(2.5)));
  EXPECT_NE(h, kFnvOffsetBasis);
}

TEST(ForkStreams, MatchesManualSequentialForks) {
  Rng a(99), b(99);
  const auto streams = fork_streams(a, 3, 2);
  ASSERT_EQ(streams.size(), 3u);
  for (std::size_t item = 0; item < 3; ++item) {
    ASSERT_EQ(streams[item].size(), 2u);
    for (std::size_t s = 0; s < 2; ++s) {
      Rng manual = b.fork();
      Rng from_helper = streams[item][s];
      for (int i = 0; i < 4; ++i)
        EXPECT_EQ(from_helper.next_u64(), manual.next_u64());
    }
  }
  // Both parents advanced identically.
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(FlagsDeathTest, MalformedIntAborts) {
  const char* argv[] = {"prog", "--pairs=abc", "--empty=", "--typo=6O"};
  Flags f(4, const_cast<char**>(argv));
  EXPECT_EXIT((void)f.get_int("pairs", 0), ::testing::ExitedWithCode(2),
              "--pairs expects an integer");
  EXPECT_EXIT((void)f.get_int("empty", 0), ::testing::ExitedWithCode(2),
              "--empty expects an integer");
  EXPECT_EXIT((void)f.get_int("typo", 0), ::testing::ExitedWithCode(2),
              "--typo expects an integer");
}

TEST(FlagsDeathTest, MalformedDoubleAndBoolAbort) {
  const char* argv[] = {"prog", "--ratio=fast", "--flag=ture", "--inf=inf",
                        "--nan=nan", "--huge=1e999"};
  Flags f(6, const_cast<char**>(argv));
  EXPECT_EXIT((void)f.get_double("ratio", 0.0), ::testing::ExitedWithCode(2),
              "--ratio expects a finite number");
  EXPECT_EXIT((void)f.get_bool("flag", false), ::testing::ExitedWithCode(2),
              "--flag expects a boolean");
  EXPECT_EXIT((void)f.get_double("inf", 0.0), ::testing::ExitedWithCode(2),
              "--inf expects a finite number");
  EXPECT_EXIT((void)f.get_double("nan", 0.0), ::testing::ExitedWithCode(2),
              "--nan expects a finite number");
  EXPECT_EXIT((void)f.get_double("huge", 0.0), ::testing::ExitedWithCode(2),
              "--huge expects a finite number");
}

TEST(Flags, WellFormedValuesStillParse) {
  const char* argv[] = {"prog", "--n=-7", "--x=2.5e3", "--b=no",
                        "--tiny=1e-310"};
  Flags f(5, const_cast<char**>(argv));
  EXPECT_EQ(f.get_int("n", 0), -7);
  EXPECT_DOUBLE_EQ(f.get_double("x", 0.0), 2500.0);
  EXPECT_FALSE(f.get_bool("b", true));
  // Denormal underflow sets ERANGE on glibc but is a legal value.
  EXPECT_GT(f.get_double("tiny", 0.0), 0.0);
}

TEST(Flags, QueriedListsWhatTheBinaryReads) {
  const char* argv[] = {"prog", "--seed=7"};
  Flags f(2, const_cast<char**>(argv));
  (void)f.get_int("seed", 0);
  (void)f.get_int("pairs", 60);  // absent flags count as understood too
  const std::vector<std::string> queried = f.queried();
  ASSERT_EQ(queried.size(), 2u);
  EXPECT_EQ(queried[0], "pairs");
  EXPECT_EQ(queried[1], "seed");
}

TEST(FlagsDeathTest, HelpPrintsTheQueriedFlagsAndExitsZero) {
  const char* argv[] = {"prog", "--help"};
  Flags f(2, const_cast<char**>(argv));
  (void)f.get_int("seed", 0);
  (void)f.get_int("pairs", 60);
  EXPECT_EXIT(reject_unknown(f), ::testing::ExitedWithCode(0),
              "");  // message goes to stdout, not the death-test stderr
}

TEST(FlagsDeathTest, HelpWinsOverUnknownFlags) {
  // Discoverability beats strictness: `prog --help --whatever` should help,
  // not abort.
  const char* argv[] = {"prog", "--help", "--whatever=1"};
  Flags f(3, const_cast<char**>(argv));
  (void)f.get_int("seed", 0);
  EXPECT_EXIT(reject_unknown(f), ::testing::ExitedWithCode(0), "");
}

TEST(FlagsDeathTest, GetCountBoundsAndHelpFallback) {
  const char* argv[] = {"prog", "--sessions=-1"};
  Flags f(2, const_cast<char**>(argv));
  EXPECT_EXIT((void)get_count(f, "sessions", 5, 1000),
              ::testing::ExitedWithCode(2), "--sessions expects an integer");
  const char* ok_argv[] = {"prog", "--sessions=42"};
  Flags ok(2, const_cast<char**>(ok_argv));
  EXPECT_EQ(get_count(ok, "sessions", 5, 1000), 42u);
  // A help run returns the fallback instead of dying on the bad value.
  const char* help_argv[] = {"prog", "--help", "--sessions=-1"};
  Flags h(3, const_cast<char**>(help_argv));
  EXPECT_EQ(get_count(h, "sessions", 5, 1000), 5u);
}

TEST(FlagsDeathTest, HelpWinsOverMalformedValues) {
  // `prog --help --seed=abc` must reach the help text, not die in get_int.
  const char* argv[] = {"prog", "--help", "--seed=abc", "--p=x", "--b=ture"};
  Flags f(5, const_cast<char**>(argv));
  EXPECT_EQ(f.get_int("seed", 7), 7);
  EXPECT_DOUBLE_EQ(f.get_double("p", 0.5), 0.5);
  EXPECT_FALSE(f.get_bool("b", false));
  EXPECT_EXIT(reject_unknown(f), ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace nexit::util
