// Sweep axes, the runtime.* spec namespace, --spec-out round trips, and the
// self-documenting key registry — the spec-driven-sweeps surface of
// sim::ExperimentSpec and sim::run_scenario.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/oracles.hpp"
#include "runtime/scenario.hpp"
#include "sim/scenarios.hpp"
#include "sim/spec.hpp"
#include "sim/spec_docs.hpp"
#include "test_digest.hpp"
#include "util/flags.hpp"

namespace nexit::sim {
namespace {

using nexit::testing::digest_in;
using nexit::testing::kv_flags;
using nexit::testing::read_file;
using nexit::testing::temp_path;

// --- axis parsing --------------------------------------------------------

TEST(SweepAxis, CommaListsAndNumericRangesExpand) {
  ExperimentSpec list;
  list.merge_from_flags(kv_flags({"sweep.isps=10,20,30"}));
  ASSERT_NE(list.axis("isps"), nullptr);
  EXPECT_EQ(list.axis("isps")->values,
            (std::vector<std::string>{"10", "20", "30"}));

  ExperimentSpec range;
  range.merge_from_flags(kv_flags({"sweep.pairs=1:9:2"}));
  ASSERT_NE(range.axis("pairs"), nullptr);
  EXPECT_EQ(range.axis("pairs")->values,
            (std::vector<std::string>{"1", "3", "5", "7", "9"}));

  // Non-integral ranges expand through the double formatter and re-parse
  // as the same doubles.
  ExperimentSpec dbl;
  dbl.merge_from_flags(kv_flags({"sweep.reassign=0.05:0.15:0.05"}));
  ASSERT_NE(dbl.axis("reassign"), nullptr);
  ASSERT_EQ(dbl.axis("reassign")->values.size(), 3u);
  EXPECT_DOUBLE_EQ(std::stod(dbl.axis("reassign")->values[1]), 0.1);
}

TEST(SweepAxis, OracleValuesWithColonsAreNotRanges) {
  // `cheat:piecewise` contains ':' but is a value, not a lo:hi:step range.
  ExperimentSpec s;
  s.merge_from_flags(kv_flags({"sweep.oracle-a=cheat:piecewise,distance"}));
  ASSERT_NE(s.axis("oracle-a"), nullptr);
  EXPECT_EQ(s.axis("oracle-a")->values,
            (std::vector<std::string>{"cheat:piecewise", "distance"}));
}

TEST(SweepAxis, AxesSerializeSortedAndRoundTrip) {
  ExperimentSpec s;
  s.merge_from_flags(kv_flags({"sweep.pairs=2,4"}));
  s.merge_from_flags(kv_flags({"sweep.isps=10:20:10"}));  // second source
  ASSERT_EQ(s.sweeps.size(), 2u);
  EXPECT_EQ(s.sweeps[0].key, "isps");  // canonical order: sorted by key
  EXPECT_EQ(s.sweeps[1].key, "pairs");

  ExperimentSpec reparsed;
  std::vector<std::string> lines;
  for (const auto& [key, value] : s.to_key_values())
    lines.push_back(key + "=" + value);
  reparsed.merge_from_flags(kv_flags(lines));
  EXPECT_EQ(s, reparsed);
  // The range axis round-trips as its expanded value list.
  EXPECT_EQ(reparsed.value_of("sweep.isps"), "10,20");
}

TEST(SweepAxis, RedeclaringAnAxisReplacesItsValues) {
  ExperimentSpec s;
  s.sweeps = {{"pref-range", {"1", "10"}}};  // a preset's declaration
  s.merge_from_flags(kv_flags({"sweep.pref-range=3,5"}));
  ASSERT_EQ(s.sweeps.size(), 1u);
  EXPECT_EQ(s.sweeps[0].values, (std::vector<std::string>{"3", "5"}));
}

TEST(SweepAxis, CrossProductExpandsInOdometerOrder) {
  const std::vector<SweepAxis> axes = {{"isps", {"10", "20"}},
                                       {"pairs", {"1", "2", "3"}}};
  const auto points = expand_sweep(axes);
  ASSERT_EQ(points.size(), 6u);
  // Rightmost axis varies fastest; every point lists axes in order.
  EXPECT_EQ(points[0],
            (std::vector<std::pair<std::string, std::string>>{
                {"isps", "10"}, {"pairs", "1"}}));
  EXPECT_EQ(points[1][1].second, "2");
  EXPECT_EQ(points[2][1].second, "3");
  EXPECT_EQ(points[3][0].second, "20");
  EXPECT_EQ(points[5],
            (std::vector<std::pair<std::string, std::string>>{
                {"isps", "20"}, {"pairs", "3"}}));
  // Deterministic: expanding again yields the same order.
  EXPECT_EQ(points, expand_sweep(axes));
}

using SweepDeathTest = ::testing::Test;

TEST(SweepDeathTest, MalformedAxesExitNamingTheAxis) {
  const auto merge = [](const char* assignment) {
    ExperimentSpec s;
    s.merge_from_flags(util::Flags({assignment}));
  };
  EXPECT_EXIT(merge("sweep.isps="), ::testing::ExitedWithCode(2),
              "--sweep.isps.*empty value list");
  EXPECT_EXIT(merge("sweep.isps=5:1:1"), ::testing::ExitedWithCode(2),
              "--sweep.isps.*lo must be <= hi");
  EXPECT_EXIT(merge("sweep.isps=1:10:0"), ::testing::ExitedWithCode(2),
              "--sweep.isps.*step must be > 0");
  EXPECT_EXIT(merge("sweep.isps=1:2:3:4"), ::testing::ExitedWithCode(2),
              "--sweep.isps.*exactly lo:hi:step");
  EXPECT_EXIT(merge("sweep.isps=4,,8"), ::testing::ExitedWithCode(2),
              "--sweep.isps.*empty value in list");
  EXPECT_EXIT(merge("sweep.bogus=1,2"), ::testing::ExitedWithCode(2),
              "--sweep.bogus.*unknown sweep axis");
  EXPECT_EXIT(merge("sweep.experiment=distance,bandwidth"),
              ::testing::ExitedWithCode(2), "cannot be swept");
}

// --- axis/preset interaction --------------------------------------------

TEST(SweepRun, LockedAndForeignAxesAreRejected) {
  // fig8's run controls `unilateral` itself: sweeping it must exit like the
  // scalar override does.
  EXPECT_EQ(run_scenario(*find_scenario("fig8"),
                         kv_flags({"sweep.unilateral=true,false"})),
            2);
  // A variant axis belongs to exactly one scenario.
  EXPECT_EQ(
      run_scenario(*find_scenario("fig4"), kv_flags({"sweep.model=paper"})), 2);
  // Sweeping a key the experiment kind ignores fails validation.
  EXPECT_EQ(run_scenario(*find_scenario("custom"),
                         kv_flags({"sweep.unilateral=true,false"})),
            2);
  // An out-of-table variant value fails inside the owning preset's run.
  EXPECT_EQ(run_scenario(*find_scenario("abl_models"),
                         kv_flags({"isps=12", "pairs=2", "threads=2",
                                   "sweep.model=paper,quadratic"})),
            2);
}

TEST(SweepRun, OwnedAxisPreValidatesBeforeAnyEngineRun) {
  // pref-range=0 violates validate(); the run must fail up front (exit
  // path: return 2 from run_scenario's pre-validation, not mid-sweep).
  EXPECT_EQ(run_scenario(*find_scenario("abl_pref_range"),
                         kv_flags({"isps=12", "pairs=2",
                                   "sweep.pref-range=5,0"})),
            2);
}

TEST(SweepRun, GenericSweepDigestIsThreadStableAndPointsRecorded) {
  const std::string json1 = temp_path("_t1.json");
  const std::string json2 = temp_path("_t2.json");
  EXPECT_EQ(run_scenario(*find_scenario("fig4"),
                         kv_flags({"isps=12", "pairs=2", "threads=1",
                                   "sweep.isps=12,14", "json=" + json1})),
            0);
  EXPECT_EQ(run_scenario(*find_scenario("fig4"),
                         kv_flags({"isps=12", "pairs=2", "threads=2",
                                   "sweep.isps=12,14", "json=" + json2})),
            0);
  const std::string d1 = digest_in(json1), d2 = digest_in(json2);
  EXPECT_EQ(d1.size(), 16u);
  EXPECT_EQ(d1, d2) << "sweep digest must be bit-identical across --threads";
  // The record carries one section per expanded point plus the sweep axis.
  const std::string record = read_file(json1);
  EXPECT_NE(record.find("\"points\": ["), std::string::npos);
  EXPECT_NE(record.find("\"point\": \"isps=12\""), std::string::npos);
  EXPECT_NE(record.find("\"point\": \"isps=14\""), std::string::npos);
  EXPECT_NE(record.find("\"sweep.isps\": \"12,14\""), std::string::npos);
  std::remove(json1.c_str());
  std::remove(json2.c_str());
}

TEST(SweepRun, OwnedAxisDigestIsThreadStable) {
  const std::string json1 = temp_path("_t1.json");
  const std::string json2 = temp_path("_t2.json");
  EXPECT_EQ(run_scenario(*find_scenario("abl_pref_range"),
                         kv_flags({"isps=12", "pairs=2", "threads=1",
                                   "sweep.pref-range=1,10",
                                   "json=" + json1})),
            0);
  EXPECT_EQ(run_scenario(*find_scenario("abl_pref_range"),
                         kv_flags({"isps=12", "pairs=2", "threads=2",
                                   "sweep.pref-range=1,10",
                                   "json=" + json2})),
            0);
  EXPECT_EQ(digest_in(json1), digest_in(json2));
  std::remove(json1.c_str());
  std::remove(json2.c_str());
}

TEST(SweepRun, SpecOutRoundTripsToAnIdenticalRunDigest) {
  const std::string archived = temp_path(".spec");
  const std::string json1 = temp_path("_a.json");
  const std::string json2 = temp_path("_b.json");
  // A 2-axis sweep on the generic runner, archived via --spec-out...
  EXPECT_EQ(run_scenario(*find_scenario("custom"),
                         kv_flags({"isps=12", "pairs=2", "sweep.isps=12,14",
                                   "sweep.pairs=1:2:1",
                                   "spec-out=" + archived, "json=" + json1})),
            0);
  // ...reloads through --spec alone and reproduces the digest exactly.
  EXPECT_EQ(run_scenario(*find_scenario("custom"),
                         kv_flags({"spec=" + archived, "json=" + json2})),
            0);
  EXPECT_EQ(digest_in(json1), digest_in(json2));
  // The archive is a plain spec file with the range already expanded.
  const std::string text = read_file(archived);
  EXPECT_NE(text.find("sweep.isps=12,14"), std::string::npos);
  EXPECT_NE(text.find("sweep.pairs=1,2"), std::string::npos);
  std::remove(archived.c_str());
  std::remove(json1.c_str());
  std::remove(json2.c_str());
}

// --- runtime.* namespace -------------------------------------------------

TEST(RuntimeSpec, EventsAndTargetsRoundTrip) {
  ExperimentSpec s;
  s.merge_from_flags(kv_flags(
      {"experiment=runtime",
       "runtime.events=fail@1/0/busiest,restart@3/1,churn@5/2/4242,"
       "start@7/3,fail@9/0/2",
       "runtime.fault-targets=3,5"}));
  ASSERT_EQ(s.runtime.events.size(), 5u);
  EXPECT_EQ(s.runtime.events[0].kind, runtime::EventKind::kLinkFailure);
  EXPECT_EQ(s.runtime.events[0].param, runtime::kBusiestIx);
  EXPECT_EQ(s.runtime.events[2].param, 4242u);
  EXPECT_EQ(s.runtime.events[4].param, 2u);
  EXPECT_EQ(s.runtime.fault_targets, (std::vector<std::uint32_t>{3, 5}));
  EXPECT_EQ(s.value_of("runtime.events"),
            "fail@1/0/busiest,restart@3/1,churn@5/2/4242,start@7/3,fail@9/0/2");

  ExperimentSpec reparsed;
  std::vector<std::string> lines;
  for (const auto& [key, value] : s.to_key_values())
    lines.push_back(key + "=" + value);
  reparsed.merge_from_flags(kv_flags(lines));
  EXPECT_EQ(s, reparsed);
}

TEST(RuntimeSpec, ValidateChecksKindApplicabilityAndEventBounds) {
  // runtime.* keys are inert outside experiment=runtime.
  ExperimentSpec distance;
  distance.merge_from_flags(kv_flags({"runtime.sessions=8"}));
  std::string error;
  EXPECT_FALSE(distance.validate(&error));
  EXPECT_NE(error.find("runtime.sessions"), std::string::npos) << error;
  EXPECT_NE(error.find("experiment=runtime"), std::string::npos) << error;

  // The objective keys are inert for the runtime (it builds its own
  // oracles per session kind).
  ExperimentSpec rt;
  rt.merge_from_flags(
      kv_flags({"experiment=runtime", "oracle-a=piecewise"}));
  EXPECT_FALSE(rt.validate(&error));
  EXPECT_NE(error.find("oracle-a"), std::string::npos) << error;

  // A declared timeline cannot reference sessions that will not exist.
  ExperimentSpec bounds;
  bounds.merge_from_flags(kv_flags({"experiment=runtime",
                                    "runtime.sessions=2",
                                    "runtime.events=churn@5/7/1"}));
  EXPECT_FALSE(bounds.validate(&error));
  EXPECT_NE(error.find("targets session 7"), std::string::npos) << error;
}

TEST(RuntimeSpec, ValidateReportsTheRuntimeTimelineRules) {
  // One rule set: validate() fails with runtime::timeline_error's message,
  // the one runtime::Scenario throws for the same timeline.
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases =
      {{{"runtime.sessions=2", "runtime.fault-targets=5"},
        "session 5 will not exist"},
       {{"runtime.events=kill@3/0,resume@5/0", "runtime.transport=tcp"},
        "runtime.transport=memory"},
       {{"runtime.events=kill@3/0,kill@5/0"}, "the kill at tick 5"},
       {{"runtime.events=resume@5/1,kill@3/0"}, "the resume at tick 5"}};
  for (const auto& [assignments, expected] : cases) {
    std::vector<std::string> flags = {"experiment=runtime"};
    flags.insert(flags.end(), assignments.begin(), assignments.end());
    ExperimentSpec s;
    s.merge_from_flags(kv_flags(flags));
    std::string error;
    EXPECT_FALSE(s.validate(&error)) << expected;
    EXPECT_NE(error.find(expected), std::string::npos) << error;
    EXPECT_EQ(error, runtime::timeline_error(s.runtime.events,
                                             s.runtime.fault_targets,
                                             s.runtime.transport,
                                             s.runtime.sessions));
  }
}

TEST(SweepDeathTest, MalformedTimelineExitsNamingTheKey) {
  const auto merge = [](const char* assignment) {
    ExperimentSpec s;
    s.merge_from_flags(util::Flags({assignment}));
  };
  EXPECT_EXIT(merge("runtime.events=explode@1/0"),
              ::testing::ExitedWithCode(2), "--runtime.events.*bad event");
  EXPECT_EXIT(merge("runtime.events=churn@5/0"), ::testing::ExitedWithCode(2),
              "--runtime.events");  // churn requires its reseed param
  EXPECT_EXIT(merge("runtime.fault-targets=1,x"),
              ::testing::ExitedWithCode(2), "--runtime.fault-targets");
}

TEST(RuntimeSpec, SpecTimelineReproducesTheFailureNegotiationExample) {
  // The acceptance scenario: the failure_negotiation example's recipe
  // (universe seed 11, 30 ISPs, a >=3-link pair, gravity A->B traffic, the
  // busiest interconnection failing mid-session) declared purely as spec
  // data — the same composition shipped in scenarios/runtime_failure.spec —
  // must reproduce the engine outcome of the in-process example run, and
  // bit-identically for every thread count.
  const char* const kSpecLines[] = {
      "experiment=runtime", "isps=30",           "seed=11",
      "pairs=1",            "traffic=gravity",   "runtime.min-links=3",
      "runtime.burst=2",    "runtime.events=fail@1/0/busiest",
  };
  ExperimentSpec spec;
  spec.merge_from_flags(kv_flags({kSpecLines, std::end(kSpecLines)}));
  std::string error;
  ASSERT_TRUE(spec.validate(&error)) << error;

  runtime::Scenario scenario(spec.to_runtime_config());
  const runtime::ScenarioReport report = scenario.run();
  ASSERT_EQ(report.sessions.size(), 2u);
  EXPECT_EQ(report.sessions[0].status, runtime::SessionStatus::kCancelled);
  const auto& reneg = report.sessions[1];
  ASSERT_EQ(reneg.kind, runtime::SessionKind::kFailureRenegotiation);
  ASSERT_EQ(reneg.status, runtime::SessionStatus::kDone) << reneg.error;

  // Reference: the example's computation — NegotiationEngine on the same
  // failure problem with bandwidth oracles and deterministic tie-breaks.
  const runtime::SessionWorld& world = scenario.world_of(1);
  core::NegotiationConfig ncfg;
  ncfg.tie_break = core::TieBreak::kDeterministic;
  ncfg.reassign_traffic_fraction = 0.05;
  core::BandwidthOracle ea(0, ncfg.preferences, world.capacities);
  core::BandwidthOracle eb(1, ncfg.preferences, world.capacities);
  core::NegotiationEngine engine(world.problem, ea, eb, ncfg);
  const auto expected = engine.run();
  EXPECT_EQ(reneg.outcome.assignment.ix_of_flow,
            expected.assignment.ix_of_flow);
  EXPECT_EQ(reneg.outcome.flows_moved, expected.flows_moved);
  for (std::size_t idx : world.problem.negotiable)
    EXPECT_NE(reneg.outcome.assignment.ix_of_flow[idx], world.failed_ix);

  // The whole timeline replays bit-identically on more workers.
  ExperimentSpec threaded = spec;
  threaded.merge_from_flags(kv_flags({"threads=4"}));
  const runtime::ScenarioReport parallel =
      runtime::run_scenario(threaded.to_runtime_config());
  EXPECT_EQ(runtime::outcome_digest(report),
            runtime::outcome_digest(parallel));
}

TEST(RuntimeSpec, RuntimeChurnPresetRunsFromTheRegistry) {
  const std::string json = temp_path(".json");
  EXPECT_EQ(run_scenario(*find_scenario("runtime_churn"),
                         kv_flags({"json=" + json})),
            0);
  const std::string record = read_file(json);
  EXPECT_NE(record.find("\"failure_renegotiations\": 1"), std::string::npos)
      << record;
  EXPECT_NE(record.find("\"churn_renegotiations\": 1"), std::string::npos)
      << record;
  EXPECT_NE(record.find("\"sessions_failed\": 1"), std::string::npos)
      << record;  // the declared black-hole transport fails cleanly
  std::remove(json.c_str());
}

// --- the self-documenting key registry -----------------------------------

TEST(SpecRegistry, MetadataCoversEverySerializedKeyExactly) {
  const ExperimentSpec defaults;
  std::vector<std::string> serialized;
  for (const auto& [key, value] : defaults.to_key_values())
    serialized.push_back(key);

  std::vector<std::string> registered;
  for (const SpecKeyInfo& info : spec_key_registry()) {
    if (!info.sweep_only) registered.push_back(info.key);
    EXPECT_FALSE(info.doc.empty()) << info.key;
    EXPECT_FALSE(info.type.empty()) << info.key;
    EXPECT_NE(info.kinds & kForAllKinds, 0u) << info.key;
    if (!info.sweep_only) {
      // Defaults in the docs are derived from the struct, never typed.
      EXPECT_EQ(info.default_value, defaults.value_of(info.key)) << info.key;
    } else {
      // Virtual axes belong to a registered scenario that owns them.
      const ScenarioPreset* owner = find_scenario(info.owner_scenario);
      ASSERT_NE(owner, nullptr) << info.key;
      ASSERT_NE(owner->axis, nullptr) << info.key;
      EXPECT_EQ(owner->axis, info.key);
    }
  }
  // Same keys, same canonical order: the registry cannot drift from the
  // serializer (and therefore neither can the generated reference).
  EXPECT_EQ(serialized, registered);
}

TEST(SpecRegistry, GeneratedReferenceMentionsEveryKeyAndIsMarkedGenerated) {
  std::ostringstream md;
  print_spec_reference_markdown(md);
  const std::string text = md.str();
  EXPECT_NE(text.find("GENERATED FILE"), std::string::npos);
  for (const SpecKeyInfo& info : spec_key_registry()) {
    const std::string cell =
        "| `" + (info.sweep_only ? "sweep." + info.key : info.key) + "` |";
    EXPECT_NE(text.find(cell), std::string::npos) << info.key;
    EXPECT_NE(text.find(info.doc.substr(0, 40)), std::string::npos)
        << info.key;
  }
  // Every axis-owning scenario is listed.
  for (const ScenarioPreset& preset : scenario_registry()) {
    if (preset.axis == nullptr) continue;
    EXPECT_NE(text.find("| `" + std::string(preset.name) + "` |"),
              std::string::npos)
        << preset.name;
  }

  std::ostringstream help;
  print_spec_help(help);
  for (const SpecKeyInfo& info : spec_key_registry())
    EXPECT_NE(help.str().find(info.sweep_only ? "sweep." + info.key
                                              : info.key),
              std::string::npos)
        << info.key;
}

}  // namespace
}  // namespace nexit::sim
