// The observability layer: obs::Registry merge determinism, the Chrome
// trace_event writer, phase timing, the JsonReport obs/timing sections and
// its duplicate-key guard, and the end-to-end contracts the layer promises —
// traces and "obs" sections byte-identical across --threads=N, and a zero
// digest footprint when tracing/timing stay disabled.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/scenarios.hpp"
#include "util/flags.hpp"
#include "util/json_report.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace nexit::obs {
namespace {

util::Flags kv_flags(const std::vector<std::string>& assignments) {
  return util::Flags(assignments);
}

std::string temp_path(const std::string& suffix) {
  return ::testing::TempDir() + "obs_test_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         suffix;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The hex outcome digest a run_scenario --json record carries (the last
/// "digest" occurrence is the run's overall digest).
std::string digest_in(const std::string& json_path) {
  const std::string text = read_file(json_path);
  const std::string needle = "\"digest\": \"";
  const auto pos = text.rfind(needle);
  return pos == std::string::npos ? "" : text.substr(pos + needle.size(), 16);
}

/// The flat `"obs": { ... }` object of a record (obs sections hold no
/// nested objects, so the first closing brace ends the section).
std::string obs_section_in(const std::string& json_path) {
  const std::string text = read_file(json_path);
  const std::string needle = "\"obs\": {";
  const auto begin = text.find(needle);
  if (begin == std::string::npos) return "";
  const auto end = text.find('}', begin);
  return text.substr(begin, end - begin + 1);
}

// --- registry merge determinism ------------------------------------------

struct Op {
  bool is_histogram = false;
  std::string name;
  std::uint64_t value = 0;
};

/// A deterministic mixed workload of counter adds and histogram
/// observations across a handful of metric names.
std::vector<Op> make_ops(std::size_t n) {
  const char* counters[] = {"engine.rounds", "engine.flows_moved", "retries"};
  const char* histograms[] = {"rounds_per_negotiation", "steps_per_session"};
  util::Rng rng(0x0b5e0b5eull);
  std::vector<Op> ops;
  ops.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Op op;
    op.is_histogram = rng.next_bool(0.4);
    op.name = op.is_histogram ? histograms[rng.next_below(2)]
                              : counters[rng.next_below(3)];
    op.value = rng.next_u64() >> rng.next_below(64);
    ops.push_back(std::move(op));
  }
  return ops;
}

/// Applies `ops` to a fresh Registry split across `threads` workers
/// (worker w takes every threads-th op) and returns the merged snapshot.
Snapshot fill_and_snapshot(const std::vector<Op>& ops, std::size_t threads) {
  Registry reg;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t w = 0; w < threads; ++w) {
    workers.emplace_back([&ops, &reg, w, threads] {
      for (std::size_t i = w; i < ops.size(); i += threads) {
        const Op& op = ops[i];
        if (op.is_histogram) {
          reg.observe(op.name, op.value);
        } else {
          reg.add(op.name, op.value);
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  return reg.snapshot();
}

void expect_equal(const Snapshot& a, const Snapshot& b) {
  ASSERT_EQ(a.counters.size(), b.counters.size());
  for (std::size_t i = 0; i < a.counters.size(); ++i) {
    EXPECT_EQ(a.counters[i].name, b.counters[i].name);
    EXPECT_EQ(a.counters[i].value, b.counters[i].value) << a.counters[i].name;
  }
  ASSERT_EQ(a.histograms.size(), b.histograms.size());
  for (std::size_t i = 0; i < a.histograms.size(); ++i) {
    EXPECT_EQ(a.histograms[i].name, b.histograms[i].name);
    EXPECT_EQ(a.histograms[i].count, b.histograms[i].count)
        << a.histograms[i].name;
    EXPECT_EQ(a.histograms[i].sum, b.histograms[i].sum)
        << a.histograms[i].name;
    EXPECT_EQ(a.histograms[i].buckets, b.histograms[i].buckets)
        << a.histograms[i].name;
  }
}

TEST(ObsRegistry, SnapshotIsIdenticalForEveryShardSplit) {
  // The merge is a commutative uint64 sum, so however the same ops are
  // scattered across thread shards, the snapshot must come out identical —
  // the property that lets "obs" sections join thread-stability diffs.
  const std::vector<Op> ops = make_ops(4000);
  const Snapshot serial = fill_and_snapshot(ops, 1);
  ASSERT_FALSE(serial.counters.empty());
  ASSERT_FALSE(serial.histograms.empty());
  expect_equal(serial, fill_and_snapshot(ops, 2));
  expect_equal(serial, fill_and_snapshot(ops, 4));
  expect_equal(serial, fill_and_snapshot(ops, 7));
}

TEST(ObsRegistry, SnapshotSortsByNameAndResetClearsEveryShard) {
  Registry reg;
  reg.add("z.last", 1);
  reg.add("a.first", 2);
  reg.observe("m.hist", 3);
  std::thread other([&reg] { reg.add("a.first", 40); });
  other.join();

  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "a.first");
  EXPECT_EQ(snap.counters[0].value, 42u);
  EXPECT_EQ(snap.counters[1].name, "z.last");
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1u);
  EXPECT_EQ(snap.histograms[0].sum, 3u);

  reg.reset_counters();
  const Snapshot cleared = reg.snapshot();
  // Names survive a reset at value zero in the shards that saw them; the
  // totals must all read zero.
  for (const CounterSnapshot& c : cleared.counters) EXPECT_EQ(c.value, 0u);
  for (const HistogramSnapshot& h : cleared.histograms) {
    EXPECT_EQ(h.count, 0u);
    EXPECT_EQ(h.sum, 0u);
  }
}

TEST(ObsRegistry, HistogramBucketIsBitWidth) {
  EXPECT_EQ(histogram_bucket(0), 0u);
  EXPECT_EQ(histogram_bucket(1), 1u);
  EXPECT_EQ(histogram_bucket(2), 2u);
  EXPECT_EQ(histogram_bucket(3), 2u);
  EXPECT_EQ(histogram_bucket(4), 3u);
  EXPECT_EQ(histogram_bucket(1023), 10u);
  EXPECT_EQ(histogram_bucket(1024), 11u);
  EXPECT_EQ(histogram_bucket(~0ull), 64u);
  EXPECT_EQ(kHistogramBuckets, 65u);
}

TEST(ObsRegistry, PhaseTimersAreDisarmedByDefaultAndCountWhenEnabled) {
  Registry& reg = Registry::global();
  reg.reset_timing();
  reg.set_timing_enabled(false);
  { const PhaseTimer t(Phase::kSelectProposal); }
  std::vector<PhaseSnapshot> off = reg.timing_snapshot();
  ASSERT_EQ(off.size(), kPhaseCount);
  EXPECT_EQ(off[0].calls, 0u);  // disarmed timers never record

  reg.set_timing_enabled(true);
  { const PhaseTimer t(Phase::kSelectProposal); }
  { const PhaseTimer t(Phase::kWireDecode); }
  std::vector<PhaseSnapshot> on = reg.timing_snapshot();
  reg.set_timing_enabled(false);
  reg.reset_timing();

  ASSERT_EQ(on.size(), kPhaseCount);
  EXPECT_STREQ(on[0].name, "select_proposal");
  EXPECT_EQ(on[0].calls, 1u);
  bool saw_decode = false;
  for (const PhaseSnapshot& p : on) {
    if (std::string(p.name) == "wire_decode") {
      saw_decode = true;
      EXPECT_EQ(p.calls, 1u);
    }
  }
  EXPECT_TRUE(saw_decode);
}

TEST(ObsRegistry, ProjectFuturePhaseIsTimedUnderItsOwnName) {
  // Appended after the original phases, so their keys keep their order.
  const auto ix = static_cast<std::size_t>(Phase::kProjectFuture);
  EXPECT_EQ(ix, static_cast<std::size_t>(Phase::kSessionPump) + 1);
  EXPECT_STREQ(phase_name(Phase::kProjectFuture), "project_future");

  Registry& reg = Registry::global();
  reg.reset_timing();
  reg.set_timing_enabled(true);
  { const PhaseTimer t(Phase::kProjectFuture); }
  { const PhaseTimer t(Phase::kProjectFuture); }
  const std::vector<PhaseSnapshot> on = reg.timing_snapshot();
  reg.set_timing_enabled(false);
  reg.reset_timing();

  ASSERT_EQ(on.size(), kPhaseCount);
  EXPECT_STREQ(on[ix].name, "project_future");
  EXPECT_EQ(on[ix].calls, 2u);
  EXPECT_EQ(on[0].calls, 0u);
}

/// The `phase.<name>.calls` entry of a record's timing section, or -1.
long long timing_calls_in(const std::string& text, const std::string& name) {
  const std::string needle = "\"phase." + name + ".calls\": ";
  const auto pos = text.find(needle);
  return pos == std::string::npos ? -1
                                  : std::stoll(text.substr(pos + needle.size()));
}

TEST(ObsRegistry, JournalPhasesAreTimedUnderTheirOwnNames) {
  // Appended after project_future.
  EXPECT_EQ(static_cast<std::size_t>(Phase::kJournalAppend),
            static_cast<std::size_t>(Phase::kProjectFuture) + 1);
  EXPECT_EQ(static_cast<std::size_t>(Phase::kJournalReplay),
            static_cast<std::size_t>(Phase::kJournalAppend) + 1);
  EXPECT_STREQ(phase_name(Phase::kJournalAppend), "journal_append");
  EXPECT_STREQ(phase_name(Phase::kJournalReplay), "journal_replay");

  // A runtime that kills and resumes a session journals checkpoints and
  // WAL records, then replays them; without kills nothing is journaled.
  const sim::ScenarioPreset* runtime = sim::find_scenario("runtime");
  ASSERT_NE(runtime, nullptr);
  // scenarios/runtime_crash_resume.spec, one kill/resume cycle.
  const std::vector<std::string> base = {"isps=30",
                                         "seed=11",
                                         "pairs=12",
                                         "traffic=identical",
                                         "runtime.min-links=2",
                                         "runtime.stagger=2",
                                         "runtime.burst=8",
                                         "runtime.handshake-deadline=16",
                                         "runtime.max-attempts=2",
                                         "obs.timing=true"};
  const auto run = [&](const std::string& events, const std::string& json) {
    std::vector<std::string> flags = base;
    flags.push_back("runtime.events=" + events);
    flags.push_back("json=" + json);
    return sim::run_scenario(*runtime, kv_flags(flags));
  };
  const std::string killed = temp_path("_killed.json");
  ASSERT_EQ(run("kill@3/0,resume@6/0", killed), 0);
  const std::string text = read_file(killed);
  EXPECT_GT(timing_calls_in(text, "journal_append"), 0) << text;
  EXPECT_GT(timing_calls_in(text, "journal_replay"), 0) << text;

  const std::string plain = temp_path("_plain.json");
  ASSERT_EQ(run("", plain), 0);
  const std::string plain_text = read_file(plain);
  EXPECT_EQ(timing_calls_in(plain_text, "journal_append"), 0) << plain_text;
  EXPECT_EQ(timing_calls_in(plain_text, "journal_replay"), 0) << plain_text;

  std::remove(killed.c_str());
  std::remove(plain.c_str());
}

TEST(ObsRegistry, IndexBuildPhaseIsTimedOncePerRefresh) {
  // Appended last, after the journal phases.
  EXPECT_EQ(static_cast<std::size_t>(Phase::kIndexBuild),
            static_cast<std::size_t>(Phase::kJournalReplay) + 1);
  EXPECT_EQ(static_cast<std::size_t>(Phase::kIndexBuild), kPhaseCount - 1);
  EXPECT_STREQ(phase_name(Phase::kIndexBuild), "index_build");

  // Distance negotiations refresh once per side: a side rebuilds its index
  // at most once per full evaluation, never per round.
  const sim::ScenarioPreset* fig4 = sim::find_scenario("fig4");
  ASSERT_NE(fig4, nullptr);
  const std::string json = temp_path("_fig4.json");
  ASSERT_EQ(sim::run_scenario(*fig4, kv_flags({"isps=12", "pairs=3",
                                               "obs.timing=true",
                                               "json=" + json})),
            0);
  const std::string text = read_file(json);
  const long long builds = timing_calls_in(text, "index_build");
  EXPECT_GT(builds, 0) << text;
  EXPECT_LE(builds, timing_calls_in(text, "evaluate_full")) << text;
  EXPECT_LT(builds, timing_calls_in(text, "select_proposal")) << text;
  std::remove(json.c_str());
}

// --- the trace writer ----------------------------------------------------

TEST(ObsTrace, EmitsChromeTraceEventJson) {
  Trace trace;
  EXPECT_TRUE(trace.empty());
  const int track = trace.new_track("pair \"A-B\"");
  trace.complete(track, 3, 1, "accept", "engine",
                 Trace::Args().add("round", 3).add_bool("reassigned", true));
  trace.instant(track, 7, "settle", "engine",
                Trace::Args().add("note", std::string("done")));

  const std::string json = trace.to_json();
  EXPECT_EQ(json,
            "{\"traceEvents\":[\n"
            "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"thread_name\","
            "\"args\":{\"name\":\"pair \\\"A-B\\\"\"}},\n"
            "{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":3,\"dur\":1,"
            "\"name\":\"accept\",\"cat\":\"engine\","
            "\"args\":{\"round\":3,\"reassigned\":true}},\n"
            "{\"ph\":\"i\",\"pid\":0,\"tid\":0,\"ts\":7,\"name\":\"settle\","
            "\"cat\":\"engine\",\"s\":\"t\",\"args\":{\"note\":\"done\"}}\n"
            "],\"displayTimeUnit\":\"ms\"}\n");
  EXPECT_EQ(trace.event_count(), 3u);

  const std::string path = temp_path(".trace.json");
  trace.write(path);
  EXPECT_EQ(read_file(path), json);
  std::remove(path.c_str());
}

TEST(ObsTrace, TracksNumberInCreationOrder) {
  Trace trace;
  EXPECT_EQ(trace.new_track("first"), 0);
  EXPECT_EQ(trace.new_track("second"), 1);
  EXPECT_EQ(trace.new_track("third"), 2);
}

// --- JsonReport: obs/timing sections, cdf percentiles, dup-key guard -----

TEST(ObsJsonReport, ObsAndTimingSectionsAreEmitted) {
  const std::string path = temp_path(".json");
  util::JsonReport record(path, "obs_test");
  record.metric("digest", std::string("abc"));
  record.obs_entry("engine.rounds", 17);
  record.timing_entry("phase.select_proposal.calls",
                      static_cast<std::int64_t>(4));
  record.timing_entry("phase.select_proposal.ms", 0.25);
  record.write();

  const std::string text = read_file(path);
  EXPECT_NE(text.find("\"obs\": {"), std::string::npos) << text;
  EXPECT_NE(text.find("\"engine.rounds\": 17"), std::string::npos) << text;
  EXPECT_NE(text.find("\"timing\": {"), std::string::npos) << text;
  EXPECT_NE(text.find("\"phase.select_proposal.calls\": 4"), std::string::npos)
      << text;
  std::remove(path.c_str());
}

TEST(ObsJsonReport, PerPointObsSectionsRideNextToPointMetrics) {
  const std::string path = temp_path(".json");
  util::JsonReport record(path, "obs_test");
  record.begin_point("isps=10");
  record.metric("digest", std::string("p0"));
  record.obs_entry("engine.negotiations", 3);
  record.begin_point("isps=20");
  record.metric("digest", std::string("p1"));
  record.obs_entry("engine.negotiations", 5);
  record.end_points();
  record.metric("digest", std::string("overall"));
  record.write();

  const std::string text = read_file(path);
  EXPECT_NE(text.find("\"engine.negotiations\": 3"), std::string::npos) << text;
  EXPECT_NE(text.find("\"engine.negotiations\": 5"), std::string::npos) << text;
  // Point order is preserved, and each obs object sits in its own point.
  EXPECT_LT(text.find("\"engine.negotiations\": 3"),
            text.find("\"engine.negotiations\": 5"));
  EXPECT_LT(text.find("\"p1\""), text.find("\"engine.negotiations\": 5"));
  std::remove(path.c_str());
}

TEST(ObsJsonReport, MetricCdfReportsTailPercentiles) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(static_cast<double>(i));
  const util::Cdf cdf(xs);

  const std::string path = temp_path(".json");
  util::JsonReport record(path, "obs_test");
  record.metric_cdf("lat", cdf);
  record.write();

  const std::string text = read_file(path);
  for (const char* key :
       {"\"lat.n\"", "\"lat.min\"", "\"lat.p5\"", "\"lat.p25\"", "\"lat.p50\"",
        "\"lat.p75\"", "\"lat.p90\"", "\"lat.p99\"", "\"lat.max\""}) {
    EXPECT_NE(text.find(key), std::string::npos) << key << " missing: " << text;
  }
  // p5/p90/p99 come from Cdf::value_at on the sorted sample.
  EXPECT_NE(text.find("\"lat.min\": 1"), std::string::npos) << text;
  EXPECT_NE(text.find("\"lat.max\": 100"), std::string::npos) << text;
  std::remove(path.c_str());
}

using ObsJsonReportDeath = ::testing::Test;

TEST(ObsJsonReportDeath, DuplicateKeyInASectionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = temp_path(".json");
  EXPECT_EXIT(
      {
        util::JsonReport record(path, "obs_test");
        record.metric("digest", std::string("x"));
        record.metric("digest", std::string("y"));
      },
      ::testing::ExitedWithCode(2), "duplicate key \"digest\"");
  EXPECT_EXIT(
      {
        util::JsonReport record(path, "obs_test");
        record.obs_entry("engine.rounds", 1);
        record.obs_entry("engine.rounds", 2);
      },
      ::testing::ExitedWithCode(2), "duplicate key \"engine.rounds\"");
  // Same key in different sections is fine.
  util::JsonReport record(path, "obs_test");
  record.config("threads", static_cast<std::int64_t>(2));
  record.metric("threads", static_cast<std::int64_t>(2));
  record.write();
  std::remove(path.c_str());
}

// --- end-to-end scenario contracts ---------------------------------------

TEST(ObsScenario, EngineTraceAndObsSectionAreThreadCountInvariant) {
  const sim::ScenarioPreset* fig7 = sim::find_scenario("fig7");
  ASSERT_NE(fig7, nullptr);

  const std::string trace1 = temp_path("_t1.trace.json");
  const std::string json1 = temp_path("_t1.json");
  ASSERT_EQ(sim::run_scenario(
                *fig7, kv_flags({"isps=8", "pairs=4", "threads=1",
                                 "trace=" + trace1, "json=" + json1})),
            0);

  const std::string trace4 = temp_path("_t4.trace.json");
  const std::string json4 = temp_path("_t4.json");
  ASSERT_EQ(sim::run_scenario(
                *fig7, kv_flags({"isps=8", "pairs=4", "threads=4",
                                 "trace=" + trace4, "json=" + json4})),
            0);

  const std::string bytes1 = read_file(trace1);
  ASSERT_FALSE(bytes1.empty());
  EXPECT_NE(bytes1.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(bytes1.find("\"cat\":\"engine\""), std::string::npos);
  EXPECT_EQ(bytes1, read_file(trace4)) << "trace differs across --threads";

  const std::string obs1 = obs_section_in(json1);
  ASSERT_FALSE(obs1.empty());
  EXPECT_NE(obs1.find("\"engine.negotiations\""), std::string::npos) << obs1;
  EXPECT_NE(obs1.find("\"engine.rounds_per_negotiation.count\""),
            std::string::npos)
      << obs1;
  EXPECT_EQ(obs1, obs_section_in(json4)) << "obs section differs";
  EXPECT_EQ(digest_in(json1), digest_in(json4));

  for (const std::string& p : {trace1, json1, trace4, json4})
    std::remove(p.c_str());
}

TEST(ObsScenario, RuntimeTimelineTraceIsThreadCountInvariant) {
  const sim::ScenarioPreset* churn = sim::find_scenario("runtime_churn");
  ASSERT_NE(churn, nullptr);

  const std::string trace1 = temp_path("_t1.trace.json");
  const std::string json1 = temp_path("_t1.json");
  ASSERT_EQ(sim::run_scenario(*churn, kv_flags({"threads=1", "trace=" + trace1,
                                                "json=" + json1})),
            0);

  const std::string trace4 = temp_path("_t4.trace.json");
  const std::string json4 = temp_path("_t4.json");
  ASSERT_EQ(sim::run_scenario(*churn, kv_flags({"threads=4", "trace=" + trace4,
                                                "json=" + json4})),
            0);

  const std::string bytes1 = read_file(trace1);
  ASSERT_FALSE(bytes1.empty());
  // The declared timeline and the per-session tracks are all present.
  EXPECT_NE(bytes1.find("\"timeline\""), std::string::npos);
  EXPECT_NE(bytes1.find("\"cat\":\"runtime\""), std::string::npos);
  EXPECT_NE(bytes1.find("session 0 "), std::string::npos);
  EXPECT_EQ(bytes1, read_file(trace4)) << "trace differs across --threads";

  const std::string obs1 = obs_section_in(json1);
  ASSERT_FALSE(obs1.empty());
  EXPECT_NE(obs1.find("\"runtime.sessions\""), std::string::npos) << obs1;
  EXPECT_NE(obs1.find("\"runtime.messages\""), std::string::npos) << obs1;
  EXPECT_EQ(obs1, obs_section_in(json4)) << "obs section differs";
  EXPECT_EQ(digest_in(json1), digest_in(json4));

  for (const std::string& p : {trace1, json1, trace4, json4})
    std::remove(p.c_str());
}

TEST(ObsScenario, TimingSectionAppearsOnlyWhenAsked) {
  const sim::ScenarioPreset* fig7 = sim::find_scenario("fig7");
  ASSERT_NE(fig7, nullptr);

  const std::string off_json = temp_path("_off.json");
  ASSERT_EQ(sim::run_scenario(*fig7, kv_flags({"isps=8", "pairs=2",
                                               "json=" + off_json})),
            0);
  EXPECT_EQ(read_file(off_json).find("\"timing\""), std::string::npos);

  const std::string on_json = temp_path("_on.json");
  ASSERT_EQ(sim::run_scenario(*fig7,
                              kv_flags({"isps=8", "pairs=2", "obs.timing=true",
                                        "json=" + on_json})),
            0);
  const std::string text = read_file(on_json);
  EXPECT_NE(text.find("\"timing\": {"), std::string::npos) << text;
  EXPECT_NE(text.find("\"phase.select_proposal.calls\""), std::string::npos)
      << text;
  EXPECT_NE(text.find("\"phase.evaluate_full.ms\""), std::string::npos) << text;
  // Timing must never contaminate the deterministic outcome.
  EXPECT_EQ(digest_in(on_json), digest_in(off_json));

  std::remove(off_json.c_str());
  std::remove(on_json.c_str());
}

TEST(ObsScenario, DisabledObservabilityReproducesTheBenchDigest) {
  // The zero-overhead contract: with the obs layer compiled in but tracing
  // and timing off, fig7 at these parameters reproduces its pinned digest
  // bit-for-bit.
  const sim::ScenarioPreset* fig7 = sim::find_scenario("fig7");
  ASSERT_NE(fig7, nullptr);
  const std::string json = temp_path(".json");
  ASSERT_EQ(sim::run_scenario(
                *fig7, kv_flags({"isps=16", "pairs=6", "threads=2",
                                 "json=" + json})),
            0);
  EXPECT_EQ(digest_in(json), "5426f0dd8260e15a");
  std::remove(json.c_str());
}

}  // namespace
}  // namespace nexit::obs
