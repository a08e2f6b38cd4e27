// Durable negotiation (runtime/snapshot + proto/snapshot_messages): the
// checkpoint/WAL wire format round-trips and refuses version skew; and the
// headline crash-recovery contract — a session killed at ANY virtual tick
// and resumed later produces the same outcome, per-session counters, and
// obs snapshot as an uninterrupted run — pinned by an exhaustive kill-point
// sweep plus randomized kill/resume interleavings. Corrupt or truncated
// logs must fail restore cleanly (fresh negotiation, counted in obs),
// never resume as wrong data; a schema-version mismatch must refuse
// loudly (exit 2), because silently renegotiating would mask a deployment
// error. The golden fixture under tests/fixtures/ freezes the v1 bytes.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "metrics/metrics.hpp"
#include "obs/registry.hpp"
#include "proto/frame.hpp"
#include "proto/snapshot_messages.hpp"
#include "runtime/scenario.hpp"
#include "runtime/session.hpp"
#include "runtime/snapshot.hpp"
#include "test_digest.hpp"

namespace nexit::runtime {
namespace {

using nexit::testing::expect_reports_equal;
using nexit::testing::read_file;
using nexit::testing::temp_path;

// --- proto round trips -------------------------------------------------------

proto::SnapshotCheckpoint sample_checkpoint() {
  proto::SnapshotCheckpoint cp;
  cp.session = 3;
  cp.status = static_cast<std::uint8_t>(SessionStatus::kRunning);
  cp.attempts = 2;
  cp.retries_used = 1;
  cp.steps = 17;
  cp.messages = 23;
  cp.timeouts = 1;
  cp.started_at = 4;
  cp.attempt_began = 9;
  return cp;
}

proto::SnapshotWalEvent sample_wal_event() {
  proto::SnapshotWalEvent ev;
  ev.kind = static_cast<std::uint8_t>(proto::WalEventKind::kPump);
  ev.tick = 11;
  ev.pre_status = static_cast<std::uint8_t>(SessionStatus::kRunning);
  ev.pre_attempts = 2;
  ev.pre_retries = 1;
  ev.pre_steps = 17;
  ev.pre_messages = 23;
  ev.pre_timeouts = 1;
  ev.mark.live = 1;
  ev.mark.state_a = 2;
  ev.mark.state_b = 3;
  ev.mark.round = 5;
  ev.mark.remaining = 2;
  ev.mark.disclosed_gain_a = 7;
  ev.mark.disclosed_gain_b = -2;
  ev.mark.true_gain_a = 1.25;
  ev.mark.pending_moves = 1;
  ev.mark.pending_settles = 0;
  ev.mark.assignment = {0, 2, 1};
  return ev;
}

TEST(SnapshotProto, CheckpointRoundTrips) {
  const proto::SnapshotCheckpoint cp = sample_checkpoint();
  const auto decoded =
      proto::decode_snapshot_checkpoint(proto::encode_snapshot_checkpoint(cp));
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  EXPECT_EQ(decoded.value(), cp);
}

TEST(SnapshotProto, WalEventRoundTrips) {
  const proto::SnapshotWalEvent ev = sample_wal_event();
  const auto decoded =
      proto::decode_snapshot_wal_event(proto::encode_snapshot_wal_event(ev));
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  EXPECT_EQ(decoded.value(), ev);

  proto::SnapshotWalEvent cancel;
  cancel.kind = static_cast<std::uint8_t>(proto::WalEventKind::kCancel);
  cancel.tick = 8;
  cancel.note = "link failed";
  const auto dec2 =
      proto::decode_snapshot_wal_event(proto::encode_snapshot_wal_event(cancel));
  ASSERT_TRUE(dec2.ok());
  EXPECT_EQ(dec2.value(), cancel);
}

TEST(SnapshotProto, VersionMismatchIsDistinguishedFromCorruption) {
  proto::SnapshotCheckpoint cp = sample_checkpoint();
  cp.version = proto::kSnapshotVersion + 1;
  const auto decoded =
      proto::decode_snapshot_checkpoint(proto::encode_snapshot_checkpoint(cp));
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.error().message.starts_with("snapshot version mismatch"))
      << decoded.error().message;
}

TEST(SnapshotProto, WrongFrameTypeIsRejected) {
  proto::Frame f = proto::encode_snapshot_checkpoint(sample_checkpoint());
  f.type =
      static_cast<std::uint8_t>(proto::SnapshotMessageType::kSnapshotWalEvent);
  EXPECT_FALSE(proto::decode_snapshot_checkpoint(f).ok());
  proto::Frame w = proto::encode_snapshot_wal_event(sample_wal_event());
  w.type =
      static_cast<std::uint8_t>(proto::SnapshotMessageType::kSnapshotCheckpoint);
  EXPECT_FALSE(proto::decode_snapshot_wal_event(w).ok());
}

TEST(SnapshotProto, TruncatedPayloadFailsCleanly) {
  proto::Frame f = proto::encode_snapshot_wal_event(sample_wal_event());
  for (std::size_t keep = 0; keep < f.payload.size(); ++keep) {
    proto::Frame cut = f;
    cut.payload.resize(keep);
    EXPECT_FALSE(proto::decode_snapshot_wal_event(cut).ok()) << keep;
  }
}

// --- journal bookkeeping -----------------------------------------------------

TEST(SessionJournal, CheckpointSupersedesTheWal) {
  SessionJournal j(7, "");
  proto::SnapshotCheckpoint cp = sample_checkpoint();
  cp.session = 7;
  j.write_checkpoint(cp);
  j.append_event(sample_wal_event());
  j.append_event(sample_wal_event());
  EXPECT_EQ(j.checkpoints(), 1u);
  EXPECT_EQ(j.wal_events(), 2u);
  EXPECT_FALSE(j.wal_bytes().empty());

  cp.attempts = 3;  // retry boundary: nothing before it is needed anymore
  j.write_checkpoint(cp);
  EXPECT_EQ(j.checkpoints(), 2u);
  EXPECT_EQ(j.wal_events(), 0u);
  EXPECT_TRUE(j.wal_bytes().empty());
}

TEST(SessionJournalFiles, MirrorsBytesToDisk) {
  const std::string dir = temp_path("_journal");
  SessionJournal j(5, dir);
  proto::SnapshotCheckpoint cp = sample_checkpoint();
  cp.session = 5;
  j.write_checkpoint(cp);
  j.append_event(sample_wal_event());

  const std::string snap = read_file(dir + "/session_5.snap");
  const std::string wal = read_file(dir + "/session_5.wal");
  ASSERT_EQ(snap.size(), j.snapshot_bytes().size());
  ASSERT_EQ(wal.size(), j.wal_bytes().size());
  EXPECT_TRUE(std::equal(j.snapshot_bytes().begin(), j.snapshot_bytes().end(),
                         reinterpret_cast<const std::uint8_t*>(snap.data())));
  EXPECT_TRUE(std::equal(j.wal_bytes().begin(), j.wal_bytes().end(),
                         reinterpret_cast<const std::uint8_t*>(wal.data())));
}

// --- crash-resume: the durability contract -----------------------------------

ScenarioConfig crash_config() {
  ScenarioConfig cfg;
  cfg.universe.isp_count = 20;
  cfg.universe.seed = 5;
  cfg.universe.max_pairs = 4;
  cfg.min_links = 2;
  cfg.seed = 11;
  cfg.start_stagger = 2;
  // Small pump bursts stretch negotiations over many ticks, so kill points
  // land at every interesting phase (handshake, mid-round, settlement).
  cfg.limits.max_steps_per_pump = 2;
  return cfg;
}

ScenarioReport run_with_events(ScenarioConfig cfg,
                               std::vector<ScenarioEvent> events,
                               std::size_t threads = 1) {
  cfg.events = std::move(events);
  cfg.runtime.threads = threads;
  return run_scenario(std::move(cfg));
}

TEST(CrashResume, KillWithoutResumeFreezesTheSession) {
  obs::Registry::global().reset_counters();
  const ScenarioReport report =
      run_with_events(crash_config(), {{3, EventKind::kKill, 0, 0}});
  EXPECT_EQ(report.sessions[0].status, SessionStatus::kKilled);
  EXPECT_EQ(report.stats.killed, 1u);
  bool counted = false;
  for (const auto& c : obs::Registry::global().snapshot().counters)
    if (c.name == "runtime.sessions_killed") counted = c.value == 1;
  EXPECT_TRUE(counted);
  // The other sessions are untouched.
  for (std::size_t i = 1; i < report.sessions.size(); ++i)
    EXPECT_EQ(report.sessions[i].status, SessionStatus::kDone) << i;
}

// The headline invariant, exhaustively: kill the target session at EVERY
// virtual tick the uninterrupted run passes through (plus a margin past the
// end), resume a few ticks later, and require the full report — every
// session's status, counters, start/finish ticks, and outcome — to be
// bit-identical to the uninterrupted run's.
TEST(CrashResume, ExhaustiveKillPointSweepMatchesUninterrupted) {
  const ScenarioConfig base = crash_config();
  Scenario probe(base);
  const ScenarioReport uninterrupted = probe.run();
  for (const auto& s : uninterrupted.sessions)
    ASSERT_EQ(s.status, SessionStatus::kDone) << s.error;
  const Tick horizon = probe.manager().now() + 2;

  for (std::uint32_t session = 0; session < uninterrupted.sessions.size();
       ++session) {
    for (Tick t = 0; t <= horizon; ++t) {
      const ScenarioReport resumed =
          run_with_events(base, {{t, EventKind::kKill, session, 0},
                                 {t + 2, EventKind::kResume, session, 0}});
      SCOPED_TRACE("kill@" + std::to_string(t) + "/" +
                   std::to_string(session));
      expect_reports_equal(uninterrupted, resumed);
    }
  }
}

TEST(CrashResume, KillPointSweepHoldsAcrossThreadCounts) {
  const ScenarioConfig base = crash_config();
  Scenario probe(base);
  const ScenarioReport uninterrupted = probe.run();
  const Tick horizon = probe.manager().now() + 2;
  for (Tick t = 0; t <= horizon; ++t) {
    const ScenarioReport resumed =
        run_with_events(base, {{t, EventKind::kKill, 1, 0},
                               {t + 3, EventKind::kResume, 1, 0}},
                        /*threads=*/4);
    SCOPED_TRACE("kill@" + std::to_string(t) + "/1 --threads=4");
    expect_reports_equal(uninterrupted, resumed);
  }
}

// 200 randomized interleavings: several sessions each killed and resumed
// (possibly repeatedly) at random ticks with random downtimes. Alternation
// is enforced by construction — each session's next kill starts at or
// after its previous resume.
TEST(CrashResume, RandomizedKillResumeInterleavingsMatchUninterrupted) {
  const ScenarioConfig base = crash_config();
  const ScenarioReport uninterrupted = run_scenario(base);
  const auto sessions =
      static_cast<std::uint32_t>(uninterrupted.sessions.size());

  std::mt19937 rng(777);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<ScenarioEvent> events;
    std::vector<Tick> next_free(sessions, 0);
    const int cycles = 1 + static_cast<int>(rng() % 4);
    for (int c = 0; c < cycles; ++c) {
      const std::uint32_t s = rng() % sessions;
      const Tick kill_at = next_free[s] + rng() % 8;
      const Tick resume_at = kill_at + 1 + rng() % 5;
      events.push_back({kill_at, EventKind::kKill, s, 0});
      events.push_back({resume_at, EventKind::kResume, s, 0});
      next_free[s] = resume_at;
    }
    const std::size_t threads = 1 + (trial % 2) * 3;  // alternate 1 and 4
    const ScenarioReport resumed =
        run_with_events(base, std::move(events), threads);
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_reports_equal(uninterrupted, resumed);
  }
}

// Journaling is pure record-keeping, and restore is exact for everyone at
// once: forcing the journal on without a single kill, and killing every
// session two ticks after its staggered start (resumed two ticks later),
// must both reproduce the journal-free run.
TEST(CrashResume, ForcedJournalAndKillingEverySessionMatchPlainRun) {
  const ScenarioConfig base = crash_config();
  const ScenarioReport plain = run_scenario(base);
  for (const auto& s : plain.sessions) {
    ASSERT_EQ(s.status, SessionStatus::kDone) << s.error;
    // Still negotiating when its kill lands (a kill after the finish is a
    // no-op and would test nothing).
    ASSERT_GT(s.finished_at, s.started_at + 2) << "session " << s.id;
  }

  ScenarioConfig journaled = base;
  journaled.durability.journal = true;
  expect_reports_equal(plain, run_scenario(journaled));

  std::vector<ScenarioEvent> events;
  for (const auto& s : plain.sessions) {
    events.push_back({s.started_at + 2, EventKind::kKill, s.id, 0});
    events.push_back({s.started_at + 4, EventKind::kResume, s.id, 0});
  }
  const ScenarioReport resumed = run_with_events(base, std::move(events));
  EXPECT_EQ(resumed.stats.killed, 0u);
  EXPECT_EQ(resumed.stats.done, plain.sessions.size());
  expect_reports_equal(plain, resumed);
}

TEST(CrashResume, ObsCountersEqualUninterrupted) {
  // The obs snapshot is part of the JSON record, so the durability
  // contract extends to it: a healthy kill/resume cycle adds no counters.
  const ScenarioConfig base = crash_config();
  obs::Registry::global().reset_counters();
  (void)run_scenario(base);
  const obs::Snapshot plain = obs::Registry::global().snapshot();

  obs::Registry::global().reset_counters();
  (void)run_with_events(base, {{3, EventKind::kKill, 0, 0},
                               {7, EventKind::kResume, 0, 0}});
  const obs::Snapshot resumed = obs::Registry::global().snapshot();

  ASSERT_EQ(plain.counters.size(), resumed.counters.size());
  for (std::size_t i = 0; i < plain.counters.size(); ++i) {
    EXPECT_EQ(plain.counters[i].name, resumed.counters[i].name);
    EXPECT_EQ(plain.counters[i].value, resumed.counters[i].value)
        << plain.counters[i].name;
  }
}

// The paper's no-loss property over the wire, under adversity: with lossy
// or corrupting transports and seeded kill/resume cycles, every session
// that completes leaves both ISPs at or below their default flow-km inside
// their own network.
TEST(CrashResume, CompletedSessionsAreNoLossUnderFaultsAndKills) {
  std::mt19937 rng(2024);
  std::size_t done = 0, failed = 0, retried = 0;
  for (int trial = 0; trial < 8; ++trial) {
    ScenarioConfig cfg = crash_config();
    cfg.seed = 11 + static_cast<std::uint64_t>(trial);
    cfg.faults = trial % 2 == 0 ? FaultConfig{0.01, 0.0} : FaultConfig{0.0, 0.01};
    cfg.limits.max_attempts = 5;
    for (std::uint32_t s = 0; s < 4; ++s) {
      const Tick kill_at = rng() % 24;
      cfg.events.push_back({kill_at, EventKind::kKill, s, 0});
      cfg.events.push_back({kill_at + 1 + rng() % 5, EventKind::kResume, s, 0});
    }
    Scenario scenario(cfg);
    const ScenarioReport report = scenario.run();
    for (const ScenarioSessionResult& s : report.sessions) {
      retried += s.attempts > 1 ? 1 : 0;
      if (s.status != SessionStatus::kDone) {
        ++failed;
        continue;
      }
      ++done;
      const SessionWorld& w = scenario.world_of(s.id);
      for (int side = 0; side < 2; ++side) {
        const double def = metrics::side_flow_km(
            *w.base->routing, w.traffic.flows(), w.problem.default_assignment,
            side);
        const double neg = metrics::side_flow_km(
            *w.base->routing, w.traffic.flows(), s.outcome.assignment, side);
        EXPECT_LE(neg, def + 1e-6)
            << "trial " << trial << " session " << s.id << " side " << side;
      }
    }
  }
  EXPECT_GT(done, 0u);
  EXPECT_GT(retried + failed, 0u);  // the faults did bite
}

TEST(CrashResume, CorruptJournalFallsBackToFreshNegotiationInRun) {
  // Corrupt the killed session's snapshot between kill and resume: the
  // resume must refuse the log (never resume wrong data), count a restore
  // failure in obs, and renegotiate from scratch to the same assignment.
  const ScenarioConfig base = crash_config();
  const ScenarioReport uninterrupted = run_scenario(base);

  ScenarioConfig cfg = base;
  cfg.events = {{3, EventKind::kKill, 0, 0}, {6, EventKind::kResume, 0, 0}};
  Scenario scenario(cfg);
  scenario.manager().at(4, [&scenario](Tick) {
    SessionJournal& j = scenario.snapshot_store()->journal(0);
    proto::Bytes snap = j.snapshot_bytes();
    ASSERT_FALSE(snap.empty());
    snap[snap.size() / 2] ^= 0x40;  // payload bit flip: CRC must catch it
    j.load(std::move(snap), j.wal_bytes());
  });
  obs::Registry::global().reset_counters();
  const ScenarioReport report = scenario.run();

  ASSERT_EQ(report.sessions[0].status, SessionStatus::kDone)
      << report.sessions[0].error;
  EXPECT_EQ(report.sessions[0].outcome.assignment.ix_of_flow,
            uninterrupted.sessions[0].outcome.assignment.ix_of_flow);
  bool counted = false;
  for (const auto& c : obs::Registry::global().snapshot().counters)
    if (c.name == "runtime.restore_failures") counted = c.value == 1;
  EXPECT_TRUE(counted);
}

/// Byte length of the frame starting at `off` (header + payload + crc), so
/// tests can cut a WAL at a frame boundary without a decoder.
std::size_t frame_size_at(const proto::Bytes& b, std::size_t off) {
  const std::size_t len =
      b[off + 4] | (b[off + 5] << 8) | (b[off + 6] << 16) |
      (static_cast<std::size_t>(b[off + 7]) << 24);
  return 8 + len + 4;
}

TEST(CrashResume, CleanTruncatedWalTailStillResumesOnTrajectory) {
  // Dropping whole trailing WAL frames is lost work, not corruption: the
  // replayed prefix is a state the uninterrupted run passed through, so
  // the session must still converge to the identical assignment.
  const ScenarioConfig base = crash_config();
  const ScenarioReport uninterrupted = run_scenario(base);

  ScenarioConfig cfg = base;
  cfg.events = {{5, EventKind::kKill, 0, 0}, {9, EventKind::kResume, 0, 0}};
  Scenario scenario(cfg);
  scenario.manager().at(6, [&scenario](Tick) {
    SessionJournal& j = scenario.snapshot_store()->journal(0);
    const proto::Bytes& wal = j.wal_bytes();
    if (wal.empty()) return;  // killed before any WAL record: nothing to cut
    proto::Bytes cut(
        wal.begin(),
        wal.begin() + static_cast<std::ptrdiff_t>(frame_size_at(wal, 0)));
    j.load(j.snapshot_bytes(), std::move(cut));
  });
  const ScenarioReport report = scenario.run();

  ASSERT_EQ(report.sessions[0].status, SessionStatus::kDone)
      << report.sessions[0].error;
  EXPECT_EQ(report.sessions[0].outcome.assignment.ix_of_flow,
            uninterrupted.sessions[0].outcome.assignment.ix_of_flow);
}

TEST(CrashResume, TruncatedCheckpointFailsRestoreCleanly) {
  // A WAL tail cut is lost work (see CleanTruncatedWalTail... above), but
  // the checkpoint is load-bearing: cutting inside its frame leaves restore
  // nothing trustworthy to rebuild from, so it must fall back to a fresh
  // negotiation — never apply a half-read record.
  const ScenarioConfig base = crash_config();
  const ScenarioReport uninterrupted = run_scenario(base);

  ScenarioConfig cfg = base;
  cfg.events = {{5, EventKind::kKill, 0, 0}, {9, EventKind::kResume, 0, 0}};
  Scenario scenario(cfg);
  bool cut_happened = false;
  scenario.manager().at(6, [&scenario, &cut_happened](Tick) {
    SessionJournal& j = scenario.snapshot_store()->journal(0);
    const proto::Bytes& snap = j.snapshot_bytes();
    if (snap.size() < 12) return;
    proto::Bytes cut(snap.begin(), snap.end() - 3);
    j.load(std::move(cut), proto::Bytes(j.wal_bytes()));
    cut_happened = true;
  });
  obs::Registry::global().reset_counters();
  const ScenarioReport report = scenario.run();

  ASSERT_EQ(report.sessions[0].status, SessionStatus::kDone)
      << report.sessions[0].error;
  EXPECT_EQ(report.sessions[0].outcome.assignment.ix_of_flow,
            uninterrupted.sessions[0].outcome.assignment.ix_of_flow);
  if (cut_happened) {
    bool counted = false;
    for (const auto& c : obs::Registry::global().snapshot().counters)
      if (c.name == "runtime.restore_failures") counted = c.value == 1;
    EXPECT_TRUE(counted);
  }
}

// --- golden fixture: the frozen v1 bytes -------------------------------------

proto::Bytes fixture_bytes() {
  // __FILE__ is the absolute source path under CMake, so the fixture
  // resolves regardless of the ctest working directory.
  const std::string here = __FILE__;
  const std::string dir = here.substr(0, here.rfind('/'));
  const std::string blob = read_file(dir + "/fixtures/session_snapshot_v1.bin");
  return proto::Bytes(blob.begin(), blob.end());
}

TEST(SnapshotFixture, GoldenBytesDecodeAndReencodeBitExact) {
  // The committed blob is checkpoint frame + one pump WAL record + one kill
  // WAL record, exactly as sample_checkpoint()/sample_wal_event() describe.
  // If this test fails after an intentional schema change, bump
  // kSnapshotVersion and regenerate the fixture (docs/ARCHITECTURE.md
  // § Durability has the recipe).
  const proto::Bytes blob = fixture_bytes();
  ASSERT_FALSE(blob.empty()) << "fixture missing: run tests from the repo root";

  proto::Bytes expected;
  const auto append = [&expected](const proto::Frame& f) {
    const proto::Bytes b = proto::encode_frame(f);
    expected.insert(expected.end(), b.begin(), b.end());
  };
  append(proto::encode_snapshot_checkpoint(sample_checkpoint()));
  append(proto::encode_snapshot_wal_event(sample_wal_event()));
  proto::SnapshotWalEvent kill = sample_wal_event();
  kill.kind = static_cast<std::uint8_t>(proto::WalEventKind::kKill);
  kill.tick = 13;
  append(proto::encode_snapshot_wal_event(kill));
  EXPECT_EQ(blob, expected) << "encoder output drifted from the v1 fixture";

  // And the bytes decode back to the pinned values.
  proto::FrameDecoder d;
  d.feed(blob);
  const auto cp_frame = d.next();
  ASSERT_TRUE(cp_frame.has_value());
  const auto cp = proto::decode_snapshot_checkpoint(*cp_frame);
  ASSERT_TRUE(cp.ok()) << cp.error().message;
  EXPECT_EQ(cp.value(), sample_checkpoint());
  const auto ev_frame = d.next();
  ASSERT_TRUE(ev_frame.has_value());
  const auto ev = proto::decode_snapshot_wal_event(*ev_frame);
  ASSERT_TRUE(ev.ok()) << ev.error().message;
  EXPECT_EQ(ev.value(), sample_wal_event());
  const auto kill_frame = d.next();
  ASSERT_TRUE(kill_frame.has_value());
  const auto kv = proto::decode_snapshot_wal_event(*kill_frame);
  ASSERT_TRUE(kv.ok());
  EXPECT_EQ(kv.value(), kill);
  EXPECT_FALSE(d.next().has_value());
  EXPECT_FALSE(d.failed());
}

/// Kills session 0, hands it a journal stamped with a future schema
/// version, and resumes: restore must exit(2) with the distinguished
/// message (the death test below pins that).
void resume_with_future_schema() {
  ScenarioConfig cfg = crash_config();
  cfg.events = {{3, EventKind::kKill, 0, 0}};
  Scenario scenario(cfg);
  (void)scenario.run();
  proto::SnapshotCheckpoint cp = sample_checkpoint();
  cp.session = 0;
  cp.version = proto::kSnapshotVersion + 1;
  SessionJournal& j = scenario.snapshot_store()->journal(0);
  j.load(proto::encode_frame(proto::encode_snapshot_checkpoint(cp)), {});
  std::string why;
  (void)scenario.manager().session(0).resume(scenario.manager().now() + 1, 0,
                                             &why);
}

TEST(SnapshotDeathTest, VersionMismatchRefusesLoudly) {
  // A journal written by a future schema must stop the run with a clear
  // error, not silently renegotiate: restore calls std::exit(2).
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(resume_with_future_schema(), ::testing::ExitedWithCode(2),
              "snapshot version mismatch");
}

}  // namespace
}  // namespace nexit::runtime
