#include "runtime/snapshot.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>

#include "obs/registry.hpp"
#include "proto/frame.hpp"
#include "runtime/session.hpp"

namespace nexit::runtime {

// ---------------------------------------------------------------------------
// SessionJournal / SnapshotStore

SessionJournal::SessionJournal(std::uint32_t id, std::string dir)
    : id_(id), dir_(std::move(dir)) {
  if (!dir_.empty()) std::filesystem::create_directories(dir_);
}

void SessionJournal::write_checkpoint(const proto::SnapshotCheckpoint& cp) {
  const obs::PhaseTimer timer(obs::Phase::kJournalAppend);
  snap_ = proto::encode_frame(proto::encode_snapshot_checkpoint(cp));
  wal_.clear();
  wal_events_ = 0;
  ++checkpoints_;
  mirror(".snap", snap_.data(), snap_.size(), /*append=*/false);
  mirror(".wal", wal_.data(), wal_.size(), /*append=*/false);
}

void SessionJournal::append_event(const proto::SnapshotWalEvent& ev) {
  const obs::PhaseTimer timer(obs::Phase::kJournalAppend);
  const proto::Frame frame = proto::encode_snapshot_wal_event(ev);
  const std::size_t start = wal_.size();
  proto::append_frame(wal_, frame.type, frame.payload);
  ++wal_events_;
  mirror(".wal", wal_.data() + start, wal_.size() - start, /*append=*/true);
}

void SessionJournal::load(proto::Bytes snap, proto::Bytes wal) {
  snap_ = std::move(snap);
  wal_ = std::move(wal);
  wal_events_ = 0;  // unknown: the bytes came from outside
  mirror(".snap", snap_.data(), snap_.size(), /*append=*/false);
  mirror(".wal", wal_.data(), wal_.size(), /*append=*/false);
}

void SessionJournal::mirror(const std::string& suffix, const std::uint8_t* data,
                            std::size_t size, bool append) const {
  if (dir_.empty()) return;
  const std::string path =
      dir_ + "/session_" + std::to_string(id_) + suffix;
  std::ofstream out(path, append
                              ? std::ios::binary | std::ios::app
                              : std::ios::binary | std::ios::trunc);
  if (!out) return;  // best-effort mirror; the in-memory copy stays
                     // authoritative for restore
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(size));
}

SnapshotStore::SnapshotStore(std::string dir) : dir_(std::move(dir)) {}

SessionJournal& SnapshotStore::journal(std::uint32_t id) {
  auto it = journals_.find(id);
  if (it == journals_.end())
    it = journals_
             .emplace(id, std::make_unique<SessionJournal>(id, dir_))
             .first;
  return *it->second;
}

const SessionJournal* SnapshotStore::find(std::uint32_t id) const {
  const auto it = journals_.find(id);
  return it == journals_.end() ? nullptr : it->second.get();
}

// ---------------------------------------------------------------------------
// Session durability members (declared in runtime/session.hpp; the
// replay machinery lives here to keep session.cpp focused on lifecycle).

proto::SnapshotNegotiationMark Session::negotiation_mark() const {
  proto::SnapshotNegotiationMark m;
  if (agent_a_ == nullptr) return m;
  m.live = 1;
  m.state_a = static_cast<std::uint8_t>(agent_a_->state());
  m.state_b = static_cast<std::uint8_t>(agent_b_->state());
  const core::NegotiationSide& side = agent_a_->side();
  m.round = side.round();
  m.remaining = side.remaining_count();
  m.disclosed_gain_a = side.disclosed_gain(0);
  m.disclosed_gain_b = side.disclosed_gain(1);
  m.true_gain_a = side.true_gain();
  m.pending_moves = side.pending_delta().moves.size();
  m.pending_settles = side.pending_delta().settled_positions.size();
  m.flows = side.tentative().ix_of_flow.size();
  return m;
}

void Session::journal_checkpoint() {
  if (journal_ == nullptr) return;
  proto::SnapshotCheckpoint cp;
  cp.session = id_;
  cp.status = static_cast<std::uint8_t>(status_);
  cp.attempts = static_cast<std::uint32_t>(attempts_);
  cp.retries_used = static_cast<std::uint32_t>(retries_used_);
  cp.steps = steps_;
  cp.messages = messages_;
  cp.timeouts = timeouts_;
  cp.started_at = started_at_;
  cp.attempt_began = attempt_began_;
  journal_->write_checkpoint(cp);
  wal_baseline_ = problem_.default_assignment.ix_of_flow;
}

void Session::journal_event(proto::WalEventKind kind, Tick sess_now,
                            const std::string& note) {
  if (journal_ == nullptr || journal_->snapshot_bytes().empty()) return;
  proto::SnapshotWalEvent ev;
  ev.kind = static_cast<std::uint8_t>(kind);
  ev.tick = sess_now;
  ev.pre_status = static_cast<std::uint8_t>(status_);
  ev.pre_attempts = static_cast<std::uint32_t>(attempts_);
  ev.pre_retries = static_cast<std::uint32_t>(retries_used_);
  ev.pre_steps = steps_;
  ev.pre_messages = messages_;
  ev.pre_timeouts = timeouts_;
  ev.mark = negotiation_mark();
  if (ev.mark.live != 0) {
    // Diff against the assignment the previous record left: only the
    // flows that moved since then go into the log. Most records move
    // nothing, so unchanged blocks are skipped with one memcmp each.
    const std::vector<std::size_t>& ix = agent_a_->side().tentative().ix_of_flow;
    constexpr std::size_t kBlock = 64;
    for (std::size_t lo = 0; lo < ix.size(); lo += kBlock) {
      const std::size_t hi = std::min(ix.size(), lo + kBlock);
      if (std::memcmp(ix.data() + lo, wal_baseline_.data() + lo,
                      (hi - lo) * sizeof(std::size_t)) == 0)
        continue;
      for (std::size_t f = lo; f < hi; ++f) {
        if (ix[f] == wal_baseline_[f]) continue;
        ev.mark.moves.push_back({f, ix[f]});
        wal_baseline_[f] = ix[f];
      }
    }
  }
  ev.note = note;
  journal_->append_event(ev);
}

bool Session::mark_matches(const proto::SnapshotNegotiationMark& mark,
                           std::vector<std::size_t>& expected) const {
  proto::SnapshotNegotiationMark now = negotiation_mark();
  if (mark.live == 0) return mark.moves.empty() && mark == now;
  if (mark.flows != expected.size()) return false;
  for (const proto::SnapshotMove& mv : mark.moves)
    expected[mv.flow] = static_cast<std::size_t>(mv.ix);
  // The delta itself is checked through `expected`: the full assignment it
  // rebuilds must equal side A's, entry for entry.
  now.moves = mark.moves;
  return mark == now && expected == agent_a_->side().tentative().ix_of_flow;
}

bool Session::replay_journal(const SessionJournal& journal, Tick now,
                             std::string* error) {
  const obs::PhaseTimer timer(obs::Phase::kJournalReplay);
  const auto fail = [error](std::string why) {
    *error = std::move(why);
    return false;
  };

  proto::FrameDecoder snap_dec;
  snap_dec.feed(journal.snapshot_bytes());
  const std::optional<proto::Frame> frame = snap_dec.next();
  if (!frame.has_value())
    return fail(snap_dec.failed()
                    ? "snapshot: " + snap_dec.error()
                    : "snapshot: incomplete checkpoint frame");
  const util::Result<proto::SnapshotCheckpoint> decoded =
      proto::decode_snapshot_checkpoint(*frame);
  if (!decoded.ok()) {
    if (decoded.error().message.starts_with("snapshot version mismatch")) {
      // A schema mismatch is a build/deployment error, not data corruption:
      // refuse loudly instead of silently renegotiating from scratch.
      std::fprintf(stderr, "nexit: cannot restore session %u: %s\n", id_,
                   decoded.error().message.c_str());
      std::exit(2);
    }
    return fail(decoded.error().message);
  }
  if (snap_dec.next().has_value() || snap_dec.failed())
    return fail("snapshot: trailing bytes after the checkpoint");
  const proto::SnapshotCheckpoint& cp = decoded.value();
  if (cp.session != id_)
    return fail("snapshot: checkpoint names session " +
                std::to_string(cp.session) + ", restoring session " +
                std::to_string(id_));
  if (cp.status != static_cast<std::uint8_t>(SessionStatus::kRunning) ||
      cp.attempts == 0 ||
      cp.retries_used >= static_cast<std::uint32_t>(limits_.max_attempts))
    return fail("snapshot: checkpoint state is not an attempt boundary");

  // Rebuild the checkpointed attempt: restore the pre-attempt counters,
  // then re-begin through the deterministic channel factory (the 0-based
  // factory index cp.attempts - 1 reseeds identical fault streams).
  status_ = SessionStatus::kRunning;
  started_at_ = cp.started_at;
  steps_ = cp.steps;
  messages_ = cp.messages;
  timeouts_ = cp.timeouts;
  retries_used_ = static_cast<int>(cp.retries_used);
  attempts_ = static_cast<int>(cp.attempts) - 1;  // begin_attempt's ++
  begin_attempt(cp.attempt_began);

  // Replay the WAL tail at its recorded session-local ticks. Each record
  // carries the state observed when it was written; the replayed prefix
  // must reproduce it bit-for-bit or the log is not trustworthy.
  Tick last_tick = cp.attempt_began;
  std::optional<Tick> kill_tick;
  // Side A's assignment as of the last replayed record; deltas apply to it.
  std::vector<std::size_t> expected = problem_.default_assignment.ix_of_flow;
  proto::FrameDecoder wal_dec;
  wal_dec.feed(journal.wal_bytes());
  std::size_t applied = 0;
  while (std::optional<proto::Frame> wf = wal_dec.next()) {
    const util::Result<proto::SnapshotWalEvent> dev =
        proto::decode_snapshot_wal_event(*wf);
    if (!dev.ok()) return fail(dev.error().message);
    const proto::SnapshotWalEvent& ev = dev.value();
    if (ev.pre_status != static_cast<std::uint8_t>(status_) ||
        ev.pre_attempts != static_cast<std::uint32_t>(attempts_) ||
        ev.pre_retries != static_cast<std::uint32_t>(retries_used_) ||
        ev.pre_steps != steps_ || ev.pre_messages != messages_ ||
        ev.pre_timeouts != timeouts_ || !mark_matches(ev.mark, expected))
      return fail("WAL record " + std::to_string(applied) +
                  ": replayed state does not match the recorded mark");
    switch (static_cast<proto::WalEventKind>(ev.kind)) {
      case proto::WalEventKind::kPump: pump(ev.tick); break;
      case proto::WalEventKind::kDeadline: check_deadline(ev.tick); break;
      case proto::WalEventKind::kCancel: cancel(ev.tick, ev.note); break;
      case proto::WalEventKind::kKill: kill_tick = ev.tick; break;
    }
    last_tick = ev.tick;
    ++applied;
  }
  if (wal_dec.failed()) return fail("WAL: " + wal_dec.error());
  // An incomplete trailing frame (clean truncation) is lost work, not
  // corruption: the replayed prefix is a state the uninterrupted run
  // passed through, so continuing from it stays on the same trajectory.

  // Excise the downtime: session-local time continues from the kill tick
  // (or the last replayed event, if the kill record itself was lost).
  const Tick frozen_at = kill_tick.value_or(last_tick);
  offset_ = now > frozen_at ? now - frozen_at : 0;
  // Records appended from here on continue the same WAL, so their deltas
  // are against the last replayed record.
  wal_baseline_ = std::move(expected);
  return true;
}

RestoreOutcome Session::resume(Tick now, Tick original_start,
                               std::string* error) {
  if (status_ != SessionStatus::kKilled)
    throw std::logic_error("Session::resume: session is not killed");
  if (journal_ == nullptr || journal_->snapshot_bytes().empty()) {
    // Killed before the first attempt began: nothing durable exists. Line
    // the fresh start up with the originally scheduled tick so started_at
    // and every derived deadline match an uninterrupted run.
    status_ = SessionStatus::kPending;
    offset_ = now > original_start ? now - original_start : 0;
    return RestoreOutcome::kFreshPending;
  }
  SessionJournal* journal = journal_;
  journal_ = nullptr;  // replay must not re-journal its own records
  std::string why;
  const bool ok = replay_journal(*journal, now, &why);
  journal_ = journal;
  if (ok) return RestoreOutcome::kResumed;
  if (error != nullptr) *error = why;
  // Corrupt, truncated-mid-record, or mismatched log: never resume wrong
  // data. Reset wholesale; the caller schedules a fresh negotiation (whose
  // first checkpoint overwrites the bad bytes).
  teardown_attempt();
  status_ = SessionStatus::kPending;
  attempts_ = 0;
  retries_used_ = 0;
  steps_ = 0;
  messages_ = 0;
  timeouts_ = 0;
  attempt_began_ = 0;
  last_progress_ = 0;
  started_at_ = 0;
  finished_at_ = 0;
  offset_ = 0;
  error_.clear();
  outcome_ = core::NegotiationOutcome{};
  return RestoreOutcome::kFellBack;
}

}  // namespace nexit::runtime
