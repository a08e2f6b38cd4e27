#include "runtime/session.hpp"

#include <stdexcept>

#include "obs/registry.hpp"

namespace nexit::runtime {

namespace {

/// Transparent decorator that counts frames offered to send(). The count
/// lands directly in the owning Session (the pointer outlives the channel:
/// sessions are heap-pinned and destroy their channels first).
class CountingChannel : public agent::Channel {
 public:
  CountingChannel(std::unique_ptr<agent::Channel> inner, std::uint64_t* sends)
      : inner_(std::move(inner)), sends_(sends) {}

  void send(const proto::Bytes& data) override {
    ++*sends_;
    inner_->send(data);
  }
  proto::Bytes receive() override { return inner_->receive(); }
  [[nodiscard]] bool readable() const override { return inner_->readable(); }
  [[nodiscard]] int poll_fd() const override { return inner_->poll_fd(); }
  [[nodiscard]] bool closed() const override { return inner_->closed(); }
  void close() override { inner_->close(); }

 private:
  std::unique_ptr<agent::Channel> inner_;
  std::uint64_t* sends_;
};

}  // namespace

std::string to_string(SessionStatus s) {
  switch (s) {
    case SessionStatus::kPending: return "pending";
    case SessionStatus::kRunning: return "running";
    case SessionStatus::kDone: return "done";
    case SessionStatus::kFailed: return "failed";
    case SessionStatus::kCancelled: return "cancelled";
    case SessionStatus::kKilled: return "killed";
  }
  return "?";
}

Session::Session(std::uint32_t id, const core::NegotiationProblem& problem,
                 core::PreferenceOracle& oracle_a,
                 core::PreferenceOracle& oracle_b,
                 core::NegotiationConfig config, ChannelFactory channels,
                 SessionLimits limits)
    : id_(id), problem_(problem), oracle_a_(oracle_a), oracle_b_(oracle_b),
      config_(std::move(config)), make_channels_(std::move(channels)),
      limits_(limits) {
  if (!make_channels_)
    throw std::invalid_argument("Session: null channel factory");
  if (limits_.max_attempts < 1)
    throw std::invalid_argument("Session: max_attempts must be >= 1");
}

void Session::start(Tick now) {
  if (status_ != SessionStatus::kPending)
    throw std::logic_error("Session::start: already started");
  const Tick snow = sess_time(now);
  status_ = SessionStatus::kRunning;
  started_at_ = snow;
  begin_attempt(snow);
}

void Session::begin_attempt(Tick now) {
  auto [a, b] = make_channels_(attempts_);
  chan_a_ = std::make_unique<CountingChannel>(std::move(a), &messages_);
  chan_b_ = std::make_unique<CountingChannel>(std::move(b), &messages_);
  agent_a_ = std::make_unique<agent::NegotiationAgent>(
      problem_, oracle_a_, *chan_a_, agent::AgentConfig{0, 64501, config_});
  agent_b_ = std::make_unique<agent::NegotiationAgent>(
      problem_, oracle_b_, *chan_b_, agent::AgentConfig{1, 64502, config_});
  ++attempts_;
  attempt_began_ = now;
  last_progress_ = now;
  needs_kick_ = true;
  // Attempt boundaries supersede the WAL: fresh channels and agents mean
  // nothing before this point is needed to replay.
  journal_checkpoint();
}

void Session::teardown_attempt() {
  agent_a_.reset();
  agent_b_.reset();
  chan_a_.reset();
  chan_b_.reset();
  needs_kick_ = false;
}

bool Session::in_handshake() const {
  return agent_a_ != nullptr &&
         (agent_a_->state() == agent::AgentState::kHandshake ||
          agent_b_->state() == agent::AgentState::kHandshake);
}

Tick Session::deadline() const {
  if (status_ != SessionStatus::kRunning) return kNoDeadline;
  // Internal bookkeeping is session-local time; the manager compares
  // against its own clock, so translate back across the downtime offset.
  if (in_handshake())
    return attempt_began_ + limits_.handshake_deadline + offset_;
  return last_progress_ + limits_.round_timeout + offset_;
}

std::vector<const agent::Channel*> Session::watch_channels() const {
  if (chan_a_ == nullptr) return {};
  return {chan_a_.get(), chan_b_.get()};
}

bool Session::pump(Tick now) {
  const obs::PhaseTimer timer(obs::Phase::kSessionPump);
  if (status_ != SessionStatus::kRunning) return false;
  now = sess_time(now);
  journal_event(proto::WalEventKind::kPump, now);
  needs_kick_ = false;
  bool any = false;
  std::size_t burst = 0;
  for (;;) {
    if (steps_ >= limits_.max_steps) {
      // The budget is global across attempts — a retry would die on its
      // first step too, so go straight to the terminal state.
      teardown_attempt();
      status_ = SessionStatus::kFailed;
      error_ = "step budget exhausted";
      finished_at_ = now;
      return true;
    }
    if (limits_.max_steps_per_pump != 0 && burst >= limits_.max_steps_per_pump) {
      // Yield the worker mid-negotiation; the kick guarantees the manager
      // re-pumps us next round even if both queues happen to be drained.
      needs_kick_ = true;
      break;
    }
    const bool pa = agent_a_->step();
    const bool pb = agent_b_->step();
    ++steps_;
    ++burst;
    any = any || pa || pb;
    const bool a_terminal = agent_a_->done() || agent_a_->failed();
    const bool b_terminal = agent_b_->done() || agent_b_->failed();
    if (a_terminal && b_terminal) {
      conclude(now);
      return true;
    }
    if (!pa && !pb) break;
  }
  // One side dead while the other still waits: the attempt cannot succeed,
  // tear it down now instead of waiting for the round timeout.
  if (agent_a_->failed() || agent_b_->failed()) {
    const std::string why = agent_a_->failed() ? "A: " + agent_a_->error()
                                               : "B: " + agent_b_->error();
    fail_or_retry(now, why);
    return true;
  }
  if (any) last_progress_ = now;
  return any;
}

void Session::check_deadline(Tick now) {
  if (status_ != SessionStatus::kRunning) return;
  const Tick due = deadline();
  if (now < due) return;  // stale timer; the manager re-arms at `due`
  now = sess_time(now);
  journal_event(proto::WalEventKind::kDeadline, now);
  ++timeouts_;
  fail_or_retry(now, in_handshake() ? "handshake deadline exceeded"
                                    : "round timeout (no progress)");
}

void Session::fail_or_retry(Tick now, const std::string& why) {
  teardown_attempt();
  if (++retries_used_ < limits_.max_attempts) {
    begin_attempt(now);
    return;
  }
  status_ = SessionStatus::kFailed;
  error_ = why;
  finished_at_ = now;
}

void Session::conclude(Tick now) {
  if (agent_a_->done() && agent_b_->done()) {
    if (agent_a_->outcome().assignment.ix_of_flow !=
        agent_b_->outcome().assignment.ix_of_flow) {
      teardown_attempt();
      status_ = SessionStatus::kFailed;
      error_ = "sides disagree on the negotiated assignment";
      finished_at_ = now;
      return;
    }
    outcome_ = agent_a_->outcome();
    teardown_attempt();
    status_ = SessionStatus::kDone;
    finished_at_ = now;
    return;
  }
  const std::string why = agent_a_->failed() ? "A: " + agent_a_->error()
                                             : "B: " + agent_b_->error();
  fail_or_retry(now, why);
}

void Session::restart(Tick now) {
  if (status_ != SessionStatus::kRunning) return;
  teardown_attempt();
  begin_attempt(sess_time(now));  // checkpoints: a restart is a boundary
}

void Session::cancel(Tick now, const std::string& why) {
  if (terminal()) return;
  now = sess_time(now);
  if (status_ == SessionStatus::kRunning)
    journal_event(proto::WalEventKind::kCancel, now, why);
  teardown_attempt();
  status_ = SessionStatus::kCancelled;
  error_ = why;
  finished_at_ = now;
}

void Session::kill(Tick now) {
  if (terminal() || status_ == SessionStatus::kKilled) return;
  const Tick snow = sess_time(now);
  // The kill record pins the session-local kill time (resume derives its
  // downtime offset from it) and doubles as the final-state verification
  // mark: replay must land exactly on the state this record observes.
  if (status_ == SessionStatus::kRunning)
    journal_event(proto::WalEventKind::kKill, snow);
  teardown_attempt();
  // Honest crash: resume may only use the durable bytes, so wipe every
  // counter and timestamp the in-memory object still holds.
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
  wal_baseline_.clear();
  error_.clear();
  outcome_ = core::NegotiationOutcome{};
  status_ = SessionStatus::kKilled;
}

const core::NegotiationOutcome& Session::outcome() const {
  if (status_ != SessionStatus::kDone)
    throw std::logic_error("Session::outcome: session not done");
  return outcome_;
}

}  // namespace nexit::runtime
