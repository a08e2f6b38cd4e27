#pragma once

#include <cstdint>
#include <string>

#include "agent/channel.hpp"
#include "core/side.hpp"
#include "proto/messages.hpp"

namespace nexit::agent {

/// Where the agent is in the session.
enum class AgentState {
  kHandshake,     // exchanging HELLO/CANDIDATES/FLOW_ANNOUNCE/PREF_ADVERT
  kNegotiating,   // rounds of PROPOSE/RESPONSE
  kAwaitResponse, // sent a PROPOSE, waiting for the verdict
  kSettling,      // exchanging ROLLBACK lists after STOP (§6 settlement)
  kStopping,      // awaiting the final BYE
  kDone,
  kFailed,
};

std::string to_string(AgentState s);

struct AgentConfig {
  /// 0 = ISP A (proposes in round 0 under the alternate policy), 1 = ISP B.
  int side = 0;
  std::uint32_t asn = 0;
  /// Protocol parameters; contractual fields must match the peer's.
  /// Restrictions versus the in-process engine: tie_break must be
  /// kDeterministic and turn must not be kCoinToss (both sides of the wire
  /// must reach identical decisions without sharing an RNG), and kFull
  /// termination is not supported (it requires both ISPs' private gains at
  /// once, which only the simulation engine can see).
  core::NegotiationConfig negotiation;
};

/// One side of the out-of-band negotiation of Fig. 12: evaluates routing
/// choices through its oracle, advertises opaque preferences, exchanges
/// proposals over the channel, and reports the agreed assignment. The
/// agent is one core::NegotiationSide (the negotiation state and every
/// protocol step, shared with the in-process engine) plus the handshake and
/// the wire codec, so a session between two honest agents reproduces
/// NegotiationEngine::run() by construction (tests/agent_test.cpp sweeps
/// the policy grid to confirm it). The agent does not validate its problem:
/// take it from a validating core::make_*_problem builder, or from the
/// runtime::Session that runs the agent (it validates once per session).
class NegotiationAgent {
 public:
  NegotiationAgent(const core::NegotiationProblem& problem,
                   core::PreferenceOracle& oracle, Channel& channel,
                   AgentConfig config);

  /// Advances the FSM: drains the channel, handles complete frames, and
  /// takes any proactive action (sending handshake, proposing, stopping).
  /// Returns true if anything happened.
  bool step();

  [[nodiscard]] AgentState state() const { return state_; }
  [[nodiscard]] bool done() const { return state_ == AgentState::kDone; }
  [[nodiscard]] bool failed() const { return state_ == AgentState::kFailed; }
  [[nodiscard]] const std::string& error() const { return error_; }

  /// Valid once done(): the negotiated outcome as seen by this side.
  [[nodiscard]] const core::NegotiationOutcome& outcome() const;

  /// This ISP's replica of the negotiation, for mid-session introspection
  /// (the durability layer's WAL integrity marks read it).
  [[nodiscard]] const core::NegotiationSide& side() const { return side_; }

 private:
  void send_message(const proto::Message& m);
  void fail(const std::string& why);
  void send_handshake();
  void handle_message(const proto::Message& m);
  void handle_handshake_message(const proto::Message& m);
  /// Reads a PREF_ADVERT into the remote's disclosed list; fails the
  /// session and returns false on a malformed advert.
  bool receive_pref_advert(const proto::PrefAdvert& advert);
  void handle_propose(const proto::Propose& m);
  void handle_response(const proto::Response& m);
  /// Runs a completed reassignment quantum: re-evaluates and advertises
  /// when this side's oracle is stateful, and awaits the peer's advert when
  /// the peer's is.
  void reassign();
  void send_pref_advert(bool reassignment);
  void handle_rollback(const std::vector<std::uint32_t>& flow_ids);
  /// Computes, applies and sends this side's next ROLLBACK list; sends BYE
  /// and finishes instead when settlement has converged.
  void send_settlement_turn();
  void begin_settlement(core::StopReason reason);
  void maybe_act();
  [[nodiscard]] std::uint32_t flow_id(std::size_t pos) const;
  [[nodiscard]] std::size_t pos_of_flow(std::uint32_t id) const;
  [[nodiscard]] std::size_t ci_of_ix(std::uint32_t ix_id) const;
  void finish();

  const core::NegotiationProblem& problem_;
  core::PreferenceOracle* oracle_;
  Channel* channel_;
  AgentConfig config_;
  core::NegotiationSide side_;
  /// Flow id -> negotiable position (kNoPos for flows off the table).
  static constexpr std::size_t kNoPos = static_cast<std::size_t>(-1);
  std::vector<std::size_t> pos_of_flow_id_;

  proto::FrameDecoder decoder_;
  AgentState state_ = AgentState::kHandshake;
  std::string error_;

  // Handshake bookkeeping.
  bool sent_handshake_ = false;
  int handshake_received_ = 0;  // how many of the 4 peer messages arrived
  proto::Hello remote_hello_;

  bool awaiting_remote_advert_ = false;
  bool last_received_rollback_empty_ = false;
  core::ProposalChoice outstanding_{};
  core::StopReason stop_reason_ = core::StopReason::kExhausted;
  core::NegotiationOutcome outcome_;
};

/// Pumps both agents until completion or `max_steps`; returns steps used.
/// Stalls (no progress while incomplete) count as failure of both sides.
std::size_t run_session(NegotiationAgent& a, NegotiationAgent& b,
                        std::size_t max_steps = 100000);

}  // namespace nexit::agent
