#include "agent/agent.hpp"

#include <cmath>
#include <optional>
#include <stdexcept>

#include "obs/registry.hpp"

namespace nexit::agent {

namespace {

proto::Hello make_hello(const AgentConfig& config, bool wants_reassignment) {
  proto::Hello h;
  h.asn = config.asn;
  h.pref_range = config.negotiation.preferences.range;
  h.wants_reassignment = wants_reassignment;
  h.reassign_fraction = config.negotiation.reassign_traffic_fraction;
  h.turn_policy = static_cast<std::uint8_t>(config.negotiation.turn);
  h.proposal_policy = static_cast<std::uint8_t>(config.negotiation.proposal);
  h.acceptance_policy = static_cast<std::uint8_t>(config.negotiation.acceptance);
  h.termination_policy =
      static_cast<std::uint8_t>(config.negotiation.termination);
  h.settlement_rollback = config.negotiation.settlement_rollback;
  return h;
}

/// The contractual fields both sides must agree on (everything but identity
/// and statefulness).
bool contract_matches(const proto::Hello& a, const proto::Hello& b) {
  return a.pref_range == b.pref_range &&
         a.reassign_fraction == b.reassign_fraction &&
         a.turn_policy == b.turn_policy &&
         a.proposal_policy == b.proposal_policy &&
         a.acceptance_policy == b.acceptance_policy &&
         a.termination_policy == b.termination_policy &&
         a.settlement_rollback == b.settlement_rollback;
}

}  // namespace

std::string to_string(AgentState s) {
  switch (s) {
    case AgentState::kHandshake: return "handshake";
    case AgentState::kNegotiating: return "negotiating";
    case AgentState::kAwaitResponse: return "await-response";
    case AgentState::kSettling: return "settling";
    case AgentState::kStopping: return "stopping";
    case AgentState::kDone: return "done";
    case AgentState::kFailed: return "failed";
  }
  return "?";
}

NegotiationAgent::NegotiationAgent(const core::NegotiationProblem& problem,
                                   core::PreferenceOracle& oracle,
                                   Channel& channel, AgentConfig config)
    : problem_(problem), oracle_(&oracle), channel_(&channel), config_(config),
      side_(problem, oracle, config.side, config.negotiation) {
  if (config_.side != 0 && config_.side != 1)
    throw std::invalid_argument("AgentConfig: side must be 0 or 1");
  if (config_.negotiation.tie_break != core::TieBreak::kDeterministic)
    throw std::invalid_argument(
        "AgentConfig: wire agents require TieBreak::kDeterministic");
  if (config_.negotiation.turn == core::TurnPolicy::kCoinToss)
    throw std::invalid_argument("AgentConfig: kCoinToss unsupported on the wire");
  if (config_.negotiation.termination == core::TerminationPolicy::kFull)
    throw std::invalid_argument("AgentConfig: kFull unsupported on the wire");
}

const core::NegotiationOutcome& NegotiationAgent::outcome() const {
  if (state_ != AgentState::kDone)
    throw std::logic_error("NegotiationAgent::outcome: session not done");
  return outcome_;
}

void NegotiationAgent::send_message(const proto::Message& m) {
  const obs::PhaseTimer timer(obs::Phase::kWireEncode);
  channel_->send(proto::encode_frame(proto::encode_message(m)));
}

void NegotiationAgent::fail(const std::string& why) {
  state_ = AgentState::kFailed;
  error_ = why;
}

std::uint32_t NegotiationAgent::flow_id(std::size_t pos) const {
  return static_cast<std::uint32_t>(problem_.negotiable_flow(pos).id.value());
}

std::size_t NegotiationAgent::pos_of_flow(std::uint32_t id) const {
  for (std::size_t pos = 0; pos < problem_.negotiable.size(); ++pos)
    if (flow_id(pos) == id) return pos;
  throw std::out_of_range("unknown flow id");
}

std::size_t NegotiationAgent::ci_of_ix(std::uint32_t ix_id) const {
  for (std::size_t ci = 0; ci < problem_.candidates.size(); ++ci) {
    if (static_cast<std::uint32_t>(problem_.candidates[ci]) == ix_id) return ci;
  }
  throw std::out_of_range("unknown interconnection id");
}

void NegotiationAgent::send_pref_advert(bool reassignment) {
  proto::PrefAdvert advert;
  advert.reassignment = reassignment;
  advert.flows.reserve(problem_.negotiable.size());
  for (std::size_t pos = 0; pos < problem_.negotiable.size(); ++pos) {
    proto::PrefAdvert::Item item;
    item.flow_id = flow_id(pos);
    for (core::PrefClass p : side_.disclosed().flows[pos].pref_of_candidate)
      item.pref_of_candidate.push_back(p);
    advert.flows.push_back(std::move(item));
  }
  send_message(advert);
}

bool NegotiationAgent::receive_pref_advert(const proto::PrefAdvert& advert) {
  if (advert.flows.size() != problem_.negotiable.size()) {
    fail("preference list shape mismatch");
    return false;
  }
  const int range = config_.negotiation.preferences.range;
  core::PreferenceList list;
  for (std::size_t pos = 0; pos < advert.flows.size(); ++pos) {
    const auto& item = advert.flows[pos];
    if (item.flow_id != flow_id(pos) ||
        item.pref_of_candidate.size() != problem_.candidates.size()) {
      fail("preference list shape mismatch");
      return false;
    }
    core::FlowPreferences fp;
    fp.flow = problem_.negotiable_flow(pos).id;
    for (std::int32_t p : item.pref_of_candidate) {
      if (p < -range || p > range) {
        fail("preference class out of agreed range");
        return false;
      }
      fp.pref_of_candidate.push_back(p);
    }
    list.flows.push_back(std::move(fp));
  }
  side_.set_remote_disclosed(std::move(list));
  return true;
}

void NegotiationAgent::send_handshake() {
  side_.evaluate();
  // The remote's truth is unknowable on the wire, so the disclosure hook
  // gets our own classes as a stand-in (honest oracles ignore it).
  side_.disclose(side_.truth().classes);

  send_message(make_hello(config_, oracle_->wants_reassignment()));
  proto::Candidates cands;
  for (std::size_t ix : problem_.candidates)
    cands.interconnection_ids.push_back(static_cast<std::uint32_t>(ix));
  send_message(cands);
  proto::FlowAnnounce fa;
  for (std::size_t pos = 0; pos < problem_.negotiable.size(); ++pos) {
    proto::FlowAnnounce::Item item;
    item.flow_id = flow_id(pos);
    item.default_interconnection =
        static_cast<std::uint32_t>(problem_.default_ix(pos));
    item.size = problem_.negotiable_flow(pos).size;
    fa.flows.push_back(item);
  }
  send_message(fa);
  send_pref_advert(false);
  sent_handshake_ = true;
}

void NegotiationAgent::handle_handshake_message(const proto::Message& m) {
  switch (handshake_received_) {
    case 0: {
      const auto* hello = std::get_if<proto::Hello>(&m);
      if (hello == nullptr) return fail("expected HELLO");
      if (!contract_matches(*hello,
                            make_hello(config_, oracle_->wants_reassignment())))
        return fail("contractual parameter mismatch");
      remote_hello_ = *hello;
      side_.enable_reassignment(hello->wants_reassignment);
      break;
    }
    case 1: {
      const auto* cands = std::get_if<proto::Candidates>(&m);
      if (cands == nullptr) return fail("expected CANDIDATES");
      if (cands->interconnection_ids.size() != problem_.candidates.size())
        return fail("candidate set mismatch");
      for (std::size_t i = 0; i < problem_.candidates.size(); ++i) {
        if (cands->interconnection_ids[i] !=
            static_cast<std::uint32_t>(problem_.candidates[i]))
          return fail("candidate set mismatch");
      }
      break;
    }
    case 2: {
      const auto* fa = std::get_if<proto::FlowAnnounce>(&m);
      if (fa == nullptr) return fail("expected FLOW_ANNOUNCE");
      if (fa->flows.size() != problem_.negotiable.size())
        return fail("flow set mismatch");
      for (std::size_t pos = 0; pos < fa->flows.size(); ++pos) {
        const auto& item = fa->flows[pos];
        if (item.flow_id != flow_id(pos) ||
            item.default_interconnection !=
                static_cast<std::uint32_t>(problem_.default_ix(pos)) ||
            std::abs(item.size - problem_.negotiable_flow(pos).size) > 1e-9)
          return fail("flow set mismatch");
      }
      break;
    }
    case 3: {
      const auto* advert = std::get_if<proto::PrefAdvert>(&m);
      if (advert == nullptr || advert->reassignment)
        return fail("expected initial PREF_ADVERT");
      if (!receive_pref_advert(*advert)) return;
      state_ = AgentState::kNegotiating;
      break;
    }
    default:
      return fail("unexpected handshake message");
  }
  ++handshake_received_;
}

void NegotiationAgent::reassign() {
  if (oracle_->wants_reassignment()) {
    side_.evaluate();
    side_.disclose(side_.remote_disclosed());
    send_pref_advert(true);
  } else {
    side_.discard_pending_delta();
  }
  awaiting_remote_advert_ = remote_hello_.wants_reassignment;
}

void NegotiationAgent::handle_propose(const proto::Propose& m) {
  if (state_ != AgentState::kNegotiating)
    return fail("PROPOSE in state " + to_string(state_));
  if (side_.turn_holder() == config_.side) return fail("PROPOSE out of turn");
  if (m.seq != side_.round()) return fail("PROPOSE with bad sequence number");

  std::size_t pos = 0, ci = 0;
  try {
    pos = pos_of_flow(m.flow_id);
    ci = ci_of_ix(m.interconnection_id);
  } catch (const std::out_of_range&) {
    return fail("PROPOSE references unknown flow/interconnection");
  }
  if (!side_.proposable(pos, ci))
    return fail("PROPOSE for a negotiated flow or vetoed alternative");

  proto::Response resp;
  resp.seq = m.seq;
  resp.accepted = side_.accepts(pos, ci);
  send_message(resp);
  if (!resp.accepted) {
    side_.ban(pos, ci);
  } else if (side_.apply_accept(pos, ci)) {
    reassign();
  }
}

void NegotiationAgent::handle_response(const proto::Response& m) {
  if (state_ != AgentState::kAwaitResponse)
    return fail("RESPONSE in state " + to_string(state_));
  if (m.seq != side_.round()) return fail("RESPONSE with bad sequence number");
  state_ = AgentState::kNegotiating;
  if (!m.accepted) {
    side_.ban(outstanding_.pos, outstanding_.ci);
  } else if (side_.apply_accept(outstanding_.pos, outstanding_.ci)) {
    reassign();
  }
}

void NegotiationAgent::begin_settlement(core::StopReason reason) {
  stop_reason_ = reason;
  // The stopper held the turn, so it also opens the settlement.
  const bool i_open = side_.settlement_opener(reason) == config_.side;
  if (!config_.negotiation.settlement_rollback) {
    if (i_open) {
      state_ = AgentState::kStopping;  // await BYE
    } else {
      send_message(proto::Bye{});
      finish();
    }
    return;
  }
  state_ = AgentState::kSettling;
  last_received_rollback_empty_ = false;
  if (i_open) send_settlement_turn();
}

void NegotiationAgent::send_settlement_turn() {
  const std::vector<std::size_t> rolled = side_.rollback_turn();
  if (rolled.empty() && last_received_rollback_empty_) {
    send_message(proto::Bye{});
    finish();
    return;
  }
  proto::Rollback msg;
  for (std::size_t pos : rolled) msg.flow_ids.push_back(flow_id(pos));
  send_message(msg);
}

void NegotiationAgent::handle_rollback(
    const std::vector<std::uint32_t>& flow_ids) {
  if (state_ != AgentState::kSettling && state_ != AgentState::kStopping)
    return fail("ROLLBACK outside settlement");
  for (std::uint32_t id : flow_ids) {
    std::size_t pos = 0;
    try {
      pos = pos_of_flow(id);
    } catch (const std::out_of_range&) {
      return fail("ROLLBACK references unknown flow");
    }
    if (!side_.apply_peer_rollback(pos))
      return fail("ROLLBACK for flow that never moved");
  }
  last_received_rollback_empty_ = flow_ids.empty();
  send_settlement_turn();
}

void NegotiationAgent::finish() {
  outcome_ = side_.outcome(stop_reason_);
  state_ = AgentState::kDone;
}

void NegotiationAgent::handle_message(const proto::Message& m) {
  if (state_ == AgentState::kHandshake) {
    handle_handshake_message(m);
    return;
  }
  if (const auto* advert = std::get_if<proto::PrefAdvert>(&m)) {
    if (!advert->reassignment || !awaiting_remote_advert_)
      return fail("unexpected PREF_ADVERT");
    if (receive_pref_advert(*advert)) awaiting_remote_advert_ = false;
    return;
  }
  if (const auto* propose = std::get_if<proto::Propose>(&m)) {
    if (awaiting_remote_advert_) return fail("PROPOSE before reassignment");
    handle_propose(*propose);
    return;
  }
  if (const auto* response = std::get_if<proto::Response>(&m)) {
    handle_response(*response);
    return;
  }
  if (const auto* stop = std::get_if<proto::Stop>(&m)) {
    const auto reason = static_cast<core::StopReason>(stop->reason);
    if (state_ != AgentState::kNegotiating)
      return fail("STOP in state " + to_string(state_));
    if (side_.settlement_opener(reason) == config_.side)
      return fail("STOP out of turn");
    begin_settlement(reason);
    return;
  }
  if (const auto* rollback = std::get_if<proto::Rollback>(&m)) {
    handle_rollback(rollback->flow_ids);
    return;
  }
  if (std::get_if<proto::Bye>(&m) != nullptr) {
    if (state_ != AgentState::kStopping && state_ != AgentState::kSettling)
      return fail("unexpected BYE");
    finish();
    return;
  }
  fail("unexpected message");
}

void NegotiationAgent::maybe_act() {
  if (state_ != AgentState::kNegotiating || awaiting_remote_advert_) return;
  if (side_.turn_holder() != config_.side) return;

  std::optional<core::StopReason> stop;
  core::ProposalChoice sel{};
  if (side_.remaining_count() == 0) {
    stop = core::StopReason::kExhausted;
  } else if (side_.stops_early()) {
    stop = config_.side == 0 ? core::StopReason::kEarlyStopA
                             : core::StopReason::kEarlyStopB;
  } else if (!side_.select_proposal(/*rng=*/nullptr, sel)) {
    stop = core::StopReason::kNoProposal;
  }
  if (stop.has_value()) {
    proto::Stop m;
    m.reason = static_cast<std::uint8_t>(*stop);
    send_message(m);
    begin_settlement(*stop);
    return;
  }

  proto::Propose m;
  m.seq = static_cast<std::uint32_t>(side_.round());
  m.flow_id = flow_id(sel.pos);
  m.interconnection_id =
      static_cast<std::uint32_t>(problem_.candidates[sel.ci]);
  outstanding_ = sel;
  send_message(m);
  state_ = AgentState::kAwaitResponse;
}

bool NegotiationAgent::step() {
  if (state_ == AgentState::kDone || state_ == AgentState::kFailed)
    return false;

  const AgentState entry_state = state_;
  const std::size_t entry_round = side_.round();
  bool progress = false;

  if (!sent_handshake_) {
    try {
      send_handshake();
    } catch (const std::exception& e) {
      fail(std::string("handshake send failed: ") + e.what());
      return true;
    }
    progress = true;
  }

  const proto::Bytes incoming = channel_->receive();
  if (!incoming.empty()) {
    decoder_.feed(incoming);
    progress = true;
  }
  if (decoder_.failed()) {
    fail("stream error: " + decoder_.error());
    return true;
  }

  while (state_ != AgentState::kDone && state_ != AgentState::kFailed) {
    const auto frame = [this] {
      const obs::PhaseTimer timer(obs::Phase::kWireDecode);
      return decoder_.next();
    }();
    if (!frame.has_value()) break;
    auto msg = [&frame] {
      const obs::PhaseTimer timer(obs::Phase::kWireDecode);
      return proto::decode_message(*frame);
    }();
    if (!msg.ok()) {
      fail("decode error: " + msg.error().message);
      return true;
    }
    try {
      handle_message(msg.value());
    } catch (const std::logic_error& e) {
      // A failed oracle audit or a malformed evaluation ends the session.
      fail(std::string("evaluation failed: ") + e.what());
      return true;
    }
    progress = true;
  }
  if (decoder_.failed()) {
    fail("stream error: " + decoder_.error());
    return true;
  }

  if (state_ == AgentState::kNegotiating) maybe_act();

  if (channel_->closed() && state_ != AgentState::kDone &&
      state_ != AgentState::kFailed) {
    fail("peer closed the channel");
    return true;
  }

  return progress || state_ != entry_state || side_.round() != entry_round;
}

std::size_t run_session(NegotiationAgent& a, NegotiationAgent& b,
                        std::size_t max_steps) {
  std::size_t steps = 0;
  int idle_rounds = 0;
  while (steps < max_steps) {
    const bool pa = a.step();
    const bool pb = b.step();
    ++steps;
    const bool a_settled = a.done() || a.failed();
    const bool b_settled = b.done() || b.failed();
    if (a_settled && b_settled) break;
    if (!pa && !pb) {
      if (++idle_rounds > 3) break;  // stalled
    } else {
      idle_rounds = 0;
    }
  }
  return steps;
}

}  // namespace nexit::agent
