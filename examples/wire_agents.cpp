// The §6 deployment architecture, end to end: two negotiation agents (one
// per ISP) talk the Nexit wire protocol over a real AF_UNIX socket pair —
// HELLO/CANDIDATES/FLOW_ANNOUNCE handshake, opaque PREF_ADVERTs, alternating
// PROPOSE/RESPONSE rounds, STOP and settlement. Exits 1 if the session
// fails or the two sides end with different assignments.
//
//   ./build/wire_agents

#include <cstdio>
#include <iostream>

#include "agent/agent.hpp"
#include "core/oracles.hpp"
#include "sim/pair_universe.hpp"
#include "traffic/traffic.hpp"
#include "util/flags.hpp"

using namespace nexit;

int main(int argc, char** argv) {
  // No knobs here — but --help should still say so, and stray flags should
  // be an error rather than silently ignored.
  util::Flags flags(argc, argv);
  util::reject_unknown(flags);

  // A pair of synthetic ISPs and the flows they exchange.
  sim::UniverseConfig ucfg;
  ucfg.isp_count = 20;
  ucfg.seed = 5;
  ucfg.max_pairs = 1;
  const auto pairs = sim::build_pair_universe(ucfg, 2);
  const topology::IspPair& pair = pairs.front();
  routing::PairRouting routing(pair);
  util::Rng rng(5);
  traffic::TrafficConfig tcfg;
  tcfg.model = traffic::WorkloadModel::kIdentical;
  auto tm = traffic::TrafficMatrix::build_bidirectional(pair, tcfg, rng);

  std::vector<std::size_t> candidates(pair.interconnection_count());
  for (std::size_t i = 0; i < candidates.size(); ++i) candidates[i] = i;
  auto problem = core::make_distance_problem(routing, tm.flows(), candidates);

  // Wire configuration: deterministic tie-breaks are contractual.
  core::NegotiationConfig ncfg;
  ncfg.tie_break = core::TieBreak::kDeterministic;
  core::DistanceOracle oracle_a(0, ncfg.preferences), oracle_b(1, ncfg.preferences);

  auto [chan_a, chan_b] = agent::make_socket_channel_pair();
  agent::NegotiationAgent agent_a(problem, oracle_a, *chan_a,
                                  agent::AgentConfig{0, 64501, ncfg});
  agent::NegotiationAgent agent_b(problem, oracle_b, *chan_b,
                                  agent::AgentConfig{1, 64502, ncfg});

  const std::size_t steps = agent::run_session(agent_a, agent_b);
  if (!agent_a.done() || !agent_b.done()) {
    std::cerr << "session failed: A=" << agent_a.error()
              << " B=" << agent_b.error() << "\n";
    return 1;
  }
  const auto& out = agent_a.outcome();
  std::printf("session over AF_UNIX socketpair: %zu pump steps, %zu rounds, "
              "%zu flows negotiated, %zu moved, stop: %s\n",
              steps, out.rounds, out.flows_negotiated, out.flows_moved,
              core::to_string(out.stop_reason).c_str());
  const bool agree =
      out.assignment.ix_of_flow == agent_b.outcome().assignment.ix_of_flow;
  std::printf("both sides agree on the assignment: %s\n",
              agree ? "yes" : "NO (bug!)");
  return agree ? 0 : 1;
}
