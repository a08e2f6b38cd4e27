#include "sim/pair_universe.hpp"

#include "core/oracle_registry.hpp"
#include "geo/city_db.hpp"
#include "sim/spec.hpp"

namespace nexit::sim {

std::vector<topology::IspPair> build_pair_universe(const UniverseConfig& config,
                                                   std::size_t min_links) {
  util::Rng rng(config.seed);
  topology::TopologyGenerator gen(geo::CityDb::builtin(), config.generator);
  const std::vector<topology::IspTopology> isps =
      gen.generate_universe(config.isp_count, rng);

  std::vector<topology::IspPair> pairs;
  for (std::size_t i = 0; i < isps.size(); ++i) {
    for (std::size_t j = i + 1; j < isps.size(); ++j) {
      auto pair = topology::make_pair_if_peers(isps[i], isps[j], min_links);
      if (pair) pairs.push_back(*std::move(pair));
    }
  }

  // Deterministic subsample when over the cap: shuffle with the universe rng
  // and truncate, so adding pairs never biases toward low ASN numbers.
  if (pairs.size() > config.max_pairs) {
    rng.shuffle(pairs);
    pairs.erase(pairs.begin() + static_cast<std::ptrdiff_t>(config.max_pairs),
                pairs.end());
  }
  return pairs;
}

core::NegotiationOutcome negotiate(const ExperimentSpec& spec,
                                   const core::NegotiationProblem& problem,
                                   const routing::LoadMap* capacities,
                                   std::uint64_t seed, EngineTotals& totals) {
  core::NegotiationConfig config = spec.to_negotiation_config();
  config.seed = seed;
  const core::OracleRegistry& registry = core::OracleRegistry::global();
  const core::BuiltOracle a = registry.build(
      spec.resolved_objective(0), {0, config.preferences, capacities});
  const core::BuiltOracle b = registry.build(
      spec.resolved_objective(1), {1, config.preferences, capacities});
  core::NegotiationEngine engine(problem, a.get(), b.get(), config);
  core::NegotiationOutcome outcome = engine.run();

  totals.flows_moved += outcome.flows_moved;
  totals.eval_calls_full += outcome.evaluate_calls_full;
  totals.eval_calls_incremental += outcome.evaluate_calls_incremental;
  totals.eval_rows_computed += outcome.evaluate_rows_computed;
  totals.eval_rows_full_equivalent += outcome.evaluate_rows_full_equivalent;
  totals.rounds.insert(totals.rounds.end(), outcome.trace.begin(),
                       outcome.trace.end());
  return outcome;
}

}  // namespace nexit::sim
