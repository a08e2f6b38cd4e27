#pragma once

// The pair-level scaffolding every §5 per-pair experiment shares: the pair
// universe, the per-pair driver that shards it across threads, and the one
// negotiation step the experiments run per sample.

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "core/engine.hpp"
#include "routing/loads.hpp"
#include "topology/generator.hpp"
#include "topology/isp_topology.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace nexit::sim {

struct ExperimentSpec;

/// The synthetic stand-in for the paper's measured dataset: a universe of
/// ISPs from which all peering pairs (>= min_links shared cities) are formed.
struct UniverseConfig {
  std::size_t isp_count = 65;  // the paper's dataset size
  std::uint64_t seed = 42;
  topology::GeneratorConfig generator;
  /// Upper bound on returned pairs (deterministic subsample); the paper had
  /// 229 pairs (>=2 links) / 247 ordered instances (>=3 links).
  std::size_t max_pairs = 250;
};

/// All ISP pairs from a fresh universe with at least `min_links`
/// interconnections. Deterministic for a given config.
std::vector<topology::IspPair> build_pair_universe(const UniverseConfig& config,
                                                   std::size_t min_links);

/// Runs `run_pair(pair, streams, out)` once for every pair of the universe
/// with at least `min_links` interconnections and returns each pair's `out`
/// samples concatenated in pair order. `streams` are the pair's
/// `streams_per_pair` generators, forked serially from the universe seed
/// xor `salt` before any pair runs (see util::fork_streams), and each pair
/// writes only its own `out`, so the result is bit-identical for every
/// `threads` value (1 = serial, 0 = auto-detect).
template <typename Sample, typename RunPair>
std::vector<Sample> run_per_pair(const UniverseConfig& universe,
                                 std::size_t min_links, std::uint64_t salt,
                                 std::size_t streams_per_pair,
                                 std::size_t threads, const RunPair& run_pair) {
  const std::vector<topology::IspPair> pairs =
      build_pair_universe(universe, min_links);
  util::Rng rng(universe.seed ^ salt);
  std::vector<std::vector<util::Rng>> streams =
      util::fork_streams(rng, pairs.size(), streams_per_pair);
  std::vector<std::vector<Sample>> slots(pairs.size());

  util::ThreadPool pool(util::workers_for_threads(threads));
  util::parallel_for(pool, pairs.size(), [&](std::size_t i) {
    run_pair(pairs[i], streams[i], slots[i]);
  });

  std::vector<Sample> samples;
  for (std::vector<Sample>& slot : slots)
    std::move(slot.begin(), slot.end(), std::back_inserter(samples));
  return samples;
}

/// What a sample sums over its negotiations (one per group, or the one of
/// its failure). Full evaluate calls recompute every preference row,
/// incremental ones only the affected rows; rows_full_equivalent is what
/// the same calls would have cost under full recomputation, the
/// denominator for "fraction of the naive work actually done". `rounds`
/// is filled only when the spec asks for a trace (obs.trace). Only
/// flows_moved enters digest_samples.
struct EngineTotals {
  std::size_t flows_moved = 0;
  std::size_t eval_calls_full = 0;
  std::size_t eval_calls_incremental = 0;
  std::size_t eval_rows_computed = 0;
  std::size_t eval_rows_full_equivalent = 0;
  std::vector<core::RoundTrace> rounds;
};

/// One negotiation of `problem` under `spec`'s policies: both sides'
/// objectives are built fresh through core::OracleRegistry (an oracle binds
/// to the one problem it evaluates), the engine runs with `seed`, and its
/// totals are added to `totals`.
/// `capacities` is the link-capacity map load-dependent oracles read (null
/// for the distance experiments).
core::NegotiationOutcome negotiate(const ExperimentSpec& spec,
                                   const core::NegotiationProblem& problem,
                                   const routing::LoadMap* capacities,
                                   std::uint64_t seed, EngineTotals& totals);

}  // namespace nexit::sim
