#pragma once

// Shared scaffolding for the non-scenario benches (runtime_throughput,
// micro_incremental, ...): flag parsing into universe/negotiation configs
// and the universe summary line. Figures and ablations run through
// nexit_run and sim/scenarios.hpp instead; the JSON emitter and the FNV
// digest helpers are in src/util (json_report.hpp, digest.hpp).
//
// Unknown flags are a hard error: after reading all its flags, each binary
// calls reject_unknown_flags(), so a misspelled flag (--seeed=7) aborts with
// a message instead of silently running the default configuration. The same
// call makes `--help` print the flags the binary reads and exit 0.

#include <string>

#include "core/engine.hpp"
#include "sim/pair_universe.hpp"
#include "sim/report.hpp"
#include "util/digest.hpp"
#include "util/flags.hpp"
#include "util/json_report.hpp"

namespace nexit::bench {

inline sim::UniverseConfig universe_from_flags(const util::Flags& flags) {
  sim::UniverseConfig u;
  u.isp_count = static_cast<std::size_t>(flags.get_int("isps", 65));
  u.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  u.max_pairs = static_cast<std::size_t>(flags.get_int("pairs", 120));
  u.generator.min_pops = static_cast<std::size_t>(flags.get_int("pop-min", 6));
  u.generator.max_pops = static_cast<std::size_t>(flags.get_int("pop-max", 20));
  return u;
}

inline core::NegotiationConfig negotiation_from_flags(const util::Flags& flags) {
  core::NegotiationConfig cfg;
  cfg.acceptance = core::AcceptancePolicy::kProtective;
  cfg.preferences.range = static_cast<int>(flags.get_int("pref-range", 10));
  return cfg;
}

/// Bench-facing name for util::reject_unknown; see its doc comment.
inline void reject_unknown_flags(const util::Flags& flags) {
  util::reject_unknown(flags);
}

/// Bench-facing name for util::get_count; see its doc comment.
inline std::size_t size_from_flags(const util::Flags& flags,
                                   const std::string& name,
                                   std::size_t fallback,
                                   std::size_t max_value) {
  return util::get_count(flags, name, fallback, max_value);
}

/// Worker-thread count for the experiment engines: `--threads=0` means
/// auto-detect, `--threads=1` (the default) runs serially; any value yields
/// bit-identical results. The 0 -> hardware mapping itself is owned by
/// util::workers_for_threads; the [0, 1024] bound keeps a fat-fingered
/// count from exhausting std::thread construction.
inline std::size_t threads_from_flags(const util::Flags& flags) {
  return util::get_count(flags, "threads", 1, 1024);
}

/// Bench-facing name for sim::universe_summary (one shared spelling).
inline std::string universe_summary(const sim::UniverseConfig& u) {
  return sim::universe_summary(u);
}

/// Records the universe knobs every sweep bench shares.
inline void record_universe(util::JsonReport& json, const sim::UniverseConfig& u,
                            std::size_t threads) {
  json.config("isps", static_cast<std::int64_t>(u.isp_count));
  json.config("seed", static_cast<std::int64_t>(u.seed));
  json.config("pairs", static_cast<std::int64_t>(u.max_pairs));
  json.config("threads", static_cast<std::int64_t>(threads));
}

}  // namespace nexit::bench
