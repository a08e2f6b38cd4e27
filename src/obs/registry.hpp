#pragma once

// Deterministic metrics registry: named counters and fixed-bucket
// histograms, sharded per thread so the engine hot paths never contend,
// merged in canonical order so the emitted values are bit-stable across
// --threads=N.
//
// The determinism contract splits observability in two:
//   - counters/histograms count WORK (evaluate calls, rounds, sessions).
//     Their per-thread shard sums are commutative uint64 additions, so the
//     merged snapshot is identical for every thread count and may appear in
//     thread-stability comparisons (the "obs" JSON section).
//   - phase timers measure WALL TIME through obs::WallClock. They are
//     run-dependent by nature and land only in the digest-excluded
//     "timing" JSON section, and only when explicitly enabled
//     (obs.timing=true) — disarmed timers cost one relaxed atomic load.
//
// Synchronization model: writers touch only their own thread's shard
// (created under a mutex on first use); snapshot()/reset_counters() must
// run while no writer is active — in practice after util::ThreadPool::wait()
// or SessionManager::run() returned, both of which establish the needed
// happens-before edge.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/wall_clock.hpp"

namespace nexit::obs {

/// The instrumented hot phases. Extend here and in phase_name(); the
/// timing section derives its keys from this list.
enum class Phase : std::uint8_t {
  kSelectProposal,
  kEvaluateFull,
  kEvaluateIncremental,
  kLoadsMaintain,
  kQuantizationScale,
  kWireEncode,
  kWireDecode,
  kSessionPump,
  kCount,
};

[[nodiscard]] const char* phase_name(Phase p);

inline constexpr std::size_t kPhaseCount = static_cast<std::size_t>(Phase::kCount);

/// Histogram buckets are value magnitudes: bucket k counts observations v
/// with bit_width(v) == k (v = 0 lands in bucket 0, 1 in bucket 1, 2..3 in
/// bucket 2, ...). 65 buckets cover the whole uint64 range with no
/// configuration to get wrong.
inline constexpr std::size_t kHistogramBuckets = 65;

[[nodiscard]] std::size_t histogram_bucket(std::uint64_t value);

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  /// Per-bucket counts, index = bit_width of the observed value.
  std::vector<std::uint64_t> buckets;
};

struct Snapshot {
  std::vector<CounterSnapshot> counters;      // sorted by name
  std::vector<HistogramSnapshot> histograms;  // sorted by name
};

struct PhaseSnapshot {
  const char* name = "";
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
};

class Registry {
 public:
  Registry();
  ~Registry();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide instance the engines and the runtime report into.
  static Registry& global();

  /// Adds `delta` to the named counter in the calling thread's shard.
  void add(const std::string& name, std::uint64_t delta);

  /// Records one observation into the named histogram's magnitude bucket.
  void observe(const std::string& name, std::uint64_t value);

  /// Canonical merge: every counter/histogram summed over all shards in
  /// shard-creation order, emitted sorted by name. uint64 addition is
  /// commutative, so the result does not depend on which thread counted
  /// what — the property the cross-thread bit-stability tests pin.
  [[nodiscard]] Snapshot snapshot() const;

  /// Zeroes every counter and histogram in every shard (timing survives —
  /// sweeps reset work counters per point but report timing once per run).
  void reset_counters();

  // --- phase timing ------------------------------------------------------

  void set_timing_enabled(bool on) {
    timing_enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool timing_enabled() const {
    return timing_enabled_.load(std::memory_order_relaxed);
  }

  void add_phase_ns(Phase p, std::uint64_t ns);

  /// Per-phase calls and nanoseconds summed over all shards, in Phase
  /// declaration order (zero-call phases included, so the timing section's
  /// key set never depends on what happened to run).
  [[nodiscard]] std::vector<PhaseSnapshot> timing_snapshot() const;

  void reset_timing();

 private:
  struct Shard {
    std::map<std::string, std::uint64_t> counters;
    struct Histogram {
      std::uint64_t count = 0;
      std::uint64_t sum = 0;
      std::uint64_t buckets[kHistogramBuckets] = {};
    };
    std::map<std::string, Histogram> histograms;
    std::uint64_t phase_calls[kPhaseCount] = {};
    std::uint64_t phase_ns[kPhaseCount] = {};
  };

  [[nodiscard]] Shard& local_shard();

  /// Distinguishes registries that happen to reuse a freed registry's
  /// address, so a thread's cached shard pointer can never go stale-valid.
  const std::uint64_t instance_id_;
  std::atomic<bool> timing_enabled_{false};
  mutable std::mutex mutex_;  // guards shards_ growth, not shard contents
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// Scoped RAII phase timer. Disarmed (one relaxed load, no clock read)
/// unless timing was enabled on the global registry — the zero-overhead
/// contract the fig7 digest test pins.
class PhaseTimer {
 public:
  explicit PhaseTimer(Phase p)
      : phase_(p), armed_(Registry::global().timing_enabled()) {
    if (armed_) t0_ = WallClock::now();
  }
  ~PhaseTimer() {
    if (armed_) Registry::global().add_phase_ns(phase_, WallClock::ns_since(t0_));
  }

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  const Phase phase_;
  const bool armed_;
  WallClock::TimePoint t0_{};
};

}  // namespace nexit::obs
