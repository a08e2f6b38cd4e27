#pragma once

#include <cstdint>
#include <vector>

namespace nexit::util {

/// Deterministic pseudo-random number generator (xoshiro256**).
///
/// All randomness in the library flows through explicitly seeded Rng
/// instances so that every experiment is reproducible from its seed. The
/// generator is self-contained (no std::mt19937 state-size or distribution
/// portability concerns across standard libraries).
class Rng {
 public:
  /// Seeds the four 64-bit words of state from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform integer in [0, bound) using rejection sampling; bound > 0.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive; requires lo <= hi.
  std::int64_t next_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform double in [lo, hi).
  double next_double(double lo, double hi);

  /// Bernoulli trial.
  bool next_bool(double p_true = 0.5);

  /// Derive an independent child generator (stable given call order).
  Rng fork();

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Pick a uniformly random index into a non-empty container.
  std::size_t pick_index(std::size_t size);

 private:
  std::uint64_t s_[4];
};

/// Forks `streams_per_item` child generators for each of `count` items,
/// SERIALLY and in item order: item 0's streams first, then item 1's, and
/// so on. This is the one place that encodes the parallel experiment
/// engines' determinism scheme — pre-forking every item's randomness before
/// dispatch makes an N-thread run bit-identical to a serial one, and
/// identical to a serial loop that forked the same number of streams per
/// item inline. Result: result[item][stream].
std::vector<std::vector<Rng>> fork_streams(Rng& rng, std::size_t count,
                                           std::size_t streams_per_item);

}  // namespace nexit::util
