#include "util/rng.hpp"

#include <stdexcept>

namespace nexit::util {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // Avoid the (astronomically unlikely) all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  if (bound == 0) throw std::invalid_argument("Rng::next_below: bound == 0");
  // Rejection sampling to avoid modulo bias: reject r below the threshold
  // (2^64 - bound) % bound. That threshold is below `bound`, so it needs
  // computing only for r < bound.
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= bound || r >= (0 - bound) % bound) return r % bound;
  }
}

std::int64_t Rng::next_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("Rng::next_int: lo > hi");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  // span == 0 means the full 64-bit range.
  const std::uint64_t r = (span == 0) ? next_u64() : next_below(span);
  return lo + static_cast<std::int64_t>(r);
}

double Rng::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::next_double(double lo, double hi) {
  return lo + (hi - lo) * next_double();
}

bool Rng::next_bool(double p_true) { return next_double() < p_true; }

Rng Rng::fork() { return Rng(next_u64()); }

std::size_t Rng::pick_index(std::size_t size) {
  if (size == 0) throw std::invalid_argument("Rng::pick_index: empty range");
  return static_cast<std::size_t>(next_below(size));
}

std::vector<std::vector<Rng>> fork_streams(Rng& rng, std::size_t count,
                                           std::size_t streams_per_item) {
  std::vector<std::vector<Rng>> result(count);
  for (std::vector<Rng>& item : result) {
    item.reserve(streams_per_item);
    for (std::size_t s = 0; s < streams_per_item; ++s)
      item.push_back(rng.fork());
  }
  return result;
}

}  // namespace nexit::util
