#include "obs/registry.hpp"

#include <algorithm>
#include <bit>

namespace nexit::obs {

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kSelectProposal: return "select_proposal";
    case Phase::kEvaluateFull: return "evaluate_full";
    case Phase::kEvaluateIncremental: return "evaluate_incremental";
    case Phase::kLoadsMaintain: return "loads_maintain";
    case Phase::kQuantizationScale: return "quantization_scale";
    case Phase::kWireEncode: return "wire_encode";
    case Phase::kWireDecode: return "wire_decode";
    case Phase::kSessionPump: return "session_pump";
    case Phase::kCount: break;
  }
  return "?";
}

std::size_t histogram_bucket(std::uint64_t value) {
  return static_cast<std::size_t>(std::bit_width(value));
}

namespace {

std::uint64_t next_instance_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

Registry::Registry() : instance_id_(next_instance_id()) {}
Registry::~Registry() = default;

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

Registry::Shard& Registry::local_shard() {
  // Cache (instance id -> shard) per thread: almost always a one-element
  // scan. Shards are owned by the registry, so a thread exiting never
  // invalidates merged data; the instance id (never reused) keeps a cached
  // pointer from surviving its registry.
  struct TlsSlot {
    std::uint64_t instance = 0;
    Shard* shard = nullptr;
  };
  thread_local std::vector<TlsSlot> slots;
  for (const TlsSlot& slot : slots)
    if (slot.instance == instance_id_) return *slot.shard;

  const std::lock_guard<std::mutex> lock(mutex_);
  shards_.push_back(std::make_unique<Shard>());
  Shard* shard = shards_.back().get();
  slots.push_back(TlsSlot{instance_id_, shard});
  return *shard;
}

void Registry::add(const std::string& name, std::uint64_t delta) {
  local_shard().counters[name] += delta;
}

void Registry::observe(const std::string& name, std::uint64_t value) {
  Shard::Histogram& h = local_shard().histograms[name];
  ++h.count;
  h.sum += value;
  ++h.buckets[histogram_bucket(value)];
}

Snapshot Registry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, HistogramSnapshot> histograms;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    for (const auto& [name, value] : shard->counters) counters[name] += value;
    for (const auto& [name, h] : shard->histograms) {
      HistogramSnapshot& merged = histograms[name];
      if (merged.buckets.empty()) merged.buckets.assign(kHistogramBuckets, 0);
      merged.count += h.count;
      merged.sum += h.sum;
      for (std::size_t b = 0; b < kHistogramBuckets; ++b)
        merged.buckets[b] += h.buckets[b];
    }
  }
  Snapshot snap;
  snap.counters.reserve(counters.size());
  for (const auto& [name, value] : counters)
    snap.counters.push_back(CounterSnapshot{name, value});
  snap.histograms.reserve(histograms.size());
  for (auto& [name, merged] : histograms) {
    merged.name = name;
    snap.histograms.push_back(std::move(merged));
  }
  return snap;
}

void Registry::reset_counters() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const std::unique_ptr<Shard>& shard : shards_) {
    shard->counters.clear();
    shard->histograms.clear();
  }
}

void Registry::add_phase_ns(Phase p, std::uint64_t ns) {
  Shard& shard = local_shard();
  ++shard.phase_calls[static_cast<std::size_t>(p)];
  shard.phase_ns[static_cast<std::size_t>(p)] += ns;
}

std::vector<PhaseSnapshot> Registry::timing_snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<PhaseSnapshot> out(kPhaseCount);
  for (std::size_t p = 0; p < kPhaseCount; ++p)
    out[p].name = phase_name(static_cast<Phase>(p));
  for (const std::unique_ptr<Shard>& shard : shards_) {
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      out[p].calls += shard->phase_calls[p];
      out[p].ns += shard->phase_ns[p];
    }
  }
  return out;
}

void Registry::reset_timing() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::fill(std::begin(shard->phase_calls), std::end(shard->phase_calls), 0);
    std::fill(std::begin(shard->phase_ns), std::end(shard->phase_ns), 0);
  }
}

}  // namespace nexit::obs
