#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/bandwidth_experiment.hpp"
#include "sim/distance_experiment.hpp"
#include "sim/spec.hpp"
#include "util/thread_pool.hpp"

namespace nexit::util {
namespace {

TEST(ThreadPool, CompletesAllTasks) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i)
    pool.submit([&count] { count.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ZeroWorkersRunsInlineOnCallingThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 0u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen;
  // No workers: submit executes immediately, so plain (unsynchronized)
  // writes are safe and the order is the submission order.
  for (int i = 0; i < 5; ++i)
    pool.submit([&seen] { seen.push_back(std::this_thread::get_id()); });
  EXPECT_EQ(seen.size(), 5u);  // done even before wait()
  pool.wait();
  for (const std::thread::id& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, OneWorkerRunsOffCallingThread) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.worker_count(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> off_thread{0};
  for (int i = 0; i < 10; ++i)
    pool.submit([&off_thread, caller] {
      if (std::this_thread::get_id() != caller) off_thread.fetch_add(1);
    });
  pool.wait();
  EXPECT_EQ(off_thread.load(), 10);
}

TEST(ThreadPool, PropagatesTaskException) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  for (int i = 0; i < 8; ++i)
    pool.submit([&completed, i] {
      if (i == 3) throw std::runtime_error("task 3 failed");
      completed.fetch_add(1);
    });
  EXPECT_THROW(pool.wait(), std::runtime_error);
  EXPECT_EQ(completed.load(), 7);  // the failure does not cancel other tasks
}

TEST(ThreadPool, PropagatesExceptionWithZeroWorkers) {
  ThreadPool pool(0);
  pool.submit([] { throw std::invalid_argument("inline failure"); });
  EXPECT_THROW(pool.wait(), std::invalid_argument);
}

TEST(ThreadPool, ReusableAfterWaitAndAfterError) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("first batch fails"); });
  EXPECT_THROW(pool.wait(), std::runtime_error);

  std::atomic<int> count{0};
  for (int i = 0; i < 20; ++i) pool.submit([&count] { count.fetch_add(1); });
  pool.wait();  // the earlier error was consumed by the previous wait()
  EXPECT_EQ(count.load(), 20);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  parallel_for(pool, hits.size(), [&hits](std::size_t i) { hits[i] += 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, EmptyRangeIsANoOp) {
  ThreadPool pool(2);
  parallel_for(pool, 0, [](std::size_t) { FAIL() << "body must not run"; });
}

TEST(WorkersForThreads, MapsUserFacingValues) {
  EXPECT_EQ(workers_for_threads(1), 0u);  // serial: no worker threads
  EXPECT_EQ(workers_for_threads(4), 4u);
  // Auto-detect behaves exactly like passing the hardware count — in
  // particular, on a 1-core machine it runs inline (0 workers).
  EXPECT_EQ(workers_for_threads(0),
            workers_for_threads(ThreadPool::hardware_threads()));
}

TEST(WorkersForThreads, RejectsImplausibleCounts) {
  // A negative flag value forced through a size_t cast must be a clear
  // error, not a 2^64-element vector reserve.
  EXPECT_THROW(workers_for_threads(static_cast<std::size_t>(-1)),
               std::invalid_argument);
  EXPECT_THROW(workers_for_threads(5000), std::invalid_argument);
  EXPECT_EQ(workers_for_threads(4096), 4096u);  // the documented bound
}

// ---------------------------------------------------------------------------
// Determinism: the experiment engines must produce bit-identical samples for
// every thread count (the per-pair Rng streams are pre-forked serially).
// ---------------------------------------------------------------------------

sim::ExperimentSpec small_spec(std::uint64_t seed, sim::ExperimentKind kind) {
  sim::ExperimentSpec spec;
  spec.experiment = kind;
  spec.isps = 18;
  spec.seed = seed;
  spec.pairs = 10;
  spec.pop_max = 24;  // the topology generator's default
  return spec;
}

void expect_identical(const std::vector<sim::DistanceSample>& a,
                      const std::vector<sim::DistanceSample>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("pair " + a[i].pair_label);
    EXPECT_EQ(a[i].pair_label, b[i].pair_label);
    EXPECT_EQ(a[i].interconnections, b[i].interconnections);
    EXPECT_EQ(a[i].flow_count, b[i].flow_count);
    EXPECT_EQ(a[i].flows_moved, b[i].flows_moved);
    EXPECT_EQ(a[i].default_km, b[i].default_km);
    EXPECT_EQ(a[i].optimal_km, b[i].optimal_km);
    EXPECT_EQ(a[i].negotiated_km, b[i].negotiated_km);
    EXPECT_EQ(a[i].pareto_km, b[i].pareto_km);
    EXPECT_EQ(a[i].bothbetter_km, b[i].bothbetter_km);
    for (int side = 0; side < 2; ++side) {
      EXPECT_EQ(a[i].default_side_km[side], b[i].default_side_km[side]);
      EXPECT_EQ(a[i].optimal_side_km[side], b[i].optimal_side_km[side]);
      EXPECT_EQ(a[i].negotiated_side_km[side], b[i].negotiated_side_km[side]);
    }
    EXPECT_EQ(a[i].flow_gain_pct_optimal, b[i].flow_gain_pct_optimal);
    EXPECT_EQ(a[i].flow_gain_pct_negotiated, b[i].flow_gain_pct_negotiated);
    EXPECT_EQ(a[i].flow_saving_km_negotiated, b[i].flow_saving_km_negotiated);
  }
}

TEST(ExperimentDeterminism, DistanceSamplesIdenticalAcrossThreadCounts) {
  sim::ExperimentSpec spec = small_spec(21, sim::ExperimentKind::kDistance);
  spec.flow_baselines = true;

  spec.threads = 1;
  const auto serial = sim::run_distance_experiment(spec);
  ASSERT_FALSE(serial.empty());

  for (std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    spec.threads = threads;
    expect_identical(serial, sim::run_distance_experiment(spec));
  }
}

TEST(ExperimentDeterminism, BandwidthSamplesIdenticalAcrossThreadCounts) {
  sim::ExperimentSpec spec = small_spec(5, sim::ExperimentKind::kBandwidth);
  spec.pairs = 6;
  spec.unilateral = true;

  spec.threads = 1;
  const auto serial = sim::run_bandwidth_experiment(spec);
  ASSERT_FALSE(serial.empty());

  spec.threads = 4;
  const auto parallel = sim::run_bandwidth_experiment(spec);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("sample " + std::to_string(i));
    EXPECT_EQ(serial[i].pair_label, parallel[i].pair_label);
    EXPECT_EQ(serial[i].failed_ix, parallel[i].failed_ix);
    EXPECT_EQ(serial[i].affected_flows, parallel[i].affected_flows);
    EXPECT_EQ(serial[i].affected_volume_fraction,
              parallel[i].affected_volume_fraction);
    EXPECT_EQ(serial[i].flows_moved, parallel[i].flows_moved);
    for (int side = 0; side < 2; ++side) {
      EXPECT_EQ(serial[i].mel_default[side], parallel[i].mel_default[side]);
      EXPECT_EQ(serial[i].mel_negotiated[side],
                parallel[i].mel_negotiated[side]);
      EXPECT_EQ(serial[i].mel_optimal[side], parallel[i].mel_optimal[side]);
      EXPECT_EQ(serial[i].mel_unilateral[side],
                parallel[i].mel_unilateral[side]);
    }
    EXPECT_EQ(serial[i].downstream_distance_gain_pct,
              parallel[i].downstream_distance_gain_pct);
  }
}

}  // namespace
}  // namespace nexit::util
