#pragma once

// The coordinator side of the distributed sweep/runtime layer: owns a pool
// of worker connections (spawn-local nexit_workerd children over AF_UNIX
// socketpairs, or pre-started daemons reached via dist.connect TCP
// endpoints), assigns jobs (serialized spec shards) in odometer order, and
// collects per-job results indexed by job id so the caller can fold
// digests in declaration order regardless of completion order — the
// property that makes any worker count bit-identical to in-process.
//
// Fault handling: a worker that dies (EOF, send failure, CRC poison),
// blows its per-job deadline, or sends a result it cannot have produced (a
// job index out of range or other than the job it holds, a histogram
// bucket out of range) is retired and its in-flight job requeued; a job is
// retried at most `retries` times before the run fails. Worker death is
// expected (the tests kill one mid-shard on purpose), so SIGPIPE is
// ignored for the coordinator's lifetime and children are reaped.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/registry.hpp"

namespace nexit::dist {

/// One unit of distributable work: a scenario name plus one fully
/// serialized point spec (dist.* keys already reset by the caller).
struct Job {
  std::string scenario;
  std::string label;  // human point label, "" for a single-shard run
  std::string spec_text;
};

/// What one job produced, shipped back from the worker: the run function's
/// exit code, the point digest, the pre-serialized JSON metric entries in
/// record order, and the obs snapshot to replay through the shared
/// obs-section emitter.
struct JobResult {
  int rc = -1;
  std::uint64_t digest = 0;
  std::string error;
  std::vector<std::pair<std::string, std::string>> metrics;
  obs::Snapshot obs;
};

struct CoordinatorConfig {
  /// Number of local worker processes to spawn (mutually exclusive with
  /// `connect`; spec validation enforces that).
  std::size_t workers = 0;
  /// Comma-separated host:port endpoints of pre-started nexit_workerd
  /// daemons.
  std::string connect;
  /// Directory for spawn-local worker stdout/stderr logs ("" = /dev/null).
  std::string log_dir;
  /// Per-job deadline: a worker silent this long on an assigned job is
  /// declared dead and its job reassigned.
  std::uint64_t timeout_ms = 120000;
  /// Reassignments allowed per job before the whole run fails.
  std::size_t retries = 2;
  /// Path of the worker binary for spawn-local mode; "" = nexit_workerd
  /// next to /proc/self/exe.
  std::string worker_path;
};

class Coordinator {
 public:
  /// Establishes the worker pool: spawns children or connects to the
  /// configured endpoints, then waits for each worker's DistHello (refusing
  /// protocol mismatches). Throws std::runtime_error when no worker can be
  /// established.
  explicit Coordinator(const CoordinatorConfig& config);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Runs every job to completion (or failure). On return 0, `*results`
  /// has exactly jobs.size() entries, results[i] corresponding to jobs[i]
  /// whatever order workers finished in. Non-zero = the pool died or some
  /// job exhausted its retries; partial results are still filled in.
  int run(const std::vector<Job>& jobs, std::vector<JobResult>* results);

  /// Live (not declared-dead) workers — exposed for tests and the bench.
  [[nodiscard]] std::size_t live_workers() const;

 private:
  struct Worker;

  void spawn_local(std::size_t index);
  void connect_remote(const std::string& endpoint);
  /// Declares a worker dead: closes its channel, requeues its in-flight
  /// job, reaps the child if it was spawn-local.
  void retire(Worker& worker, const std::string& why,
              std::vector<std::size_t>* queue,
              std::vector<std::size_t>* attempts);

  CoordinatorConfig config_;
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace nexit::dist
