#include "dist/coordinator.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <stdexcept>
#include <string>

#include "dist/framed.hpp"
#include "dist/tcp_channel.hpp"
#include "obs/wall_clock.hpp"
#include "proto/dist_messages.hpp"

namespace nexit::dist {

namespace {

/// Directory holding the running binary, so spawn-local mode finds
/// nexit_workerd beside nexit_run without configuration.
std::string self_dir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return ".";
  buf[n] = '\0';
  const std::string path(buf);
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? "." : path.substr(0, slash);
}

std::vector<std::string> split_list(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t end = s.find(sep, start);
    if (end == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

int clamp_timeout(std::uint64_t ms) {
  return ms > static_cast<std::uint64_t>(1u << 30) ? (1 << 30)
                                                   : static_cast<int>(ms);
}

/// Reaps a spawn-local child: polls non-blocking for `grace_ms`, then
/// SIGKILLs and collects it — the coordinator must never hang on a wedged
/// worker during teardown.
void reap(pid_t pid, int grace_ms) {
  if (pid <= 0) return;
  const auto t0 = obs::WallClock::now();
  for (;;) {
    const pid_t r = ::waitpid(pid, nullptr, WNOHANG);
    if (r == pid || (r < 0 && errno == ECHILD)) return;
    if (obs::WallClock::ms_since(t0) > grace_ms) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
      return;
    }
    pollfd unused{-1, 0, 0};
    ::poll(&unused, 0, 10);  // sleep a tick without a banned sleep call
  }
}

/// Why a worker's result cannot be accepted, or "" when it can. A worker
/// answers only the job it holds (a retired worker's channel is closed, so
/// no late answer arrives). The rest would fold into a quietly wrong
/// record: an rc that disagrees with the error (non-empty iff rc != 0),
/// counters not strictly sorted by name (the registry's order, so a
/// duplicate shows here too), a repeated histogram, or a histogram bucket
/// outside the registry's range.
std::string reply_fault(const proto::DistResult& r, std::size_t job_count,
                        bool busy, std::size_t job) {
  if (r.job >= job_count) {
    return "result for job " + std::to_string(r.job) + ", out of range (" +
           std::to_string(job_count) + " jobs)";
  }
  if (!busy)
    return "result for job " + std::to_string(r.job) + " while holding none";
  if (r.job != job) {
    return "result for job " + std::to_string(r.job) +
           ", not its in-flight job " + std::to_string(job);
  }
  if ((r.rc != 0) != !r.error.empty()) {
    return "rc " + std::to_string(r.rc) +
           (r.error.empty() ? " without an error" : " with error \"" + r.error + "\"");
  }
  for (std::size_t i = 1; i < r.counters.size(); ++i) {
    if (!(r.counters[i - 1].first < r.counters[i].first)) {
      return "counter " + r.counters[i].first + " out of order after " +
             r.counters[i - 1].first;
    }
  }
  std::set<std::string> histograms;
  for (const proto::DistObsHistogram& h : r.histograms) {
    if (!histograms.insert(h.name).second)
      return "histogram " + h.name + " repeated";
    for (const auto& [bucket, count] : h.buckets) {
      if (bucket >= obs::kHistogramBuckets) {
        return "histogram " + h.name + " bucket " + std::to_string(bucket) +
               " out of range";
      }
    }
  }
  return "";
}

}  // namespace

struct Coordinator::Worker {
  std::unique_ptr<FramedChannel> channel;
  pid_t pid = -1;   // spawn-local child pid; -1 for dist.connect daemons
  std::string name;
  bool alive = false;
  bool busy = false;
  std::size_t job = 0;  // in-flight job index, valid while busy
  std::size_t jobs_assigned = 0;
  obs::WallClock::TimePoint assigned_at;
};

Coordinator::Coordinator(const CoordinatorConfig& config) : config_(config) {
  // Workers die on purpose in the fault tests; a write into a dead pipe
  // must surface as EPIPE on the send, not kill the coordinator.
  ::signal(SIGPIPE, SIG_IGN);

  if (!config_.connect.empty()) {
    for (const std::string& endpoint : split_list(config_.connect, ','))
      connect_remote(endpoint);
  } else {
    for (std::size_t i = 0; i < config_.workers; ++i) spawn_local(i);
  }
  if (workers_.empty()) throw std::runtime_error("no workers configured");

  // Every connection opens with the worker's hello; a protocol mismatch or
  // an immediately-dead child (exec failure) is a setup error, not a
  // mid-run fault, so it fails the whole run loudly.
  const int hello_timeout = clamp_timeout(config_.timeout_ms);
  for (std::unique_ptr<Worker>& w : workers_) {
    std::optional<proto::DistMessage> hello = w->channel->receive(hello_timeout);
    if (!hello || !std::holds_alternative<proto::DistHello>(*hello)) {
      throw std::runtime_error(w->name + ": no hello from worker (" +
                               (w->channel->error().empty()
                                    ? "timeout or worker exited"
                                    : w->channel->error()) +
                               ")");
    }
    const auto& h = std::get<proto::DistHello>(*hello);
    if (h.protocol != proto::kDistProtocolVersion) {
      throw std::runtime_error(
          w->name + ": dist protocol mismatch (worker speaks v" +
          std::to_string(h.protocol) + ", coordinator v" +
          std::to_string(proto::kDistProtocolVersion) + ")");
    }
    w->alive = true;
  }
}

Coordinator::~Coordinator() {
  for (std::unique_ptr<Worker>& w : workers_) {
    if (w->alive) w->channel->send(proto::DistShutdown{}, 1000);
    w->channel->channel().close();
  }
  for (std::unique_ptr<Worker>& w : workers_) reap(w->pid, 2000);
}

void Coordinator::spawn_local(std::size_t index) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
    throw std::runtime_error("socketpair failed spawning worker");

  const std::string binary = config_.worker_path.empty()
                                 ? self_dir() + "/nexit_workerd"
                                 : config_.worker_path;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("fork failed spawning worker");
  }
  if (pid == 0) {
    ::close(fds[0]);
    const std::string log =
        config_.log_dir.empty()
            ? "/dev/null"
            : config_.log_dir + "/worker" + std::to_string(index) + ".log";
    const int logfd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (logfd >= 0) {
      ::dup2(logfd, 1);
      ::dup2(logfd, 2);
      ::close(logfd);
    }
    const std::string fd_arg = "--fd=" + std::to_string(fds[1]);
    ::execl(binary.c_str(), binary.c_str(), fd_arg.c_str(),
            static_cast<char*>(nullptr));
    // Exec failed; the parent sees EOF instead of a hello and reports it.
    _exit(127);
  }
  ::close(fds[1]);
  auto w = std::make_unique<Worker>();
  w->channel = std::make_unique<FramedChannel>(agent::make_fd_channel(fds[0]));
  w->pid = pid;
  w->name = "worker" + std::to_string(index);
  workers_.push_back(std::move(w));
}

void Coordinator::connect_remote(const std::string& endpoint) {
  std::string host;
  std::uint16_t port = 0;
  if (!parse_endpoint(endpoint, &host, &port))
    throw std::runtime_error("malformed dist.connect endpoint: " + endpoint);
  auto w = std::make_unique<Worker>();
  w->channel = std::make_unique<FramedChannel>(
      tcp_connect(host, port, clamp_timeout(config_.timeout_ms)));
  w->name = endpoint;
  workers_.push_back(std::move(w));
}

void Coordinator::retire(Worker& worker, const std::string& why,
                         std::vector<std::size_t>* queue,
                         std::vector<std::size_t>* attempts) {
  if (!worker.alive) return;
  worker.alive = false;
  worker.channel->channel().close();
  reap(worker.pid, 0);
  if (worker.busy) {
    worker.busy = false;
    // Back to the FRONT of the queue: the orphaned job keeps its odometer
    // priority, which keeps retry runs finishing in near-declaration order.
    queue->insert(queue->begin(), worker.job);
    ++(*attempts)[worker.job];
    std::fprintf(stderr,
                 "dist: %s lost (%s); reassigning job %zu (attempt %zu)\n",
                 worker.name.c_str(), why.c_str(), worker.job,
                 (*attempts)[worker.job]);
  } else {
    std::fprintf(stderr, "dist: %s lost (%s)\n", worker.name.c_str(),
                 why.c_str());
  }
}

std::size_t Coordinator::live_workers() const {
  std::size_t n = 0;
  for (const std::unique_ptr<Worker>& w : workers_)
    if (w->alive) ++n;
  return n;
}

int Coordinator::run(const std::vector<Job>& jobs,
                     std::vector<JobResult>* results) {
  results->assign(jobs.size(), JobResult{});
  std::vector<std::size_t> attempts(jobs.size(), 0);
  std::vector<std::size_t> queue;
  queue.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) queue.push_back(i);

  // Deterministic fault-injection hook for the tests and the CI smoke run:
  // NEXIT_DIST_TEST_KILL="<worker>:<nth>" SIGKILLs that spawn-local worker
  // right as its nth job is assigned — a reproducible mid-shard death.
  std::size_t kill_worker = static_cast<std::size_t>(-1);
  std::size_t kill_at = 0;
  if (const char* spec = std::getenv("NEXIT_DIST_TEST_KILL")) {
    unsigned long w = 0, k = 0;
    if (std::sscanf(spec, "%lu:%lu", &w, &k) == 2) {
      kill_worker = w;
      kill_at = k;
    }
  }

  std::size_t completed = 0;
  while (completed < jobs.size()) {
    // Hand every idle live worker the next queued job.
    for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
      Worker& w = *workers_[wi];
      if (!w.alive || w.busy || queue.empty()) continue;
      const std::size_t j = queue.front();
      queue.erase(queue.begin());
      if (attempts[j] > config_.retries) {
        std::fprintf(stderr,
                     "error: dist: job %zu failed %zu times; giving up\n", j,
                     attempts[j]);
        return 3;
      }
      w.busy = true;
      w.job = j;
      w.assigned_at = obs::WallClock::now();
      ++w.jobs_assigned;
      if (wi == kill_worker && w.jobs_assigned == kill_at && w.pid > 0)
        ::kill(w.pid, SIGKILL);
      const proto::DistJob msg{static_cast<std::uint32_t>(j),
                               jobs[j].scenario, jobs[j].label,
                               jobs[j].spec_text};
      if (!w.channel->send(msg, clamp_timeout(config_.timeout_ms)))
        retire(w, "send failed: " + w.channel->error(), &queue, &attempts);
    }

    if (live_workers() == 0) {
      std::fprintf(stderr, "error: dist: all workers dead, %zu/%zu jobs done\n",
                   completed, jobs.size());
      return 3;
    }

    // Wait for any worker to speak (or a deadline to pass). Idle workers
    // are polled too: a daemon dropping its connection between jobs should
    // retire immediately, not on its next assignment.
    std::vector<pollfd> pfds;
    std::vector<std::size_t> pfd_worker;
    int wait_ms = 1000;
    for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
      Worker& w = *workers_[wi];
      if (!w.alive) continue;
      pfds.push_back(pollfd{w.channel->poll_fd(), POLLIN, 0});
      pfd_worker.push_back(wi);
      if (w.busy) {
        const double left =
            static_cast<double>(config_.timeout_ms) -
            obs::WallClock::ms_since(w.assigned_at);
        const int left_ms = left > 0 ? static_cast<int>(left) + 1 : 0;
        if (left_ms < wait_ms) wait_ms = left_ms;
      }
    }
    const int rc = ::poll(pfds.data(), pfds.size(), wait_ms);
    if (rc < 0 && errno != EINTR)
      throw std::runtime_error("poll failed in coordinator loop");

    for (const std::size_t wi : pfd_worker) {
      Worker& w = *workers_[wi];
      if (!w.alive) continue;
      for (;;) {
        std::optional<proto::DistMessage> message = w.channel->poll_message();
        if (!message) break;
        if (!std::holds_alternative<proto::DistResult>(*message)) {
          retire(w, "unexpected message type", &queue, &attempts);
          break;
        }
        auto& r = std::get<proto::DistResult>(*message);
        const std::string fault = reply_fault(r, jobs.size(), w.busy, w.job);
        if (!fault.empty()) {
          retire(w, fault, &queue, &attempts);
          break;
        }
        JobResult& out = (*results)[r.job];
        out.rc = r.rc;
        out.digest = r.digest;
        out.error = std::move(r.error);
        out.metrics = std::move(r.metrics);
        out.obs.counters.reserve(r.counters.size());
        for (const auto& [name, value] : r.counters)
          out.obs.counters.push_back(obs::CounterSnapshot{name, value});
        out.obs.histograms.reserve(r.histograms.size());
        for (const proto::DistObsHistogram& h : r.histograms) {
          obs::HistogramSnapshot hs;
          hs.name = h.name;
          hs.count = h.count;
          hs.sum = h.sum;
          hs.buckets.assign(obs::kHistogramBuckets, 0);
          for (const auto& [bucket, count] : h.buckets)
            hs.buckets[bucket] = count;
          out.obs.histograms.push_back(std::move(hs));
        }
        ++completed;
        w.busy = false;
      }
      if (!w.alive) continue;
      if (w.channel->failed()) {
        retire(w, w.channel->error().empty() ? "connection closed"
                                             : w.channel->error(),
               &queue, &attempts);
      } else if (w.busy && obs::WallClock::ms_since(w.assigned_at) >
                               static_cast<double>(config_.timeout_ms)) {
        retire(w, "job deadline exceeded", &queue, &attempts);
      }
    }
  }
  return 0;
}

}  // namespace nexit::dist
