// The distributed sweep & runtime layer (src/dist): dist message framing
// round trips, malformed-frame rejection, the TCP channel transport, the
// coordinator/worker job protocol, and the headline contract — a sweep
// sharded across worker processes produces a byte-identical JSON record
// and digest for every worker count, including after a worker is killed
// mid-shard.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "agent/channel.hpp"
#include "dist/coordinator.hpp"
#include "dist/framed.hpp"
#include "dist/tcp_channel.hpp"
#include "dist/worker.hpp"
#include "proto/dist_messages.hpp"
#include "proto/frame.hpp"
#include "runtime/scenario.hpp"
#include "sim/scenarios.hpp"
#include "sim/spec.hpp"
#include "test_digest.hpp"
#include "util/digest.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"

namespace nexit {
namespace {

using nexit::testing::kv_flags;
using nexit::testing::read_file;
using nexit::testing::temp_path;

/// Directory of this test binary — where the build put nexit_workerd too.
std::string build_dir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return ".";
  buf[n] = '\0';
  const std::string path(buf);
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? "." : path.substr(0, slash);
}

bool workerd_available() {
  return ::access((build_dir() + "/nexit_workerd").c_str(), X_OK) == 0;
}

// --- dist message framing ------------------------------------------------

proto::DistResult sample_result() {
  proto::DistResult r;
  r.job = 3;
  r.rc = 0;
  r.digest = 0xdeadbeefcafef00dull;
  r.metrics = {{"mean_gain", "1.25"}, {"digest-excluded", "\"text\""}};
  r.counters = {{"engine.proposals", 42}, {"wire.frames", 7}};
  proto::DistObsHistogram h;
  h.name = "wire.frame_bytes";
  h.count = 7;
  h.sum = 900;
  h.buckets = {{5, 3}, {8, 4}};
  r.histograms = {h};
  return r;
}

TEST(DistMessages, SpecShardRoundTripsThroughFraming) {
  sim::ExperimentSpec spec;
  spec.merge_from_flags(kv_flags({"isps=12", "pairs=2", "seed=7"}));
  proto::DistJob job;
  job.job = 5;
  job.scenario = "custom";
  job.label = "isps=12";
  job.spec_text = spec.to_text();

  const proto::Bytes stream =
      proto::encode_frame(proto::encode_dist_message(job));
  // Feed one byte at a time: the decoder must reassemble across arbitrary
  // chunk boundaries (what TCP actually delivers).
  proto::FrameDecoder decoder;
  std::optional<proto::Frame> frame;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_FALSE(frame.has_value());
    decoder.feed(stream.data() + i, 1);
    if (auto f = decoder.next()) frame = std::move(f);
  }
  ASSERT_TRUE(frame.has_value());
  auto decoded = proto::decode_dist_message(*frame);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  ASSERT_TRUE(std::holds_alternative<proto::DistJob>(decoded.value()));
  const auto& round = std::get<proto::DistJob>(decoded.value());
  EXPECT_EQ(round, job);

  // And the shard's spec text reparses into the identical spec.
  sim::ExperimentSpec reparsed;
  std::vector<std::string> lines;
  std::istringstream in(round.spec_text);
  for (std::string line; std::getline(in, line);)
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  reparsed.merge_from_flags(kv_flags(lines));
  EXPECT_EQ(spec, reparsed);
}

TEST(DistMessages, AllTypesRoundTrip) {
  const proto::DistMessage messages[] = {
      proto::DistHello{}, proto::DistJob{9, "fig4", "p", "isps=12\n"},
      sample_result(), proto::DistShutdown{}};
  for (const proto::DistMessage& m : messages) {
    proto::FrameDecoder decoder;
    decoder.feed(proto::encode_frame(proto::encode_dist_message(m)));
    auto frame = decoder.next();
    ASSERT_TRUE(frame.has_value());
    auto decoded = proto::decode_dist_message(*frame);
    ASSERT_TRUE(decoded.ok()) << decoded.error().message;
    EXPECT_EQ(decoded.value(), m);
  }
}

TEST(DistMessages, MalformedAndTruncatedFramesAreRejected) {
  // A negotiation-protocol type byte is not a dist message.
  proto::Frame wrong;
  wrong.type = 1;
  EXPECT_FALSE(proto::decode_dist_message(wrong).ok());

  // A truncated payload fails cleanly, never over-reads.
  proto::Frame truncated = proto::encode_dist_message(sample_result());
  truncated.payload.resize(truncated.payload.size() / 2);
  EXPECT_FALSE(proto::decode_dist_message(truncated).ok());

  // Trailing garbage after a valid payload is rejected too.
  proto::Frame padded = proto::encode_dist_message(proto::DistHello{});
  padded.payload.push_back(0);
  EXPECT_FALSE(proto::decode_dist_message(padded).ok());

  // Seeded fuzz (the proto_fuzz discipline): random payloads under the
  // dist type bytes must produce error Results, not crashes.
  util::Rng rng(0xd157);
  for (int trial = 0; trial < 300; ++trial) {
    proto::Frame f;
    f.type = static_cast<std::uint8_t>(16 + rng.next_below(4));
    f.payload.resize(rng.next_below(128));
    for (auto& b : f.payload)
      b = static_cast<std::uint8_t>(rng.next_below(256));
    const auto result = proto::decode_dist_message(f);
    if (!result.ok()) {
      EXPECT_FALSE(result.error().message.empty());
    }
  }

  // A bit flip inside an encoded job frame is caught at the CRC layer.
  proto::Bytes stream = proto::encode_frame(
      proto::encode_dist_message(proto::DistJob{1, "custom", "", "seed=1\n"}));
  stream[stream.size() / 2] ^= 0x20;
  proto::FrameDecoder decoder;
  decoder.feed(stream);
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_TRUE(decoder.failed());
}

TEST(DistMessages, OverCapCountsAndOverwideValuesAreRejected) {
  const auto result_frame = [](auto tail) {
    proto::Writer w;
    w.put_varint(3);  // job
    w.put_signed(0);  // rc
    w.put_varint(0);  // digest
    w.put_string("");
    tail(w);
    return proto::Frame{
        static_cast<std::uint8_t>(proto::DistMessageType::kDistResult),
        std::move(w).take()};
  };
  // A metrics count over the list cap, last in the payload: not an ok
  // result with no metrics, counters or histograms.
  EXPECT_FALSE(proto::decode_dist_message(result_frame([](proto::Writer& w) {
                 w.put_varint(proto::Reader::kMaxCount + 1);
               })).ok());
  // A histogram bucket of 2^32 + 3 is not bucket 3.
  EXPECT_FALSE(proto::decode_dist_message(result_frame([](proto::Writer& w) {
                 w.put_varint(0);  // metrics
                 w.put_varint(0);  // counters
                 w.put_varint(1);  // histograms
                 w.put_string("wire.frame_bytes");
                 w.put_varint(1);  // count
                 w.put_varint(9);  // sum
                 w.put_varint(1);  // buckets
                 w.put_varint((std::uint64_t{1} << 32) + 3);
                 w.put_varint(1);
               })).ok());
}

// --- TCP transport -------------------------------------------------------

TEST(TcpChannel, ParseEndpoint) {
  std::string host;
  std::uint16_t port = 0;
  EXPECT_TRUE(dist::parse_endpoint("127.0.0.1:9000", &host, &port));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 9000);
  EXPECT_TRUE(dist::parse_endpoint("localhost:1", &host, &port));
  EXPECT_FALSE(dist::parse_endpoint("no-port", &host, &port));
  EXPECT_FALSE(dist::parse_endpoint(":123", &host, &port));
  EXPECT_FALSE(dist::parse_endpoint("host:", &host, &port));
  EXPECT_FALSE(dist::parse_endpoint("host:abc", &host, &port));
  EXPECT_FALSE(dist::parse_endpoint("host:70000", &host, &port));
  EXPECT_FALSE(dist::parse_endpoint("host:123x", &host, &port));
}

TEST(TcpChannel, LoopbackPairCarriesFramesAcrossPartialWrites) {
  auto pair = dist::make_tcp_channel_pair();
  dist::FramedChannel a(std::move(pair.first));
  dist::FramedChannel b(std::move(pair.second));

  // A job bigger than any socket buffer: the sender must loop on short
  // writes while the receiver reassembles partial reads.
  proto::DistJob big;
  big.job = 1;
  big.scenario = "custom";
  big.spec_text.assign(300000, 'x');

  std::optional<proto::DistMessage> received;
  std::thread receiver([&] { received = b.receive(10000); });
  EXPECT_TRUE(a.send(big, 10000));
  receiver.join();
  ASSERT_TRUE(received.has_value());
  ASSERT_TRUE(std::holds_alternative<proto::DistJob>(*received));
  EXPECT_EQ(std::get<proto::DistJob>(*received), big);

  // Closing one end surfaces as failure on the other, not a hang.
  a.channel().close();
  EXPECT_FALSE(b.receive(1000).has_value());
  EXPECT_TRUE(b.failed());
}

TEST(TcpChannel, RuntimeNegotiationOverTcpMatchesUnixSocketpair) {
  // The same declared runtime timeline over AF_UNIX socketpairs and over
  // TCP loopback pairs must land on the identical outcome digest — the
  // transport is below the determinism line.
  const std::vector<std::string> base = {
      "experiment=runtime",  "isps=30",   "seed=11",
      "pairs=1",             "traffic=gravity",
      "runtime.min-links=3", "runtime.burst=2",
      "runtime.events=fail@1/0/busiest"};
  auto run_with = [&](const std::string& transport) {
    sim::ExperimentSpec spec;
    std::vector<std::string> lines = base;
    lines.push_back("runtime.transport=" + transport);
    spec.merge_from_flags(kv_flags(lines));
    std::string error;
    EXPECT_TRUE(spec.validate(&error)) << error;
    runtime::Scenario scenario(spec.to_runtime_config());
    return runtime::outcome_digest(scenario.run());
  };
  EXPECT_EQ(run_with("socket"), run_with("tcp"));
}

// --- spec surface --------------------------------------------------------

TEST(DistSpec, ValidateRejectsUnshardableAndConflictingConfigs) {
  std::string error;

  // dist.* needs something to shard: a single-point distance run has
  // exactly one unit of work.
  sim::ExperimentSpec single;
  single.merge_from_flags(kv_flags({"dist.workers=2"}));
  EXPECT_FALSE(single.validate(&error));
  EXPECT_NE(error.find("dist.workers"), std::string::npos) << error;

  // A declared sweep or a runtime timeline is shardable.
  sim::ExperimentSpec sweep;
  sweep.merge_from_flags(kv_flags({"dist.workers=2", "sweep.isps=12,14"}));
  EXPECT_TRUE(sweep.validate(&error)) << error;
  sim::ExperimentSpec rt;
  rt.merge_from_flags(kv_flags({"experiment=runtime", "dist.workers=2"}));
  EXPECT_TRUE(rt.validate(&error)) << error;

  // Spawn-local and connect modes are mutually exclusive.
  sim::ExperimentSpec both;
  both.merge_from_flags(kv_flags({"dist.workers=2",
                                  "dist.connect=127.0.0.1:9000",
                                  "sweep.isps=12,14"}));
  EXPECT_FALSE(both.validate(&error));

  // Per-process obs artifacts cannot combine with distribution.
  sim::ExperimentSpec traced;
  traced.merge_from_flags(kv_flags(
      {"dist.workers=2", "sweep.isps=12,14", "obs.trace=/tmp/t.json"}));
  EXPECT_FALSE(traced.validate(&error));
  EXPECT_NE(error.find("obs.trace"), std::string::npos) << error;
  sim::ExperimentSpec timed;
  timed.merge_from_flags(
      kv_flags({"dist.workers=2", "sweep.isps=12,14", "obs.timing=true"}));
  EXPECT_FALSE(timed.validate(&error));

  // Endpoint grammar and timeout bounds.
  sim::ExperimentSpec bad_ep;
  bad_ep.merge_from_flags(
      kv_flags({"dist.connect=nocolon", "sweep.isps=12,14"}));
  EXPECT_FALSE(bad_ep.validate(&error));
  EXPECT_NE(error.find("dist.connect"), std::string::npos) << error;
  // A port past 65535 fails here, not later in the coordinator's connect.
  sim::ExperimentSpec big_port;
  big_port.merge_from_flags(
      kv_flags({"dist.connect=host:70000", "sweep.isps=12,14"}));
  EXPECT_FALSE(big_port.validate(&error));
  EXPECT_NE(error.find("host:70000"), std::string::npos) << error;
  sim::ExperimentSpec zero;
  zero.merge_from_flags(kv_flags(
      {"dist.workers=2", "dist.timeout-ms=0", "sweep.isps=12,14"}));
  EXPECT_FALSE(zero.validate(&error));
}

TEST(DistSpec, KeysRoundTripThroughSerialization) {
  sim::ExperimentSpec s;
  s.merge_from_flags(kv_flags({"dist.workers=4", "dist.timeout-ms=5000",
                               "dist.retries=1", "dist.log-dir=/tmp/wl",
                               "sweep.isps=12,14"}));
  sim::ExperimentSpec reparsed;
  std::vector<std::string> lines;
  for (const auto& [key, value] : s.to_key_values())
    lines.push_back(key + "=" + value);
  reparsed.merge_from_flags(kv_flags(lines));
  EXPECT_EQ(s, reparsed);
  EXPECT_EQ(reparsed.dist.workers, 4u);
  EXPECT_EQ(reparsed.dist.timeout_ms, 5000u);
  EXPECT_EQ(reparsed.dist.retries, 1u);
  EXPECT_EQ(reparsed.dist.log_dir, "/tmp/wl");
}

// --- worker serve loop ---------------------------------------------------

TEST(DistWorker, ServeRunsJobsAndRejectsBadOnesWithoutDying) {
  auto pair = agent::make_socket_channel_pair();
  dist::FramedChannel worker_side(std::move(pair.first));
  dist::FramedChannel coord_side(std::move(pair.second));
  int serve_rc = -1;
  std::thread worker([&] { serve_rc = dist::serve(worker_side); });

  auto hello = coord_side.receive(10000);
  ASSERT_TRUE(hello.has_value());
  ASSERT_TRUE(std::holds_alternative<proto::DistHello>(*hello));
  EXPECT_EQ(std::get<proto::DistHello>(*hello).protocol,
            proto::kDistProtocolVersion);

  // An unknown scenario comes back rc 2 — and the worker stays up.
  ASSERT_TRUE(
      coord_side.send(proto::DistJob{1, "nope", "", "seed=1\n"}, 10000));
  auto reply = coord_side.receive(10000);
  ASSERT_TRUE(reply.has_value());
  ASSERT_TRUE(std::holds_alternative<proto::DistResult>(*reply));
  EXPECT_EQ(std::get<proto::DistResult>(*reply).rc, 2);
  EXPECT_NE(std::get<proto::DistResult>(*reply).error.find("nope"),
            std::string::npos);

  // So does a spec with a key this build does not know.
  ASSERT_TRUE(
      coord_side.send(proto::DistJob{2, "custom", "", "bogus=1\n"}, 10000));
  reply = coord_side.receive(10000);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(std::get<proto::DistResult>(*reply).rc, 2);

  // A job is held to its preset's input rules, like nexit_run: another
  // preset's variant axis, an axis the preset does not own (a point carries
  // none), and a locked key each come back rc 2 instead of running as a
  // plain fig4/fig8.
  const auto rejected = [&](std::uint32_t id, const char* scenario,
                            const std::vector<std::string>& keys) {
    sim::ExperimentSpec job_spec;
    job_spec.merge_from_flags(kv_flags(keys));
    EXPECT_TRUE(coord_side.send(
        proto::DistJob{id, scenario, "", job_spec.to_text()}, 30000));
    const auto result = coord_side.receive(30000);
    EXPECT_TRUE(result.has_value());
    if (!result.has_value()) return std::string();
    EXPECT_EQ(std::get<proto::DistResult>(*result).rc, 2) << scenario;
    return std::get<proto::DistResult>(*result).error;
  };
  const std::vector<std::string> small = {"isps=12", "pairs=2"};
  auto with = [&](const std::string& key) {
    std::vector<std::string> keys = small;
    keys.push_back(key);
    return keys;
  };
  EXPECT_NE(rejected(10, "fig4", with("sweep.model=paper")).find("abl_models"),
            std::string::npos);
  EXPECT_NE(rejected(11, "fig4", with("sweep.isps=12,16")).find("sweep.isps"),
            std::string::npos);
  EXPECT_NE(rejected(12, "fig8",
                     {"experiment=bandwidth", "isps=12", "pairs=2",
                      "unilateral=false"})
                .find("unilateral"),
            std::string::npos);

  // A real shard produces a digest, serialized metrics, and obs counters.
  sim::ExperimentSpec spec;
  spec.merge_from_flags(kv_flags({"isps=12", "pairs=2"}));
  ASSERT_TRUE(coord_side.send(
      proto::DistJob{3, "custom", "", spec.to_text()}, 30000));
  reply = coord_side.receive(30000);
  ASSERT_TRUE(reply.has_value());
  const auto& result = std::get<proto::DistResult>(*reply);
  EXPECT_EQ(result.job, 3u);
  EXPECT_EQ(result.rc, 0);
  EXPECT_NE(result.digest, 0u);
  EXPECT_FALSE(result.metrics.empty());
  EXPECT_FALSE(result.counters.empty());

  ASSERT_TRUE(coord_side.send(proto::DistShutdown{}, 10000));
  worker.join();
  EXPECT_EQ(serve_rc, 0);
}

// --- end-to-end bit-identity ---------------------------------------------

/// Runs the reference sweep under `extra` flags into `json_path` and
/// returns run_scenario's exit code.
int run_sweep(const std::vector<std::string>& extra,
              const std::string& json_path) {
  std::vector<std::string> flags = {"isps=12", "pairs=2", "sweep.isps=12,14",
                                    "json=" + json_path};
  flags.insert(flags.end(), extra.begin(), extra.end());
  return sim::run_scenario(*sim::find_scenario("custom"), kv_flags(flags));
}

TEST(DistRun, SweepRecordIsByteIdenticalForEveryWorkerCount) {
  if (!workerd_available()) GTEST_SKIP() << "nexit_workerd not built";
  const std::string base = temp_path("_inproc.json");
  ASSERT_EQ(run_sweep({}, base), 0);
  const std::string reference = read_file(base);
  ASSERT_NE(reference.find("\"digest\""), std::string::npos);
  for (const std::size_t workers : {1u, 2u, 4u}) {
    const std::string path =
        temp_path("_w" + std::to_string(workers) + ".json");
    ASSERT_EQ(
        run_sweep({"dist.workers=" + std::to_string(workers)}, path), 0);
    EXPECT_EQ(read_file(path), reference)
        << "record must be byte-identical at dist.workers=" << workers;
    std::remove(path.c_str());
  }
  std::remove(base.c_str());
}

TEST(DistRun, WorkerKilledMidShardStillYieldsIdenticalRecord) {
  if (!workerd_available()) GTEST_SKIP() << "nexit_workerd not built";
  const std::string base = temp_path("_inproc.json");
  ASSERT_EQ(run_sweep({}, base), 0);
  const std::string dist_path = temp_path("_killed.json");
  // Worker 0 is SIGKILLed as its first job is assigned; the coordinator
  // must detect the death and reassign without disturbing the record.
  ::setenv("NEXIT_DIST_TEST_KILL", "0:1", 1);
  const int rc = run_sweep({"dist.workers=2"}, dist_path);
  ::unsetenv("NEXIT_DIST_TEST_KILL");
  ASSERT_EQ(rc, 0);
  EXPECT_EQ(read_file(dist_path), read_file(base));
  std::remove(base.c_str());
  std::remove(dist_path.c_str());
}

TEST(DistRun, RuntimeTimelineShardsAsASingleJob) {
  if (!workerd_available()) GTEST_SKIP() << "nexit_workerd not built";
  const std::vector<std::string> base = {
      "experiment=runtime",  "isps=30",  "seed=11",
      "pairs=1",             "traffic=gravity",
      "runtime.min-links=3", "runtime.burst=2",
      "runtime.events=fail@1/0/busiest"};
  const std::string inproc = temp_path("_inproc.json");
  const std::string sharded = temp_path("_dist.json");
  std::vector<std::string> flags = base;
  flags.push_back("json=" + inproc);
  ASSERT_EQ(sim::run_scenario(*sim::find_scenario("custom"), kv_flags(flags)),
            0);
  flags.back() = "json=" + sharded;
  flags.push_back("dist.workers=1");
  ASSERT_EQ(sim::run_scenario(*sim::find_scenario("custom"), kv_flags(flags)),
            0);
  EXPECT_EQ(read_file(sharded), read_file(inproc));
  std::remove(inproc.c_str());
  std::remove(sharded.c_str());
}

// --- bad worker replies ----------------------------------------------------

/// A worker behind a loopback TcpListener: `serve` runs on its own thread
/// over the one connection the coordinator opens.
class LoopbackWorker {
 public:
  explicit LoopbackWorker(std::function<void(dist::FramedChannel&)> serve)
      : listener_("127.0.0.1", 0), thread_([this, serve] {
          std::unique_ptr<agent::Channel> channel = listener_.accept(30000);
          if (channel == nullptr) return;
          dist::FramedChannel framed(std::move(channel));
          serve(framed);
        }) {}
  ~LoopbackWorker() { thread_.join(); }
  LoopbackWorker(const LoopbackWorker&) = delete;
  LoopbackWorker& operator=(const LoopbackWorker&) = delete;

  [[nodiscard]] std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(listener_.port());
  }

 private:
  dist::TcpListener listener_;
  std::thread thread_;
};

using Reply = std::function<proto::DistResult(const proto::DistJob&)>;

/// A scripted stand-in for nexit_workerd: says hello and answers every job
/// with `reply(job)` until the coordinator hangs up.
void scripted_worker(dist::FramedChannel& channel, const Reply& reply) {
  if (!channel.send(proto::DistHello{}, 30000)) return;
  while (auto message = channel.receive(30000)) {
    if (!std::holds_alternative<proto::DistJob>(*message)) return;
    if (!channel.send(reply(std::get<proto::DistJob>(*message)), 30000))
      return;
  }
}

TEST(DistRun, BadWorkerRepliesRetireTheWorker) {
  // Three points: the fake worker (first endpoint) holds job 0, the real
  // one job 1, and job 2 waits in the queue.
  const std::vector<std::string> sweep = {"isps=12", "pairs=2",
                                          "sweep.isps=12,13,14"};
  const auto run = [&](const std::string& connect, const std::string& json) {
    std::vector<std::string> flags = sweep;
    flags.push_back("json=" + json);
    flags.push_back("dist.connect=" + connect);
    return sim::run_scenario(*sim::find_scenario("custom"), kv_flags(flags));
  };
  const std::string base = temp_path("_inproc.json");
  {
    std::vector<std::string> flags = sweep;
    flags.push_back("json=" + base);
    ASSERT_EQ(
        sim::run_scenario(*sim::find_scenario("custom"), kv_flags(flags)), 0);
  }
  const std::string reference = read_file(base);
  std::remove(base.c_str());

  /// A plausible success for `job` (a digest no run produces) that a
  /// coordinator accepting it would fold into a different record.
  const auto forged = [](std::uint32_t job) {
    proto::DistResult r;
    r.job = job;
    r.digest = 0x0badull;
    return r;
  };
  struct Case {
    const char* name;
    Reply reply;
    const char* reason;
  };
  const std::vector<Case> cases = {
      {"a job still in the queue", [&](auto&) { return forged(2); },
       "result for job 2, not its in-flight job 0"},
      {"a job index out of range", [&](auto&) { return forged(99); },
       "result for job 99, out of range (3 jobs)"},
      {"a histogram bucket out of range",
       [&](const proto::DistJob& job) {
         proto::DistResult r = forged(job.job);
         proto::DistObsHistogram h;
         h.name = "engine.rounds";
         h.count = 1;
         h.buckets = {{static_cast<std::uint32_t>(obs::kHistogramBuckets), 1}};
         r.histograms = {h};
         return r;
       },
       "histogram engine.rounds bucket 65 out of range"},
      {"a failing rc without an error",
       [&](const proto::DistJob& job) {
         proto::DistResult r = forged(job.job);
         r.rc = 1;
         return r;
       },
       "rc 1 without an error"},
      {"an error beside rc 0",
       [&](const proto::DistJob& job) {
         proto::DistResult r = forged(job.job);
         r.error = "boom";
         return r;
       },
       "rc 0 with error \"boom\""},
      {"counters out of name order",
       [&](const proto::DistJob& job) {
         proto::DistResult r = forged(job.job);
         r.counters = {{"runtime.b", 1}, {"runtime.a", 1}};
         return r;
       },
       "counter runtime.a out of order after runtime.b"},
      {"a repeated counter",
       [&](const proto::DistJob& job) {
         proto::DistResult r = forged(job.job);
         r.counters = {{"runtime.a", 1}, {"runtime.a", 2}};
         return r;
       },
       "counter runtime.a out of order after runtime.a"},
      {"a repeated histogram",
       [&](const proto::DistJob& job) {
         proto::DistResult r = forged(job.job);
         proto::DistObsHistogram h;
         h.name = "engine.rounds";
         h.count = 1;
         h.buckets = {{3, 1}};
         r.histograms = {h, h};
         return r;
       },
       "histogram engine.rounds repeated"}};

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string json = temp_path("_bad.json");
    std::remove(json.c_str());

    // Beside a real worker: the fake is retired, its job requeued, and the
    // record is the in-process one byte for byte.
    {
      LoopbackWorker fake(
          [&](dist::FramedChannel& ch) { scripted_worker(ch, c.reply); });
      LoopbackWorker real(
          [](dist::FramedChannel& ch) { (void)dist::serve(ch); });
      ::testing::internal::CaptureStderr();
      const int rc = run(fake.endpoint() + "," + real.endpoint(), json);
      const std::string err = ::testing::internal::GetCapturedStderr();
      EXPECT_EQ(rc, 0) << err;
      EXPECT_EQ(read_file(json), reference);
      EXPECT_NE(err.find(fake.endpoint() + " lost (" + c.reason + ")"),
                std::string::npos)
          << err;
    }
    std::remove(json.c_str());

    // Alone: the run fails naming the worker and writes no record.
    {
      LoopbackWorker fake(
          [&](dist::FramedChannel& ch) { scripted_worker(ch, c.reply); });
      ::testing::internal::CaptureStderr();
      const int rc = run(fake.endpoint(), json);
      const std::string err = ::testing::internal::GetCapturedStderr();
      EXPECT_NE(rc, 0);
      EXPECT_NE(err.find(fake.endpoint() + " lost (" + c.reason + ")"),
                std::string::npos)
          << err;
      EXPECT_TRUE(read_file(json).empty());
    }
    std::remove(json.c_str());
  }
}

TEST(DistRun, CoordinatorFailsCleanlyWhenWorkerCannotBeSpawned) {
  dist::CoordinatorConfig cfg;
  cfg.workers = 1;
  cfg.worker_path = "/nonexistent/nexit_workerd";
  cfg.timeout_ms = 3000;
  EXPECT_THROW(dist::Coordinator{cfg}, std::runtime_error);
}

}  // namespace
}  // namespace nexit
