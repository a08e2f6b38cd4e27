#include "dist/worker.hpp"

#include <cstdio>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "proto/dist_messages.hpp"
#include "sim/scenarios.hpp"
#include "sim/spec.hpp"
#include "util/flags.hpp"
#include "util/json_report.hpp"

namespace nexit::dist {

namespace {

/// Executes one shard. The spec_text is a complete serialized spec (every
/// key spelled out), so merging it onto a default-constructed spec — the
/// exact parser a --spec file goes through — reconstructs the
/// coordinator's point spec bit-for-bit; no preset defaults are involved.
/// Unknown keys, validation failures and broken preset input rules come
/// back as rc 2 in the result (the worker stays up for the next job);
/// malformed *values* exit 2 via the shared Flags machinery, which the
/// coordinator sees as worker death.
proto::DistResult run_job(const proto::DistJob& job) {
  proto::DistResult result;
  result.job = job.job;

  const sim::ScenarioPreset* preset = sim::find_scenario(job.scenario);
  if (preset == nullptr) {
    result.rc = 2;
    result.error = "unknown scenario: " + job.scenario;
    return result;
  }

  std::vector<std::string> assignments;
  std::istringstream in(job.spec_text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    assignments.push_back(line);
  }
  const util::Flags kv(assignments);
  sim::ExperimentSpec spec;
  spec.merge_from_flags(kv);
  const std::vector<std::string> unknown = kv.unknown();
  if (!unknown.empty()) {
    result.rc = 2;
    result.error = "unknown spec key in job: " + unknown.front();
    return result;
  }
  std::string error;
  if (!spec.validate(&error)) {
    result.rc = 2;
    result.error = "invalid job spec: " + error;
    return result;
  }

  // No JSON path: the record only collects metric entries for shipping.
  util::JsonReport record(std::string(), job.scenario);
  const sim::PointOutcome out = sim::run_point(*preset, spec, record, nullptr);
  result.rc = out.rc;
  if (out.rc != 0) {
    result.error = !out.error.empty()
                       ? out.error
                       : "scenario run failed (rc " + std::to_string(out.rc) +
                             ")";
    return result;
  }
  result.digest = out.digest;
  result.metrics = record.metric_entries();
  result.counters.reserve(out.obs.counters.size());
  for (const obs::CounterSnapshot& c : out.obs.counters)
    result.counters.emplace_back(c.name, c.value);
  result.histograms.reserve(out.obs.histograms.size());
  for (const obs::HistogramSnapshot& h : out.obs.histograms) {
    proto::DistObsHistogram dh;
    dh.name = h.name;
    dh.count = h.count;
    dh.sum = h.sum;
    for (std::size_t b = 0; b < h.buckets.size(); ++b)
      if (h.buckets[b] != 0)
        dh.buckets.emplace_back(static_cast<std::uint32_t>(b), h.buckets[b]);
    result.histograms.push_back(std::move(dh));
  }
  return result;
}

}  // namespace

int serve(FramedChannel& channel) {
  if (!channel.send(proto::DistHello{}, 30000)) {
    std::fprintf(stderr, "workerd: hello send failed: %s\n",
                 channel.error().c_str());
    return 1;
  }
  for (;;) {
    std::optional<proto::DistMessage> message = channel.receive(-1);
    if (!message) {
      // EOF from a finished coordinator is the normal exit; a poisoned
      // stream (CRC/decode failure) is not.
      if (!channel.error().empty()) {
        std::fprintf(stderr, "workerd: %s\n", channel.error().c_str());
        return 1;
      }
      return 0;
    }
    if (std::holds_alternative<proto::DistShutdown>(*message)) return 0;
    const proto::DistJob* job = std::get_if<proto::DistJob>(&*message);
    if (job == nullptr) {
      std::fprintf(stderr, "workerd: unexpected message from coordinator\n");
      return 1;
    }
    std::fprintf(stderr, "workerd: job %u scenario=%s%s%s\n", job->job,
                 job->scenario.c_str(), job->label.empty() ? "" : " point=",
                 job->label.c_str());
    const proto::DistResult result = run_job(*job);
    if (!channel.send(result, -1)) {
      std::fprintf(stderr, "workerd: result send failed: %s\n",
                   channel.error().c_str());
      return 1;
    }
  }
}

}  // namespace nexit::dist
