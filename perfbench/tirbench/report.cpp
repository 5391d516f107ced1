// Metrics of a run: the end-to-end set from a timed loop's samples, and the
// per-layer set from the spans of a traced run.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "workloads.hpp"

namespace pb {

namespace {

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// The tail percentile of `n` latency samples: p99 when at least ten samples
/// lie beyond it, else the highest percentile that still leaves ten beyond.
double tail_q(std::size_t n) {
  return std::min(0.99, 1.0 - 10.0 / static_cast<double>(std::max<std::size_t>(n, 20)));
}

/// Median over the spans named `name` of seconds per `key` count.
double median_per(const Tracer& tracer, const std::string& name, const std::string& key) {
  std::vector<double> per;
  for (const Tracer::Span& s : tracer.spans(name)) {
    if (s.count(key) > 0.0) per.push_back(s.seconds() / s.count(key));
  }
  return median(per);
}

double median_seconds(const Tracer& tracer, const std::string& name) {
  return median(tracer.durations(name));
}

}  // namespace

std::vector<Metric> end_to_end(const Samples& s, double rss_mib, double setup_s) {
  const double round = median(s.rounds);
  const double actions_per_s = s.smpi_unit_actions > 0.0
                                   ? s.smpi_unit_actions / median(s.smpi)
                                   : s.concurrent * s.round_actions / round;
  const double msg_actions_per_s = s.msg_unit_actions > 0.0
                                       ? s.msg_unit_actions / median(s.msg)
                                       : s.concurrent * s.round_msg_actions / round;
  return {
      {"setup_s", "s", setup_s},
      {"actions_per_s", "actions/s", actions_per_s},
      {"msg_actions_per_s", "actions/s", msg_actions_per_s},
      {"jobs_per_s", "jobs/s", s.concurrent * s.round_jobs / round},
      {"job_p50_ms", "ms", quantile(s.latencies, 0.50) * 1e3},
      {"job_p99_ms", "ms", quantile(s.latencies, tail_q(s.latencies.size())) * 1e3},
      {"peak_rss_mib", "MiB", rss_mib},
  };
}

void print_steadiness(const Samples& s) {
  if (!s.smpi.empty()) print_quartiles("smpi unit wall", s.smpi, 1e3, "ms");
  if (!s.msg.empty()) print_quartiles("msg unit wall", s.msg, 1e3, "ms");
  print_quartiles("round wall", s.rounds, 1e3, "ms");
  print_quartiles("job latency", s.latencies, 1e3, "ms");
  const std::size_t n = s.latencies.size();
  const double q = tail_q(n);
  std::printf("# job latency samples: %zu; job_p99_ms is their p%.4g, %.0f samples beyond it\n",
              n, q * 100.0, std::floor((1.0 - q) * static_cast<double>(n) + 1e-9));
}

std::vector<Metric> layer_metrics(const Tracer& tracer) {
  const std::vector<Tracer::Span> smpi = tracer.spans("smpi.replay");
  const std::vector<Tracer::Span> maxmin = tracer.spans("sim.replay_maxmin");
  const std::vector<Tracer::Span> jobs = tracer.spans("svc.job");
  double queue = 0.0, decode = 0.0, calibrate = 0.0, replay = 0.0, overhead = 0.0, n = 0.0;
  for (const Tracer::Span& j : jobs) {
    if (j.count("latency") <= 0.0) continue;  // failed job: no stage times
    queue += j.count("queue_wait");
    decode += j.count("decode");
    calibrate += j.count("calibrate");
    replay += j.count("replay");
    overhead += j.count("latency") - j.count("queue_wait") - j.count("decode") -
                j.count("calibrate") - j.count("replay");
    n += 1.0;
  }
  const std::vector<Tracer::Span> stats = tracer.spans("svc.stats");
  const double hits = stats.empty() ? 0.0 : stats.back().count("hits");
  const double misses = stats.empty() ? 0.0 : stats.back().count("misses");
  return {
      {"titio.decode_ns_per_action", "ns/action",
       median_per(tracer, "titio.decode", "actions") * 1e9},
      {"titio.write_ms", "ms", median_seconds(tracer, "titio.write") * 1e3},
      {"apps.acquire_s", "s", median_seconds(tracer, "apps.acquire")},
      {"smpi.replay_ns_per_action", "ns/action",
       median_per(tracer, "smpi.replay", "actions") * 1e9},
      {"msg.replay_ns_per_action", "ns/action",
       median_per(tracer, "msg.replay", "actions") * 1e9},
      {"sim.engine_steps_per_action", "steps/action",
       smpi.at(0).count("steps") / smpi.at(0).count("actions")},
      {"sim.ns_per_step", "ns/step", median_per(tracer, "smpi.replay", "steps") * 1e9},
      {"sim.maxmin_ns_per_action", "ns/action",
       (median_seconds(tracer, "sim.replay_maxmin") -
        median_seconds(tracer, "sim.replay_uncontended")) /
           maxmin.at(0).count("actions") * 1e9},
      {"platform.instantiate_us", "us", median_seconds(tracer, "platform.instantiate") * 1e6},
      {"core.mc_grid_speedup", "x",
       median_seconds(tracer, "core.mc_grid_1") / median_seconds(tracer, "core.mc_grid_w")},
      {"core.mc_report_us", "us", median_seconds(tracer, "core.mc_report") * 1e6},
      {"svc.ping_us", "us", median_seconds(tracer, "svc.ping") * 1e6},
      {"svc.overhead_ms", "ms", overhead / n * 1e3},
      {"svc.queue_wait_ms", "ms", queue / n * 1e3},
      {"svc.decode_ms", "ms", decode / n * 1e3},
      {"svc.calibrate_ms", "ms", calibrate / n * 1e3},
      {"svc.replay_ms", "ms", replay / n * 1e3},
      {"svc.trace_cache_hit_ratio", "ratio", hits / (hits + misses)},
      {"svc.json_parse_ns_per_byte", "ns/byte",
       median_per(tracer, "svc.json_parse", "bytes") * 1e9},
  };
}

}  // namespace pb
