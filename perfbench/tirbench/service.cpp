// service: a tird child on a unix socket, driven by a closed loop of clients
// from this process.  Each client waits for `done` before it submits again.
// Most jobs are warm (a few rate scenarios over a small LU trace whose
// decode and calibration are cached); one job in every round is cold: it
// names a trace the daemon has never seen and a calibration it has not
// cached, so the daemon pays fingerprint, decode and calibration.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <thread>

#include "apps/run.hpp"
#include "core/predictor.hpp"
#include "exp/experiments.hpp"
#include "platform/parse.hpp"
#include "titio/writer.hpp"
#include "workloads.hpp"

extern char** environ;

namespace pb {

namespace {

using tir::core::Backend;

/// Jobs per client round; the job at kColdSlot is the cold one.
constexpr int kRoundJobs = 20;
constexpr int kColdSlot = kRoundJobs / 2;
constexpr int kWarmupJobs = 3;
/// Decoded traces the daemon's trace cache can hold: enough that the warm
/// trace is never evicted, few enough that resident memory stops growing
/// after a handful of cold jobs.
constexpr double kCachedTraces = 8.0;

/// Instruction rate the explicit-rate scenarios scale (bordereau's in-cache rate).
constexpr double kNominalRate = 2.05e9;

struct ScenarioShape {
  const char* label;
  Backend backend;
  double rate_factor;  ///< 0: the job's calibrated rate
};
constexpr ScenarioShape kScenarios[] = {
    {"calibrated", Backend::Smpi, 0.0},
    {"faster", Backend::Smpi, 1.25},
    {"msg", Backend::Msg, 0.0},
};

double stage_seconds(const tir::svc::JobResult& r, const char* key) {
  const tir::svc::Json& v = r.epilogue.get(key);
  return v.is_number() ? v.as_number() : 0.0;
}

}  // namespace

Service::Service(const std::string& dir, std::uint64_t seed, const std::string& tird, int nproc,
                 Tracer* tracer)
    : dir_(dir), seed_(seed) {
  using namespace tir;
  workers_ = std::max(1, nproc / 2);
  clients_ = std::max(1, nproc - workers_);
  const exp::ClusterSetup cluster = exp::bordereau_setup();
  apps::LuConfig lu;
  lu.cls = apps::nas_class('S');
  lu.nprocs = 8;
  lu.iterations_override = 5;
  core::PipelineSettings settings;
  settings.seed = seed;
  settings.probe_costs = cluster.probe_costs;
  apps::AcquisitionConfig acq = core::acquisition_for(settings);
  acq.emit_trace = true;
  {
    Tracer::Scope span(tracer, "apps.acquire_small");
    warm_ = apps::run_lu(lu, cluster.platform,
                         apps::MachineModel(cluster.truth, settings.noise, seed), acq)
                .trace;
  }
  warm_titb_ = dir_ + "/warm.titb";
  platform_file_ = dir_ + "/bordereau.platform";
  {
    Tracer::Scope span(tracer, "titio.write_small");
    titio::write_binary_trace(warm_, warm_titb_);
    std::FILE* f = std::fopen(platform_file_.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + platform_file_);
    const std::string text = platform::write_platform_string(cluster.platform);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }
  start_daemon(tird);
  // Warm-up: the first job decodes and calibrates, the next ones hit.
  svc::Client client(endpoint_);
  for (int i = 0; i < kWarmupJobs; ++i) {
    Tracer::Scope span(tracer, "svc.warmup");
    const svc::JobResult r = client.submit(request(-1));
    if (!r.done || r.failed) throw std::runtime_error("tird warm-up job failed: " + r.error);
    ++warmup_jobs_;
  }
}

Service::~Service() { stop_daemon(); }

void Service::start_daemon(const std::string& tird) {
  // A path relative to the working directory both processes share keeps the
  // socket path short whatever the checkout's location.
  endpoint_ = "unix:" + dir_ + "/tird.sock";
  const std::string log = dir_ + "/tird.log";
  posix_spawn_file_actions_t files;
  posix_spawn_file_actions_init(&files);
  posix_spawn_file_actions_addopen(&files, STDOUT_FILENO, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&files, STDOUT_FILENO, STDERR_FILENO);
  const double trace_bytes =
      static_cast<double>(warm_.total_actions() * sizeof(tir::tit::Action) + 4096);
  char cache_mb[32];
  std::snprintf(cache_mb, sizeof cache_mb, "%.6f", kCachedTraces * trace_bytes / (1 << 20));
  const std::string workers = std::to_string(workers_);
  const std::string listen = endpoint_;
  std::vector<char*> argv = {const_cast<char*>(tird.c_str()),
                             const_cast<char*>("-listen"),
                             const_cast<char*>(listen.c_str()),
                             const_cast<char*>("-workers"),
                             const_cast<char*>(workers.c_str()),
                             const_cast<char*>("-queue"),
                             const_cast<char*>("64"),
                             const_cast<char*>("-cache-mb"),
                             cache_mb,
                             nullptr};
  const int rc = posix_spawn(&pid_, tird.c_str(), &files, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&files);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot start " + tird);
  }
  const double deadline = now_s() + 20.0;
  while (now_s() < deadline) {
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("tird exited during start-up (see " + log + ")");
    }
    try {
      tir::svc::Client probe(endpoint_);
      if (probe.ping()) return;
    } catch (const std::exception&) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  throw std::runtime_error("tird did not answer a ping within 20 s");
}

void Service::stop_daemon() {
  if (pid_ <= 0) return;
  try {
    tir::svc::Client client(endpoint_);
    client.shutdown_server();
  } catch (const std::exception&) {
  }
  // Reap it; a daemon that does not drain within 20 s is killed.
  const double deadline = now_s() + 20.0;
  int status = 0;
  while (waitpid(pid_, &status, WNOHANG) == 0) {
    if (now_s() > deadline) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pid_ = -1;
}

tir::svc::JobRequest Service::request(std::int64_t cold) const {
  tir::svc::JobRequest req;
  req.op = "predict";
  req.trace = cold < 0 ? warm_titb_ : dir_ + "/cold_" + std::to_string(cold) + ".titb";
  req.platform = platform_file_;
  for (const ScenarioShape& shape : kScenarios) {
    tir::svc::ScenarioSpec sc;
    sc.label = shape.label;
    sc.backend = shape.backend;
    if (shape.rate_factor > 0.0) sc.rates = {kNominalRate * shape.rate_factor};
    req.scenarios.push_back(sc);
  }
  req.calibrate = true;
  req.calibration.procedure = "cache-aware";
  req.calibration.classes = "B";
  req.calibration.truth = tir::platform::bordereau_truth();
  // A cold job's calibration seed is its own: the daemon has not cached it.
  req.calibration.seed = seed_ + (cold < 0 ? 0 : 1 + static_cast<std::uint64_t>(cold));
  req.calibration.instance_class = 'S';
  req.calibration.instance_nprocs = warm_.nprocs();
  return req;
}

tir::tit::Trace Service::cold_trace(std::int64_t cold) const {
  tir::tit::Trace trace = warm_;
  const int rank = static_cast<int>(cold % warm_.nprocs());
  for (tir::tit::Action& a : trace.actions(rank)) {
    if (a.type == tir::tit::ActionType::Compute) {
      a.volume += static_cast<double>(cold / warm_.nprocs() + 1);
      break;
    }
  }
  return trace;
}

void Service::write_cold_trace(std::int64_t cold) const {
  tir::titio::write_binary_trace(cold_trace(cold), request(cold).trace);
}

void Service::record(JobRecord r) {
  const std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back(std::move(r));
}

std::vector<JobRecord> Service::records() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

Samples service_loop(Service& svc, double seconds, Checker& checks, Tracer* tracer) {
  const double actions = static_cast<double>(svc.warm_trace().total_actions());
  std::vector<Samples> per_client(static_cast<std::size_t>(svc.clients()));
  std::vector<std::thread> threads;
  const double start = now_s();
  for (std::size_t c = 0; c < per_client.size(); ++c) {
    threads.emplace_back([&, c] {
      Samples& s = per_client[c];
      try {
        tir::svc::Client client(svc.endpoint());
        while (s.rounds.empty() || now_s() - start < seconds) {
          const double round_start = now_s();
          for (int j = 0; j < kRoundJobs; ++j) {
            const std::int64_t cold = j == kColdSlot ? svc.next_cold() : -1;
            const std::uint64_t request_id = s.attempted + 1000000 * (c + 1);
            ++s.attempted;
            Tracer::Scope span(tracer, "svc.job", request_id);
            if (cold >= 0) {
              Tracer::Scope write(tracer, "svc.trace_write", request_id, span.id());
              svc.write_cold_trace(cold);
            }
            const tir::svc::JobRequest req = svc.request(cold);
            const double t0 = now_s();
            JobRecord r{cold, 0.0, client.submit(req)};
            r.latency = now_s() - t0;
            if (cold >= 0) std::filesystem::remove(req.trace);
            if (!r.result.done || r.result.failed) {
              ++s.failed;
              std::fprintf(stderr, "service job failed: %s\n", r.result.error.c_str());
              continue;
            }
            s.latencies.push_back(r.latency);
            span.count("latency", r.latency);
            span.count("queue_wait", stage_seconds(r.result, "queue_wait_seconds"));
            span.count("decode", stage_seconds(r.result, "decode_seconds"));
            span.count("calibrate", stage_seconds(r.result, "calibrate_seconds"));
            span.count("replay", stage_seconds(r.result, "replay_seconds"));
            checks.equal_count("service: scenario lines per job", r.result.scenarios.size(),
                               std::size(kScenarios));
            svc.record(std::move(r));
          }
          s.rounds.push_back(now_s() - round_start);
        }
      } catch (const std::exception& e) {
        ++s.failed;
        std::fprintf(stderr, "service client %zu: %s\n", c, e.what());
      }
    });
  }
  for (std::thread& t : threads) t.join();

  Samples s;
  s.concurrent = svc.clients();
  s.round_jobs = kRoundJobs;
  for (const ScenarioShape& shape : kScenarios) {
    (shape.backend == Backend::Smpi ? s.round_actions : s.round_msg_actions) +=
        kRoundJobs * actions;
  }
  for (const Samples& c : per_client) {
    s.rounds.insert(s.rounds.end(), c.rounds.begin(), c.rounds.end());
    s.latencies.insert(s.latencies.end(), c.latencies.begin(), c.latencies.end());
    s.attempted += c.attempted;
    s.failed += c.failed;
  }
  return s;
}

void check_service(const Service& svc, Checker& checks) {
  using namespace tir;
  const platform::Platform plat = platform::load_platform(svc.platform_file());
  const std::vector<JobRecord> records = svc.records();
  std::uint64_t warm = svc.warmup_jobs(), cold = 0;
  // In-process calibration and predictions per distinct trace: the same
  // trace, platform and rate, replayed by core::replay from the generated
  // (never written) trace.  Computed on every CPU, one trace per task.
  struct Expected {
    double rate = 0.0;
    std::vector<double> predictions;
  };
  std::map<std::int64_t, Expected> expected;
  for (const JobRecord& r : records) {
    (r.cold < 0 ? warm : cold) += 1;
    expected.try_emplace(r.cold);
  }
  std::vector<std::map<std::int64_t, Expected>::iterator> todo;
  for (auto it = expected.begin(); it != expected.end(); ++it) todo.push_back(it);
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next++; i < todo.size(); i = next++) {
      const std::int64_t index = todo[i]->first;
      const svc::JobRequest req = svc.request(index);
      const tit::Trace trace = index < 0 ? svc.warm_trace() : svc.cold_trace(index);
      Expected& e = todo[i]->second;
      e.rate = core::calibrate_rate(plat, req.calibration);
      for (const svc::ScenarioSpec& sc : req.scenarios) {
        core::ReplayConfig cfg;
        cfg.rates = sc.rates.empty() ? std::vector<double>{e.rate} : sc.rates;
        e.predictions.push_back(core::replay(sc.backend, trace, plat, cfg).simulated_time);
      }
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < std::max(1u, std::thread::hardware_concurrency()); ++t) {
    pool.emplace_back(work);
  }
  work();
  for (std::thread& t : pool) t.join();

  for (const JobRecord& r : records) {
    const Expected& e = expected.at(r.cold);
    checks.same_bits("service: wire calibrated rate vs in-process calibration",
                     r.result.started.num_or("calibrated_rate", 0.0), e.rate);
    for (const svc::Json& line : r.result.scenarios) {
      const core::ScenarioOutcome o = svc::parse_scenario(line);
      const std::size_t index = static_cast<std::size_t>(line.num_or("index", -1));
      if (!checks.holds("service: scenario failed: " + o.error, o.ok)) continue;
      if (!checks.holds("service: scenario index out of range", index < e.predictions.size())) {
        continue;
      }
      checks.same_bits("service: wire prediction vs in-process core::replay",
                       o.result.simulated_time, e.predictions[index]);
      checks.equal_count("service: actions replayed", o.result.actions_replayed,
                         svc.warm_trace().total_actions());
    }
  }
  svc::Client client(svc.endpoint());
  const svc::Json stats = client.stats();
  const svc::Json& traces = stats.get("traces");
  // The first warm-up job missed; every later warm job hit; every cold job missed.
  checks.equal_count("service: trace-cache hits vs warm submissions",
                     static_cast<std::uint64_t>(traces.num_or("hits", -1)), warm - 1);
  checks.equal_count("service: trace-cache misses vs cold submissions",
                     static_cast<std::uint64_t>(traces.num_or("misses", -1)), cold + 1);
}

void probe_svc(Service& svc, Tracer& tracer, Checker& checks) {
  constexpr int kPings = 200;
  constexpr int kParseRepeats = 3;
  service_loop(svc, 0.0, checks, &tracer);
  tir::svc::Client client(svc.endpoint());
  for (int i = 0; i < kPings; ++i) {
    Tracer::Scope span(&tracer, "svc.ping");
    client.ping();
  }
  {
    const tir::svc::Json stats = client.stats();
    Tracer::Scope span(&tracer, "svc.stats");
    span.count("hits", stats.get("traces").num_or("hits", 0));
    span.count("misses", stats.get("traces").num_or("misses", 0));
  }
  std::vector<std::string> lines;
  for (const JobRecord& r : svc.records()) {
    lines.push_back(r.result.started.dump());
    for (const tir::svc::Json& line : r.result.scenarios) lines.push_back(line.dump());
    lines.push_back(r.result.epilogue.dump());
  }
  double bytes = 0.0;
  for (const std::string& line : lines) bytes += static_cast<double>(line.size());
  for (int i = 0; i < kParseRepeats; ++i) {
    Tracer::Scope span(&tracer, "svc.json_parse");
    std::size_t members = 0;
    for (const std::string& line : lines) members += tir::svc::Json::parse(line).is_object();
    span.count("bytes", bytes);
    span.count("lines", static_cast<double>(members));
  }
}

}  // namespace pb
