// The benchmark's workloads, their fixtures and the per-layer probes of the
// traced run.  Every call into the program goes through the public headers
// of titio, core, platform, apps and svc; the service workload talks to a
// real `tird` child over its unix socket.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "checks.hpp"
#include "core/mc_sweep.hpp"
#include "measure.hpp"
#include "svc/client.hpp"
#include "tit/trace.hpp"
#include "titio/shared.hpp"

namespace pb {

/// Wall-clock time at which this process started (static initialization).
double process_start();

/// What a timed loop measured.  Every loop runs whole rounds of the same
/// units until its time is up.
struct Samples {
  std::vector<double> smpi, msg;   ///< per-unit wall by back-end (s)
  std::vector<double> rounds;      ///< per-round wall (s)
  std::vector<double> latencies;   ///< per-job latency (s); SMPI jobs where split
  double round_jobs = 0.0;         ///< predictions (or service jobs) per round
  double round_actions = 0.0;      ///< actions replayed per round, SMPI
  double round_msg_actions = 0.0;  ///< actions replayed per round, MSG
  double smpi_unit_actions = 0.0;  ///< actions per SMPI unit (0: use rounds)
  double msg_unit_actions = 0.0;
  int concurrent = 1;              ///< rounds running side by side (clients)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// The end-to-end metrics every workload reports, from its loop's samples.
std::vector<Metric> end_to_end(const Samples& s, double rss_mib, double setup_s);
/// Steadiness report of a loop: quartiles of its own repetitions.
void print_steadiness(const Samples& s);

// --- lu-replay ---------------------------------------------------------------

/// NPB LU class B on 64 ranks, acquired on bordereau with minimal
/// instrumentation at -O3 and written once as TITB, plus every value the
/// checks compare against.  Saved as text (hex floats) so the timed process
/// starts from a heap the acquisition never touched.
struct LuFixture {
  std::string titb;
  std::uint64_t generator_actions = 0;  ///< apps::lu_events count over all ranks
  double rate = 0.0;                    ///< cache-aware calibrated rate
  double real_seconds = 0.0;            ///< uninstrumented ground-truth run
  double reference_smpi = 0.0;          ///< in-memory replay of the generated trace
  double reference_msg = 0.0;
  std::vector<double> rank_instructions;
  double setup_seconds = 0.0;           ///< acquisition, ground truth, write, calibration

  void save(const std::string& path) const;
  static LuFixture load(const std::string& path);
};

LuFixture make_lu_fixture(const std::string& dir, std::uint64_t seed, Tracer* tracer);
void check_lu_fixture(const LuFixture& fx, Checker& checks);
Samples lu_loop(const LuFixture& fx, double seconds, Checker& checks, Tracer* tracer);
void probe_lu(const LuFixture& fx, Tracer& tracer);

// --- contended-mc ------------------------------------------------------------

/// A collective-heavy CG-like trace on graphene, decoded once into a
/// SharedTrace, and the seeded Monte Carlo grid perturbing link bandwidth
/// and host speed under max-min sharing.
struct McFixture {
  std::shared_ptr<const tir::titio::SharedTrace> trace;
  tir::platform::PlatformModel model;
  tir::core::ReplayConfig config;  ///< max-min, calibrated rate, SMPI model
  int replicates = 0;
  int workers = 1;
  double actions = 0.0;
};

McFixture make_mc_fixture(const std::string& dir, std::uint64_t seed, int nproc,
                          Tracer* tracer);
tir::core::McReport mc_grid(const McFixture& fx, tir::core::Backend backend, int workers,
                            tir::sim::Sharing sharing);
Samples mc_loop(const McFixture& fx, double seconds, Checker& checks, Tracer* tracer);
void check_mc(const McFixture& fx, Checker& checks);
void probe_mc(const McFixture& fx, Tracer& tracer);

// --- service -----------------------------------------------------------------

/// One job as the closed loop saw it.
struct JobRecord {
  std::int64_t cold = -1;  ///< cold-trace index, -1 for a warm job
  double latency = 0.0;
  tir::svc::JobResult result;
};

/// A tird child on a unix socket in the run's directory, with the small LU
/// trace, platform file and calibration its warm jobs share.  The destructor
/// stops the daemon with the shutdown op and reaps it, on every exit path.
class Service {
 public:
  Service(const std::string& dir, std::uint64_t seed, const std::string& tird, int nproc,
          Tracer* tracer);
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  pid_t pid() const { return pid_; }
  const std::string& endpoint() const { return endpoint_; }
  int clients() const { return clients_; }

  /// The request of a warm job, or of cold job `cold` (a trace of its own
  /// and a calibration the daemon has not cached).
  tir::svc::JobRequest request(std::int64_t cold) const;
  /// Write cold job `cold`'s trace (the warm trace with one compute volume
  /// changed); called by the client just before it submits.
  void write_cold_trace(std::int64_t cold) const;
  tir::tit::Trace cold_trace(std::int64_t cold) const;
  std::int64_t next_cold() { return next_cold_++; }

  const tir::tit::Trace& warm_trace() const { return warm_; }
  const std::string& platform_file() const { return platform_file_; }
  std::uint64_t warmup_jobs() const { return warmup_jobs_; }

  void record(JobRecord r);
  std::vector<JobRecord> records() const;

 private:
  void start_daemon(const std::string& tird);
  void stop_daemon();
  std::string dir_;
  std::uint64_t seed_;
  std::string endpoint_;
  pid_t pid_ = -1;
  int workers_ = 1;
  int clients_ = 1;
  tir::tit::Trace warm_;
  std::string warm_titb_;
  std::string platform_file_;
  std::uint64_t warmup_jobs_ = 0;
  std::atomic<std::int64_t> next_cold_{0};
  mutable std::mutex mutex_;
  std::vector<JobRecord> records_;
};

Samples service_loop(Service& svc, double seconds, Checker& checks, Tracer* tracer);
void check_service(const Service& svc, Checker& checks);
/// Runs one round per client (traced), then pings, stats and JSON parsing.
void probe_svc(Service& svc, Tracer& tracer, Checker& checks);

/// Per-layer metrics of a traced run, from its spans.
std::vector<Metric> layer_metrics(const Tracer& tracer);

}  // namespace pb
