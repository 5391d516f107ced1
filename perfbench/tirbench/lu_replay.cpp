// lu-replay: from a TITB trace on disk to a prediction, alternating the SMPI
// and MSG back-ends.  Uncontended, so decode, rank coroutines, the protocol
// layer and the engine heap do nearly all the work.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "apps/run.hpp"
#include "core/predictor.hpp"
#include "exp/experiments.hpp"
#include "titio/reader.hpp"
#include "titio/writer.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

using tir::core::Backend;

/// SSOR iterations of the acquired run (the figure benches' default).
constexpr int kLuIterations = 10;

/// Paper Figure 6, class B: the improved framework's error band (%).
constexpr double kBandLoPct = -9.5;
constexpr double kBandHiPct = 11.5;

tir::apps::LuConfig lu_b64() {
  tir::apps::LuConfig lu;
  lu.cls = tir::apps::nas_class('B');
  lu.nprocs = 64;
  lu.iterations_override = kLuIterations;
  return lu;
}

/// The improved framework's replay settings (core::predict_lu's SMPI config).
tir::core::ReplayConfig replay_config(double rate,
                                      const tir::platform::ClusterCalibrationTruth& truth) {
  tir::core::ReplayConfig cfg;
  cfg.rates = {rate};
  cfg.mpi.piecewise = tir::smpi::reference_piecewise();
  cfg.mpi.model_copy_time = false;
  cfg.mpi.copy_rate = truth.copy_rate;
  return cfg;
}

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

}  // namespace

void LuFixture::save(const std::string& path) const {
  std::ofstream out(path);
  out << "titb " << titb << "\n"
      << "generator_actions " << generator_actions << "\n"
      << "rate " << hex(rate) << "\n"
      << "real_seconds " << hex(real_seconds) << "\n"
      << "reference_smpi " << hex(reference_smpi) << "\n"
      << "reference_msg " << hex(reference_msg) << "\n"
      << "setup_seconds " << hex(setup_seconds) << "\n"
      << "rank_instructions";
  for (const double v : rank_instructions) out << " " << hex(v);
  out << "\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

LuFixture LuFixture::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  LuFixture fx;
  std::string key;
  const auto real = [&in] {
    std::string token;
    in >> token;
    return std::strtod(token.c_str(), nullptr);
  };
  while (in >> key) {
    if (key == "titb") {
      in >> fx.titb;
    } else if (key == "generator_actions") {
      in >> fx.generator_actions;
    } else if (key == "rate") {
      fx.rate = real();
    } else if (key == "real_seconds") {
      fx.real_seconds = real();
    } else if (key == "reference_smpi") {
      fx.reference_smpi = real();
    } else if (key == "reference_msg") {
      fx.reference_msg = real();
    } else if (key == "setup_seconds") {
      fx.setup_seconds = real();
    } else if (key == "rank_instructions") {
      for (int r = 0; r < lu_b64().nprocs; ++r) fx.rank_instructions.push_back(real());
    } else {
      throw std::runtime_error("unknown fixture key " + key);
    }
  }
  return fx;
}

LuFixture make_lu_fixture(const std::string& dir, std::uint64_t seed, Tracer* tracer) {
  using namespace tir;
  LuFixture fx;
  const exp::ClusterSetup cluster = exp::bordereau_setup();
  const apps::LuConfig lu = lu_b64();
  core::PipelineSettings settings;
  settings.framework = core::Framework::Improved;
  settings.iterations = kLuIterations;
  settings.seed = seed;
  settings.probe_costs = cluster.probe_costs;
  const apps::MachineModel machine(cluster.truth, settings.noise, settings.seed);

  apps::AcquisitionConfig acq = core::acquisition_for(settings);
  acq.emit_trace = true;
  apps::RunResult traced;
  {
    Tracer::Scope span(tracer, "apps.acquire");
    traced = apps::run_lu(lu, cluster.platform, machine, acq);
    span.count("actions", static_cast<double>(traced.trace.total_actions()));
  }
  apps::AcquisitionConfig orig = core::acquisition_for(settings);
  orig.granularity = hwc::Granularity::None;
  {
    Tracer::Scope span(tracer, "apps.ground_truth");
    fx.real_seconds = apps::run_lu(lu, cluster.platform, machine, orig).wall_time;
  }
  fx.titb = dir + "/lu_b64.titb";
  {
    Tracer::Scope span(tracer, "titio.write");
    titio::write_binary_trace(traced.trace, fx.titb);
  }
  {
    Tracer::Scope span(tracer, "core.calibrate");
    core::CalibrationSettings cal;
    cal.acquisition = core::acquisition_for(settings);
    cal.iterations = settings.calibration_iterations;
    fx.rate = core::calibrate_cache_aware(cluster.platform, machine, cal, "B").rate_for(lu);
  }
  fx.setup_seconds = now_s() - process_start();

  // What the checks compare against, computed apart from the timed path:
  // the generator's own event count, each rank's compute volume summed from
  // the trace, and in-memory replays of the generated (never written) trace.
  for (int r = 0; r < lu.nprocs; ++r) fx.generator_actions += apps::lu_events(lu, r).size();
  for (int r = 0; r < lu.nprocs; ++r) {
    double instructions = 0.0;
    for (const tit::Action& a : traced.trace.actions(r)) {
      if (a.type == tit::ActionType::Compute) instructions += a.volume;
    }
    fx.rank_instructions.push_back(instructions);
  }
  const core::ReplayConfig cfg = replay_config(fx.rate, cluster.truth);
  fx.reference_smpi = core::replay_smpi(traced.trace, cluster.platform, cfg).simulated_time;
  fx.reference_msg = core::replay_msg(traced.trace, cluster.platform, cfg).simulated_time;
  return fx;
}

void check_lu_fixture(const LuFixture& fx, Checker& checks) {
  checks.within_band("lu-replay: SMPI prediction vs ground truth (Figure 6, class B)",
                     fx.reference_smpi, fx.real_seconds, kBandLoPct, kBandHiPct);
}

Samples lu_loop(const LuFixture& fx, double seconds, Checker& checks, Tracer* tracer) {
  using namespace tir;
  const exp::ClusterSetup cluster = exp::bordereau_setup();
  const core::ReplayConfig cfg = replay_config(fx.rate, cluster.truth);
  const double floor = compute_floor(fx.rank_instructions, fx.rate);
  Samples s;
  s.round_jobs = 2;
  s.smpi_unit_actions = static_cast<double>(fx.generator_actions);
  s.msg_unit_actions = s.smpi_unit_actions;
  const double start = now_s();
  std::uint64_t unit = 0;
  while (s.rounds.empty() || now_s() - start < seconds) {
    const double round_start = now_s();
    for (const Backend backend : {Backend::Smpi, Backend::Msg}) {
      ++s.attempted;
      ++unit;
      const bool smpi = backend == Backend::Smpi;
      const double t0 = now_s();
      try {
        Tracer::Scope span(tracer, "core.predict", unit);
        std::optional<titio::Reader> reader;
        {
          Tracer::Scope open(tracer, "titio.open", unit, span.id());
          reader.emplace(fx.titb);
        }
        core::ReplayResult r;
        {
          Tracer::Scope replay(tracer, smpi ? "smpi.replay_stream" : "msg.replay_stream", unit,
                               span.id());
          r = core::replay(backend, *reader, cluster.platform, cfg);
          replay.count("actions", static_cast<double>(r.actions_replayed));
          replay.count("steps", static_cast<double>(r.engine_steps));
        }
        const double dt = now_s() - t0;
        (smpi ? s.smpi : s.msg).push_back(dt);
        if (smpi) s.latencies.push_back(dt);
        const char* name = smpi ? "lu-replay smpi" : "lu-replay msg";
        checks.equal_count(std::string(name) + ": actions replayed vs generator",
                           r.actions_replayed, fx.generator_actions);
        checks.same_bits(std::string(name) + ": streamed vs in-memory prediction",
                         r.simulated_time, smpi ? fx.reference_smpi : fx.reference_msg);
        checks.at_least(std::string(name) + ": prediction vs busiest rank's compute time",
                        r.simulated_time, floor);
        checks.holds(std::string(name) + ": replay degraded or stopped early",
                     !r.degraded && r.reached_end);
      } catch (const std::exception& e) {
        ++s.failed;
        std::fprintf(stderr, "lu-replay unit %llu failed: %s\n",
                     static_cast<unsigned long long>(unit), e.what());
      }
    }
    s.rounds.push_back(now_s() - round_start);
  }
  return s;
}

void probe_lu(const LuFixture& fx, Tracer& tracer) {
  using namespace tir;
  constexpr int kRepeats = 3;
  for (int i = 0; i < kRepeats; ++i) {
    Tracer::Scope span(&tracer, "titio.decode");
    titio::Reader reader(fx.titb);
    tit::Action a;
    std::uint64_t n = 0;
    for (int r = 0; r < reader.nprocs(); ++r) {
      while (reader.next(r, a)) ++n;
    }
    span.count("actions", static_cast<double>(n));
  }
  const titio::SharedTrace shared = titio::SharedTrace::load(fx.titb);
  const exp::ClusterSetup cluster = exp::bordereau_setup();
  const core::ReplayConfig cfg = replay_config(fx.rate, cluster.truth);
  for (int i = 0; i < kRepeats; ++i) {
    for (const Backend backend : {Backend::Smpi, Backend::Msg}) {
      titio::SharedTrace::Cursor cursor = shared.cursor();
      Tracer::Scope span(&tracer, backend == Backend::Smpi ? "smpi.replay" : "msg.replay");
      const core::ReplayResult r = core::replay(backend, cursor, cluster.platform, cfg);
      span.count("actions", static_cast<double>(r.actions_replayed));
      span.count("steps", static_cast<double>(r.engine_steps));
    }
  }
}

}  // namespace pb
