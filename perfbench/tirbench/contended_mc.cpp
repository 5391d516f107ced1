// contended-mc: a seeded Monte Carlo grid over a collective-heavy CG-like
// trace on graphene, whose cabinets share uplinks, under max-min sharing.
// The trace is decoded once; the solver, platform instantiation and the
// sweep pool sit on the critical path.
#include <algorithm>
#include <cstdio>

#include "apps/cg.hpp"
#include "exp/experiments.hpp"
#include "titio/writer.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

using tir::core::Backend;

constexpr int kCgRanks = 64;
constexpr int kCgIterations = 40;
constexpr int kReplicates = 32;

tir::core::ReplayConfig with_sharing(tir::core::ReplayConfig cfg, tir::sim::Sharing sharing) {
  cfg.sharing = sharing;
  return cfg;
}

const tir::core::McReplicate& replicate(const tir::core::McReport& report, std::size_t i) {
  return report.scenarios.at(0).replicates.at(i);
}

}  // namespace

McFixture make_mc_fixture(const std::string& dir, std::uint64_t seed, int nproc,
                          Tracer* tracer) {
  using namespace tir;
  const exp::ClusterSetup cluster = exp::graphene_setup();
  // Ring halos of rendezvous size cross the shared cabinet uplinks; the seed
  // picks the grid's platform instances, not the trace.
  apps::CgConfig cg;
  cg.nprocs = kCgRanks;
  cg.iterations = kCgIterations;
  cg.exchange_bytes = 1048576.0;
  cg.matvec_instructions = 5.0e7;
  const std::string path = dir + "/cg64.titb";
  {
    Tracer::Scope span(tracer, "titio.write_cg");
    titio::write_binary_trace(apps::cg_trace(cg), path);
  }
  McFixture fx;
  {
    Tracer::Scope span(tracer, "titio.load_shared");
    fx.trace = std::make_shared<const titio::SharedTrace>(titio::SharedTrace::load(path));
  }
  const auto spec = platform::PerturbationSpec::parse(
      "seed=" + std::to_string(seed) + ";link.bw=lognormal:0.1;host.speed=uniform:0.05");
  fx.model = platform::PlatformModel(std::make_shared<const platform::Platform>(cluster.platform),
                                     spec);
  fx.config.rates = {cluster.truth.rate_out_of_cache};
  fx.config.sharing = sim::Sharing::MaxMin;
  fx.config.mpi.piecewise = smpi::reference_piecewise();
  fx.config.mpi.copy_rate = cluster.truth.copy_rate;
  fx.replicates = kReplicates;
  // Half the CPUs: a grid on every CPU measured the neighbours' load more
  // than the program (run-to-run spread twice as wide).
  fx.workers = std::max(1, nproc / 2);
  fx.actions = static_cast<double>(fx.trace->total_actions());
  return fx;
}

tir::core::McReport mc_grid(const McFixture& fx, Backend backend, int workers,
                            tir::sim::Sharing sharing) {
  tir::core::McScenario sc;
  sc.model = fx.model;
  sc.config = with_sharing(fx.config, sharing);
  sc.backend = backend;
  sc.label = tir::core::backend_name(backend);
  tir::core::McOptions options;
  options.replicates = fx.replicates;
  options.jobs = workers;
  return tir::core::mc_sweep(*fx.trace, {sc}, options);
}

Samples mc_loop(const McFixture& fx, double seconds, Checker& checks, Tracer* tracer) {
  using tir::sim::Sharing;
  Samples s;
  s.round_jobs = 2.0 * fx.replicates;
  s.smpi_unit_actions = fx.replicates * fx.actions;
  s.msg_unit_actions = s.smpi_unit_actions;
  std::vector<double> first_smpi, first_msg;  // every grid must repeat the first bit for bit
  const double start = now_s();
  std::uint64_t grid = 0;
  while (s.rounds.empty() || now_s() - start < seconds) {
    const double round_start = now_s();
    for (const Backend backend : {Backend::Smpi, Backend::Msg}) {
      const bool smpi = backend == Backend::Smpi;
      s.attempted += static_cast<std::uint64_t>(fx.replicates);
      ++grid;
      const double t0 = now_s();
      tir::core::McReport report;
      {
        Tracer::Scope span(tracer, "core.mc_sweep", grid);
        report = mc_grid(fx, backend, fx.workers, Sharing::MaxMin);
        span.count("replicates", fx.replicates);
        span.count("actions", fx.replicates * fx.actions);
      }
      const double wall = now_s() - t0;
      (smpi ? s.smpi : s.msg).push_back(wall);
      // The job a user waits for is the whole grid; a replicate's own wall
      // depends on which replicates share the CPUs with it.
      if (smpi) s.latencies.push_back(wall);
      std::vector<double>& first = smpi ? first_smpi : first_msg;
      const bool keep = first.empty();
      const std::string name = smpi ? "contended-mc smpi" : "contended-mc msg";
      for (std::size_t i = 0; i < report.scenarios.at(0).replicates.size(); ++i) {
        const tir::core::ScenarioOutcome& o = replicate(report, i).outcome;
        if (!o.ok) {
          ++s.failed;
          std::fprintf(stderr, "%s replicate %zu failed: %s\n", name.c_str(), i,
                       o.error.c_str());
          continue;
        }
        if (keep) {
          first.push_back(o.result.simulated_time);
        } else {
          checks.same_bits(name + ": grid repeats bit for bit", o.result.simulated_time,
                           first.at(i));
        }
        checks.equal_count(name + ": actions replayed", o.result.actions_replayed,
                           static_cast<std::uint64_t>(fx.actions));
      }
      checks.ordered_summary(name + ": grid summary", report.scenarios.at(0).simulated_time);
    }
    s.rounds.push_back(now_s() - round_start);
  }
  return s;
}

void check_mc(const McFixture& fx, Checker& checks) {
  using namespace tir;
  using sim::Sharing;
  const core::McReport grid = mc_grid(fx, Backend::Smpi, fx.workers, Sharing::MaxMin);
  const core::McReport serial = mc_grid(fx, Backend::Smpi, 1, Sharing::MaxMin);
  const core::McReport uncontended = mc_grid(fx, Backend::Smpi, fx.workers, Sharing::Uncontended);
  bool contention_binds = false;
  for (int i = 0; i < fx.replicates; ++i) {
    const core::ReplayResult& r = replicate(grid, i).outcome.result;
    checks.same_bits("contended-mc: grid at 1 worker vs " + std::to_string(fx.workers),
                     replicate(serial, i).outcome.result.simulated_time, r.simulated_time);
    const double free_flow = replicate(uncontended, i).outcome.result.simulated_time;
    checks.at_least("contended-mc: contended vs uncontended prediction", r.simulated_time,
                    free_flow);
    contention_binds = contention_binds || r.simulated_time > free_flow;
  }
  checks.holds("contended-mc: max-min sharing changes no prediction", contention_binds);
  checks.ordered_summary("contended-mc: summary", grid.scenarios.at(0).simulated_time);

  // One replicate re-run outside mc_sweep, straight on its sampled instance.
  const std::size_t pick = fx.model.spec().seed % static_cast<std::uint64_t>(fx.replicates);
  const core::McReplicate& rep = replicate(grid, pick);
  const std::shared_ptr<const platform::Platform> instance = fx.model.instantiate(rep.seed);
  core::ReplayConfig cfg = core::scale_rates_for_instance(fx.config, fx.trace->nprocs(),
                                                          *fx.model.base(), *instance);
  const auto direct = [&](const core::ReplayConfig& c) {
    titio::SharedTrace::Cursor cursor = fx.trace->cursor();
    return core::replay_smpi(cursor, *instance, c).simulated_time;
  };
  const double want = rep.outcome.result.simulated_time;
  checks.same_bits("contended-mc: direct replay_smpi vs mc_sweep replicate", direct(cfg), want);
  core::ReplayConfig full = cfg;
  full.resolve = sim::Resolve::Full;
  checks.same_bits("contended-mc: Resolve::Full vs Resolve::Incremental", direct(full), want);
  FlowRateSink sink(*instance);
  core::ReplayConfig observed = cfg;
  observed.sink = &sink;
  checks.same_bits("contended-mc: replay with a rate-checking sink", direct(observed), want);
  checks.holds("contended-mc: no flow progress observed", sink.flows_checked() > 0);
  checks.equal_count("contended-mc: flows faster than their uncontended rate",
                     sink.over_route_bound(), 0);
  checks.equal_count("contended-mc: link-steps over capacity", sink.over_link_capacity(), 0);
}

void probe_mc(const McFixture& fx, Tracer& tracer) {
  using namespace tir;
  constexpr int kInstances = 64;
  constexpr int kGrids = 2;
  constexpr int kReports = 32;
  constexpr int kReplays = 3;
  const platform::PerturbationSpec& spec = fx.model.spec();
  for (int i = 0; i < kInstances; ++i) {
    Tracer::Scope span(&tracer, "platform.instantiate");
    const auto instance = fx.model.instantiate(spec.replicate_seed(static_cast<std::uint64_t>(i)));
    span.count("links", static_cast<double>(instance->link_count()));
  }
  core::McReport report;
  for (int i = 0; i < kGrids; ++i) {
    {
      Tracer::Scope span(&tracer, "core.mc_grid_1");
      report = mc_grid(fx, Backend::Smpi, 1, sim::Sharing::MaxMin);
    }
    Tracer::Scope span(&tracer, "core.mc_grid_w");
    span.count("workers", fx.workers);
    report = mc_grid(fx, Backend::Smpi, fx.workers, sim::Sharing::MaxMin);
  }
  for (int i = 0; i < kReports; ++i) {
    Tracer::Scope span(&tracer, "core.mc_report");
    span.count("bytes", static_cast<double>(core::mc_report_json(report).size()));
  }
  const auto instance = fx.model.instantiate(spec.replicate_seed(0));
  const core::ReplayConfig cfg =
      core::scale_rates_for_instance(fx.config, fx.trace->nprocs(), *fx.model.base(), *instance);
  for (int i = 0; i < kReplays; ++i) {
    for (const sim::Sharing sharing : {sim::Sharing::MaxMin, sim::Sharing::Uncontended}) {
      titio::SharedTrace::Cursor cursor = fx.trace->cursor();
      Tracer::Scope span(&tracer, sharing == sim::Sharing::MaxMin ? "sim.replay_maxmin"
                                                                  : "sim.replay_uncontended");
      const core::ReplayResult r = core::replay_smpi(cursor, *instance, with_sharing(cfg, sharing));
      span.count("actions", static_cast<double>(r.actions_replayed));
      span.count("steps", static_cast<double>(r.engine_steps));
    }
  }
}

}  // namespace pb
