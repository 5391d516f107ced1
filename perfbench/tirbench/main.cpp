// tirbench: the benchmark program behind perfbench/run.py.
//
//   tirbench selftest
//   tirbench setup lu-replay --dir DIR --seed N
//   tirbench run WORKLOAD --dir DIR --seed N --seconds S --trace 0|1 --tird PATH
//
// `run` prints steadiness lines ("# ...") and, as its last line, the JSON
// result: with --trace 0 the end-to-end metrics of WORKLOAD, with --trace 1
// the per-layer metrics derived from the spans of a traced run (written to
// DIR/spans.jsonl).  `setup lu-replay` acquires the LU trace in a process of
// its own, so the timed process's peak RSS is not inflated by set-up.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

namespace {

const double kProcessStart = pb::now_s();

struct Args {
  std::string command, workload, dir, tird;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Args parse(int argc, char** argv) {
  Args a;
  if (argc < 2) throw std::invalid_argument("missing command");
  a.command = argv[1];
  int i = 2;
  if (a.command != "selftest") {
    if (argc < 3) throw std::invalid_argument("missing workload");
    a.workload = argv[i++];
  }
  for (; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--dir") {
      a.dir = value;
    } else if (key == "--tird") {
      a.tird = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (i != argc) throw std::invalid_argument("option without a value");
  if (a.command != "selftest" && a.dir.empty()) throw std::invalid_argument("--dir is required");
  return a;
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

pb::Samples run_loop(const Args& a, const pb::LuFixture* lu, const pb::McFixture* mc,
                     pb::Service* svc, double seconds, pb::Checker& checks, pb::Tracer* tracer) {
  if (a.workload == "lu-replay") return pb::lu_loop(*lu, seconds, checks, tracer);
  if (a.workload == "contended-mc") return pb::mc_loop(*mc, seconds, checks, tracer);
  return pb::service_loop(*svc, seconds, checks, tracer);
}

void report(const pb::Checker& checks, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<pb::Metric>& metrics) {
  for (const std::string& m : checks.messages()) std::fprintf(stderr, "check failed: %s\n", m.c_str());
  if (!checks.ok()) {
    std::fprintf(stderr, "%llu check(s) failed\n",
                 static_cast<unsigned long long>(checks.failures()));
  }
  pb::print_result(checks.ok(), attempted, failed, metrics);
}

/// The untraced run: end-to-end metrics of one workload.
void run_plain(const Args& a) {
  pb::Checker checks;
  const int cpus = nproc();
  pb::Samples s;
  double setup_s = 0.0, rss = 0.0;
  pb::ReferenceScore ref_before;
  if (a.workload == "lu-replay") {
    const pb::LuFixture fx = pb::LuFixture::load(a.dir + "/lu.fixture");
    pb::check_lu_fixture(fx, checks);
    pb::lu_loop(fx, 0.0, checks, nullptr);  // warm-up round
    setup_s = fx.setup_seconds + (pb::now_s() - kProcessStart);
    ref_before = pb::reference_score();
    s = pb::lu_loop(fx, a.seconds, checks, nullptr);
    rss = pb::peak_rss_mib();
  } else if (a.workload == "contended-mc") {
    const pb::McFixture fx = pb::make_mc_fixture(a.dir, a.seed, cpus, nullptr);
    pb::mc_loop(fx, 0.0, checks, nullptr);  // warm-up round
    setup_s = pb::now_s() - kProcessStart;
    ref_before = pb::reference_score();
    s = pb::mc_loop(fx, a.seconds, checks, nullptr);
    rss = pb::peak_rss_mib();
    pb::check_mc(fx, checks);
  } else {
    pb::Service svc(a.dir, a.seed, a.tird, cpus, nullptr);
    setup_s = pb::now_s() - kProcessStart;
    ref_before = pb::reference_score();
    s = pb::service_loop(svc, a.seconds, checks, nullptr);
    rss = pb::peak_rss_mib(svc.pid());
    const double t = pb::now_s();
    pb::check_service(svc, checks);
    std::printf("# in-process verification of %llu jobs: %.1f s\n",
                static_cast<unsigned long long>(s.attempted), pb::now_s() - t);
  }
  pb::print_steadiness(s);
  const pb::ReferenceScore ref_after = pb::reference_score();
  std::printf("# reference loops (nproc %d): ALU %.1f Mops/s before, %.1f after; "
              "memory %.2f Mloads/s before, %.2f after\n",
              cpus, ref_before.alu_mops, ref_after.alu_mops, ref_before.memory_mloads,
              ref_after.memory_mloads);
  report(checks, s.attempted, s.failed, pb::end_to_end(s, rss, setup_s));
}

/// The traced run: every fixture is built in this process with spans around
/// each call into a layer; the workload's loop runs half its time untraced
/// and half traced (the difference is the tracing overhead), then the layer
/// probes of all three workloads run and the per-layer metrics are derived.
void run_traced(const Args& a) {
  pb::Checker checks;
  pb::Tracer tracer;
  const int cpus = nproc();
  const pb::LuFixture lu = pb::make_lu_fixture(a.dir, a.seed, &tracer);
  pb::check_lu_fixture(lu, checks);
  const pb::McFixture mc = pb::make_mc_fixture(a.dir, a.seed, cpus, &tracer);
  pb::Service svc(a.dir, a.seed, a.tird, cpus, &tracer);
  const pb::Samples plain = run_loop(a, &lu, &mc, &svc, a.seconds / 2, checks, nullptr);
  const pb::Samples traced = run_loop(a, &lu, &mc, &svc, a.seconds / 2, checks, &tracer);
  const double plain_round = pb::quantile(plain.rounds, 0.5);
  const double traced_round = pb::quantile(traced.rounds, 0.5);
  std::printf("# tracing overhead on %s: median round %.6g ms untraced, %.6g ms traced (%+.2f%%)\n",
              a.workload.c_str(), plain_round * 1e3, traced_round * 1e3,
              (traced_round / plain_round - 1.0) * 100.0);
  pb::probe_lu(lu, tracer);
  pb::probe_mc(mc, tracer);
  pb::probe_svc(svc, tracer, checks);
  pb::check_mc(mc, checks);
  pb::check_service(svc, checks);
  tracer.write_jsonl(a.dir + "/spans.jsonl");
  std::printf("# spans written to %s/spans.jsonl\n", a.dir.c_str());
  report(checks, plain.attempted + traced.attempted, plain.failed + traced.failed,
         pb::layer_metrics(tracer));
}

}  // namespace

double pb::process_start() { return kProcessStart; }

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    if (a.command == "selftest") return pb::selftest() == 0 ? 0 : 1;
    if (a.workload != "lu-replay" && a.workload != "contended-mc" && a.workload != "service") {
      throw std::invalid_argument("unknown workload " + a.workload);
    }
    if (a.command == "setup") {
      if (a.workload != "lu-replay") throw std::invalid_argument("only lu-replay has a setup step");
      pb::make_lu_fixture(a.dir, a.seed, nullptr).save(a.dir + "/lu.fixture");
      return 0;
    }
    if (a.command != "run") throw std::invalid_argument("unknown command " + a.command);
    if (a.trace) {
      run_traced(a);
    } else {
      run_plain(a);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tirbench: %s\n", e.what());
    return 1;
  }
}
