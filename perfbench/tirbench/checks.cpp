#include "checks.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "measure.hpp"
#include "platform/clusters.hpp"

namespace pb {

namespace {

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

bool Checker::record(bool pass, const std::string& message) {
  if (pass) return true;
  const std::lock_guard<std::mutex> lock(mutex_);
  ++failures_;
  if (messages_.size() < 8) messages_.push_back(message);
  return false;
}

bool Checker::same_bits(const std::string& what, double got, double want) {
  return record(std::bit_cast<std::uint64_t>(got) == std::bit_cast<std::uint64_t>(want),
                what + ": " + num(got) + " is not bit-identical to " + num(want));
}

bool Checker::equal_count(const std::string& what, std::uint64_t got, std::uint64_t want) {
  return record(got == want,
                what + ": " + std::to_string(got) + " != expected " + std::to_string(want));
}

bool Checker::at_least(const std::string& what, double got, double floor) {
  return record(got >= floor, what + ": " + num(got) + " < floor " + num(floor));
}

bool Checker::within_band(const std::string& what, double predicted, double real, double lo_pct,
                          double hi_pct) {
  const double err = (predicted - real) / real * 100.0;
  return record(real > 0.0 && err >= lo_pct && err <= hi_pct,
                what + ": error " + num(err) + "% outside [" + num(lo_pct) + ", " +
                    num(hi_pct) + "]%");
}

bool Checker::ordered_summary(const std::string& what, const tir::obs::DistributionSummary& s) {
  const bool ordered = s.min <= s.p5 && s.p5 <= s.p50 && s.p50 <= s.p95 && s.p95 <= s.max &&
                       s.ci95_lo <= s.mean && s.mean <= s.ci95_hi;
  return record(ordered, what + ": quantiles or ci95 out of order (min " + num(s.min) + " p5 " +
                             num(s.p5) + " p50 " + num(s.p50) + " p95 " + num(s.p95) + " max " +
                             num(s.max) + "; ci95 " + num(s.ci95_lo) + " <= " + num(s.mean) +
                             " <= " + num(s.ci95_hi) + ")");
}

bool Checker::holds(const std::string& what, bool condition) { return record(condition, what); }

bool Checker::ok() const { return failures() == 0; }

std::uint64_t Checker::failures() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return failures_;
}

std::vector<std::string> Checker::messages() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return messages_;
}

double compute_floor(const std::vector<double>& rank_instructions, double rate) {
  double busiest = 0.0;
  for (const double instructions : rank_instructions) busiest = std::max(busiest, instructions);
  return busiest / rate;
}

void FlowRateSink::on_time_advance(double, double) { close_step(); }

void FlowRateSink::on_comm_progress(std::span<const tir::platform::LinkId> links, double rate,
                                    double) {
  ++flows_;
  if (links.empty()) return;  // loopback: no link to share
  double slowest = INFINITY;
  for (const tir::platform::LinkId l : links) {
    const auto i = static_cast<std::size_t>(l);
    slowest = std::min(slowest, platform_.link(l).bandwidth);
    if (i >= link_load_.size()) link_load_.resize(platform_.link_count(), 0.0);
    if (link_load_[i] == 0.0) used_.push_back(l);
    link_load_[i] += rate;
  }
  if (rate > slowest * (1.0 + 1e-12)) ++over_route_;
}

void FlowRateSink::on_sim_end(double) { close_step(); }

void FlowRateSink::close_step() {
  for (const tir::platform::LinkId l : used_) {
    double& load = link_load_[static_cast<std::size_t>(l)];
    if (load > platform_.link(l).bandwidth * (1.0 + 1e-9)) ++over_capacity_;
    load = 0.0;
  }
  used_.clear();
}

int selftest() {
  int misbehaved = 0;
  const auto expect = [&](const char* name, bool verdict, bool want) {
    const bool good = verdict == want;
    std::printf("%s %s (check said %s)\n", good ? "ok  " : "FAIL", name,
                verdict ? "correct" : "incorrect");
    if (!good) ++misbehaved;
  };

  Checker c;
  const double prediction = 0.4696380123;
  expect("bit-identical prediction accepted", c.same_bits("p", prediction, prediction), true);
  expect("prediction differing in its last bit rejected",
         c.same_bits("p", std::nextafter(prediction, 1.0), prediction), false);
  expect("action count equal accepted", c.equal_count("n", 593792, 593792), true);
  expect("action count off by one rejected", c.equal_count("n", 593793, 593792), false);

  const std::vector<double> ranks = {2.0e9, 3.0e9, 2.5e9};
  const double floor = compute_floor(ranks, 2.0e9);
  expect("compute floor is the busiest rank", floor == 1.5, true);
  expect("prediction above the compute floor accepted", c.at_least("p", 1.6, floor), true);
  expect("prediction scaled below the compute floor rejected",
         c.at_least("p", 1.6 * 0.9, floor), false);

  expect("prediction inside the Figure 6 band accepted",
         c.within_band("b", 0.95, 1.0, -9.5, 11.5), true);
  expect("prediction 20% high rejected", c.within_band("b", 1.2, 1.0, -9.5, 11.5), false);
  expect("prediction 10% low rejected", c.within_band("b", 0.9, 1.0, -9.5, 11.5), false);

  tir::obs::DistributionSummary s;
  s.n = 5;
  s.min = 1.0;
  s.p5 = 1.1;
  s.p50 = 2.0;
  s.p95 = 2.9;
  s.max = 3.0;
  s.mean = 2.0;
  s.ci95_lo = 1.5;
  s.ci95_hi = 2.5;
  expect("ordered summary accepted", c.ordered_summary("s", s), true);
  tir::obs::DistributionSummary bad = s;
  bad.p5 = 2.5;  // p5 above p50
  expect("quantiles out of order rejected", c.ordered_summary("s", bad), false);
  bad = s;
  bad.ci95_lo = 2.1;  // interval misses the mean
  expect("ci95 not containing the mean rejected", c.ordered_summary("s", bad), false);
  bad = s;
  bad.max = 2.8;  // max below p95
  expect("max below p95 rejected", c.ordered_summary("s", bad), false);

  const tir::platform::Platform graphene = tir::platform::graphene();
  const tir::platform::Host& h0 = graphene.host(0);
  const tir::platform::Host& h1 = graphene.host(1);
  const tir::platform::Route route = graphene.route(h0.id, h1.id);
  double slowest = INFINITY;
  for (const auto l : route.links) slowest = std::min(slowest, graphene.link(l).bandwidth);
  {
    FlowRateSink sink(graphene);
    sink.on_time_advance(1.0, 1.0);
    sink.on_comm_progress(route.links, slowest, 1.0);
    sink.on_sim_end(1.0);
    expect("flow at its route bound accepted",
           sink.over_route_bound() == 0 && sink.over_link_capacity() == 0, true);
  }
  {
    FlowRateSink sink(graphene);
    sink.on_time_advance(1.0, 1.0);
    sink.on_comm_progress(route.links, slowest * 1.01, 1.0);
    sink.on_sim_end(1.0);
    expect("flow faster than its uncontended rate rejected", sink.over_route_bound() == 0,
           false);
  }
  {
    FlowRateSink sink(graphene);
    sink.on_time_advance(1.0, 1.0);
    sink.on_comm_progress(route.links, slowest * 0.6, 1.0);
    sink.on_comm_progress(route.links, slowest * 0.6, 1.0);
    sink.on_sim_end(1.0);
    expect("two flows overfilling a link rejected", sink.over_link_capacity() == 0, false);
  }

  expect("quantile: median of 1..5 is 3", quantile({5, 1, 4, 2, 3}, 0.5) == 3.0, true);
  expect("quantile: type-7 p25 of 1..4 is 1.75", quantile({4, 3, 2, 1}, 0.25) == 1.75, true);

  expect("checker counted every rejection", c.failures() == 8, true);
  std::printf("selftest: %d check(s) misbehaved\n", misbehaved);
  return misbehaved;
}

}  // namespace pb
