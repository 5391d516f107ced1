// Correctness checks of the benchmark.  Each check compares an output of the
// program with a value the benchmark computed apart from the code under
// test, or with a property the method must have, and records a failure
// message when it does not hold.  `tirbench selftest` feeds every check a
// deliberately wrong value and expects it to report incorrect output.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "obs/sink.hpp"
#include "obs/sweep.hpp"
#include "platform/platform.hpp"

namespace pb {

class Checker {
 public:
  /// `got` and `want` have the same bit pattern (bit-identical predictions).
  bool same_bits(const std::string& what, double got, double want);
  bool equal_count(const std::string& what, std::uint64_t got, std::uint64_t want);
  /// `got` >= `floor`.
  bool at_least(const std::string& what, double got, double floor);
  /// (predicted - real) / real, in percent, lies in [lo_pct, hi_pct].
  bool within_band(const std::string& what, double predicted, double real, double lo_pct,
                   double hi_pct);
  /// min <= p5 <= p50 <= p95 <= max and ci95_lo <= mean <= ci95_hi.
  bool ordered_summary(const std::string& what, const tir::obs::DistributionSummary& s);
  bool holds(const std::string& what, bool condition);

  bool ok() const;
  std::uint64_t failures() const;
  /// The first few failure messages, for the run's diagnostics.
  std::vector<std::string> messages() const;

 private:
  bool record(bool pass, const std::string& message);
  mutable std::mutex mutex_;
  std::uint64_t failures_ = 0;
  std::vector<std::string> messages_;
};

/// Lower bound of any prediction: the busiest rank's compute volume at its
/// calibrated rate (communication can only add to it).
double compute_floor(const std::vector<double>& rank_instructions, double rate);

/// Sink that checks every max-min rate the engine assigns: a flow never runs
/// faster than the slowest link of its route (its uncontended rate; the SMPI
/// piecewise bandwidth factors are all <= 1), and the flows crossing a link
/// in one step never exceed its bandwidth together.
class FlowRateSink final : public tir::obs::Sink {
 public:
  explicit FlowRateSink(const tir::platform::Platform& platform) : platform_(platform) {}
  void on_time_advance(double now, double dt) override;
  void on_comm_progress(std::span<const tir::platform::LinkId> links, double rate,
                        double dt) override;
  void on_sim_end(double now) override;

  std::uint64_t flows_checked() const { return flows_; }
  std::uint64_t over_route_bound() const { return over_route_; }
  std::uint64_t over_link_capacity() const { return over_capacity_; }

 private:
  void close_step();
  const tir::platform::Platform& platform_;
  std::vector<double> link_load_;            ///< summed rates this step
  std::vector<tir::platform::LinkId> used_;  ///< links touched this step
  std::uint64_t flows_ = 0;
  std::uint64_t over_route_ = 0;
  std::uint64_t over_capacity_ = 0;
};

/// Run every check on deliberately wrong inputs (and on right ones);
/// returns the number of checks that did not behave.
int selftest();

}  // namespace pb
