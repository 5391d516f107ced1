// Measurement plumbing of tirbench: clocks, order statistics,
// peak-RSS probes, the CPU reference loop, in-memory spans and the result
// line.  Nothing here calls into the program under test.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pb {

/// Monotonic wall clock, seconds.
double now_s();

/// Type-7 quantile (linear interpolation between order statistics, the
/// definition of R's default and numpy's "linear"), q in [0, 1].  Sorts a
/// copy; throws std::invalid_argument on an empty sample.
double quantile(std::vector<double> samples, double q);

struct Quartiles {
  std::size_t n = 0;
  double q1 = 0.0, median = 0.0, q3 = 0.0;
};
Quartiles quartiles(const std::vector<double>& samples);

/// Peak resident set (VmHWM) of `pid` (0 = this process), MiB; 0 when the
/// status file cannot be read.
double peak_rss_mib(pid_t pid = 0);

/// Scores of two fixed reference loops, timed at the start and end of every
/// run so a slow guest can be told apart from a slow program: integer mixing
/// with no memory traffic (millions of iterations/s), and a dependent random
/// walk over 64 MiB, past any last-level cache (millions of loads/s).
struct ReferenceScore {
  double alu_mops = 0.0;
  double memory_mloads = 0.0;
};
ReferenceScore reference_score();

/// One end-to-end or per-layer metric of the result line.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Print the result line: the last line of standard output.
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics);

/// Print "# <label>: n=... q1=... median=... q3=..." for a run's own
/// repetitions (steadiness report; not a metric).
void print_quartiles(const std::string& label, const std::vector<double>& samples,
                     double scale = 1.0, const char* unit = "");

/// Spans recorded by the benchmark around its calls into each layer.  Kept
/// in memory, written as JSON lines when the run ends.  A null Tracer* is
/// the untraced mode: every Scope on it is a no-op.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;   ///< 0 = root
    std::uint64_t request = 0;  ///< spans of one unit of work share it
    double start = 0.0, end = 0.0;
    std::vector<std::pair<std::string, double>> counts;
    double seconds() const { return end - start; }
    double count(const std::string& key) const;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, std::string name, std::uint64_t request = 0,
          std::uint64_t parent = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void count(const std::string& key, double value);
    std::uint64_t id() const { return span_.id; }

   private:
    Tracer* tracer_;
    Span span_;
  };

  std::vector<Span> spans(const std::string& name) const;
  std::vector<double> durations(const std::string& name) const;
  void write_jsonl(const std::string& path) const;

 private:
  void add(Span span);
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

}  // namespace pb
