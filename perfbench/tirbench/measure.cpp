#include "measure.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace pb {

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("quantile of an empty sample");
  std::sort(samples.begin(), samples.end());
  const double h = (static_cast<double>(samples.size()) - 1.0) * q;
  const std::size_t lo = static_cast<std::size_t>(std::floor(h));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (h - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

Quartiles quartiles(const std::vector<double>& samples) {
  Quartiles q;
  q.n = samples.size();
  if (samples.empty()) return q;
  q.q1 = quantile(samples, 0.25);
  q.median = quantile(samples, 0.5);
  q.q3 = quantile(samples, 0.75);
  return q;
}

double peak_rss_mib(pid_t pid) {
  const std::string path =
      pid == 0 ? std::string("/proc/self/status") : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0.0;
}

namespace {

ReferenceScore measure_reference() {
  constexpr std::uint64_t kIterations = 40'000'000;
  constexpr std::size_t kSlots = (64u << 20) / sizeof(std::uint32_t);
  constexpr std::uint64_t kLoads = 4'000'000;
  ReferenceScore score;
  double t0 = now_s();
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (std::uint64_t i = 0; i < kIterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  score.alu_mops = static_cast<double>(kIterations) / (now_s() - t0) / 1e6;
  // One cycle through a random permutation (Sattolo's shuffle), so every load
  // depends on the previous one and the prefetcher cannot help.
  std::vector<std::uint32_t> next(kSlots);
  for (std::size_t i = 0; i < kSlots; ++i) next[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = kSlots - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(next[i], next[x % i]);
  }
  t0 = now_s();
  std::uint32_t at = 0;
  for (std::uint64_t i = 0; i < kLoads; ++i) at = next[at];
  score.memory_mloads = static_cast<double>(kLoads) / (now_s() - t0) / 1e6;
  // Keep both loops observable so they cannot be folded away.
  if (x == 0 && at == 1) std::fprintf(stderr, "reference loops degenerated\n");
  return score;
}

}  // namespace

ReferenceScore reference_score() {
  // Measured in a child process: the 64 MiB walk must not raise the peak
  // RSS of the process whose memory the run reports.  Called only while the
  // caller runs no other thread, so fork() is safe.
  int fds[2];
  if (pipe(fds) != 0) return {};
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    const ReferenceScore score = measure_reference();
    const ssize_t written = write(fds[1], &score, sizeof score);
    _exit(written == sizeof score ? 0 : 1);
  }
  close(fds[1]);
  ReferenceScore score;
  if (pid < 0 || read(fds[0], &score, sizeof score) != sizeof score) score = {};
  close(fds[0]);
  if (pid > 0) waitpid(pid, nullptr, 0);
  return score;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void print_quartiles(const std::string& label, const std::vector<double>& samples, double scale,
                     const char* unit) {
  const Quartiles q = quartiles(samples);
  std::printf("# %s: n=%zu q1=%.6g median=%.6g q3=%.6g %s\n", label.c_str(), q.n, q.q1 * scale,
              q.median * scale, q.q3 * scale, unit);
}

double Tracer::Span::count(const std::string& key) const {
  for (const auto& [k, v] : counts) {
    if (k == key) return v;
  }
  return 0.0;
}

Tracer::Scope::Scope(Tracer* tracer, std::string name, std::uint64_t request,
                     std::uint64_t parent)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.name = std::move(name);
  span_.request = request;
  span_.parent = parent;
  {
    const std::lock_guard<std::mutex> lock(tracer_->mutex_);
    span_.id = tracer_->next_id_++;
  }
  span_.start = now_s();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end = now_s();
  tracer_->add(std::move(span_));
}

void Tracer::Scope::count(const std::string& key, double value) {
  if (tracer_ != nullptr) span_.counts.emplace_back(key, value);
}

void Tracer::add(Span span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (span.id == 0) span.id = next_id_++;
  spans_.push_back(std::move(span));
}

std::vector<Tracer::Span> Tracer::spans(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s);
  }
  return out;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans(name)) out.push_back(s.seconds());
  return out;
}

void Tracer::write_jsonl(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                 "\"start\": %.9f, \"end\": %.9f",
                 s.name.c_str(), static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.start, s.end);
    for (const auto& [k, v] : s.counts) std::fprintf(f, ", \"%s\": %.17g", k.c_str(), v);
    std::fprintf(f, "}\n");
  }
  std::fclose(f);
}

}  // namespace pb
