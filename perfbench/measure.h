// perfbench measurement helpers: exact-sample quantiles, the host's steal
// share, process CPU time, and the metric list a run prints.
#pragma once

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile of exact samples: the smallest sample with at
/// least q*n samples at or below it (q in (0, 1]). Reorders `v`
/// (nth_element, O(n)). NaN when `v` is empty.
inline double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return std::nan("");
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  auto it = v.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(v.begin(), it, v.end());
  return *it;
}

/// Median and p99 of one op class, with the sample count they rest on.
struct LatencySummary {
  size_t n = 0;
  double p50 = 0, p99 = 0;
};
inline LatencySummary summarize(std::vector<double> v) {
  LatencySummary s;
  s.n = v.size();
  if (v.empty()) return s;
  s.p50 = quantile(v, 0.50);
  s.p99 = quantile(v, 0.99);
  return s;
}

inline uint64_t mono_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

inline double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Aggregate CPU jiffies from the "cpu" line of /proc/stat (read only).
struct CpuTimes {
  uint64_t total = 0, steal = 0;
  static CpuTimes read() {
    CpuTimes t;
    std::ifstream in("/proc/stat");
    std::string line;
    if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) return t;
    std::istringstream ss(line.substr(4));
    uint64_t v = 0;
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already inside user, so only the first 8 count.
    for (int i = 0; i < 8 && (ss >> v); ++i) {
      t.total += v;
      if (i == 7) t.steal = v;
    }
    return t;
  }
};
/// Steal share of all CPU time between two readings, in percent.
inline double steal_pct(const CpuTimes& a, const CpuTimes& b) {
  const uint64_t dt = b.total - a.total;
  return dt == 0 ? 0.0
                 : 100.0 * static_cast<double>(b.steal - a.steal) /
                       static_cast<double>(dt);
}

/// Threads of this process right now (/proc/self/status, read only).
inline int process_threads() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  return -1;
}

/// The phase a run is in, for the watchdog's report when a run hangs.
inline std::atomic<const char*> g_phase{"start"};
inline void set_phase(const char* p) { g_phase.store(p); }
/// Bumped by every answered request, so the watchdog can tell a stall.
inline std::atomic<uint64_t> g_progress{0};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What one workload run reports. `e2e` is printed by an untraced run,
/// `layer` by a traced one.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;

  /// Record a check; a failing one makes the run incorrect and is logged.
  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
};

inline double median_of(std::vector<double> v) { return quantile(v, 0.5); }

/// Throughput as the median over fixed wall-clock slices of the ops each
/// slice completed. A host stall (the hypervisor not running this guest's
/// vCPU) empties a few slices; the median passes over them, where the
/// run's mean rate would take them in.
class SliceRate {
 public:
  static constexpr uint64_t kSliceNs = 10'000'000;
  explicit SliceRate(uint64_t start_ns) : end_(start_ns + kSliceNs) {}
  /// One op completed at `now_ns` (non-decreasing).
  void add(uint64_t now_ns) {
    for (; now_ns >= end_; end_ += kSliceNs) {
      counts_.push_back(static_cast<double>(n_));
      n_ = 0;
    }
    ++n_;
  }
  /// Ops per second: median of the whole slices. A run shorter than
  /// three slices gives its plain mean.
  [[nodiscard]] double ops_per_s(uint64_t start_ns, uint64_t last_ns,
                                 uint64_t total) const {
    if (counts_.size() < 3)
      return static_cast<double>(total) /
             (static_cast<double>(last_ns - start_ns) * 1e-9);
    return median_of(counts_) * 1e9 / static_cast<double>(kSliceNs);
  }

 private:
  uint64_t end_;
  uint64_t n_ = 0;
  std::vector<double> counts_;
};

/// "name: a b c" (ms) on stderr: the single timings behind a median.
inline void log_times(const char* name, const std::vector<double>& secs) {
  std::string s;
  for (const double v : secs) s += " " + std::to_string(v * 1e3).substr(0, 7);
  std::fprintf(stderr, "perfbench: %s ms:%s\n", name, s.c_str());
}

}  // namespace perfbench
