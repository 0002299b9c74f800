// hartbench — the load program behind perfbench/run.py.
//
//   hartbench --workload engine-churn|svc-skew|tcp-quorum --seed N
//             --seconds S --trace 0|1 [--work-dir D] [--rate R]
//             [--window N] [--pin 0|1]
//
// Runs one workload and prints, as its last stdout line, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. An untraced run prints
// the end-to-end metrics; a traced run prints every per-layer metric (0
// where the layer is not on the workload's path). Diagnostics go to
// stderr.
#include <execinfo.h>
#include <sched.h>
#include <signal.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "workloads.h"

namespace {

using perfbench::Metric;

struct Named {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in print order. A traced run of any workload
// prints all of them.
constexpr Named kLayerMetrics[] = {
    {"pmem.read_lines_per_read", "count"},
    {"pmem.persists_per_write", "count"},
    {"pmem.injected_us_per_op", "us"},
    {"hart.fp_skips_per_miss", "count"},
    {"art.optimistic_retries_per_read", "count"},
    {"hart.read_fallbacks_per_read", "count"},
    {"epalloc.meta_persists_per_write", "count"},
    {"ebr.deferred_frees_per_write", "count"},
    {"server.queue_wait_p50_us", "us"},
    {"server.apply_p50_us", "us"},
    {"server.fence_wait_p50_us", "us"},
    {"server.device_us_per_batch", "us"},
    {"server.ops_per_batch", "count"},
    {"server.fastpath_read_share", "ratio"},
    {"repl.quorum_wait_p50_us", "us"},
    {"repl.entries_per_shipped_batch", "count"},
    {"wire.read_self_p50_us", "us"},
    {"wire.write_self_p50_us", "us"},
    {"layer.dram_index_us_per_op", "us"},
    {"layer.hart_nolat_us_per_op", "us"},
    {"tail.read_p99_us", "us"},
    {"tail.read_samples", "count"},
    {"tail.write_p99_us", "us"},
    {"tail.write_samples", "count"},
    {"tail.scan_p99_us", "us"},
    {"tail.scan_samples", "count"},
    {"host.steal_pct", "%"},
    {"gen.late_p99_us", "us"},
    {"load.threads", "count"},
    {"load.connections", "count"},
    {"trace.overhead_pct", "%"},
    {"trace.sampled_ops", "count"},
    {"trace.dispatch_self_p50_us", "us"},
    {"trace.queue_wait_self_p50_us", "us"},
    {"trace.shard_apply_self_p50_us", "us"},
    {"trace.fence_self_p50_us", "us"},
    {"trace.repl_ship_self_p50_us", "us"},
    {"trace.follower_apply_self_p50_us", "us"},
    {"trace.quorum_ack_self_p50_us", "us"},
};

//// Run the whole process on one CPU, the highest this process may use:
/// every thread started later inherits the mask. On a KVM guest a
/// wake-up sent to another, idle vCPU waits for the hypervisor to run that
/// vCPU; the service's requests cross several threads, and spread over
/// four vCPUs their latency medians doubled whenever the host was busy.
/// Returns the CPU, or -1 if the mask could not be set.
int pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpu = c;
  if (cpu < 0) return -1;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return ::sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

// A run that outlives its budget prints the phase it is in, every
/// thread's state, kernel wait channel (from /proc/self/task) and call
/// stack, then exits 3 — a hang becomes a report, not the caller's kill.
/// A load that answers nothing for kStall prints the same report once and
/// goes on.
class Watchdog {
 public:
  explicit Watchdog(std::chrono::seconds budget)
      : thread_([this, budget] {
          const auto end = std::chrono::steady_clock::now() + budget;
          auto seen = std::chrono::steady_clock::now();
          uint64_t last = perfbench::g_progress.load();
          bool reported = false;
          std::unique_lock lk(mu_);
          while (!cv_.wait_for(lk, std::chrono::seconds(1),
                               [this] { return done_; })) {
            const auto now = std::chrono::steady_clock::now();
            if (now >= end) {
              report("HUNG");
              std::_Exit(3);
            }
            const uint64_t p = perfbench::g_progress.load();
            if (p != last) {
              last = p;
              seen = now;
            } else if (p != 0 && !reported && now - seen >= kStall) {
              report("STALLED");
              reported = true;
            }
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard lk(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  static std::string slurp(const std::filesystem::path& p) {
    std::ifstream in(p);
    std::string s((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
    while (!s.empty() && s.back() == '\n') s.pop_back();
    return s;
  }
  /// SIGUSR1 handler: the receiving thread prints its own call stack
  /// (raw return addresses; resolve with addr2line -e hartbench).
  static void dump_stack(int) {
    void* frames[48];
    backtrace_symbols_fd(frames, backtrace(frames, 48), STDERR_FILENO);
  }
  static constexpr std::chrono::seconds kStall{10};

  static void report(const char* what) {
    std::fprintf(stderr, "hartbench: %s in phase '%s'; threads:\n", what,
                 perfbench::g_phase.load());
    ::signal(SIGUSR1, dump_stack);
    const long self = ::syscall(SYS_gettid);
    std::error_code ec;
    for (const auto& t :
         std::filesystem::directory_iterator("/proc/self/task", ec)) {
      const std::string stat = slurp(t.path() / "stat");
      const size_t close = stat.rfind(')');
      const long tid = std::stol(t.path().filename().string());
      std::fprintf(stderr, "  %ld %s state=%c wchan=%s\n", tid,
                   slurp(t.path() / "comm").c_str(),
                   close + 2 < stat.size() ? stat[close + 2] : '?',
                   slurp(t.path() / "wchan").c_str());
      std::fflush(stderr);
      if (tid == self) continue;
      ::syscall(SYS_tgkill, ::getpid(), tid, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    std::fflush(stderr);
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts once the members above exist
};

// Longer than any workload takes (about 40 s at 15 s runs), shorter than
// run.py's 170 s kill.
constexpr std::chrono::seconds kRunBudget{150};

void print_json(const perfbench::RunResult& r, bool trace) {
  std::map<std::string, const Metric*> got;
  for (const Metric& m : trace ? r.layer : r.e2e) got[m.name] = &m;
  std::vector<Metric> out;
  if (trace) {
    for (const Named& n : kLayerMetrics) {
      auto it = got.find(n.name);
      out.push_back({n.name, it == got.end() ? 0.0 : it->second->value,
                     n.unit});
      if (it != got.end()) got.erase(it);
    }
    for (const auto& [name, m] : got)
      std::fprintf(stderr, "hartbench: unlisted layer metric %s\n",
                   name.c_str());
  } else {
    out = r.e2e;
  }
  std::string s = "{\"correct\": ";
  s += r.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(r.attempted);
  s += ", \"failed\": " + std::to_string(r.failed);
  s += ", \"metrics\": {";
  for (size_t i = 0; i < out.size(); ++i) {
    char buf[256];
    const double v = std::isfinite(out[i].value) ? out[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", out[i].name.c_str(), v,
                  out[i].unit.c_str());
    s += buf;
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args a;
  bool pin = true;
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "hartbench: %s needs a value\n", f.c_str());
      return 2;
    }
    const char* v = argv[++i];
    if (f == "--workload") a.workload = v;
    else if (f == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (f == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (f == "--trace") a.trace = std::strtol(v, nullptr, 10) != 0;
    else if (f == "--work-dir") a.work_dir = v;
    else if (f == "--rate") a.rate = std::strtod(v, nullptr);
    else if (f == "--window") a.window = std::strtoull(v, nullptr, 10);
    else if (f == "--pin") pin = std::strtol(v, nullptr, 10) != 0;
    else {
      std::fprintf(stderr, "hartbench: unknown flag %s\n", f.c_str());
      return 2;
    }
  }
  if (!(a.seconds > 0)) {
    std::fprintf(stderr, "hartbench: --seconds must be > 0\n");
    return 2;
  }
  if (a.window == 0) {
    std::fprintf(stderr, "hartbench: --window must be >= 1\n");
    return 2;
  }
  if (pin) {
    const int cpu = pin_to_one_cpu();
    if (cpu < 0)
      std::fprintf(stderr, "hartbench: could not pin to one CPU\n");
    else
      std::fprintf(stderr, "hartbench: running on CPU %d\n", cpu);
  }
  perfbench::RunResult r;
  Watchdog watchdog(kRunBudget);
  try {
    if (a.workload == "engine-churn") {
      r = perfbench::run_engine_churn(a);
    } else if (a.workload == "svc-skew") {
      r = perfbench::run_service(a, false);
    } else if (a.workload == "tcp-quorum") {
      r = perfbench::run_service(a, true);
    } else {
      std::fprintf(stderr, "hartbench: unknown workload '%s'\n",
                   a.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hartbench: %s failed: %s\n", a.workload.c_str(),
                 e.what());
    return 1;
  }
  print_json(r, a.trace);
  return r.correct ? 0 : 1;
}
