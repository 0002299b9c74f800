// engine-churn: the embedded engine alone. One core::Hart on one
// anonymous arena at 300/300 with the spin device model, driven by one
// thread in a closed loop: 70% GET uniform over a universe twice the live
// set (about half miss), 10% UPDATE, 18% INSERT/DELETE balanced, 2% SCAN
// of 100 entries. Only the index layers run (ART descent, fingerprints,
// PM reads, slot recycling, EBR) and the working set exceeds one core's
// L2. No server code runs.
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "art/dram_index.h"
#include "common/ebr.h"
#include "gen.h"
#include "hart/hart.h"
#include "obs/counters.h"
#include "pmem/arena.h"
#include "workloads.h"

namespace perfbench {
namespace {

using hart::common::Index;
using hart::common::Status;

constexpr Spec kSpec{.universe = 1'000'000,
                     .live = 500'000,
                     .mix = {.get = 70, .update = 10, .churn = 18, .scan = 2},
                     .zipf = false,
                     .theta = 0.99,
                     .scan_len = 100};
constexpr size_t kArenaBytes = size_t{512} << 20;
constexpr size_t kWarmOps = 100'000;  // per trial
// Pre-generated stream length per measured second: above the closed
// loop's capacity on this kind of host (about 220 k ops/s).
constexpr double kOpsPerSecond = 450'000;
// Ops replayed on the DRAM index, the latency-free HART and the count
// repeatability check in a traced run.
constexpr size_t kReplayOps = 300'000;
// A traced run measures twice: plainly, then with per-call snapshots for
// at most this long.
constexpr double kMaxTracedSeconds = 5.0;
constexpr int kTrials = 5;
constexpr int kRecoveries = 1;  // per trial

/// One op against any index; returns the digest of what it answered.
uint64_t exec(Index& idx, const Workload& w, const OpRec& r,
              std::string* buf,
              std::vector<std::pair<std::string, std::string>>* rows) {
  const std::string& key = w.key(r.slot);
  switch (r.op()) {
    case Op::kGet: {
      const Status s = idx.search(key, buf);
      if (s.code() == Status::kOk) return point_digest(Outcome::kHit, *buf);
      return s.code() == Status::kNotFound ? point_digest(Outcome::kMiss) : 0;
    }
    case Op::kUpdate:
      return idx.update(key, w.value_of(r.slot, r.ver)).code() == Status::kOk
                 ? point_digest(Outcome::kApplied)
                 : 0;
    case Op::kInsert:
      return idx.insert(key, w.value_of(r.slot, r.ver)).code() ==
                     Status::kInserted
                 ? point_digest(Outcome::kInserted)
                 : 0;
    case Op::kDelete:
      return idx.remove(key).code() == Status::kOk
                 ? point_digest(Outcome::kApplied)
                 : 0;
    case Op::kScan: {
      idx.range(key, kSpec.scan_len, rows);
      Digest d;
      for (const auto& [k, v] : *rows) {
        d.add(k);
        d.add(v);
      }
      d.add(rows->size());
      return d.value();
    }
  }
  return 0;
}

/// Load the initial live set through the public API.
void load(Index& idx, const Workload& w) {
  for (const uint32_t s : w.initial()) idx.insert(w.key(s), w.value_of(s, 0));
}

/// Digest of a Hart's full contents, in key order, via its cursor.
uint64_t hart_contents(const hart::core::Hart& h, const Workload& w) {
  Digest d;
  size_t n = 0;
  for (hart::core::HartCursor c(h, w.key(0), 4096); c.valid(); c.next()) {
    d.add(c.key());
    d.add(c.value());
    ++n;
  }
  d.add(n);
  return d.value();
}

/// The registry counters the engine's per-layer metrics are built from,
/// plus the arena's own Stats: everything a per-call snapshot reads.
struct Probe {
  hart::pmem::StatsSnapshot pm;
  uint64_t fp_skip = 0, opt_retry = 0, fallback = 0, meta = 0, ebr = 0;
};
struct Counters {
  hart::obs::Counter& fp_skip;
  hart::obs::Counter& opt_retry;
  hart::obs::Counter& fallback;
  hart::obs::Counter& meta;
  hart::obs::Counter& ebr;
  static Counters get() {
    auto& r = hart::obs::Registry::instance();
    return {r.counter("hart_fp_skip_total"),
            r.counter("art_optimistic_retry_total"),
            r.counter("hart_read_fallback_total"),
            r.counter("epalloc_pm_meta_persists_total"),
            r.counter("ebr_deferred_free_total")};
  }
  Probe read(const hart::pmem::Arena& a) const {
    return {a.stats().snapshot(), fp_skip.value(), opt_retry.value(),
            fallback.value(), meta.value(), ebr.value()};
  }
};
/// Per-op-type sums of Probe deltas.
struct Attribution {
  uint64_t n = 0, misses = 0, read_lines = 0, persists = 0,
           injected_ns = 0, fp_skip = 0, opt_retry = 0, fallback = 0,
           meta = 0, ebr = 0;
  void add(const Probe& a, const Probe& b) {
    ++n;
    read_lines += b.pm.pm_read_lines - a.pm.pm_read_lines;
    persists += b.pm.persist_calls - a.pm.persist_calls;
    injected_ns += b.pm.injected_ns - a.pm.injected_ns;
    fp_skip += b.fp_skip - a.fp_skip;
    opt_retry += b.opt_retry - a.opt_retry;
    fallback += b.fallback - a.fallback;
    meta += b.meta - a.meta;
    ebr += b.ebr - a.ebr;
  }
};

double ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

/// The EBR domain is process-wide and advances once every kAdvanceEvery
/// retires, a count that carries over from one Hart to the next. Retire
/// no-op items until an advance happens, so a replay that starts here
/// meets the same advance cadence as any other replay started here.
void align_ebr_cadence() {
  auto& domain = hart::common::ebr::Domain::instance();
  auto& advances =
      hart::obs::Registry::instance().counter("ebr_epoch_advance_total");
  hart::common::ebr::Guard pin(domain);
  for (const uint64_t a0 = advances.value(); advances.value() == a0;)
    domain.retire(nullptr, [](void*, void*) {}, nullptr);
}

/// The engine and its device, opened together.
struct Instance {
  std::unique_ptr<hart::pmem::Arena> arena;
  std::unique_ptr<hart::core::Hart> hart;
  Instance(const hart::pmem::LatencyConfig& lat, const Workload& w) {
    hart::pmem::Arena::Options ao;
    ao.size = kArenaBytes;
    ao.latency = lat;
    ao.defer_latency = false;  // spin per persist / read line
    arena = std::make_unique<hart::pmem::Arena>(ao);
    hart = std::make_unique<hart::core::Hart>(*arena);
    load(*hart, w);
  }
};

/// Closed-loop replay of ops[from, to) on `idx`; seconds elapsed. Counts
/// answers that disagree with the model into *wrong.
double replay(Index& idx, const Workload& w, const std::vector<OpRec>& ops,
              size_t from, size_t to, uint64_t* wrong) {
  std::string buf;
  std::vector<std::pair<std::string, std::string>> rows;
  const uint64_t t0 = mono_ns();
  for (size_t i = from; i < to; ++i)
    if (exec(idx, w, ops[i], &buf, &rows) != ops[i].expect) ++*wrong;
  return static_cast<double>(mono_ns() - t0) * 1e-9;
}

}  // namespace

RunResult run_engine_churn(const Args& args) {
  RunResult res;
  Workload w(kSpec, args.seed);
  const double traced_s =
      args.trace ? std::min(args.seconds, kMaxTracedSeconds) : 0.0;
  const int ntrials = args.trace ? 1 : kTrials;
  const double trial_s = args.seconds / ntrials;
  const size_t total =
      kWarmOps + static_cast<size_t>((trial_s + traced_s) * kOpsPerSecond);
  std::vector<OpRec> ops;
  ops.reserve(total);
  for (size_t i = 0; i < total; ++i) ops.push_back(w.next());
  const auto lat = hart::pmem::LatencyConfig::c300_300();

  // The run is kTrials trials, each on a fresh instance: set-up, warm-up,
  // timed closed loop, end-state check, reopen cycles. Every trial runs
  // the stream from its start on the same initial keys, so the model's
  // answers hold in each. Host speed drifts over seconds; trials spread
  // every figure's samples over the whole run, and each figure is the
  // median over trials (set-up and recovery: over all their timings).
  // A traced run is one trial that measures twice: plainly (the baseline
  // for the tracing overhead), then with per-call snapshots of the arena
  // stats and the registry counters.
  const Counters ctr = Counters::get();
  std::vector<double> setups, recoveries;
  std::vector<double> tputs, cpus, steals, rd_p50, wr_p50, sc_p50;
  std::vector<double> lat_us[kOpKinds];  // the last trial's samples
  Attribution attr[kOpKinds];
  std::string buf;
  std::vector<std::pair<std::string, std::string>> rows;
  std::unique_ptr<Instance> inst;
  uint64_t wrong = 0;
  double traced_tput = 0;
  size_t next = 0;
  hart::common::MemoryUsage mem{};
  double live = 0;

  // One closed-loop slice from ops[next] for `secs`; returns its ops/s
  // (median over 10 ms slices).
  auto timed = [&](bool traced, double secs, double* cpu_us, double* steal) {
    hart::core::Hart& h = *inst->hart;
    const CpuTimes c0 = CpuTimes::read();
    const double cpu0 = process_cpu_s();
    const uint64_t start = mono_ns();
    const uint64_t deadline = start + static_cast<uint64_t>(secs * 1e9);
    const size_t first = next;
    SliceRate rate(start);
    uint64_t now = start;
    while (next < ops.size() && now < deadline) {
      const OpRec& r = ops[next];
      Probe p0;
      if (traced) p0 = ctr.read(*inst->arena);
      const uint64_t t0 = mono_ns();
      const uint64_t got = exec(h, w, r, &buf, &rows);
      now = mono_ns();
      if (traced) {
        attr[r.kind].add(p0, ctr.read(*inst->arena));
        if (r.op() == Op::kGet && got == point_digest(Outcome::kMiss))
          ++attr[r.kind].misses;
      } else {
        lat_us[r.kind].push_back(static_cast<double>(now - t0) * 1e-3);
      }
      if (got != r.expect) ++wrong;
      rate.add(now);
      ++next;
    }
    if (next == ops.size())
      std::fprintf(stderr, "perfbench: engine stream ran out early\n");
    if (!traced) res.attempted += next - first;
    *cpu_us = (process_cpu_s() - cpu0) * 1e6 /
              static_cast<double>(next - first);
    *steal = steal_pct(c0, CpuTimes::read());
    return rate.ops_per_s(start, now, next - first);
  };
  auto p50 = [&](std::initializer_list<Op> kinds) {
    std::vector<double> v;
    for (const Op k : kinds)
      v.insert(v.end(), lat_us[static_cast<size_t>(k)].begin(),
               lat_us[static_cast<size_t>(k)].end());
    return summarize(std::move(v));
  };
  LatencySummary rd, wr, sc;

  for (int t = 0; t < ntrials; ++t) {
    set_phase("setup");
    inst.reset();
    const uint64_t t0 = mono_ns();
    inst = std::make_unique<Instance>(lat, w);
    setups.push_back(static_cast<double>(mono_ns() - t0) * 1e-9);
    res.check(inst->hart->size() == kSpec.live,
              "engine: live count after load");

    replay(*inst->hart, w, ops, 0, kWarmOps, &wrong);  // warm-up, untimed
    next = kWarmOps;
    for (auto& v : lat_us) {
      v.clear();
      v.reserve(static_cast<size_t>(trial_s * 60'000));
    }
    set_phase("timed");
    double cpu_us = 0, steal = 0;
    tputs.push_back(timed(false, trial_s, &cpu_us, &steal));
    cpus.push_back(cpu_us);
    steals.push_back(steal);
    rd = p50({Op::kGet});
    wr = p50({Op::kUpdate, Op::kInsert, Op::kDelete});
    sc = p50({Op::kScan});
    rd_p50.push_back(rd.p50);
    wr_p50.push_back(wr.p50);
    sc_p50.push_back(sc.p50);
    if (args.trace) {
      double traced_cpu = 0, traced_steal = 0;
      traced_tput = timed(true, traced_s, &traced_cpu, &traced_steal);
    }
    res.check(wrong == 0, "engine: " + std::to_string(wrong) +
                              " answers disagree with the model");

    // End state: the model after exactly the ops that ran.
    set_phase("contents check");
    w.replay(ops, next);
    const hart::core::Hart& h = *inst->hart;
    res.check(h.size() == w.live_count(), "engine: live count after run");
    mem = h.memory_usage();
    live = static_cast<double>(h.size());
    res.check(mem.dram_bytes > 0 && mem.pm_bytes > 0, "engine: space > 0");

    // Recovery: drop the DRAM side and reopen the arena (Algorithm 7).
    set_phase("recovery");
    const uint64_t want = w.contents_digest();
    for (int i = 0; i < (args.trace ? 0 : kRecoveries); ++i) {
      inst->hart.reset();
      const uint64_t r0 = mono_ns();
      inst->hart = std::make_unique<hart::core::Hart>(*inst->arena);
      recoveries.push_back(static_cast<double>(mono_ns() - r0) * 1e-9);
      res.check(inst->hart->size() == w.live_count(),
                "engine: live count after recovery");
      res.check(hart_contents(*inst->hart, w) == want,
                "engine: contents after recovery");
    }
  }
  const double tput = median_of(tputs);
  const double steal = median_of(steals);

  log_times("setup", setups);
  log_times("recovery", recoveries);
  res.e2e = {
      {"throughput_ops_s", tput, "1/s"},
      {"read_p50_us", median_of(rd_p50), "us"},
      {"write_p50_us", median_of(wr_p50), "us"},
      {"scan_p50_us", median_of(sc_p50), "us"},
      {"cpu_us_per_op", median_of(cpus), "us"},
      {"setup_s", median_of(setups), "s"},
      {"recovery_s", recoveries.empty() ? 0 : median_of(recoveries), "s"},
      {"dram_bytes_per_key", static_cast<double>(mem.dram_bytes) / live, "B"},
      {"pm_bytes_per_key", static_cast<double>(mem.pm_bytes) / live, "B"},
  };
  std::fprintf(stderr,
               "perfbench: engine-churn seed=%llu trials=%d ops=%llu "
               "steal=%.1f%% load threads=1 connections=0 "
               "process threads=%d\n",
               static_cast<unsigned long long>(args.seed), ntrials,
               static_cast<unsigned long long>(res.attempted), steal,
               process_threads());
  if (!args.trace) return res;

  // Layer replays: the same op stream on the DRAM-only ART and on HART
  // with PM latency off, each from the same initial key set (so the
  // model's answers still apply), plus a second latency-free replay whose
  // PM counts must repeat the first exactly.
  set_phase("layer replays");
  const size_t rto = std::min(ops.size(), kReplayOps);
  hart::art::DramIndex dram;
  load(dram, w);
  const double dram_s = replay(dram, w, ops, 0, rto, &wrong);
  hart::pmem::StatsSnapshot counts[2];
  double nolat_s = 0;
  inst.reset();
  for (auto& c : counts) {
    align_ebr_cadence();
    Instance fresh(hart::pmem::LatencyConfig::off(), w);
    const auto before = fresh.arena->stats().snapshot();
    nolat_s = replay(*fresh.hart, w, ops, 0, rto, &wrong);
    c = fresh.arena->stats().snapshot();
    c.persist_calls -= before.persist_calls;
    c.pm_read_lines -= before.pm_read_lines;
    c.persisted_bytes -= before.persisted_bytes;
    c.alloc_calls -= before.alloc_calls;
    c.free_calls -= before.free_calls;
  }
  res.check(wrong == 0, "engine: replay answers disagree with the model");
  res.check(counts[0].persist_calls == counts[1].persist_calls &&
                counts[0].pm_read_lines == counts[1].pm_read_lines &&
                counts[0].persisted_bytes == counts[1].persisted_bytes &&
                counts[0].alloc_calls == counts[1].alloc_calls &&
                counts[0].free_calls == counts[1].free_calls,
            "engine: PM counts repeat for a fixed op stream");

  const Attribution& g = attr[static_cast<size_t>(Op::kGet)];
  Attribution wsum, all;
  for (const Op k : {Op::kUpdate, Op::kInsert, Op::kDelete}) {
    const Attribution& a = attr[static_cast<size_t>(k)];
    wsum.n += a.n;
    wsum.persists += a.persists;
    wsum.meta += a.meta;
  }
  for (const Attribution& a : attr) {
    all.n += a.n;
    all.injected_ns += a.injected_ns;
    all.ebr += a.ebr;
  }
  res.layer = {
      {"pmem.read_lines_per_read", ratio(g.read_lines, g.n), "count"},
      {"pmem.persists_per_write", ratio(wsum.persists, wsum.n), "count"},
      {"pmem.injected_us_per_op", ratio(all.injected_ns, all.n) * 1e-3, "us"},
      {"hart.fp_skips_per_miss", ratio(g.fp_skip, g.misses), "count"},
      {"art.optimistic_retries_per_read", ratio(g.opt_retry, g.n), "count"},
      {"hart.read_fallbacks_per_read", ratio(g.fallback, g.n), "count"},
      {"epalloc.meta_persists_per_write", ratio(wsum.meta, wsum.n), "count"},
      {"ebr.deferred_frees_per_write", ratio(all.ebr, wsum.n), "count"},
      {"layer.dram_index_us_per_op", dram_s * 1e6 / static_cast<double>(rto),
       "us"},
      {"layer.hart_nolat_us_per_op",
       nolat_s * 1e6 / static_cast<double>(rto), "us"},
      {"tail.read_p99_us", rd.p99, "us"},
      {"tail.read_samples", static_cast<double>(rd.n), "count"},
      {"tail.write_p99_us", wr.p99, "us"},
      {"tail.write_samples", static_cast<double>(wr.n), "count"},
      {"tail.scan_p99_us", sc.p99, "us"},
      {"tail.scan_samples", static_cast<double>(sc.n), "count"},
      {"host.steal_pct", steal, "%"},
      {"load.threads", 1, "count"},
      {"trace.overhead_pct", (ratio(tput, traced_tput) - 1) * 100, "%"},
  };
  return res;
}

}  // namespace perfbench
