#include "server/shard.h"

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <utility>
#include <vector>

#include "obs/counters.h"
#include "obs/trace.h"

namespace hart::server {

namespace {
inline uint64_t mono_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

obs::Counter& slow_ops_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("hartd_slow_ops_total");
  return c;
}

/// Backdated sampled-trace span: the stage just ended and took `dur_ns`,
/// so its start in the tracer's time domain is now - dur.
inline void trace_stage(const char* name, uint64_t dur_ns, uint32_t shard,
                        uint64_t trace_id) {
  obs::Tracer& tr = obs::Tracer::instance();
  if (!tr.enabled()) return;
  const uint64_t now = tr.now_ns();
  tr.record(name, obs::TraceKind::kOp, now > dur_ns ? now - dur_ns : 0,
            dur_ns, shard, trace_id);
}

}  // namespace

Shard::Shard(const Options& opts)
    : opts_(opts),
      arena_(std::make_unique<pmem::Arena>(opts.arena)),
      hart_(std::make_unique<core::Hart>(*arena_, opts.hart)),
      queue_(opts.queue_capacity) {
  if (opts.bloom_bits_per_key > 0) {
    // Rebuild-on-recovery: size for the larger of a fixed per-shard
    // capacity and what the (possibly recovered) Hart already holds, then
    // seed the filter from the live leaf list — all before the worker can
    // serve.
    constexpr size_t kBloomExpectedKeys = size_t{1} << 20;
    bloom_ = std::make_unique<common::CountingBloom>(
        std::max(kBloomExpectedKeys, hart_->size()),
        opts.bloom_bits_per_key);
    hart_->for_each_key([this](std::string_view k) { bloom_->add(k); });
  }
  worker_ = std::thread([this] { worker(); });
}

Shard::~Shard() { shutdown(); }

bool Shard::submit(Request req, Ack ack) {
  Pending p;
  p.req = std::move(req);
  p.ack = std::move(ack);
  p.enq_ns = mono_ns();
  return queue_.push(std::move(p));
}

void Shard::shutdown() {
  if (down_.exchange(true)) return;
  queue_.close();
  if (worker_.joinable()) worker_.join();
  hart_->quiesce();
}

void Shard::apply(Pending* p) {
  Response& r = p->resp;
  switch (p->req.op) {
    case OpCode::kPut: {
      const common::Status s = hart_->insert(p->req.key, p->req.value);
      r.status = wire_status(s);
      p->fence =
          s.code() == common::Status::kInserted || s.code() == common::Status::kUpdated;
      // Bloom add only on a FRESH key: add/remove must stay balanced for
      // the counting filter's no-false-negative contract.
      if (bloom_ != nullptr && s.code() == common::Status::kInserted)
        bloom_->add(p->req.key);
      break;
    }
    case OpCode::kGet:
      r.status = wire_status(hart_->search(p->req.key, &r.value));
      break;
    case OpCode::kUpdate: {
      const common::Status s = hart_->update(p->req.key, p->req.value);
      r.status = wire_status(s);
      p->fence = s.code() == common::Status::kOk;
      break;
    }
    case OpCode::kDelete: {
      const common::Status s = hart_->remove(p->req.key);
      r.status = wire_status(s);
      p->fence = s.code() == common::Status::kOk;
      if (bloom_ != nullptr && s.code() == common::Status::kOk)
        bloom_->remove(p->req.key);
      break;
    }
    case OpCode::kPing:
      r.status = Status::kOk;
      break;
    case OpCode::kMget: {
      // Normally dispatcher-served (Hartd answers batch reads without
      // queueing); kept here so a directly-submitted batch still answers.
      std::vector<std::string> keys;
      std::vector<std::string> vals;
      std::vector<bool> found;
      if (!decode_mget_keys(p->req.value, &keys)) {
        r.status = Status::kBadRequest;
        break;
      }
      hart_->multi_get(keys, &vals, &found);
      r.status = encode_mget_result(vals, found, &r.value)
                     ? Status::kOk
                     : Status::kBadRequest;
      break;
    }
    case OpCode::kScan: {
      uint32_t limit = 0;
      if (!decode_scan_limit(p->req.value, &limit) ||
          !common::validate_key(p->req.key).ok()) {
        r.status = Status::kBadRequest;
        break;
      }
      std::vector<std::pair<std::string, std::string>> entries;
      hart_->range(p->req.key,
                   std::min<size_t>(limit, kMaxBatchEntries), &entries);
      r.status = encode_scan_result(entries, &r.value) ? Status::kOk
                                                       : Status::kBadRequest;
      break;
    }
    default:
      r.status = Status::kBadRequest;
      break;
  }
}

void Shard::worker() {
#ifdef __linux__
  // Deferred-latency batch stalls are tens of µs; the default 50 µs timer
  // slack would round every one of them up. 1 µs keeps the model honest.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
#endif
  std::vector<Pending> batch;
  // Per-batch latency staging: one mutex acquisition per batch (not per
  // op) merges these into hists_ for scrapers.
  std::array<common::LatencyHistogram, ShardHistograms::kOps> local_op;
  common::LatencyHistogram local_fence;
  common::LatencyHistogram local_queue;
  common::LatencyHistogram local_resid;
  common::LatencyHistogram local_fwait;
  const uint32_t shard_arg = static_cast<uint32_t>(opts_.index);
  while (queue_.pop_batch(&batch, opts_.batch_size)) {
    obs::TraceSpan batch_span("shard_batch", obs::TraceKind::kBatch,
                              static_cast<uint32_t>(batch.size()));
    const uint64_t deq_ns = mono_ns();
    bool any_write = false;
    bool any_timed = false;
    for (auto& p : batch) {
      // Stage 1: MPSC queue residency (submit -> this dequeue). Recorded
      // for every op, sampled ops additionally emit a queue_wait span.
      const uint64_t qw = deq_ns > p.enq_ns ? deq_ns - p.enq_ns : 0;
      local_queue.record(qw);
      any_timed = true;
      if (p.req.trace_id != 0)
        trace_stage("queue_wait", qw, shard_arg, p.req.trace_id);
      if (failed_.load(std::memory_order_relaxed)) {
        p.resp.status = Status::kShardFailed;
        stats_.failed.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      const size_t hidx = op_hist_index(p.req.op);
      const uint64_t t0 = hidx == SIZE_MAX ? 0 : mono_ns();
      try {
        apply(&p);
        if (hidx != SIZE_MAX) {
          p.apply_end_ns = mono_ns();
          local_op[hidx].record(p.apply_end_ns - t0);
          if (p.req.trace_id != 0)
            trace_stage("shard_apply", p.apply_end_ns - t0, shard_arg,
                        p.req.trace_id);
        }
        any_write |= p.fence;
        stats_.ops.fetch_add(1, std::memory_order_relaxed);
      } catch (const pmem::CrashPoint&) {
        // A simulated crash point fired mid-operation: the DRAM side of
        // this shard may now disagree with PM, so stop serving. No write
        // in this batch may be acked durable — the batch never reaches
        // its epoch fence, and with batched chunk-header persists the
        // fence IS each write's durability point (the downgrade loop
        // below catches the ops that applied before the crash).
        failed_.store(true, std::memory_order_release);
        p.resp.status = Status::kShardFailed;
        p.resp.epoch = 0;
        stats_.failed.fetch_add(1, std::memory_order_relaxed);
      }
    }

    // Group commit: one epoch fence for the whole batch. Each op already
    // persisted its own data stores, and flush_epoch() flushes the
    // allocator's deferred chunk-header persists (batched_meta) before
    // stamping the epoch — so the fence's completion is what makes every
    // write in the batch durable, and it must precede all the acks below
    // (a request is never acked before its epoch completed).
    uint64_t epoch = 0;
    if (any_write && !failed_.load(std::memory_order_relaxed)) {
      const uint64_t f0 = mono_ns();
      try {
        epoch = hart_->flush_epoch();
        local_fence.record(mono_ns() - f0);
        stats_.epochs.fetch_add(1, std::memory_order_relaxed);
      } catch (const pmem::CrashPoint&) {
        // The fence itself crashed; the shard stops serving like any
        // other crash point, and the downgrade below keeps the batch's
        // acks truthful (its deferred header persists never completed).
        failed_.store(true, std::memory_order_release);
      }
    }
    if (failed_.load(std::memory_order_relaxed)) {
      // Crashed batch: writes that applied before the crash point never
      // reached the fence, so under batched metadata persists they may
      // not be durable. Refuse their acks — an acked write must survive
      // recovery; a refused-but-recovered write is merely conservative.
      for (auto& p : batch) {
        if (p.fence && is_acked_write(p.resp.status)) {
          p.resp.status = Status::kShardFailed;
          p.resp.epoch = 0;
          stats_.failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    // Deferred-latency arenas bank the injected PM delay instead of
    // spinning inside each persist; pay the whole batch's device time here
    // with one sleep, before the acks — so an ack still implies the
    // modeled device completed, but stalls of different shards overlap on
    // a time-shared host instead of serializing in busy-wait loops.
    stats_.device_ns.fetch_add(arena_->pay_latency(),
                               std::memory_order_relaxed);
    // Replication: collect the batch's durable writes for the sink. In
    // deferred-ack mode (quorum policy) the write acks move into the
    // DurableBatch instead of firing here — the sink releases them once
    // enough followers confirmed this batch's fence.
    const bool sink = static_cast<bool>(opts_.batch_sink);
    // Ack-ready timestamp: apply + fence + device pay all completed. The
    // whole batch becomes ready at once, so every op shares it for the
    // batch_residency / fence_wait stages below.
    const uint64_t ready_ns = mono_ns();
    DurableBatch durable;
    for (auto& p : batch) {
      local_resid.record(ready_ns > deq_ns ? ready_ns - deq_ns : 0);
      if (p.fence && p.apply_end_ns != 0) {
        const uint64_t fw =
            ready_ns > p.apply_end_ns ? ready_ns - p.apply_end_ns : 0;
        local_fwait.record(fw);
        if (p.req.trace_id != 0)
          trace_stage("fence", fw, shard_arg, p.req.trace_id);
      }
      if (opts_.slow_op_us != 0 && p.enq_ns != 0 &&
          ready_ns - p.enq_ns > opts_.slow_op_us * 1000) {
        const uint64_t total = ready_ns - p.enq_ns;
        const uint64_t queue_ns = deq_ns > p.enq_ns ? deq_ns - p.enq_ns : 0;
        const uint64_t apply_ns =
            p.apply_end_ns > deq_ns ? p.apply_end_ns - deq_ns : 0;
        const uint64_t fence_ns = p.apply_end_ns != 0 && p.fence
                                      ? ready_ns - p.apply_end_ns
                                      : 0;
        std::fprintf(stderr,
                     "hartd slow-op shard=%zu op=%u status=%s total_us=%" PRIu64
                     " queue_us=%" PRIu64 " apply_us=%" PRIu64
                     " fence_us=%" PRIu64 " trace=%016" PRIx64 "\n",
                     opts_.index, static_cast<unsigned>(p.req.op),
                     status_name(p.resp.status), total / 1000,
                     queue_ns / 1000, apply_ns / 1000, fence_ns / 1000,
                     p.req.trace_id);
        slow_ops_counter().inc();
      }
      if (p.fence && is_acked_write(p.resp.status)) {
        p.resp.epoch = epoch;
        stats_.write_acks.fetch_add(1, std::memory_order_relaxed);
        if (sink) {
          durable.entries.push_back({p.req.op, std::move(p.req.key),
                                     std::move(p.req.value),
                                     p.req.trace_id});
          if (opts_.defer_write_acks) {
            durable.deferred.push_back(
                {std::move(p.ack), std::move(p.resp), p.req.trace_id});
            continue;
          }
        }
      }
      if (p.ack) p.ack(std::move(p.resp));
    }
    if (sink && !durable.entries.empty()) {
      durable.epoch = epoch;
      opts_.batch_sink(opts_.index, std::move(durable));
    }
    stats_.batches.fetch_add(1, std::memory_order_relaxed);
    if (any_timed) {
      common::MutexLock lk(hist_mu_);
      for (size_t i = 0; i < ShardHistograms::kOps; ++i) {
        if (local_op[i].count() == 0) continue;
        hists_.op[i].merge(local_op[i]);
        local_op[i].reset();
      }
      if (local_fence.count() != 0) {
        hists_.fence.merge(local_fence);
        local_fence.reset();
      }
      auto fold = [](common::LatencyHistogram* local,
                     common::LatencyHistogram* global) {
        if (local->count() == 0) return;
        global->merge(*local);
        local->reset();
      };
      fold(&local_queue, &hists_.queue_wait);
      fold(&local_resid, &hists_.batch_residency);
      fold(&local_fwait, &hists_.fence_wait);
    }
  }
}

}  // namespace hart::server
