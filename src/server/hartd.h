// hartd — the sharded concurrent KV service. Fronts N independent HART
// shards (each with its own arena + EPallocator; keys partitioned by an
// FNV hash of the whole key) behind per-shard MPSC queues with group-
// persist batching. With `arena_dir` set, shards are file-backed and a
// restart recovers every shard (in parallel) with zero acked-write loss.
// See DESIGN.md §5.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "repl/applier.h"
#include "repl/promotion.h"
#include "repl/replicator.h"
#include "server/shard.h"

namespace hart::server {

class Hartd {
 public:
  struct Options {
    size_t shards = 4;
    size_t batch_size = 32;
    size_t queue_capacity = 4096;
    /// Per-shard arena size in MiB; 0 resolves from HART_ARENA_MB.
    size_t arena_mb = 0;
    /// Injected PM latency. Shards always bank it and pay it once per
    /// batch with a sleep in the worker (Arena::Options::defer_latency), so
    /// shards' device stalls overlap even when workers share cores — the
    /// behavior of independent PM devices.
    pmem::LatencyConfig latency = pmem::LatencyConfig::off();
    bool check = false;   // PMCheck on every shard arena (tests)
    bool shadow = false;  // crash simulation (tests)
    /// Directory for file-backed shard arenas ("<dir>/shard-<i>.arena").
    /// A relative path resolves under $HART_ARENA_DIR (Arena rules).
    /// Empty: anonymous arenas, no restart capability.
    std::string arena_dir;
    /// Start as a replication follower: client writes are rejected with
    /// kNotPrimary, REPL_BATCH streams apply through the shard path, and
    /// reads serve stale-tolerant from the lock-free read path. A PROMOTE
    /// request flips the node to primary (DESIGN.md §9).
    bool follow = false;
    /// Followers to replicate to, as "host:port". Non-empty makes this
    /// primary ship every shard's durable batch over dedicated
    /// replication streams.
    std::vector<std::string> replicate_to;
    /// kLocal: ack writes after the local fence. kQuorum: defer write
    /// acks until a majority of the replication group confirmed.
    repl::AckPolicy ack_policy = repl::AckPolicy::kLocal;
    /// Per-stream replication log retention, in wire batches.
    size_t repl_log_batches = 4096;
    /// Max unconfirmed wire batches in flight per follower link.
    size_t repl_window = 64;
    /// Per-shard counting Bloom filter consulted by the dispatcher before
    /// a GET/MGET touches the shard (short-circuits definitive misses;
    /// rebuilt from the recovered keys on restart). 0 = off; 10 is a
    /// reasonable on value (~0.8% false positives).
    size_t bloom_bits_per_key = 0;
    /// Structured slow-op log: any request whose queue->ack-ready time (or
    /// quorum wait) exceeds this many µs logs its stage breakdown to
    /// stderr and bumps hartd_slow_ops_total. 0 = disabled.
    uint64_t slow_op_us = 0;
    /// Dispatcher-side trace sampling: stamp every Nth KV request that
    /// arrives unsampled with a fresh trace id (1 = every request). 0 =
    /// off; client-stamped ids are always honored regardless.
    uint64_t trace_sample = 0;
    /// Engine options for every shard's Hart. The service defaults the
    /// allocator to batched chunk-header persists (batched_meta):
    /// write acks already wait for the shard's flush_epoch() fence, which
    /// is exactly where Allocator::flush_metadata() runs, so batching is
    /// ack-truthful here — unlike for a bare Hart embedder, whose ops must
    /// be individually durable on return. --eager-meta restores the
    /// per-op persists as an ablation.
    core::Hart::Options hart = [] {
      core::Hart::Options h;
      h.batched_meta = true;
      return h;
    }();
  };

  /// Opens (or recovers) all shards; shard recovery runs in parallel, one
  /// thread per shard. Throws on any shard failure.
  explicit Hartd(const Options& opts);
  ~Hartd();
  Hartd(const Hartd&) = delete;
  Hartd& operator=(const Hartd&) = delete;

  [[nodiscard]] size_t shard_of(std::string_view key) const {
    return static_cast<size_t>(shard_hash(key) % shards_.size());
  }

  /// Route to the key's shard. The ack fires exactly once — immediately
  /// with kShuttingDown when the service is already draining.
  /// Returns false in that case.
  bool submit(Request req, Shard::Ack ack);

  /// Synchronous convenience wrapper around submit().
  Response execute(Request req);

  /// Graceful shutdown: stop accepting, drain every shard queue (all
  /// pending acks fire), quiesce every Hart. Idempotent.
  void shutdown();

  [[nodiscard]] size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] Shard& shard(size_t i) { return *shards_[i]; }
  [[nodiscard]] const Shard& shard(size_t i) const { return *shards_[i]; }
  /// True when every file-backed shard re-opened an existing arena.
  [[nodiscard]] bool reopened() const { return reopened_; }
  /// Total live keys across shards.
  [[nodiscard]] size_t total_size() const;
  /// Wall-clock time the constructor spent opening/recovering shards.
  [[nodiscard]] uint64_t recovery_ms() const { return recovery_ms_; }
  /// Keys recovered at construction (0 when arenas were fresh).
  [[nodiscard]] uint64_t recovered_keys() const { return recovered_keys_; }
  /// Read requests (kGet/kMget/kScan) answered on the dispatcher thread
  /// without entering a shard queue.
  [[nodiscard]] uint64_t fastpath_reads() const {
    return fastpath_reads_.load(std::memory_order_relaxed);
  }
  /// Current replication role (kPrimary for an unreplicated node).
  [[nodiscard]] repl::Role role() const { return promo_.role(); }
  /// Non-null when this node ships batches to followers.
  [[nodiscard]] const repl::Replicator* replicator() const {
    return repl_.get();
  }
  /// Non-null when this node started as a follower (kept after promotion
  /// so applied positions stay queryable).
  [[nodiscard]] const repl::FollowerApplier* applier() const {
    return applier_.get();
  }

 private:
  Response serve_get(const Request& req);
  Response serve_mget(const Request& req);
  Response serve_scan(const Request& req);
  /// Positions payload for kReplAck/kPromote responses.
  [[nodiscard]] std::vector<ReplPosition> repl_positions() const;
  /// Tail replay for promotion: a ping through every shard queue fences
  /// everything already queued (including replicated writes).
  void drain_shard_queues();

  Options opts_;
  repl::PromotionMachine promo_;
  // Constructed before (destroyed after) the shards whose batch_sink
  // points at it; Hartd::shutdown() orders the teardown explicitly.
  std::unique_ptr<repl::Replicator> repl_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<repl::FollowerApplier> applier_;
  std::atomic<bool> down_{false};
  std::atomic<uint64_t> fastpath_reads_{0};
  std::atomic<uint64_t> trace_seq_{0};  // dispatcher sampling tick
  uint64_t trace_base_ = 0;  // per-process trace-id salt
  bool fastpath_gets_ = true;  // !opts_.hart.rwlock_reads
  bool reopened_ = false;
  uint64_t recovery_ms_ = 0;
  uint64_t recovered_keys_ = 0;
};

}  // namespace hart::server
