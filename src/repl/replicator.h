// hartrepl replicator — the primary side of the replication subsystem.
//
// Each shard worker hands its durable batch (post-fence, see
// Shard::BatchSink) to on_batch(), which splits it into wire-sized
// REPL_BATCH frames, appends them to the bounded BatchLog, and wakes the
// follower links. One link thread per configured follower ships records
// over a dedicated ReplSession with a bounded in-flight window, reconnects
// with bounded exponential backoff, and resumes from the follower's own
// applied position (REPL_ACK position-query handshake) — replay is safe
// because batch application is idempotent.
//
// Ack policies:
//
//  * kLocal  — shard workers ack writes after the local epoch fence; the
//              replicator ships asynchronously (a just-acked write can be
//              lost if the primary dies before shipping).
//  * kQuorum — shard workers defer write acks into the DurableBatch; the
//              replicator releases them only once a majority of the
//              replication group (excluding the primary itself) confirmed
//              the batch's fence. A follower's REPL_BATCH response IS its
//              fence confirmation, so an acked write survives primary
//              SIGKILL as long as a quorum follower is promoted.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "common/histogram.h"
#include "obs/counters.h"
#include "repl/batch_log.h"
#include "repl/session.h"
#include "server/proto.h"
#include "server/shard.h"

namespace hart::repl {

enum class AckPolicy : uint8_t { kLocal = 0, kQuorum = 1 };

inline const char* ack_policy_name(AckPolicy p) {
  return p == AckPolicy::kQuorum ? "quorum" : "local";
}

struct ReplicatorOptions {
  /// Followers as "host:port" (host may be empty or "localhost").
  std::vector<std::string> targets;
  AckPolicy policy = AckPolicy::kLocal;
  /// One log stream per primary shard.
  size_t streams = 1;
  /// Per-stream log retention, in wire batches.
  size_t retain_batches = 4096;
  /// Max unconfirmed wire batches in flight per link.
  size_t window = 64;
  uint32_t backoff_base_ms = 10;
  uint32_t backoff_max_ms = 1000;
  /// Structured slow-op log threshold for the quorum-wait stage (a
  /// deferred write ack parked longer than this logs its wait). 0 = off.
  uint64_t slow_op_us = 0;
};

/// Point-in-time replication health of one follower link, for the
/// hartd_repl_lag_* / reconnect gauges (DESIGN.md §12).
struct LinkHealth {
  size_t index = 0;
  std::string target;       // "host:port" as configured
  bool connected = false;
  bool synced = false;      // position handshake done on this connection
  uint64_t lag_seq = 0;     // unconfirmed wire batches, summed over streams
  uint64_t lag_bytes = 0;   // retained wire bytes past the confirmed seq
  /// Milliseconds since the link last confirmed a batch — 0 when the link
  /// is fully caught up (nothing outstanding to confirm), so the gauge
  /// measures confirm staleness only while there is lag.
  uint64_t last_confirm_age_ms = 0;
  uint32_t backoff_ms = 0;  // current reconnect backoff; 0 when connected
};

class Replicator {
 public:
  /// Throws std::invalid_argument on a malformed target.
  explicit Replicator(const ReplicatorOptions& opts);
  ~Replicator();
  Replicator(const Replicator&) = delete;
  Replicator& operator=(const Replicator&) = delete;

  /// Shard batch sink; runs on shard worker threads. Logs the batch and,
  /// in quorum mode, parks its deferred write acks until enough followers
  /// confirm.
  void on_batch(size_t shard_index, server::DurableBatch&& batch);

  /// Block until every link has confirmed the current log tail (graceful
  /// shutdown: don't lose local-policy batches with the primary). False on
  /// timeout or when shutdown raced in.
  bool drain(std::chrono::milliseconds timeout);

  /// Stop all links and join their threads. Deferred acks that never met
  /// quorum fire with kShuttingDown — the write is locally durable but was
  /// never acked, so clients must not count it. Idempotent.
  void shutdown();

  [[nodiscard]] size_t follower_count() const { return links_.size(); }
  /// Confirmations required to release a quorum ack: a majority of the
  /// (1 + followers) group, minus the primary's own (implicit) vote.
  [[nodiscard]] size_t quorum_needed() const { return needed_; }
  [[nodiscard]] AckPolicy policy() const { return opts_.policy; }
  [[nodiscard]] size_t connected_links() const;
  /// Farthest-behind link's total backlog, in wire batches.
  [[nodiscard]] uint64_t lag_batches() const;
  /// Deferred write acks still waiting for quorum confirmation.
  [[nodiscard]] size_t pending_quorum_acks() const;
  [[nodiscard]] std::vector<server::ReplPosition> tail_positions() const {
    return log_.tail_positions();
  }
  [[nodiscard]] const BatchLog& log() const { return log_; }
  /// Per-link replication health snapshot (lag, staleness, backoff).
  [[nodiscard]] std::vector<LinkHealth> link_health() const;
  /// Copy of the repl-wait-for-quorum stage histogram: how long deferred
  /// write acks sat parked before quorum released them.
  [[nodiscard]] common::LatencyHistogram quorum_wait_histogram() const {
    common::MutexLock lk(mu_);
    return quorum_wait_;
  }

 private:
  /// One outstanding request on a link: either the position-query
  /// handshake or a shipped (stream, seq) wire batch.
  struct Inflight {
    bool handshake = false;
    uint32_t stream = 0;
    uint64_t seq = 0;
    uint64_t sent_ns = 0;  // ship time, for the repl_ship span duration
    /// Trace ids of sampled entries in this wire batch (only collected
    /// while the tracer is enabled).
    std::vector<uint64_t> traces;
  };

  struct Link {
    size_t index = 0;
    std::string host;
    uint16_t port = 0;
    std::unique_ptr<ReplSession> session;
    std::thread thread;
    // --- guarded by Replicator::mu_ ---
    std::vector<uint64_t> confirmed;  // per stream, follower-acked seq
    std::vector<uint64_t> sent;       // per stream, last shipped seq
    std::unordered_map<uint64_t, Inflight> inflight;
    uint64_t next_id = 1;
    bool synced = false;  // handshake completed on current connection
    bool ever_connected = false;
    uint64_t last_confirm_ns = 0;  // mono; 0 until the first confirm
    uint32_t cur_backoff_ms = 0;   // nonzero while reconnecting
  };

  void link_loop(Link* l);
  /// One connect + handshake attempt; true when the link is synced.
  bool link_connect(Link* l);
  void handle_response(Link* l, uint64_t id, server::Response&& resp);
  /// Pop every pending ack whose seq a quorum has confirmed into *out.
  void release_quorum(uint32_t stream,
                      std::vector<server::DurableBatch::DeferredAck>* out)
      REQUIRES(mu_);
  /// Highest seq of `stream` confirmed by >= needed_ links (0 if none).
  [[nodiscard]] uint64_t quorum_confirmed(uint32_t stream) const
      REQUIRES(mu_);

  ReplicatorOptions opts_;
  size_t needed_ = 0;
  uint64_t start_ns_ = 0;  // mono at construction, for confirm-age gauges
  BatchLog log_;

  mutable common::Mutex mu_;
  common::CondVar work_cv_;   // link threads: new records / window room
  common::CondVar state_cv_;  // drain() and handshake waiters
  struct PendingAcks {
    uint64_t seq = 0;  // last wire-batch seq of the durable batch
    uint64_t first_seq = 0;  // its first wire-batch seq (gap check)
    uint64_t park_ns = 0;  // when the acks were parked (quorum-wait start)
    std::vector<server::DurableBatch::DeferredAck> acks;
  };
  /// Per stream, FIFO by seq (shard workers append in seq order).
  std::vector<std::deque<PendingAcks>> pending_ GUARDED_BY(mu_);
  common::LatencyHistogram quorum_wait_ GUARDED_BY(mu_);
  bool down_ GUARDED_BY(mu_) = false;

  std::atomic<bool> stop_{false};
  /// Link vector is immutable after the ctor; per-link state above is
  /// guarded by mu_.
  std::vector<std::unique_ptr<Link>> links_;

  obs::Counter& shipped_;
  obs::Counter& confirmed_total_;
  obs::Counter& reconnects_;
  obs::Counter& link_errors_;
  obs::Counter& quorum_acks_;
  obs::Counter& resyncs_;
};

}  // namespace hart::repl
