// Service workloads.
//
//  svc-skew   — server::Hartd in-process (no wire): 2 shards at the
//               service defaults (group-persist batch 32, deferred device
//               latency) at 300/300, file-backed arenas. A paced loop
//               submits through Hartd::submit with Zipfian
//               (theta 0.99) keys: 50% GET, 25% UPDATE, 24% INSERT/DELETE,
//               1% SCAN. Queue, batching, epoch fence, deferred device
//               payment and dispatcher fast-path reads do the work.
//  tcp-quorum — one loopback TCP connection to a primary Hartd +
//               TcpServer that replicates to one follower with the quorum
//               ack policy; the same mix with uniform keys. Wire framing,
//               connection threads, replication ship/apply/confirm and
//               the quorum wait do the work.
//
// The load sleeps until the next due time and then sends every request
// that is due and fits the window (at most `window` parked or
// outstanding); each request is timed from its send to its own response.
// It never sends a request for a key that has a write in
// flight (and a SCAN only when no write is in flight), so each response
// has exactly one right answer: the one the generator recorded.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gen.h"
#include "hart/hart.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "server/client.h"
#include "server/hartd.h"
#include "server/proto.h"
#include "server/tcp.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using hart::server::Hartd;
using hart::server::OpCode;
using hart::server::Request;
using hart::server::Response;
using hart::server::Status;

// The offered rates keep the one CPU the process runs on (main.cc) at
// about 0.4 busy.
struct ServiceSpec {
  Spec keys;
  double rate;    // offered ops/s
  size_t window;  // at most this many requests parked or outstanding
};
constexpr Mix kServiceMix{.get = 50, .update = 25, .churn = 24, .scan = 1};
constexpr ServiceSpec kSkew{{.universe = 200'000,
                             .live = 100'000,
                             .mix = kServiceMix,
                             .zipf = true,
                             .theta = 0.99,
                             .scan_len = 100},
                            25'000, 8};
constexpr ServiceSpec kTcp{{.universe = 100'000,
                            .live = 50'000,
                            .mix = kServiceMix,
                            .zipf = false,
                            .theta = 0.99,
                            .scan_len = 100},
                           4'000, 4};
constexpr size_t kArenaMb = 32;  // about 3 MiB per shard in use
constexpr size_t kShards = 2;
constexpr double kWarmSeconds = 0.5;  // per trial
constexpr double kMaxTracedSeconds = 5.0;
constexpr uint64_t kTraceEvery = 8;  // sample every 8th request
constexpr size_t kPreloadWindow = 256;
// An untraced run is kTrials trials (see run_service). Reopen times are
// hundredths of a second and meet file-system and scheduler jitter, so
// each trial takes several.
constexpr int kTrials = 5;
constexpr int kRecoveries = 3;  // per trial
// A run whose achieved rate falls short of the offered rate by more than
// this share says so on stderr: the window held sends back, so the server
// (or the host) ran slower than the schedule.
constexpr double kRateMargin = 0.10;

Hartd::Options node_options(const std::string& dir) {
  Hartd::Options o;
  o.shards = kShards;
  o.arena_mb = kArenaMb;
  o.latency = hart::pmem::LatencyConfig::c300_300();
  o.arena_dir = dir;
  return o;
}

// ---- the TCP load connection ---------------------------------------------

/// One loopback connection speaking the proto.h framing: the sending
/// thread writes frames, one completion thread reads responses and hands
/// each to `on_resp` the moment it arrives (hart::Client completes
/// responses into a map read by wait(id), which cannot stamp a pipelined
/// response when it arrives — the load needs that stamp).
class Wire {
 public:
  using OnResp = std::function<void(uint64_t id, Response&&)>;
  Wire(uint16_t port, OnResp on_resp) : on_resp_(std::move(on_resp)) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket failed");
    sockaddr_in a{};
    a.sin_family = AF_INET;
    a.sin_port = htons(port);
    a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&a), sizeof(a)) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect failed");
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    reader_ = std::thread([this] { read_loop(); });
  }
  ~Wire() {
    ::shutdown(fd_, SHUT_RDWR);
    reader_.join();
    ::close(fd_);
  }
  Wire(const Wire&) = delete;
  Wire& operator=(const Wire&) = delete;

  bool send(uint64_t id, const Request& r) {
    frame_.clear();
    hart::server::encode_request(id, r, &frame_);
    size_t off = 0;
    while (off < frame_.size()) {
      const ssize_t n =
          ::send(fd_, frame_.data() + off, frame_.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

 private:
  void read_loop() {
    std::string buf, body;
    char chunk[16384];
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return;
      buf.append(chunk, static_cast<size_t>(n));
      for (;;) {
        const int got = hart::server::take_frame(&buf, &body);
        if (got < 0) return;
        if (got == 0) break;
        uint64_t id = 0;
        Response resp;
        if (!hart::server::decode_response(body.data(), body.size(), &id,
                                           &resp))
          return;
        on_resp_(id, std::move(resp));
      }
    }
  }

  OnResp on_resp_;
  int fd_ = -1;
  std::string frame_;   // sender-thread scratch
  std::thread reader_;  // last: started once the socket is up
};

// ---- the paced load ------------------------------------------------------

/// What a SCAN must see: the model's first live entries from its start
/// key (a few more than the limit) at the scan's place in the stream.
struct ScanWindow {
  std::vector<std::pair<uint32_t, uint32_t>> live;  // (slot, version)
  bool to_end = false;  // `live` reaches the end of the universe
};
/// Op index -> its window, for the SCANs of a stream.
using ScanWindows = std::unordered_map<size_t, ScanWindow>;
constexpr uint32_t kScanLimit = 100;
constexpr size_t kWindowSlack = 16;

/// A key whose write was in flight when a SCAN was sent: the scan may see
/// the key before that write (this state) or after it (the model's).
struct PreState {
  uint32_t slot;
  bool live;
  uint32_t ver;
};

/// Per-op bookkeeping of one load phase plus the conflict gates.
class Load {
 public:
  Load(const Workload& w, const std::vector<OpRec>& ops,
       const ScanWindows& windows)
      : w_(w),
        ops_(ops),
        windows_(windows),
        due_(ops.size(), 0),
        sent_(ops.size(), 0),
        done_(ops.size(), 0),
        verdict_(ops.size(), 0),
        before_(windows.size()),
        busy_(new std::atomic<uint8_t>[w.universe()]),
        writer_(w.universe(), 0),
        held_pass_(w.universe(), 0) {
    for (size_t i = 0; i < w.universe(); ++i) busy_[i].store(0);
    // Every scan's entry exists before the load starts, so the sender and
    // the completion thread only look entries up, never insert.
    for (const auto& kv : windows) before_[kv.first];
  }

  enum Verdict : uint8_t { kPending = 0, kRight, kWrong, kFailed };

  /// Completion of op `i`; runs on whichever thread delivers the answer.
  void complete(size_t i, const Response& r) {
    const uint64_t now = mono_ns();
    done_[i] = now;
    const OpRec& op = ops_[i];
    verdict_[i] = judge(i, r);
    if (trace_every_ != 0 && i % trace_every_ == 0) {
      auto& tr = hart::obs::Tracer::instance();
      tr.record("client", hart::obs::TraceKind::kOp, sent_[i] - tracer_base_,
                now - sent_[i], static_cast<uint32_t>(op.kind), i + 1);
    }
    if (is_write(op.op())) {
      busy_[op.slot].store(0, std::memory_order_release);
      writes_done_.fetch_add(1, std::memory_order_release);
    }
    inflight_.fetch_sub(1, std::memory_order_release);
    inflight_.notify_one();
    g_progress.fetch_add(1, std::memory_order_relaxed);
  }

  /// Send ops[from, to) at `rate` ops/s, with at most `window` (>= 1)
  /// requests parked or outstanding, through
  /// `send(i, req)`, then wait for every answer. An op is due at its place
  /// in the schedule; a full window holds due ops back, so a host stall
  /// delays the ops behind it but never piles them onto the server.
  /// An op that conflicts with one in flight is parked, not waited on:
  /// the loop keeps sending later ops and retries parked ones, in stream
  /// order, at each wake-up. Returns false when answers did not all
  /// arrive in time.
  template <class Send>
  bool run(size_t from, size_t to, double rate, size_t window, Send&& send) {
    ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);  // µs-exact wakeups
    const double period = 1e9 / rate;
    start_ = mono_ns() + 1000;
    auto due_of = [&](size_t i) {
      return start_ + static_cast<uint64_t>(static_cast<double>(i - from) *
                                            period);
    };
    size_t next = from;
    while (next < to || !parked_.empty()) {
      const uint64_t now = mono_ns();
      if (!parked_.empty() && now - sent_[last_sent_] > kStuckNs) {
        const OpRec& op = ops_[parked_.front()];
        std::fprintf(stderr,
                     "perfbench: load stuck: %zu parked, first %s on slot "
                     "%u (write in flight: %d), %u in flight\n",
                     parked_.size(), op_name(op.op()), op.slot,
                     busy_[op.slot].load(), inflight_.load());
        return false;
      }
      // Parked ops count against the window.
      auto full = [&] {
        return parked_.size() + inflight_.load(std::memory_order_acquire) >=
               window;
      };
      for (; next < to && due_of(next) <= now && !full(); ++next) {
        due_[next] = due_of(next);
        parked_.push_back(next);
      }
      retry(send);
      if (next >= to && parked_.empty()) break;
      const bool room = !full();
      if (!room && parked_.empty()) {  // wait for an answer
        const uint32_t n = inflight_.load(std::memory_order_acquire);
        if (n >= window) inflight_.wait(n, std::memory_order_acquire);
        continue;
      }
      // Sleep to the next due time; poll every 20 µs while ops are parked
      // (their conflicts clear on other threads).
      uint64_t wake = !room || next >= to ? UINT64_MAX : due_of(next);
      if (!parked_.empty()) wake = std::min(wake, now + 20'000);
      sleep_until(wake);
    }
    const uint64_t give_up = mono_ns() + kStuckNs;
    while (inflight_.load(std::memory_order_acquire) != 0) {
      if (mono_ns() > give_up) {
        std::fprintf(stderr, "perfbench: %u requests never answered\n",
                     inflight_.load());
        return false;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return true;
  }

  void set_tracing(uint64_t every) {
    trace_every_ = every;
    if (every != 0)
      tracer_base_ = mono_ns() - hart::obs::Tracer::instance().now_ns();
  }

  [[nodiscard]] uint64_t start() const { return start_; }
  [[nodiscard]] uint64_t due(size_t i) const { return due_[i]; }
  [[nodiscard]] uint64_t sent(size_t i) const { return sent_[i]; }
  [[nodiscard]] uint64_t done(size_t i) const { return done_[i]; }
  [[nodiscard]] uint8_t verdict(size_t i) const { return verdict_[i]; }

 private:
  /// Send every parked op whose conflicts have cleared, in stream order.
  /// An op waits while its key has a write in flight or an earlier op on
  /// its key is still parked; a SCAN waits while a write before it is
  /// parked, and a write waits behind a parked SCAN. A SCAN does not wait
  /// for writes in flight: it records their keys' prior states instead.
  /// Only a finished write can free a parked op, so without one only the
  /// ops parked since the last pass are looked at: a pass costs O(new),
  /// or O(parked) after a write finished — never O(parked^2), which after
  /// a host stall had let the sender fall behind for good.
  template <class Send>
  void retry(Send& send) {
    size_t keep = checked_;
    const uint64_t done = writes_done_.load(std::memory_order_acquire);
    if (done != writes_seen_) {
      writes_seen_ = done;
      keep = 0;
      ++pass_;  // forget which keys earlier passes held
      scan_held_ = write_held_ = false;
    }
    for (size_t k = keep; k < parked_.size(); ++k) {
      const size_t i = parked_[k];
      const OpRec& op = ops_[i];
      const bool write = is_write(op.op());
      bool ok;
      if (op.op() == Op::kScan) {
        ok = !write_held_;
      } else {
        ok = !(write && scan_held_) &&
             busy_[op.slot].load(std::memory_order_acquire) == 0 &&
             held_pass_[op.slot] != pass_;
      }
      if (!ok) {
        if (op.op() == Op::kScan) scan_held_ = true;
        else held_pass_[op.slot] = pass_;
        write_held_ |= write;
        parked_[keep++] = i;
        continue;
      }
      if (write) {
        busy_[op.slot].store(1, std::memory_order_relaxed);
        writer_[op.slot] = i;
      }
      if (op.op() == Op::kScan) note_inflight(i);
      inflight_.fetch_add(1, std::memory_order_relaxed);
      Request req = request(op);
      if (trace_every_ != 0 && i % trace_every_ == 0) req.trace_id = i + 1;
      sent_[i] = mono_ns();
      last_sent_ = i;
      send(i, std::move(req));
    }
    parked_.resize(keep);
    checked_ = keep;
  }

  /// Before sending SCAN `i`: the prior state of every key in its range
  /// that has a write in flight.
  void note_inflight(size_t i) {
    const ScanWindow& win = windows_.at(i);
    const size_t end = win.to_end || win.live.empty()
                           ? w_.universe()
                           : win.live.back().first + 1;
    for (size_t s = ops_[i].slot; s < end; ++s) {
      if (busy_[s].load(std::memory_order_acquire) == 0) continue;
      const OpRec& wr = ops_[writer_[s]];
      before_.at(i).push_back(
          {static_cast<uint32_t>(s), wr.op() != Op::kInsert,
           wr.op() == Op::kUpdate ? wr.ver - 1 : wr.ver});
    }
  }

  /// Does `rows` answer SCAN `i`? Walks the model's window and the keys
  /// noted in flight together, in key order: every row must be the next
  /// key that is live in one allowed state, with that state's value, and
  /// every key skipped must be dead in one allowed state.
  bool scan_ok(size_t i,
               const std::vector<std::pair<std::string, std::string>>& rows)
      const {
    const ScanWindow& win = windows_.at(i);
    const auto& pre = before_.at(i);
    size_t a = 0, b = 0, r = 0;
    while (r < rows.size() || (rows.size() < kScanLimit &&
                               (a < win.live.size() || b < pre.size()))) {
      uint32_t slot = UINT32_MAX;
      if (a < win.live.size()) slot = win.live[a].first;
      if (b < pre.size()) slot = std::min(slot, pre[b].slot);
      // Past the window: a short answer is right only at the universe's
      // end, and rows beyond the window are keys that should not be there.
      if (slot == UINT32_MAX) return r == rows.size() && win.to_end;
      bool post_live = false, pre_live = false, in_flight = false;
      uint32_t post_ver = 0, pre_ver = 0;
      if (a < win.live.size() && win.live[a].first == slot) {
        post_live = true;
        post_ver = win.live[a++].second;
      }
      if (b < pre.size() && pre[b].slot == slot) {
        in_flight = true;
        pre_live = pre[b].live;
        pre_ver = pre[b++].ver;
      }
      const bool may_be_dead = !post_live || (in_flight && !pre_live);
      if (r < rows.size() && rows[r].first == w_.key(slot)) {
        const bool match =
            (post_live && rows[r].second == w_.value_of(slot, post_ver)) ||
            (in_flight && pre_live &&
             rows[r].second == w_.value_of(slot, pre_ver));
        if (!match) return false;
        ++r;
        if (r == kScanLimit) return true;
      } else if (!may_be_dead) {
        return false;  // a key that must be there is missing
      }
    }
    return true;
  }

  /// Sleep until `ns`. A timer wake-up lands several µs late; ops are
  /// timed from their send, so the lateness delays sends but is not timed.
  /// (Spinning to the exact due time would be most of the process's CPU
  /// time per op.)
  static void sleep_until(uint64_t ns) {
    timespec ts{static_cast<time_t>(ns / 1'000'000'000ULL),
                static_cast<long>(ns % 1'000'000'000ULL)};
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
           EINTR) {
    }
  }

  Request request(const OpRec& op) const {
    const std::string& k = w_.key(op.slot);
    switch (op.op()) {
      case Op::kGet: return {OpCode::kGet, k, {}};
      case Op::kUpdate:
        return {OpCode::kUpdate, k, w_.value_of(op.slot, op.ver)};
      case Op::kInsert: return {OpCode::kPut, k, w_.value_of(op.slot, op.ver)};
      case Op::kDelete: return {OpCode::kDelete, k, {}};
      case Op::kScan: {
        Request r{OpCode::kScan, k, {}};
        hart::server::encode_scan_limit(kScanLimit, &r.value);
        return r;
      }
    }
    return {};
  }

  uint8_t judge(size_t i, const Response& r) const {
    const OpRec& op = ops_[i];
    switch (r.status) {
      case Status::kOk:
      case Status::kUpdated:
      case Status::kNotFound:
        break;
      default:
        return kFailed;  // the service could not answer
    }
    uint64_t got = 0;
    switch (op.op()) {
      case Op::kGet:
        got = r.status == Status::kOk ? point_digest(Outcome::kHit, r.value)
              : r.status == Status::kNotFound ? point_digest(Outcome::kMiss)
                                              : 0;
        break;
      case Op::kUpdate:
      case Op::kDelete:
        got = r.status == Status::kOk ? point_digest(Outcome::kApplied) : 0;
        break;
      case Op::kInsert:
        got = r.status == Status::kOk ? point_digest(Outcome::kInserted) : 0;
        break;
      case Op::kScan: {
        std::vector<std::pair<std::string, std::string>> rows;
        return r.status == Status::kOk &&
                       hart::server::decode_scan_result(r.value, &rows) &&
                       scan_ok(i, rows)
                   ? kRight
                   : kWrong;
      }
    }
    return got == op.expect ? kRight : kWrong;
  }

  const Workload& w_;
  const std::vector<OpRec>& ops_;
  const ScanWindows& windows_;
  std::vector<uint64_t> due_, sent_, done_;
  std::vector<uint8_t> verdict_;
  std::unordered_map<size_t, std::vector<PreState>> before_;  // per scan,
                                                              // set at send
  std::unique_ptr<std::atomic<uint8_t>[]> busy_;  // per slot: write in flight
  std::vector<size_t> writer_;  // per slot: op index of the last write sent
  std::atomic<uint32_t> inflight_{0};
  std::atomic<uint64_t> writes_done_{0};  // bumped by write completions
  // retry() state, sender thread only: parked ops in stream order, how
  // many of them the last pass looked at, and what that pass held back.
  std::vector<size_t> parked_;
  size_t checked_ = 0;
  uint64_t writes_seen_ = 0;
  uint32_t pass_ = 1;
  std::vector<uint32_t> held_pass_;  // per slot: pass that held an op on it
  bool scan_held_ = false, write_held_ = false;
  uint64_t start_ = 0;
  size_t last_sent_ = 0;
  // A load that sends nothing for this long is stuck (answers lost).
  static constexpr uint64_t kStuckNs = 20'000'000'000ULL;
  uint64_t trace_every_ = 0;
  uint64_t tracer_base_ = 0;  // mono_ns() - Tracer::now_ns()
};

/// Latency and rate figures of one load phase.
struct Phase {
  LatencySummary read, write, scan, late;
  double achieved = 0;  // ops/s
  size_t ops = 0, wrong = 0, failed = 0, misses = 0, reads = 0, writes = 0;
};

Phase summarize_phase(const Load& l, const std::vector<OpRec>& ops,
                      size_t from, size_t to) {
  Phase p;
  std::vector<double> rd, wr, sc, late;
  uint64_t last = l.start();
  for (size_t i = from; i < to; ++i) {
    // An op is timed from its send: the wait for room in the window is
    // the load's, not the server's.
    const double us = static_cast<double>(l.done(i) - l.sent(i)) * 1e-3;
    const Op op = ops[i].op();
    (op == Op::kGet ? rd : op == Op::kScan ? sc : wr).push_back(us);
    late.push_back(static_cast<double>(l.sent(i) - l.due(i)) * 1e-3);
    last = std::max(last, l.done(i));
    if (l.verdict(i) == Load::kWrong) ++p.wrong;
    if (l.verdict(i) == Load::kFailed) ++p.failed;
    if (op == Op::kGet && ops[i].expect == point_digest(Outcome::kMiss))
      ++p.misses;
  }
  p.ops = to - from;
  p.reads = rd.size() + sc.size();
  p.writes = wr.size();
  p.read = summarize(std::move(rd));
  p.write = summarize(std::move(wr));
  p.scan = summarize(std::move(sc));
  p.late = summarize(std::move(late));
  p.achieved = static_cast<double>(p.ops) /
               (static_cast<double>(last - l.start()) * 1e-9);
  return p;
}

// ---- nodes ----------------------------------------------------------------

/// The servers of one set-up: a primary (plus, on tcp-quorum, its TCP
/// listener and a follower with its own listener).
struct Nodes {
  std::unique_ptr<Hartd> follower;
  std::unique_ptr<hart::server::TcpServer> follower_tcp;
  std::unique_ptr<Hartd> primary;
  std::unique_ptr<hart::server::TcpServer> primary_tcp;

  Nodes(const fs::path& dir, bool tcp) {
    if (tcp) {
      Hartd::Options fo = node_options(dir / "follower");
      fo.follow = true;
      follower = std::make_unique<Hartd>(fo);
      follower_tcp = std::make_unique<hart::server::TcpServer>(*follower, 0);
    }
    Hartd::Options po = node_options(dir / "primary");
    if (tcp) {
      po.replicate_to = {"127.0.0.1:" + std::to_string(follower_tcp->port())};
      po.ack_policy = hart::repl::AckPolicy::kQuorum;
    }
    primary = std::make_unique<Hartd>(po);
    if (tcp)
      primary_tcp = std::make_unique<hart::server::TcpServer>(*primary, 0);
  }
  ~Nodes() {
    if (primary_tcp) primary_tcp->stop();
    if (primary) primary->shutdown();
    if (follower_tcp) follower_tcp->stop();
    if (follower) follower->shutdown();
  }
  Nodes(const Nodes&) = delete;
  Nodes& operator=(const Nodes&) = delete;
};

/// Load the initial keys through the public API: Hartd::submit in-process,
/// a pipelined hart::Client over TCP. Returns the number not acked.
size_t preload(Nodes& n, const Workload& w) {
  size_t bad = 0;
  if (n.primary_tcp) {
    hart::server::Client cli("127.0.0.1", n.primary_tcp->port());
    std::deque<uint64_t> ids;
    for (const uint32_t s : w.initial()) {
      if (ids.size() >= kPreloadWindow) {
        if (cli.wait(ids.front()).status != Status::kOk) ++bad;
        ids.pop_front();
      }
      ids.push_back(cli.send({OpCode::kPut, w.key(s), w.value_of(s, 0)}));
    }
    for (const uint64_t id : ids)
      if (cli.wait(id).status != Status::kOk) ++bad;
    return bad;
  }
  std::atomic<size_t> out{0}, failed{0};
  for (const uint32_t s : w.initial()) {
    for (size_t v; (v = out.load(std::memory_order_acquire)) >=
                   kPreloadWindow;)
      out.wait(v, std::memory_order_acquire);
    out.fetch_add(1, std::memory_order_relaxed);
    n.primary->submit({OpCode::kPut, w.key(s), w.value_of(s, 0)},
                      [&](Response r) {
                        if (r.status != Status::kOk) failed.fetch_add(1);
                        out.fetch_sub(1, std::memory_order_release);
                        out.notify_all();
                      });
  }
  for (size_t v; (v = out.load(std::memory_order_acquire)) != 0;)
    out.wait(v, std::memory_order_acquire);
  return bad + failed.load();
}

/// Digest of a node's full contents in key order (every shard's cursor,
/// merged) and its key count.
uint64_t node_contents(const Hartd& d, const Workload& w, size_t* count) {
  std::vector<std::pair<std::string, std::string>> rows;
  for (size_t s = 0; s < d.shard_count(); ++s)
    for (hart::core::HartCursor c(d.shard(s).hart(), w.key(0), 4096);
         c.valid(); c.next())
      rows.emplace_back(c.key(), c.value());
  std::sort(rows.begin(), rows.end());
  Digest dg;
  for (const auto& [k, v] : rows) {
    dg.add(k);
    dg.add(v);
  }
  dg.add(rows.size());
  *count = rows.size();
  return dg.value();
}

/// Counters of the primary node, read before and after a phase.
struct NodeCounters {
  hart::pmem::StatsSnapshot pm;  // summed over the primary's shards
  uint64_t ops = 0, batches = 0, device_ns = 0, write_acks = 0;
  uint64_t fastpath = 0;
  std::map<std::string, uint64_t> reg;  // the registry scrape
  static NodeCounters read(const Hartd& d) {
    NodeCounters c;
    for (size_t s = 0; s < d.shard_count(); ++s) {
      const auto a = d.shard(s).arena().stats().snapshot();
      c.pm.persist_calls += a.persist_calls;
      c.pm.pm_read_lines += a.pm_read_lines;
      c.pm.injected_ns += a.injected_ns;
      const auto& st = d.shard(s).stats();
      c.ops += st.ops.load();
      c.batches += st.batches.load();
      c.device_ns += st.device_ns.load();
      c.write_acks += st.write_acks.load();
    }
    c.fastpath = d.fastpath_reads();
    for (const auto& [k, v] : hart::obs::Registry::instance().snapshot())
      c.reg[k] = v;
    return c;
  }
  uint64_t delta(const NodeCounters& before, const std::string& name) const {
    auto a = reg.find(name);
    auto b = before.reg.find(name);
    return (a == reg.end() ? 0 : a->second) -
           (b == before.reg.end() ? 0 : b->second);
  }
};

double ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

/// Self time of each traced span, stitched per trace id: a span's
/// duration minus the part of it that spans nested inside it cover.
struct StageTimes {
  std::map<std::string, std::vector<double>> write_self, read_self, dur;
  size_t traces = 0;
};
StageTimes stitch(const std::vector<OpRec>& ops) {
  struct Span {
    uint64_t b, e;
    std::string name;
  };
  std::unordered_map<uint64_t, std::vector<Span>> by_id;
  for (const auto& ev : hart::obs::Tracer::instance().events())
    if (ev.trace_id != 0 && ev.dur_ns != 0 && ev.trace_id <= ops.size())
      by_id[ev.trace_id].push_back({ev.ts_ns, ev.ts_ns + ev.dur_ns, ev.name});
  StageTimes st;
  for (auto& [id, spans] : by_id) {
    // Only traces whose client span survived the ring are whole.
    if (std::none_of(spans.begin(), spans.end(),
                     [](const Span& s) { return s.name == "client"; }))
      continue;
    ++st.traces;
    const bool write = is_write(ops[id - 1].op());
    for (size_t k = 0; k < spans.size(); ++k) {
      const Span& p = spans[k];
      std::vector<std::pair<uint64_t, uint64_t>> kids;
      for (size_t j = 0; j < spans.size(); ++j) {
        const Span& c = spans[j];
        const bool inside = c.b >= p.b && c.e <= p.e;
        const bool smaller =
            c.e - c.b < p.e - p.b || (c.e - c.b == p.e - p.b && j > k);
        if (j != k && inside && smaller) kids.emplace_back(c.b, c.e);
      }
      std::sort(kids.begin(), kids.end());
      uint64_t covered = 0, reach = p.b;
      for (const auto& [b, e] : kids) {
        const uint64_t from = std::max(b, reach);
        if (e > from) covered += e - from;
        reach = std::max(reach, e);
      }
      const double self = static_cast<double>(p.e - p.b - covered) * 1e-3;
      (write ? st.write_self : st.read_self)[p.name].push_back(self);
      st.dur[p.name].push_back(static_cast<double>(p.e - p.b) * 1e-3);
    }
  }
  return st;
}

double med(std::map<std::string, std::vector<double>>& m,
           const std::string& name) {
  auto it = m.find(name);
  return it == m.end() || it->second.empty() ? 0.0 : median_of(it->second);
}

}  // namespace

RunResult run_service(const Args& args, bool tcp) {
  RunResult res;
  const ServiceSpec& spec = tcp ? kTcp : kSkew;
  const double rate = args.rate > 0 ? args.rate : spec.rate;
  const size_t window = args.window != Args::kDefault ? args.window
                                                      : spec.window;
  const char* name = tcp ? "tcp-quorum" : "svc-skew";
  const fs::path dir = fs::absolute(fs::path(args.work_dir) /
                                    (std::string(name) + "-" +
                                     std::to_string(::getpid())));

  Workload w(spec.keys, args.seed);
  const size_t warm = static_cast<size_t>(kWarmSeconds * rate);
  const int ntrials = args.trace ? 1 : kTrials;
  const size_t timed = static_cast<size_t>(args.seconds * rate / ntrials);
  const size_t traced =
      args.trace ? static_cast<size_t>(std::min(args.seconds,
                                                kMaxTracedSeconds) * rate)
                 : 0;
  std::vector<OpRec> ops;
  ScanWindows windows;
  ops.reserve(warm + timed + traced);
  for (size_t i = 0; i < warm + timed + traced; ++i) {
    ops.push_back(w.next());
    if (ops.back().op() == Op::kScan)
      windows[i].live = w.scan_window(ops.back().slot,
                                      kScanLimit + kWindowSlack,
                                      &windows[i].to_end);
  }

  // The run is kTrials trials, each on fresh servers: set-up, warm-up,
  // timed slice, checks, shutdown, reopen cycles. Every trial runs the
  // same stream prefix from the same initial keys, so the model's answers
  // hold in each. Host speed drifts over seconds; trials spread every
  // figure's samples over the whole run, and each figure is the median
  // over trials (set-up and recovery: over all their timings).
  // Each set-up gets fresh arena files in a directory of its own; files
  // are deleted only once the run is over, so no file deletion (and its
  // journal and discard work) overlaps a timed phase.
  struct Trial {
    Phase ph, tph;  // timed and traced slices
    double cpu_s = 0, steal = 0;
    NodeCounters c0, c1;
    StageTimes st;
    int threads = 0;
    uint64_t dram = 0, pm = 0;
    double live = 0;
  };
  const uint64_t want = w.contents_digest();
  std::vector<double> setups, recoveries;
  size_t wrong = 0;
  bool drained = true;
  fs::remove_all(dir);
  auto run_trial = [&](int t) {
    Trial tr;
    set_phase("setup");
    const fs::path node_dir = dir / ("trial-" + std::to_string(t));
    fs::create_directories(node_dir);
    auto load = std::make_unique<Load>(w, ops, windows);
    const uint64_t t0 = mono_ns();
    auto nodes = std::make_unique<Nodes>(node_dir, tcp);
    set_phase("preload");
    const size_t bad = preload(*nodes, w);
    std::unique_ptr<Wire> wire;
    if (tcp)
      wire = std::make_unique<Wire>(
          nodes->primary_tcp->port(),
          [l = load.get()](uint64_t id, Response&& r) { l->complete(id, r); });
    setups.push_back(static_cast<double>(mono_ns() - t0) * 1e-9);
    res.check(bad == 0, std::string(name) + ": preload not acked");
    Hartd& primary = *nodes->primary;
    res.check(primary.total_size() == spec.keys.live,
              std::string(name) + ": live count after load");

    auto send = [&](size_t i, Request&& req) {
      if (wire) {
        if (!wire->send(i, req))
          load->complete(i, Response{Status::kNetError, {}, 0});
      } else {
        Load* l = load.get();
        primary.submit(std::move(req),
                       [l, i](Response r) { l->complete(i, r); });
      }
    };
    set_phase("warm-up");
    drained &= load->run(0, warm, rate, window, send);

    tr.c0 = NodeCounters::read(primary);
    const CpuTimes h0 = CpuTimes::read();
    const double cpu0 = process_cpu_s();
    set_phase("timed");
    drained &= load->run(warm, warm + timed, rate, window, send);
    tr.cpu_s = process_cpu_s() - cpu0;
    tr.steal = steal_pct(h0, CpuTimes::read());
    tr.c1 = NodeCounters::read(primary);
    tr.threads = process_threads();
    tr.ph = summarize_phase(*load, ops, warm, warm + timed);

    if (args.trace) {
      auto& tracer = hart::obs::Tracer::instance();
      tracer.enable(size_t{1} << 18);
      load->set_tracing(kTraceEvery);
      set_phase("traced");
      drained &= load->run(warm + timed, ops.size(), rate, window, send);
      tracer.disable();
      tr.tph = summarize_phase(*load, ops, warm + timed, ops.size());
      tr.st = stitch(ops);
    }
    wrong += tr.ph.wrong + tr.tph.wrong;
    for (size_t i = 0; i < warm; ++i)
      wrong += load->verdict(i) == Load::kWrong ? 1 : 0;
    if (tr.ph.achieved < (1 - kRateMargin) * rate)
      std::fprintf(stderr,
                   "perfbench: %s: achieved %.0f ops/s of %.0f offered\n",
                   name, tr.ph.achieved, rate);

    // End state: every key, on the primary and (tcp-quorum) the follower.
    set_phase("contents check");
    size_t count = 0;
    res.check(node_contents(primary, w, &count) == want &&
                  count == w.live_count(),
              std::string(name) + ": primary contents after the run");
    if (tcp) {
      res.check(node_contents(*nodes->follower, w, &count) == want &&
                    count == w.live_count(),
                "tcp-quorum: follower contents after the run");
    }
    for (size_t s = 0; s < primary.shard_count(); ++s) {
      const auto m = primary.shard(s).hart().memory_usage();
      tr.dram += m.dram_bytes;
      tr.pm += m.pm_bytes;
    }
    tr.live = static_cast<double>(primary.total_size());
    res.check(tr.dram > 0 && tr.pm > 0, std::string(name) + ": space > 0");

    // Recovery: reopen the primary's shard arenas, several times.
    set_phase("shutdown");
    wire.reset();
    nodes.reset();
    set_phase("recovery");
    for (int i = 0; i < (args.trace ? 0 : kRecoveries); ++i) {
      const uint64_t r0 = mono_ns();
      Hartd reopened(node_options(node_dir / "primary"));
      recoveries.push_back(static_cast<double>(mono_ns() - r0) * 1e-9);
      res.check(reopened.total_size() == w.live_count() &&
                    node_contents(reopened, w, &count) == want,
                std::string(name) + ": contents after recovery");
    }
    return tr;
  };
  std::vector<Trial> trials;
  for (int t = 0; t < ntrials; ++t)
    trials.push_back(run_trial(t));
  set_phase("cleanup");
  std::error_code ec;
  fs::remove_all(dir, ec);
  res.check(drained, std::string(name) + ": not every request was answered");
  res.check(wrong == 0, std::string(name) + ": " + std::to_string(wrong) +
                            " answers disagree with the model");

  auto over_trials = [&](auto&& f) {
    std::vector<double> v;
    for (const Trial& tr : trials) v.push_back(f(tr));
    return median_of(std::move(v));
  };
  size_t nread = 0, nwrite = 0, nscan = 0;
  for (const Trial& tr : trials) {
    res.attempted += tr.ph.ops;
    res.failed += tr.ph.failed;
    nread += tr.ph.read.n;
    nwrite += tr.ph.write.n;
    nscan += tr.ph.scan.n;
  }
  log_times("setup", setups);
  log_times("recovery", recoveries);
  res.e2e = {
      {"throughput_ops_s", over_trials([](const Trial& t) { return t.ph.achieved; }), "1/s"},
      {"read_p50_us", over_trials([](const Trial& t) { return t.ph.read.p50; }), "us"},
      {"write_p50_us", over_trials([](const Trial& t) { return t.ph.write.p50; }), "us"},
      {"scan_p50_us", over_trials([](const Trial& t) { return t.ph.scan.p50; }), "us"},
      {"cpu_us_per_op",
       over_trials([](const Trial& t) {
         return t.cpu_s * 1e6 / static_cast<double>(t.ph.ops);
       }),
       "us"},
      {"setup_s", median_of(setups), "s"},
      {"recovery_s", recoveries.empty() ? 0 : median_of(recoveries), "s"},
      {"dram_bytes_per_key",
       over_trials([](const Trial& t) { return static_cast<double>(t.dram) / t.live; }),
       "B"},
      {"pm_bytes_per_key",
       over_trials([](const Trial& t) { return static_cast<double>(t.pm) / t.live; }),
       "B"},
  };
  const double steal = over_trials([](const Trial& t) { return t.steal; });
  std::fprintf(stderr,
               "perfbench: %s seed=%llu trials=%zu window=%zu rate=%.0f "
               "ops=%llu read n=%zu write n=%zu scan n=%zu steal=%.1f%% "
               "load threads=%d connections=%d process threads=%d\n",
               name, static_cast<unsigned long long>(args.seed),
               trials.size(), window, rate,
               static_cast<unsigned long long>(res.attempted), nread, nwrite,
               nscan, steal, tcp ? 2 : 1, tcp ? 1 : 0, trials[0].threads);
  if (!args.trace) return res;

  const Trial& only = trials.front();  // a traced run has one trial
  const Phase& ph = only.ph;
  const Phase& tph = only.tph;
  const NodeCounters& c0 = only.c0;
  const NodeCounters& c1 = only.c1;
  StageTimes st = only.st;

  // Per-layer: counter deltas over the untraced phase (the primary's own
  // accessors; registry names as STATS prints them), stage times from
  // the traced phase's stitched spans.
  const double nodes_applying = tcp ? 2 : 1;  // registry counts both nodes
  const double reads = static_cast<double>(ph.reads);
  const double writes = static_cast<double>(ph.writes);
  const double batches = static_cast<double>(c1.batches - c0.batches);
  res.layer = {
      {"pmem.read_lines_per_read",
       ratio(c1.pm.pm_read_lines - c0.pm.pm_read_lines, reads), "count"},
      {"pmem.persists_per_write",
       ratio(c1.pm.persist_calls - c0.pm.persist_calls, writes), "count"},
      {"pmem.injected_us_per_op",
       ratio(c1.pm.injected_ns - c0.pm.injected_ns, ph.ops) * 1e-3, "us"},
      {"hart.fp_skips_per_miss",
       ratio(c1.delta(c0, "hart_fp_skip_total"), ph.misses), "count"},
      {"art.optimistic_retries_per_read",
       ratio(c1.delta(c0, "art_optimistic_retry_total"), reads), "count"},
      {"hart.read_fallbacks_per_read",
       ratio(c1.delta(c0, "hart_read_fallback_total"), reads), "count"},
      {"epalloc.meta_persists_per_write",
       ratio(c1.delta(c0, "epalloc_pm_meta_persists_total"),
             writes * nodes_applying),
       "count"},
      {"ebr.deferred_frees_per_write",
       ratio(c1.delta(c0, "ebr_deferred_free_total"), writes * nodes_applying),
       "count"},
      {"server.queue_wait_p50_us", med(st.dur, "queue_wait"), "us"},
      {"server.apply_p50_us", med(st.dur, "shard_apply"), "us"},
      {"server.fence_wait_p50_us", med(st.dur, "fence"), "us"},
      {"server.device_us_per_batch",
       ratio(c1.device_ns - c0.device_ns, batches) * 1e-3, "us"},
      {"server.ops_per_batch", ratio(c1.ops - c0.ops, batches), "count"},
      {"server.fastpath_read_share", ratio(c1.fastpath - c0.fastpath, reads),
       "ratio"},
      {"repl.quorum_wait_p50_us", med(st.dur, "quorum_ack"), "us"},
      {"repl.entries_per_shipped_batch",
       ratio(c1.write_acks - c0.write_acks,
             c1.delta(c0, "hartd_repl_batches_shipped_total")),
       "count"},
      {"wire.read_self_p50_us", med(st.read_self, "client"), "us"},
      {"wire.write_self_p50_us", med(st.write_self, "client"), "us"},
      {"tail.read_p99_us", ph.read.p99, "us"},
      {"tail.read_samples", static_cast<double>(ph.read.n), "count"},
      {"tail.write_p99_us", ph.write.p99, "us"},
      {"tail.write_samples", static_cast<double>(ph.write.n), "count"},
      {"tail.scan_p99_us", ph.scan.p99, "us"},
      {"tail.scan_samples", static_cast<double>(ph.scan.n), "count"},
      {"host.steal_pct", steal, "%"},
      {"gen.late_p99_us", ph.late.p99, "us"},
      {"load.threads", tcp ? 2.0 : 1.0, "count"},
      {"load.connections", tcp ? 1.0 : 0.0, "count"},
      {"trace.overhead_pct", (ratio(tph.write.p50, ph.write.p50) - 1) * 100,
       "%"},
      {"trace.sampled_ops", static_cast<double>(st.traces), "count"},
  };
  for (const char* stage :
       {"dispatch", "queue_wait", "shard_apply", "fence", "repl_ship",
        "follower_apply", "quorum_ack"})
    res.layer.push_back({std::string("trace.") + stage + "_self_p50_us",
                         med(st.write_self, stage), "us"});
  return res;
}

}  // namespace perfbench
