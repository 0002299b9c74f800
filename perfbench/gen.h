// perfbench input generator: a seeded key universe, an exact O(1) Zipf
// draw, and an operation stream that carries the answer each operation
// must get.
//
// The universe is a fixed, sorted set of distinct keys of the paper's
// Random shape (5..16 bytes over A-Za-z0-9). Each key owns a slot (its
// position in sorted order); a slot is live or dead and carries a value
// version. INSERT revives a dead slot, DELETE kills a live one, and the
// generator picks which of the two to emit from the live count, so the
// live set stays within one key of its target for the whole stream.
//
// Key skew draws a rank from a Zipf distribution over the *universe*
// (not over the live keys), then maps the rank through a seeded
// permutation to a slot. The rank domain never changes when keys are
// deleted, so one alias table built at start serves the whole stream:
// every draw is O(1), however many deletes the stream carries.
//
// Expected answers: every op is generated against the model state, so it
// records a 64-bit digest of the only right answer (status and value for
// point ops; count, keys and values for scans). A run that never has two
// conflicting ops in flight must observe exactly these digests.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// SplitMix64: small, fast, and identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n), n > 0 (multiply-shift; bias below 2^-32 here).
  uint64_t below(uint64_t n) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }
  double uniform() {  // [0, 1)
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  uint64_t s_;
};

inline uint64_t mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  return x ^ (x >> 33);
}

/// Exact Zipf(theta) over ranks [0, n): P(rank i) = (i+1)^-theta / H(n,
/// theta). Walker/Vose alias table: O(n) to build, O(1) per draw.
class ZipfAlias {
 public:
  ZipfAlias(size_t n, double theta) : prob_(n), alias_(n), pmf_(n) {
    double h = 0;
    for (size_t i = 0; i < n; ++i) {
      pmf_[i] = std::pow(static_cast<double>(i + 1), -theta);
      h += pmf_[i];
    }
    std::vector<double> scaled(n);
    std::vector<uint32_t> small, large;
    for (size_t i = 0; i < n; ++i) {
      pmf_[i] /= h;
      scaled[i] = pmf_[i] * static_cast<double>(n);
      (scaled[i] < 1.0 ? small : large).push_back(static_cast<uint32_t>(i));
    }
    while (!small.empty() && !large.empty()) {
      const uint32_t s = small.back(), l = large.back();
      small.pop_back();
      prob_[s] = scaled[s];
      alias_[s] = l;
      scaled[l] -= 1.0 - scaled[s];
      if (scaled[l] < 1.0) {
        large.pop_back();
        small.push_back(l);
      }
    }
    for (const uint32_t i : large) prob_[i] = 1.0;
    for (const uint32_t i : small) prob_[i] = 1.0;  // rounding leftovers
  }

  size_t draw(Rng& rng) const {
    const size_t col = rng.below(prob_.size());
    return rng.uniform() < prob_[col] ? col : alias_[col];
  }
  [[nodiscard]] double pmf(size_t rank) const { return pmf_[rank]; }
  [[nodiscard]] size_t size() const { return prob_.size(); }

 private:
  std::vector<double> prob_;
  std::vector<uint32_t> alias_;
  std::vector<double> pmf_;
};

/// Distinct Random-shape keys, sorted ascending.
inline std::vector<std::string> make_universe(size_t n, uint64_t seed) {
  static constexpr char kAlpha[] =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
  Rng rng(seed ^ 0x6b657973ULL);
  std::vector<std::string> keys;
  keys.reserve(n);
  while (keys.size() < n) {
    while (keys.size() < n) {
      std::string k(5 + rng.below(12), '\0');
      for (char& c : k) c = kAlpha[rng.below(62)];
      keys.push_back(std::move(k));
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  }
  return keys;
}

/// Order-sensitive digest of an answer. Point ops fold a status code and
/// an optional value; scans fold every (key, value) pair and the count.
class Digest {
 public:
  void add(uint64_t x) { h_ = mix64(h_ ^ (x + 0x9e3779b97f4a7c15ULL)); }
  void add(std::string_view s) {
    add(std::hash<std::string_view>{}(s));
    add(s.size());
  }
  [[nodiscard]] uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0x243f6a8885a308d3ULL;
};

enum class Op : uint8_t { kGet = 0, kUpdate, kInsert, kDelete, kScan };
inline constexpr size_t kOpKinds = 5;
inline const char* op_name(Op op) {
  static constexpr const char* kNames[] = {"get", "update", "insert",
                                           "delete", "scan"};
  return kNames[static_cast<size_t>(op)];
}
inline bool is_write(Op op) {
  return op == Op::kUpdate || op == Op::kInsert || op == Op::kDelete;
}

/// Normalized outcome codes, shared by the engine and wire paths.
enum class Outcome : uint8_t { kHit = 1, kMiss, kInserted, kApplied, kScan };

inline uint64_t point_digest(Outcome o, std::string_view value = {}) {
  Digest d;
  d.add(static_cast<uint64_t>(o));
  if (o == Outcome::kHit) d.add(value);
  return d.value();
}

struct OpRec {
  uint64_t expect;   // digest of the only right answer
  uint32_t slot;     // the key; for SCAN the start key
  uint32_t ver : 29; // version a write stores (DELETE: the one it removes)
  uint32_t kind : 3; // an Op
  [[nodiscard]] Op op() const { return static_cast<Op>(kind); }
};

/// Percentages; insert and delete share `churn` and balance each other.
struct Mix {
  uint32_t get, update, churn, scan;
};

struct Spec {
  size_t universe = 0;
  size_t live = 0;
  Mix mix{};
  bool zipf = false;
  double theta = 0.99;
  uint32_t scan_len = 100;
};

/// Model of the key set plus the stream generator that runs against it.
class Workload {
 public:
  Workload(const Spec& spec, uint64_t seed)
      : spec_(spec),
        seed_(seed),
        rng_(mix64(seed) ^ 0x6f707321ULL),
        keys_(make_universe(spec.universe, seed)),
        ver_(spec.universe, 0),
        pos_(spec.universe, 0) {
    if (spec.zipf) {
      zipf_ = std::make_unique<ZipfAlias>(spec.universe, spec.theta);
      perm_.resize(spec.universe);
      for (uint32_t i = 0; i < perm_.size(); ++i) perm_[i] = i;
      Rng prng(seed ^ 0x7065726dULL);
      for (size_t i = perm_.size(); i > 1; --i)
        std::swap(perm_[i - 1], perm_[prng.below(i)]);
    }
    // Initial live set: a seeded random sample, loaded in shuffled order.
    std::vector<uint32_t> order(spec.universe);
    for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    Rng lrng(seed ^ 0x6c697665ULL);
    for (size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[lrng.below(i)]);
    initial_.assign(order.begin(), order.begin() + spec.live);
    for (const uint32_t s : initial_) ver_[s] = 1;
    for (uint32_t s = 0; s < spec.universe; ++s) {
      auto& list = ver_[s] & kLive ? live_ : dead_;
      pos_[s] = static_cast<uint32_t>(list.size());
      list.push_back(s);
    }
    init_ver_ = ver_;
  }

  [[nodiscard]] const std::string& key(uint32_t slot) const {
    return keys_[slot];
  }
  /// Slots live at the start, in load order.
  [[nodiscard]] const std::vector<uint32_t>& initial() const {
    return initial_;
  }
  [[nodiscard]] size_t live_count() const { return live_.size(); }
  [[nodiscard]] bool live(uint32_t slot) const { return ver_[slot] & kLive; }
  [[nodiscard]] size_t universe() const { return keys_.size(); }

  /// Value bytes of `slot` at version `ver` (8 printable bytes).
  [[nodiscard]] std::string value_of(uint32_t slot, uint32_t ver) const {
    static constexpr char kHex[] = "0123456789abcdef";
    uint64_t h = mix64(seed_ ^ (uint64_t{slot} << 20) ^ ver);
    std::string v(8, '\0');
    for (char& c : v) {
      c = kHex[h & 15];
      h >>= 4;
    }
    return v;
  }
  [[nodiscard]] std::string value(uint32_t slot) const {
    return value_of(slot, ver_[slot] >> 1);
  }

  /// Next op of the stream, applied to the model. `expect` fills in the
  /// answer digest (scans cost ~scan_len slot visits to compute it).
  OpRec next(bool expect = true) {
    OpRec r{};
    const uint64_t dice = rng_.below(100);
    const Mix& m = spec_.mix;
    if (dice < m.get) {
      r.kind = static_cast<uint32_t>(Op::kGet);
      r.slot = any_slot();
      if (expect)
        r.expect = live(r.slot) ? point_digest(Outcome::kHit, value(r.slot))
                                : point_digest(Outcome::kMiss);
    } else if (dice < m.get + m.update) {
      r.kind = static_cast<uint32_t>(Op::kUpdate);
      r.slot = pick(true);
      ver_[r.slot] += 2;
      r.ver = ver_[r.slot] >> 1;
      r.expect = point_digest(Outcome::kApplied);
    } else if (dice < m.get + m.update + m.churn) {
      if (live_.size() > spec_.live) {
        r.kind = static_cast<uint32_t>(Op::kDelete);
        r.slot = pick(true);
        r.ver = ver_[r.slot] >> 1;  // the version it removes
        set_live(r.slot, false);
        r.expect = point_digest(Outcome::kApplied);
      } else {
        r.kind = static_cast<uint32_t>(Op::kInsert);
        r.slot = pick(false);
        set_live(r.slot, true);
        ver_[r.slot] += 2;
        r.ver = ver_[r.slot] >> 1;
        r.expect = point_digest(Outcome::kInserted);
      }
    } else {
      r.kind = static_cast<uint32_t>(Op::kScan);
      r.slot = static_cast<uint32_t>(rng_.below(keys_.size()));
      if (expect) r.expect = scan_digest(r.slot, spec_.scan_len);
    }
    return r;
  }

  /// Digest of the first `limit` live (key, value) pairs from `slot` on,
  /// ascending — what a SCAN from key(slot) must return.
  [[nodiscard]] uint64_t scan_digest(uint32_t slot, size_t limit) const {
    Digest d;
    size_t n = 0;
    for (size_t s = slot; s < keys_.size() && n < limit; ++s) {
      if (!live(static_cast<uint32_t>(s))) continue;
      d.add(keys_[s]);
      d.add(value(static_cast<uint32_t>(s)));
      ++n;
    }
    d.add(n);
    return d.value();
  }
  /// The first `limit` live (slot, version) pairs from `slot` on, in key
  /// order; *to_end says whether they reach the end of the universe.
  [[nodiscard]] std::vector<std::pair<uint32_t, uint32_t>> scan_window(
      uint32_t slot, size_t limit, bool* to_end) const {
    std::vector<std::pair<uint32_t, uint32_t>> out;
    size_t s = slot;
    for (; s < keys_.size() && out.size() < limit; ++s)
      if (live(static_cast<uint32_t>(s)))
        out.emplace_back(static_cast<uint32_t>(s), ver_[s] >> 1);
    *to_end = s >= keys_.size();
    return out;
  }
  /// Digest of the whole live set in key order (recovery checks).
  [[nodiscard]] uint64_t contents_digest() const {
    return scan_digest(0, keys_.size());
  }

  /// Rewind the model to its initial state and re-apply `ops[0, n)`:
  /// the state a run that executed exactly those ops must leave behind.
  void replay(const std::vector<OpRec>& ops, size_t n) {
    ver_ = init_ver_;
    live_.clear();
    dead_.clear();
    for (uint32_t s = 0; s < keys_.size(); ++s) {
      auto& list = ver_[s] & kLive ? live_ : dead_;
      pos_[s] = static_cast<uint32_t>(list.size());
      list.push_back(s);
    }
    for (size_t i = 0; i < n; ++i) {
      const OpRec& r = ops[i];
      switch (r.op()) {
        case Op::kUpdate: ver_[r.slot] += 2; break;
        case Op::kInsert:
          set_live(r.slot, true);
          ver_[r.slot] += 2;
          break;
        case Op::kDelete: set_live(r.slot, false); break;
        default: break;
      }
    }
  }

 private:
  static constexpr uint32_t kLive = 1;  // ver_ = version << 1 | live

  uint32_t any_slot() {
    if (zipf_) return perm_[zipf_->draw(rng_)];
    return static_cast<uint32_t>(rng_.below(keys_.size()));
  }
  /// A live (want_live) or dead slot: skewed draws are retried until the
  /// state matches (about two draws at a half-live universe), uniform
  /// ones come straight from the live/dead list.
  uint32_t pick(bool want_live) {
    if (zipf_) {
      for (int i = 0; i < 64; ++i) {
        const uint32_t s = perm_[zipf_->draw(rng_)];
        if (live(s) == want_live) return s;
      }
    }
    const auto& list = want_live ? live_ : dead_;
    return list[rng_.below(list.size())];
  }
  void set_live(uint32_t s, bool on) {
    auto& from = on ? dead_ : live_;
    auto& to = on ? live_ : dead_;
    const uint32_t last = from.back();
    from[pos_[s]] = last;
    pos_[last] = pos_[s];
    from.pop_back();
    pos_[s] = static_cast<uint32_t>(to.size());
    to.push_back(s);
    ver_[s] = (ver_[s] & ~kLive) | (on ? kLive : 0);
  }

  Spec spec_;
  uint64_t seed_;
  Rng rng_;
  std::vector<std::string> keys_;
  std::vector<uint32_t> ver_;  // version << 1 | live
  std::vector<uint32_t> init_ver_;
  std::vector<uint32_t> pos_;  // index in live_ or dead_
  std::vector<uint32_t> live_, dead_;
  std::vector<uint32_t> initial_;
  std::unique_ptr<ZipfAlias> zipf_;
  std::vector<uint32_t> perm_;  // Zipf rank -> slot
};

}  // namespace perfbench
