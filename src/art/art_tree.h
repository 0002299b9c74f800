// Volatile (DRAM) Adaptive Radix Tree — Leis et al., ICDE 2013 — used by
// HART as its internal-node engine (paper Fig. 1: internal nodes live in
// DRAM, only leaf nodes live in PM).
//
// The tree stores opaque leaf pointers supplied by the caller; `Traits`
// tells it how to read a leaf's key bytes. All four adaptive node types
// (NODE4/16/48/256) are implemented, with sorted keys in NODE4/16, path
// compression (pessimistic prefixes up to kMaxPrefixLen bytes with min-leaf
// fallback for longer prefixes) and lazy expansion.
//
// Key model: a key is a byte string without NUL bytes; the tree appends an
// implicit 0x00 terminator so that a key that is a strict prefix of another
// gets its own slot (the same convention as libart, which the paper's
// implementation was based on). Iteration order is therefore plain
// lexicographic order.
//
// Concurrency: single writer, plus any number of lock-free optimistic
// readers (search_optimistic). The write side is serialized externally
// (HART holds the partition write lock); the read side never locks:
//
//   * every node carries a seqlock-style version word (odd = mid-mutation
//     or obsolete). Readers snapshot it before consuming a node and
//     re-validate after (read_begin/read_validate);
//   * in-place mutations are confined to the child arrays of a published
//     node and are bracketed by lock_version/unlock_version;
//   * every structural change — grow, shrink, prefix split, NODE4 collapse
//     — builds a replacement node off-line, publishes it with one release
//     store into the parent slot, and retires the replaced node. Node
//     type, prefix_len and prefix bytes are therefore immutable once a
//     node is published, which is what makes a reader's depth accounting
//     safe against concurrent path-compression changes;
//   * retired nodes are marked obsolete (version forced odd forever) and
//     handed to an ebr::Domain so their memory outlives any reader still
//     inside them. With no domain (ebr == nullptr) frees are eager and
//     readers must hold the external lock (the pre-OLC behaviour).
//
// A stale reader can therefore only ever observe a consistent historical
// snapshot: replacement nodes share their (immutable) subtrees with the
// nodes they replace, and any torn in-place edit fails validation.
// Owners must drain the EBR domain before destroying a Tree: retire
// callbacks reference the tree (for dram_bytes accounting).
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <span>

#include "art/simd.h"
#include "common/ebr.h"
#include "obs/counters.h"

namespace hart::art {

namespace detail {
/// HARTscope: NODE4->16->48->256 growth events across every ART instance.
inline obs::Counter& grow_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("art_node_grow_total");
  return c;
}
/// HARTscope: optimistic-read attempts that failed validation and retried.
inline obs::Counter& optimistic_retry_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("art_optimistic_retry_total");
  return c;
}
/// HARTscope: leaf probes rejected by the one-byte fingerprint guard
/// before touching the leaf's (PM-resident) key bytes.
inline obs::Counter& fp_skip_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("hart_fp_skip_total");
  return c;
}
/// HARTscope: fingerprint matched but the full key compare did not (the
/// guard's false-positive rate: this / (this + skips) ≈ 1/255 expected).
inline obs::Counter& fp_false_positive_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("hart_fp_false_positive_total");
  return c;
}
}  // namespace detail

using Key = std::span<const uint8_t>;

/// One-byte key fingerprint (FPTree-style, PAPERS.md): FNV-1a 64 folded
/// down to 8 bits. Never returns 0 — 0 is reserved to mean "no
/// fingerprint" in tagged leaf pointers and persisted leaf headers, which
/// keeps images and trees written without the guard readable with it on.
inline uint8_t key_fingerprint(Key k) {
  uint64_t h = 1469598103934665603ULL;
  for (const uint8_t b : k) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  h ^= h >> 32;
  h ^= h >> 16;
  h ^= h >> 8;
  const auto fp = static_cast<uint8_t>(h);
  return fp == 0 ? uint8_t{1} : fp;
}

inline constexpr uint32_t kMaxPrefixLen = 10;

/// Byte of `k` at logical depth `d`, with the implicit terminator: positions
/// at or past the end read as 0x00.
inline uint32_t key_at(Key k, uint32_t d) {
  return d < k.size() ? k[d] : 0u;
}
/// Logical key length including the terminator.
inline uint32_t key_len(Key k) { return static_cast<uint32_t>(k.size()) + 1; }

namespace detail {

enum NodeType : uint8_t { kNode4 = 1, kNode16 = 2, kNode48 = 3, kNode256 = 4 };

struct Node {
  // Immutable once the node is published into the tree:
  uint8_t type;
  uint32_t prefix_len = 0;              // logical length of the compressed path
  uint8_t prefix[kMaxPrefixLen] = {0};  // first min(prefix_len, kMax) bytes
  // Seqlock word: even = stable, odd = mid-mutation or obsolete (retired).
  std::atomic<uint64_t> version{0};
  std::atomic<uint16_t> num_children{0};  // NODE256 can hold 256 children
};

struct Node4 : Node {
  std::atomic<uint8_t> keys[4];
  std::atomic<Node*> children[4];
};
struct Node16 : Node {
  std::atomic<uint8_t> keys[16];
  std::atomic<Node*> children[16];
};
struct Node48 : Node {
  std::atomic<uint8_t> child_index[256];  // kEmptySlot = empty, else slot
  std::atomic<Node*> children[48];
};
struct Node256 : Node {
  std::atomic<Node*> children[256];
};

inline constexpr uint8_t kEmptySlot = 0xFF;

// ---- seqlock protocol (Boehm-style seqlock over relaxed atomics) --------
/// Writer: make the version odd before an in-place edit. The release fence
/// orders the odd store before the (relaxed) data stores that follow, so a
/// reader that observed any of them re-reads an odd/advanced version.
inline void lock_version(Node* n) {
  n->version.store(n->version.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
}
/// Writer: back to even; the release store orders the edit before it.
inline void unlock_version(Node* n) {
  n->version.store(n->version.load(std::memory_order_relaxed) + 1,
                   std::memory_order_release);
}
/// Writer: a replaced node is left odd forever so any reader still holding
/// it fails validation (it must currently be even — never retire mid-edit).
inline void mark_obsolete(Node* n) {
  n->version.store(n->version.load(std::memory_order_relaxed) + 1,
                   std::memory_order_release);
}

/// Reader: snapshot the version; false if the node is mid-mutation or
/// obsolete (caller restarts).
inline bool read_begin(const Node* n, uint64_t* v) {
  *v = n->version.load(std::memory_order_acquire);
  return (*v & 1) == 0;
}
/// Reader: true iff everything read since read_begin was a consistent
/// snapshot. The acquire fence orders the (relaxed) data loads before the
/// re-read of the version.
inline bool read_validate(const Node* n, uint64_t v) {
  std::atomic_thread_fence(std::memory_order_acquire);
  return n->version.load(std::memory_order_relaxed) == v;
}

}  // namespace detail

/// Traits must provide:
///   using Leaf = <leaf type>;
///   Key key(const Leaf*) const;   // the leaf's ART key bytes (no terminator)
template <class Traits>
class Tree {
  using Node = detail::Node;
  using Node4 = detail::Node4;
  using Node16 = detail::Node16;
  using Node48 = detail::Node48;
  using Node256 = detail::Node256;

 public:
  using Leaf = typename Traits::Leaf;

  /// Result of one optimistic lookup: `ok == false` means validation kept
  /// failing (writer churn) and the caller should fall back to a locked
  /// read; `ok == true` makes `leaf` definitive (nullptr = not present).
  struct SearchResult {
    Leaf* leaf = nullptr;
    bool ok = false;
  };

  /// `dram_bytes` (optional) tracks this tree's internal-node footprint.
  /// `ebr` (optional) defers node frees past concurrent optimistic
  /// readers; nullptr frees eagerly (readers must then hold the caller's
  /// lock). The domain must be drained before the tree is destroyed.
  /// `fp_guard` stores a one-byte key fingerprint in the high byte of
  /// every tagged leaf pointer and rejects mismatched probes before the
  /// leaf's key bytes (PM for HART leaves) are ever read.
  explicit Tree(Traits traits = Traits{},
                std::atomic<uint64_t>* dram_bytes = nullptr,
                common::ebr::Domain* ebr = nullptr, bool fp_guard = false)
      : traits_(traits), dram_bytes_(dram_bytes), ebr_(ebr),
        fp_guard_(fp_guard) {}
  ~Tree() { clear(); }
  Tree(const Tree&) = delete;
  Tree& operator=(const Tree&) = delete;

  [[nodiscard]] bool empty() const {
    return root_.load(std::memory_order_acquire) == nullptr;
  }
  [[nodiscard]] size_t size() const {
    return count_.load(std::memory_order_relaxed);
  }

  /// Point lookup; nullptr if absent. Requires the caller's lock (shared
  /// or exclusive) — no validation is performed.
  [[nodiscard]] Leaf* search(Key k) const {
    const uint8_t kfp = fp_guard_ ? key_fingerprint(k) : uint8_t{0};
    Node* n = root_.load(std::memory_order_acquire);
    uint32_t depth = 0;
    while (n != nullptr) {
      if (is_leaf(n)) {
        if (!fp_check(n, kfp)) return nullptr;
        Leaf* l = as_leaf(n);
        if (leaf_matches(l, k)) return l;
        if (fp_guard_) detail::fp_false_positive_counter().inc();
        return nullptr;
      }
      if (n->prefix_len > 0) {
        // Optimistic skip: verify only the stored bytes, confirm at leaf.
        const uint32_t m = std::min(n->prefix_len, kMaxPrefixLen);
        for (uint32_t i = 0; i < m; ++i)
          if (n->prefix[i] != key_at(k, depth + i)) return nullptr;
        depth += n->prefix_len;
      }
      n = get_child(n, key_at(k, depth));
      ++depth;
    }
    return nullptr;
  }

  /// Lock-free point lookup: validate-and-retry descent, up to
  /// `max_attempts` restarts before giving up (result.ok == false).
  /// The caller must hold an ebr::Guard on this tree's domain.
  [[nodiscard]] SearchResult search_optimistic(Key k,
                                               int max_attempts = 64) const {
    for (int a = 0; a < max_attempts; ++a) {
      SearchResult r = search_attempt(k);
      if (r.ok) return r;
      detail::optimistic_retry_counter().inc();
    }
    return {nullptr, false};
  }

  /// Insert `leaf` under key `k`. If the key already exists, nothing is
  /// modified and the existing leaf is returned; otherwise returns nullptr.
  /// With an EBR domain the caller must hold a Guard (structural changes
  /// retire replaced nodes); without one the marker is moot.
  Leaf* insert(Key k, Leaf* leaf) REQUIRES_EBR_PIN {
    const uint8_t kfp = fp_guard_ ? key_fingerprint(k) : uint8_t{0};
    return insert_rec(root_, k, leaf, 0, kfp);
  }

  /// Remove the leaf with key `k`; returns it (caller owns leaf memory), or
  /// nullptr if absent. Same pinning contract as insert().
  Leaf* remove(Key k) REQUIRES_EBR_PIN {
    const uint8_t kfp = fp_guard_ ? key_fingerprint(k) : uint8_t{0};
    return remove_rec(root_, k, 0, kfp);
  }

  /// Leftmost (smallest-key) leaf; nullptr when empty.
  [[nodiscard]] Leaf* minimum() const {
    Node* r = root_.load(std::memory_order_acquire);
    return r != nullptr ? minimum(r) : nullptr;
  }

  /// In-order traversal of all leaves; `fn(Leaf*)` returns false to stop.
  /// Returns false iff stopped early. Under a concurrent writer the walk is
  /// memory-safe but may reflect a torn snapshot — callers that run it
  /// optimistically must validate externally (HART: partition mod-version)
  /// and discard the results on mismatch.
  template <class F>
  bool for_each(F&& fn) const {
    Node* r = root_.load(std::memory_order_acquire);
    return r == nullptr || walk_all(r, fn);
  }

  /// In-order traversal of leaves with key >= lo (same caveats as for_each).
  template <class F>
  bool for_each_from(Key lo, F&& fn) const {
    Node* r = root_.load(std::memory_order_acquire);
    return r == nullptr || walk_from(r, lo, 0, fn);
  }

  /// Free all internal nodes (leaves are owned by the caller). Requires
  /// exclusivity and a drained EBR domain.
  void clear() {
    Node* r = root_.load(std::memory_order_relaxed);
    if (r != nullptr) {
      clear_rec(r);
      root_.store(nullptr, std::memory_order_relaxed);
      count_.store(0, std::memory_order_relaxed);
    }
  }

 private:
  // ---- leaf tagging ----------------------------------------------------
  // Bit 0 marks a leaf; bits 56..63 carry the key fingerprint (0 = none).
  // User-space pointers leave the top byte clear on every supported
  // target, so the fingerprint rides along for free and is stripped by
  // as_leaf() before any dereference.
  static constexpr unsigned kFpShift = 56;
  static constexpr uintptr_t kFpMask = uintptr_t{0xFF} << kFpShift;

  static bool is_leaf(const Node* n) {
    return (reinterpret_cast<uintptr_t>(n) & 1) != 0;
  }
  static Leaf* as_leaf(const Node* n) {
    return reinterpret_cast<Leaf*>(reinterpret_cast<uintptr_t>(n) &
                                   ~(kFpMask | uintptr_t{1}));
  }
  static Node* tag_leaf(Leaf* l, uint8_t fp) {
    return reinterpret_cast<Node*>(reinterpret_cast<uintptr_t>(l) |
                                   (uintptr_t{fp} << kFpShift) | 1);
  }
  static uint8_t leaf_fp(const Node* n) {
    return static_cast<uint8_t>(reinterpret_cast<uintptr_t>(n) >> kFpShift);
  }
  /// Guard a tagged-leaf probe: true = proceed to the full key compare,
  /// false = fingerprints prove a mismatch (key bytes never read). A zero
  /// stored fingerprint (guard-off writer) always proceeds.
  bool fp_check(const Node* n, uint8_t kfp) const {
    if (!fp_guard_) return true;
    const uint8_t lfp = leaf_fp(n);
    if (lfp == 0 || lfp == kfp) return true;
    detail::fp_skip_counter().inc();
    return false;
  }
  bool leaf_matches(const Leaf* l, Key k) const {
    const Key lk = traits_.key(l);
    return lk.size() == k.size() &&
           std::memcmp(lk.data(), k.data(), k.size()) == 0;
  }

  // ---- node memory ------------------------------------------------------
  template <class N>
  N* alloc_node(detail::NodeType t) {
    N* n = new N();  // value-init: atomics zero, child_index set by callers
    n->type = t;
    if (dram_bytes_)
      dram_bytes_->fetch_add(sizeof(N), std::memory_order_relaxed);
    return n;
  }
  void free_node(Node* n) {
    if (dram_bytes_)
      dram_bytes_->fetch_sub(node_size(n), std::memory_order_relaxed);
    switch (n->type) {
      case detail::kNode4: delete static_cast<Node4*>(n); break;
      case detail::kNode16: delete static_cast<Node16*>(n); break;
      case detail::kNode48: delete static_cast<Node48*>(n); break;
      default: delete static_cast<Node256*>(n); break;
    }
  }
  static size_t node_size(const Node* n) {
    switch (n->type) {
      case detail::kNode4: return sizeof(Node4);
      case detail::kNode16: return sizeof(Node16);
      case detail::kNode48: return sizeof(Node48);
      default: return sizeof(Node256);
    }
  }

  static void retire_cb(void* p, void* ctx) {
    static_cast<Tree*>(ctx)->free_node(static_cast<Node*>(p));
  }
  /// Replaced node: fail any reader still holding it, defer the free past
  /// every current reader epoch (or free eagerly without a domain).
  void retire_node(Node* n) REQUIRES_EBR_PIN {
    detail::mark_obsolete(n);
    if (ebr_ != nullptr)
      ebr_->retire(n, &retire_cb, this);
    else
      free_node(n);
  }

  void clear_rec(Node* n) {
    if (is_leaf(n)) return;
    for_each_child(n, [&](uint32_t, Node* c) {
      clear_rec(c);
      return true;
    });
    free_node(n);
  }

  // ---- child access -------------------------------------------------------
  /// Read-side child lookup: loads the slot value (acquire, so a freshly
  /// published node's immutable fields are visible). Tolerates torn state
  /// (bounds-checks NODE48 slots, null-checks) — a wrong answer under a
  /// concurrent edit is caught by the caller's validation.
  static Node* get_child(const Node* n, uint32_t byte) {
    switch (n->type) {
      case detail::kNode4: {
        const auto* p = static_cast<const Node4*>(n);
        const uint16_t nc = std::min<uint16_t>(
            p->num_children.load(std::memory_order_acquire), 4);
        for (uint16_t i = 0; i < nc; ++i)
          if (p->keys[i].load(std::memory_order_relaxed) == byte)
            return p->children[i].load(std::memory_order_acquire);
        return nullptr;
      }
      case detail::kNode16: {
        const auto* p = static_cast<const Node16*>(n);
        const uint16_t nc = std::min<uint16_t>(
            p->num_children.load(std::memory_order_acquire), 16);
#if HART_SIMD
        // One 16-byte compare over the atomic key array (layout-identical
        // to plain bytes; asserted below). A torn lane under a concurrent
        // writer yields at worst a wrong slot, exactly like the relaxed
        // scalar loads — the caller's validation catches it either way.
        static_assert(sizeof(p->keys) == 16 &&
                      sizeof(std::atomic<uint8_t>) == 1);
        const int i = simd::find_byte16_vec(
            reinterpret_cast<const uint8_t*>(&p->keys[0]), nc,
            static_cast<uint8_t>(byte));
        return i >= 0 ? p->children[i].load(std::memory_order_acquire)
                      : nullptr;
#else
        for (uint16_t i = 0; i < nc; ++i)
          if (p->keys[i].load(std::memory_order_relaxed) == byte)
            return p->children[i].load(std::memory_order_acquire);
        return nullptr;
#endif
      }
      case detail::kNode48: {
        const auto* p = static_cast<const Node48*>(n);
        const uint8_t slot = p->child_index[byte].load(std::memory_order_relaxed);
        if (slot == detail::kEmptySlot || slot >= 48) return nullptr;
        return p->children[slot].load(std::memory_order_acquire);
      }
      default: {
        const auto* p = static_cast<const Node256*>(n);
        return p->children[byte].load(std::memory_order_acquire);
      }
    }
  }

  /// Write-side child lookup (writer-exclusive): the mutable slot.
  static std::atomic<Node*>* find_child_slot(Node* n, uint32_t byte) {
    switch (n->type) {
      case detail::kNode4: {
        auto* p = static_cast<Node4*>(n);
        const uint16_t nc = p->num_children.load(std::memory_order_relaxed);
        for (uint16_t i = 0; i < nc; ++i)
          if (p->keys[i].load(std::memory_order_relaxed) == byte)
            return &p->children[i];
        return nullptr;
      }
      case detail::kNode16: {
        auto* p = static_cast<Node16*>(n);
        const uint16_t nc = p->num_children.load(std::memory_order_relaxed);
#if HART_SIMD
        const int i = simd::find_byte16_vec(
            reinterpret_cast<const uint8_t*>(&p->keys[0]), nc,
            static_cast<uint8_t>(byte));
        return i >= 0 ? &p->children[i] : nullptr;
#else
        for (uint16_t i = 0; i < nc; ++i)
          if (p->keys[i].load(std::memory_order_relaxed) == byte)
            return &p->children[i];
        return nullptr;
#endif
      }
      case detail::kNode48: {
        auto* p = static_cast<Node48*>(n);
        const uint8_t slot = p->child_index[byte].load(std::memory_order_relaxed);
        return slot == detail::kEmptySlot ? nullptr : &p->children[slot];
      }
      default: {
        auto* p = static_cast<Node256*>(n);
        return p->children[byte].load(std::memory_order_relaxed) != nullptr
                   ? &p->children[byte]
                   : nullptr;
      }
    }
  }

  /// Invoke f(byte, child) in ascending key-byte order; f returns false to
  /// stop. Returns false iff stopped. Null-checks every slot so a torn
  /// snapshot (concurrent writer) cannot yield a null deref downstream.
  template <class F>
  static bool for_each_child(const Node* n, F&& f) {
    switch (n->type) {
      case detail::kNode4: {
        const auto* p = static_cast<const Node4*>(n);
        const uint16_t nc = std::min<uint16_t>(
            p->num_children.load(std::memory_order_acquire), 4);
        for (uint16_t i = 0; i < nc; ++i) {
          Node* c = p->children[i].load(std::memory_order_acquire);
          if (c != nullptr &&
              !f(p->keys[i].load(std::memory_order_relaxed), c))
            return false;
        }
        return true;
      }
      case detail::kNode16: {
        const auto* p = static_cast<const Node16*>(n);
        const uint16_t nc = std::min<uint16_t>(
            p->num_children.load(std::memory_order_acquire), 16);
        for (uint16_t i = 0; i < nc; ++i) {
          Node* c = p->children[i].load(std::memory_order_acquire);
          if (c != nullptr &&
              !f(p->keys[i].load(std::memory_order_relaxed), c))
            return false;
        }
        return true;
      }
      case detail::kNode48: {
        const auto* p = static_cast<const Node48*>(n);
#if HART_SIMD
        // Vector skip to the next occupied child_index entry; the slot
        // value is re-loaded atomically below, so torn-snapshot tolerance
        // is the same as the scalar walk's, which visits every byte.
        const auto* idx =
            reinterpret_cast<const uint8_t*>(&p->child_index[0]);
        static_assert(sizeof(p->child_index) == 256);
        const auto next = [idx](unsigned b) {
          return simd::next_occupied48_vec(idx, b, detail::kEmptySlot);
        };
#else
        const auto next = [](unsigned b) { return b; };
#endif
        for (unsigned b = next(0); b < 256; b = next(b + 1)) {
          const uint8_t slot =
              p->child_index[b].load(std::memory_order_relaxed);
          if (slot == detail::kEmptySlot || slot >= 48) continue;
          Node* c = p->children[slot].load(std::memory_order_acquire);
          if (c != nullptr && !f(b, c)) return false;
        }
        return true;
      }
      default: {
        const auto* p = static_cast<const Node256*>(n);
        for (uint32_t b = 0; b < 256; ++b) {
          Node* c = p->children[b].load(std::memory_order_acquire);
          if (c != nullptr && !f(b, c)) return false;
        }
        return true;
      }
    }
  }

  /// Leftmost leaf of `n`'s subtree; nullptr on a torn snapshot that
  /// dead-ends (only possible under a concurrent writer — callers on the
  /// optimistic path treat it as "invalid, will be re-validated").
  Leaf* minimum(const Node* n) const {
    while (n != nullptr && !is_leaf(n)) {
      const Node* next = nullptr;
      for_each_child(n, [&](uint32_t, Node* c) {
        next = c;
        return false;  // first (smallest) child
      });
      n = next;
    }
    return n != nullptr ? as_leaf(n) : nullptr;
  }

  // ---- prefix helpers ----------------------------------------------------
  /// Full logical mismatch position of `k` against n's compressed path,
  /// reading bytes past kMaxPrefixLen from the subtree's minimum leaf.
  uint32_t prefix_mismatch(const Node* n, Key k, uint32_t depth) const {
    const uint32_t stored = std::min(n->prefix_len, kMaxPrefixLen);
    uint32_t i = 0;
    for (; i < stored; ++i)
      if (n->prefix[i] != key_at(k, depth + i)) return i;
    if (n->prefix_len > kMaxPrefixLen) {
      Leaf* ml = minimum(n);
      if (ml == nullptr) return i;  // torn snapshot; writer-side never hits
      const Key lk = traits_.key(ml);
      for (; i < n->prefix_len; ++i)
        if (key_at(lk, depth + i) != key_at(k, depth + i)) return i;
    }
    return n->prefix_len;
  }

  // ---- raw (unpublished-node) child insertion ----------------------------
  /// Sorted insert into a NODE4/16 that is not yet published (or whose
  /// version is locked by the caller): plain relaxed stores, no locking.
  template <class N>
  static void add_sorted_raw(N* p, uint32_t byte, Node* child) {
    const uint16_t nc = p->num_children.load(std::memory_order_relaxed);
    uint16_t pos = 0;
    while (pos < nc && p->keys[pos].load(std::memory_order_relaxed) < byte)
      ++pos;
    for (uint16_t i = nc; i > pos; --i) {
      p->keys[i].store(p->keys[i - 1].load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
      p->children[i].store(p->children[i - 1].load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
    }
    p->keys[pos].store(static_cast<uint8_t>(byte), std::memory_order_relaxed);
    p->children[pos].store(child, std::memory_order_relaxed);
    p->num_children.store(nc + 1, std::memory_order_relaxed);
  }

  static void copy_header(Node* dst, const Node* src) {
    dst->num_children.store(src->num_children.load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
    dst->prefix_len = src->prefix_len;
    std::memcpy(dst->prefix, src->prefix, kMaxPrefixLen);
  }

  /// Deep-copy of one node (children pointers shared, not cloned) — the
  /// building block of every clone-and-publish structural change.
  Node* clone_node(const Node* n) {
    switch (n->type) {
      case detail::kNode4: {
        const auto* s = static_cast<const Node4*>(n);
        auto* d = alloc_node<Node4>(detail::kNode4);
        copy_header(d, s);
        for (int i = 0; i < 4; ++i) {
          d->keys[i].store(s->keys[i].load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
          d->children[i].store(s->children[i].load(std::memory_order_relaxed),
                               std::memory_order_relaxed);
        }
        return d;
      }
      case detail::kNode16: {
        const auto* s = static_cast<const Node16*>(n);
        auto* d = alloc_node<Node16>(detail::kNode16);
        copy_header(d, s);
        for (int i = 0; i < 16; ++i) {
          d->keys[i].store(s->keys[i].load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
          d->children[i].store(s->children[i].load(std::memory_order_relaxed),
                               std::memory_order_relaxed);
        }
        return d;
      }
      case detail::kNode48: {
        const auto* s = static_cast<const Node48*>(n);
        auto* d = alloc_node<Node48>(detail::kNode48);
        copy_header(d, s);
        for (uint32_t b = 0; b < 256; ++b)
          d->child_index[b].store(
              s->child_index[b].load(std::memory_order_relaxed),
              std::memory_order_relaxed);
        for (int i = 0; i < 48; ++i)
          d->children[i].store(s->children[i].load(std::memory_order_relaxed),
                               std::memory_order_relaxed);
        return d;
      }
      default: {
        const auto* s = static_cast<const Node256*>(n);
        auto* d = alloc_node<Node256>(detail::kNode256);
        copy_header(d, s);
        for (uint32_t b = 0; b < 256; ++b)
          d->children[b].store(s->children[b].load(std::memory_order_relaxed),
                               std::memory_order_relaxed);
        return d;
      }
    }
  }

  // ---- add / grow ----------------------------------------------------------
  /// Add `child` under `byte`. In place (seqlocked) when the node has room;
  /// otherwise grow: build the bigger node off-line with the new child
  /// already in it, publish with one release store, retire the old node.
  void add_child(std::atomic<Node*>& ref, Node* n, uint32_t byte,
                 Node* child) REQUIRES_EBR_PIN {
    switch (n->type) {
      case detail::kNode4: {
        auto* p = static_cast<Node4*>(n);
        if (p->num_children.load(std::memory_order_relaxed) < 4) {
          detail::lock_version(p);
          add_sorted_raw(p, byte, child);
          detail::unlock_version(p);
        } else {
          detail::grow_counter().inc();
          auto* g = alloc_node<Node16>(detail::kNode16);
          copy_header(g, p);
          for (int i = 0; i < 4; ++i) {
            g->keys[i].store(p->keys[i].load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
            g->children[i].store(
                p->children[i].load(std::memory_order_relaxed),
                std::memory_order_relaxed);
          }
          add_sorted_raw(g, byte, child);
          ref.store(g, std::memory_order_release);
          retire_node(p);
        }
        return;
      }
      case detail::kNode16: {
        auto* p = static_cast<Node16*>(n);
        if (p->num_children.load(std::memory_order_relaxed) < 16) {
          detail::lock_version(p);
          add_sorted_raw(p, byte, child);
          detail::unlock_version(p);
        } else {
          detail::grow_counter().inc();
          auto* g = alloc_node<Node48>(detail::kNode48);
          for (uint32_t b = 0; b < 256; ++b)
            g->child_index[b].store(detail::kEmptySlot,
                                    std::memory_order_relaxed);
          for (int i = 0; i < 16; ++i) {
            g->child_index[p->keys[i].load(std::memory_order_relaxed)].store(
                static_cast<uint8_t>(i), std::memory_order_relaxed);
            g->children[i].store(
                p->children[i].load(std::memory_order_relaxed),
                std::memory_order_relaxed);
          }
          copy_header(g, p);
          g->children[16].store(child, std::memory_order_relaxed);
          g->child_index[byte].store(16, std::memory_order_relaxed);
          g->num_children.store(17, std::memory_order_relaxed);
          ref.store(g, std::memory_order_release);
          retire_node(p);
        }
        return;
      }
      case detail::kNode48: {
        auto* p = static_cast<Node48*>(n);
        if (p->num_children.load(std::memory_order_relaxed) < 48) {
          detail::lock_version(p);
          int slot = 0;
          while (p->children[slot].load(std::memory_order_relaxed) != nullptr)
            ++slot;
          p->children[slot].store(child, std::memory_order_relaxed);
          p->child_index[byte].store(static_cast<uint8_t>(slot),
                                     std::memory_order_relaxed);
          p->num_children.fetch_add(1, std::memory_order_relaxed);
          detail::unlock_version(p);
        } else {
          detail::grow_counter().inc();
          auto* g = alloc_node<Node256>(detail::kNode256);
          for (uint32_t b = 0; b < 256; ++b) {
            const uint8_t slot =
                p->child_index[b].load(std::memory_order_relaxed);
            if (slot != detail::kEmptySlot)
              g->children[b].store(
                  p->children[slot].load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
          }
          copy_header(g, p);
          g->children[byte].store(child, std::memory_order_relaxed);
          g->num_children.store(49, std::memory_order_relaxed);
          ref.store(g, std::memory_order_release);
          retire_node(p);
        }
        return;
      }
      default: {
        auto* p = static_cast<Node256*>(n);
        detail::lock_version(p);
        p->children[byte].store(child, std::memory_order_relaxed);
        p->num_children.fetch_add(1, std::memory_order_relaxed);
        detail::unlock_version(p);
        return;
      }
    }
  }

  // ---- insert ----------------------------------------------------------
  Leaf* insert_rec(std::atomic<Node*>& ref, Key k, Leaf* leaf,
                   uint32_t depth, uint8_t kfp) REQUIRES_EBR_PIN {
    Node* n = ref.load(std::memory_order_relaxed);
    if (n == nullptr) {
      ref.store(tag_leaf(leaf, kfp), std::memory_order_release);
      count_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    if (is_leaf(n)) {
      Leaf* existing = as_leaf(n);
      if (leaf_matches(existing, k)) return existing;
      // Lazy expansion undone: split into a NODE4 under the common prefix.
      // `n` is re-stored as-is, so the existing leaf keeps its fingerprint.
      const Key ek = traits_.key(existing);
      uint32_t lcp = 0;
      while (key_at(k, depth + lcp) == key_at(ek, depth + lcp)) ++lcp;
      auto* nn = alloc_node<Node4>(detail::kNode4);
      nn->prefix_len = lcp;
      for (uint32_t i = 0; i < std::min(lcp, kMaxPrefixLen); ++i)
        nn->prefix[i] = static_cast<uint8_t>(key_at(k, depth + i));
      add_sorted_raw(nn, key_at(k, depth + lcp), tag_leaf(leaf, kfp));
      add_sorted_raw(nn, key_at(ek, depth + lcp), n);
      ref.store(nn, std::memory_order_release);
      count_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }

    if (n->prefix_len > 0) {
      const uint32_t p = prefix_mismatch(n, k, depth);
      if (p < n->prefix_len) {
        // Split the compressed path at position p. n's prefix is immutable
        // once published, so the shortened remainder is a clone of n; the
        // new NODE4 points at the clone and the new leaf, and n retires.
        auto* nn = alloc_node<Node4>(detail::kNode4);
        nn->prefix_len = p;
        std::memcpy(nn->prefix, n->prefix, std::min(p, kMaxPrefixLen));
        Node* shrunk = clone_node(n);
        shrunk->prefix_len = n->prefix_len - (p + 1);
        uint32_t edge;
        if (n->prefix_len <= kMaxPrefixLen) {
          edge = n->prefix[p];
          for (uint32_t i = 0; i < std::min(shrunk->prefix_len, kMaxPrefixLen);
               ++i)
            shrunk->prefix[i] = n->prefix[p + 1 + i];
        } else {
          // Recover the edge byte and the new stored prefix from a leaf.
          const Key lk = traits_.key(minimum(n));
          edge = key_at(lk, depth + p);
          for (uint32_t i = 0; i < std::min(shrunk->prefix_len, kMaxPrefixLen);
               ++i)
            shrunk->prefix[i] =
                static_cast<uint8_t>(key_at(lk, depth + p + 1 + i));
        }
        add_sorted_raw(nn, edge, shrunk);
        add_sorted_raw(nn, key_at(k, depth + p), tag_leaf(leaf, kfp));
        ref.store(nn, std::memory_order_release);
        retire_node(n);
        count_.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
      }
      depth += n->prefix_len;
    }

    std::atomic<Node*>* child = find_child_slot(n, key_at(k, depth));
    if (child != nullptr) return insert_rec(*child, k, leaf, depth + 1, kfp);
    add_child(ref, n, key_at(k, depth), tag_leaf(leaf, kfp));
    count_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }

  // ---- remove / shrink ---------------------------------------------------
  Leaf* remove_rec(std::atomic<Node*>& ref, Key k, uint32_t depth,
                   uint8_t kfp) REQUIRES_EBR_PIN {
    Node* n = ref.load(std::memory_order_relaxed);
    if (n == nullptr) return nullptr;
    if (is_leaf(n)) {
      if (!fp_check(n, kfp)) return nullptr;
      Leaf* l = as_leaf(n);
      if (!leaf_matches(l, k)) return nullptr;
      ref.store(nullptr, std::memory_order_release);
      count_.fetch_sub(1, std::memory_order_relaxed);
      return l;
    }
    if (n->prefix_len > 0) {
      const uint32_t stored = std::min(n->prefix_len, kMaxPrefixLen);
      for (uint32_t i = 0; i < stored; ++i)
        if (n->prefix[i] != key_at(k, depth + i)) return nullptr;
      depth += n->prefix_len;
    }
    const uint32_t byte = key_at(k, depth);
    std::atomic<Node*>* child = find_child_slot(n, byte);
    if (child == nullptr) return nullptr;
    Node* c = child->load(std::memory_order_relaxed);
    if (is_leaf(c)) {
      if (!fp_check(c, kfp)) return nullptr;
      Leaf* l = as_leaf(c);
      if (!leaf_matches(l, k)) return nullptr;
      remove_child(ref, n, byte);
      count_.fetch_sub(1, std::memory_order_relaxed);
      return l;
    }
    return remove_rec(*child, k, depth + 1, kfp);
  }

  /// Remove the child under `byte`. In place (seqlocked) normally; at the
  /// shrink thresholds (or the NODE4 collapse) build the smaller
  /// replacement off-line, publish, retire the old node(s).
  void remove_child(std::atomic<Node*>& ref, Node* n, uint32_t byte)
      REQUIRES_EBR_PIN {
    switch (n->type) {
      case detail::kNode4: {
        auto* p = static_cast<Node4*>(n);
        const uint16_t nc = p->num_children.load(std::memory_order_relaxed);
        if (nc == 2) {
          // Collapse: splice the surviving child into the parent slot.
          const uint16_t keep =
              p->keys[0].load(std::memory_order_relaxed) == byte ? 1 : 0;
          const uint8_t edge = p->keys[keep].load(std::memory_order_relaxed);
          Node* child = p->children[keep].load(std::memory_order_relaxed);
          if (is_leaf(child)) {
            ref.store(child, std::memory_order_release);
            retire_node(p);
          } else {
            // Re-concatenate the compressed paths (path compression) on a
            // clone — child's own prefix must stay immutable for readers.
            Node* merged = clone_node(child);
            uint8_t buf[kMaxPrefixLen];
            uint32_t pl = p->prefix_len;  // logical length
            std::memcpy(buf, p->prefix, std::min(pl, kMaxPrefixLen));
            if (pl < kMaxPrefixLen) buf[pl] = edge;
            ++pl;
            if (pl < kMaxPrefixLen) {
              const uint32_t sub =
                  std::min(child->prefix_len, kMaxPrefixLen - pl);
              std::memcpy(buf + pl, child->prefix, sub);
              pl += sub;
            }
            std::memcpy(merged->prefix, buf, std::min(pl, kMaxPrefixLen));
            merged->prefix_len = child->prefix_len + p->prefix_len + 1;
            ref.store(merged, std::memory_order_release);
            retire_node(child);
            retire_node(p);
          }
          return;
        }
        detail::lock_version(p);
        remove_sorted_locked(p, byte, nc);
        detail::unlock_version(p);
        return;
      }
      case detail::kNode16: {
        auto* p = static_cast<Node16*>(n);
        const uint16_t nc = p->num_children.load(std::memory_order_relaxed);
        if (nc == 4) {  // dropping to 3: shrink to NODE4
          auto* s = alloc_node<Node4>(detail::kNode4);
          copy_header(s, p);
          uint16_t j = 0;
          for (uint16_t i = 0; i < nc; ++i) {
            const uint8_t kb = p->keys[i].load(std::memory_order_relaxed);
            if (kb == byte) continue;
            s->keys[j].store(kb, std::memory_order_relaxed);
            s->children[j].store(
                p->children[i].load(std::memory_order_relaxed),
                std::memory_order_relaxed);
            ++j;
          }
          s->num_children.store(j, std::memory_order_relaxed);
          ref.store(s, std::memory_order_release);
          retire_node(p);
          return;
        }
        detail::lock_version(p);
        remove_sorted_locked(p, byte, nc);
        detail::unlock_version(p);
        return;
      }
      case detail::kNode48: {
        auto* p = static_cast<Node48*>(n);
        const uint16_t nc = p->num_children.load(std::memory_order_relaxed);
        if (nc == 13) {  // dropping to 12: shrink to NODE16
          auto* s = alloc_node<Node16>(detail::kNode16);
          copy_header(s, p);
          uint16_t j = 0;
          for (uint32_t b = 0; b < 256; ++b) {
            if (b == byte) continue;
            const uint8_t slot =
                p->child_index[b].load(std::memory_order_relaxed);
            if (slot == detail::kEmptySlot) continue;
            s->keys[j].store(static_cast<uint8_t>(b),
                             std::memory_order_relaxed);
            s->children[j].store(
                p->children[slot].load(std::memory_order_relaxed),
                std::memory_order_relaxed);
            ++j;
          }
          s->num_children.store(j, std::memory_order_relaxed);
          ref.store(s, std::memory_order_release);
          retire_node(p);
          return;
        }
        detail::lock_version(p);
        const uint8_t slot_idx =
            p->child_index[byte].load(std::memory_order_relaxed);
        p->child_index[byte].store(detail::kEmptySlot,
                                   std::memory_order_relaxed);
        p->children[slot_idx].store(nullptr, std::memory_order_relaxed);
        p->num_children.fetch_sub(1, std::memory_order_relaxed);
        detail::unlock_version(p);
        return;
      }
      default: {
        auto* p = static_cast<Node256*>(n);
        const uint16_t nc = p->num_children.load(std::memory_order_relaxed);
        if (nc == 38) {  // dropping to 37: shrink to NODE48
          auto* s = alloc_node<Node48>(detail::kNode48);
          copy_header(s, p);
          for (uint32_t b = 0; b < 256; ++b)
            s->child_index[b].store(detail::kEmptySlot,
                                    std::memory_order_relaxed);
          uint16_t j = 0;
          for (uint32_t b = 0; b < 256; ++b) {
            if (b == byte) continue;
            Node* c = p->children[b].load(std::memory_order_relaxed);
            if (c == nullptr) continue;
            s->child_index[b].store(static_cast<uint8_t>(j),
                                    std::memory_order_relaxed);
            s->children[j].store(c, std::memory_order_relaxed);
            ++j;
          }
          s->num_children.store(j, std::memory_order_relaxed);
          ref.store(s, std::memory_order_release);
          retire_node(p);
          return;
        }
        detail::lock_version(p);
        p->children[byte].store(nullptr, std::memory_order_relaxed);
        p->num_children.fetch_sub(1, std::memory_order_relaxed);
        detail::unlock_version(p);
        return;
      }
    }
  }

  /// In-place sorted removal from a version-locked NODE4/16.
  template <class N>
  static void remove_sorted_locked(N* p, uint32_t byte, uint16_t nc) {
    uint16_t pos = 0;
    while (pos < nc && p->keys[pos].load(std::memory_order_relaxed) != byte)
      ++pos;
    for (uint16_t i = pos; i + 1 < nc; ++i) {
      p->keys[i].store(p->keys[i + 1].load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
      p->children[i].store(p->children[i + 1].load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
    }
    p->num_children.store(nc - 1, std::memory_order_relaxed);
  }

  // ---- optimistic descent --------------------------------------------------
  /// One validate-and-retry attempt (classic OLC interleaved validation:
  /// re-check the parent after pinning the child's version, so a child
  /// retired between the two reads forces a restart instead of a stale
  /// answer). ok == false: torn, caller retries.
  SearchResult search_attempt(Key k) const {
    const uint8_t kfp = fp_guard_ ? key_fingerprint(k) : uint8_t{0};
    Node* n = root_.load(std::memory_order_acquire);
    if (n == nullptr) return {nullptr, true};
    if (is_leaf(n)) {
      if (!fp_check(n, kfp)) return {nullptr, true};
      Leaf* l = as_leaf(n);
      if (leaf_matches(l, k)) return {l, true};
      if (fp_guard_) detail::fp_false_positive_counter().inc();
      return {nullptr, true};
    }
    uint64_t v;
    if (!detail::read_begin(n, &v)) return {nullptr, false};
    uint32_t depth = 0;
    for (;;) {
      const uint32_t plen = n->prefix_len;  // immutable once published
      const uint32_t m = std::min(plen, kMaxPrefixLen);
      bool mismatch = false;
      for (uint32_t i = 0; i < m; ++i)
        if (n->prefix[i] != key_at(k, depth + i)) {
          mismatch = true;
          break;
        }
      Node* child =
          mismatch ? nullptr : get_child(n, key_at(k, depth + plen));
      if (!detail::read_validate(n, v)) return {nullptr, false};
      if (mismatch || child == nullptr) return {nullptr, true};
      depth += plen + 1;
      if (is_leaf(child)) {
        // The parent validated above, so `child` is a consistent read; the
        // fingerprint decides off the pointer bits alone — a guarded miss
        // never dereferences the leaf (no PM key read).
        if (!fp_check(child, kfp)) return {nullptr, true};
        Leaf* l = as_leaf(child);
        if (leaf_matches(l, k)) return {l, true};
        if (fp_guard_) detail::fp_false_positive_counter().inc();
        return {nullptr, true};
      }
      uint64_t vc;
      if (!detail::read_begin(child, &vc)) return {nullptr, false};
      if (!detail::read_validate(n, v)) return {nullptr, false};
      n = child;
      v = vc;
    }
  }

  // ---- ordered walks -------------------------------------------------------
  template <class F>
  bool walk_all(const Node* n, F& fn) const {
    if (is_leaf(n)) return fn(as_leaf(n));
    return for_each_child(n,
                          [&](uint32_t, Node* c) { return walk_all(c, fn); });
  }

  /// -1: subtree entirely < lo is possible (prefix < lo segment)
  ///  0: prefix equals lo's bytes at [depth, depth+prefix_len)
  /// +1: subtree entirely >= lo (prefix > lo segment)
  int compare_prefix(const Node* n, Key lo, uint32_t depth) const {
    const uint32_t stored = std::min(n->prefix_len, kMaxPrefixLen);
    for (uint32_t i = 0; i < stored; ++i) {
      const uint32_t a = n->prefix[i];
      const uint32_t b = key_at(lo, depth + i);
      if (a != b) return a < b ? -1 : 1;
    }
    if (n->prefix_len > kMaxPrefixLen) {
      Leaf* ml = minimum(n);
      if (ml == nullptr) return -1;  // torn snapshot; caller revalidates
      const Key lk = traits_.key(ml);
      for (uint32_t i = stored; i < n->prefix_len; ++i) {
        const uint32_t a = key_at(lk, depth + i);
        const uint32_t b = key_at(lo, depth + i);
        if (a != b) return a < b ? -1 : 1;
      }
    }
    return 0;
  }

  template <class F>
  bool walk_from(const Node* n, Key lo, uint32_t depth, F& fn) const {
    if (is_leaf(n)) {
      Leaf* l = as_leaf(n);
      const Key lk = traits_.key(l);
      // Compare lk against lo from `depth` (all earlier bytes are equal on
      // the boundary path).
      const uint32_t end = std::max(key_len(lk), key_len(lo));
      for (uint32_t i = depth; i < end; ++i) {
        const uint32_t a = key_at(lk, i);
        const uint32_t b = key_at(lo, i);
        if (a != b) return a < b ? true : fn(l);
      }
      return fn(l);  // equal
    }
    if (n->prefix_len > 0) {
      const int c = compare_prefix(n, lo, depth);
      if (c < 0) return true;           // whole subtree < lo: skip
      if (c > 0) return walk_all(n, fn);  // whole subtree > lo
      depth += n->prefix_len;
    }
    const uint32_t b = key_at(lo, depth);
    return for_each_child(n, [&](uint32_t byte, Node* c) {
      if (byte < b) return true;
      if (byte > b) return walk_all(c, fn);
      return walk_from(c, lo, depth + 1, fn);
    });
  }

  Traits traits_;
  std::atomic<uint64_t>* dram_bytes_;
  common::ebr::Domain* ebr_;
  bool fp_guard_;
  std::atomic<Node*> root_{nullptr};
  std::atomic<size_t> count_{0};
};

}  // namespace hart::art
