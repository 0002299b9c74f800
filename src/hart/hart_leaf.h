// HART's persistent leaf node (paper Fig. 1 / Fig. 3).
//
// Only leaf nodes (and value objects) live in PM; the complete key is stored
// in the leaf "for the purpose of failure recovery" (Section III.A.1) even
// though the ART path already encodes it. The value is out-of-leaf: the
// leaf holds an 8-byte pointer (arena offset) to a value object in one of
// the two EPallocator value size classes, which is what enables
// variable-size values (Section III.A.5).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/index.h"
#include "epalloc/allocator.h"
#include "pmem/arena.h"

namespace hart::core {

struct HartLeaf {
  char key[common::kMaxKeyLen];       // complete key (hash prefix + ART key)
  uint8_t key_len;                    // 1..24
  uint8_t val_len;                    // 1..64
  uint8_t val_class;                  // value class tag: 0/1/2/3 = 8/16/32/64 B
  // One-byte fingerprint of the leaf's ART key (FPTree-style; never 0 when
  // set, 0 = unset/pre-fingerprint image). Written with the rest of the
  // tail before the insert's leaf persist, so it needs no extra flush;
  // recovery re-derives the DRAM-side fingerprint tags from it (or from the
  // key bytes, fixing the persisted copy lazily if an image has 0 here).
  uint8_t key_fp;
  // Value seqlock for lock-free readers: odd while an in-place update swings
  // the tail (val_len/val_class/p_value), even when stable. Purely a runtime
  // protocol — recovery ignores it (replay re-derives the tail from logs).
  uint32_t vseq;
  // The value pointer and its metadata sit together at the leaf's tail so
  // an update can refresh all of them with a single flush (Alg. 3 line 8).
  uint64_t p_value;                   // arena offset of the value object
};
static_assert(sizeof(HartLeaf) == 40);
static_assert(offsetof(HartLeaf, vseq) % alignof(uint32_t) == 0);
static_assert(std::is_trivially_copyable_v<HartLeaf>);

inline epalloc::ObjType value_class_for(size_t len) {
  return epalloc::value_class_for_len(len);
}
inline uint8_t value_class_tag(epalloc::ObjType t) {
  return static_cast<uint8_t>(t) - 1;  // 0..3 for the four value classes
}
inline epalloc::ObjType value_class_of(const HartLeaf* l) {
  return static_cast<epalloc::ObjType>(l->val_class + 1);
}

/// EPallocator stale-value probe (Algorithm 2, lines 12-16): a free leaf
/// slot handed out by EPMalloc may still reference a value committed by a
/// prior incomplete insertion or deletion.
inline epalloc::LeafValueRef hart_leaf_probe(
    const pmem::Arena& arena, uint64_t leaf_off) {
  const auto* l = arena.ptr<HartLeaf>(leaf_off);
  epalloc::LeafValueRef ref;
  ref.value_off = l->p_value;
  ref.cls = value_class_of(l);
  return ref;
}

inline void hart_leaf_clear(pmem::Arena& arena, uint64_t leaf_off) {
  auto* l = arena.ptr<HartLeaf>(leaf_off);
  // Atomic store: an optimistic reader may race this clear; p_value == 0
  // is its "leaf deleted" signal.
  std::atomic_ref<uint64_t>(l->p_value)
      .store(0, std::memory_order_release);  // p_value = NULL (Alg. 2 l.16)
  arena.trace_store(&l->p_value, sizeof(l->p_value));
  arena.persist(&l->p_value, sizeof(l->p_value));
}

}  // namespace hart::core
