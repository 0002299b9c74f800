// SIMD in-node search primitives for the ART descent hot path.
//
// Two operations dominate a radix descent once nodes fan out:
//
//   * find_byte16_vec — locate a key byte in a NODE16's 16-entry key array
//     (one _mm_cmpeq_epi8 + movemask instead of a scalar scan);
//   * next_occupied48_vec — find the next non-empty entry in a NODE48's
//     256-byte child_index (16B SSE2 / 32B AVX2 chunks instead of a
//     byte-at-a-time walk), used by ordered iteration and range scans.
//
// On x86-64 the vector paths are the only in-node search, with no build
// option or runtime switch (EXPERIMENTS.md, "Read fast-path ablation", has
// the A/B against a scalar-only build). A non-x86 target or a
// ThreadSanitizer build compiles them out (HART_SIMD == 0) and runs the
// scalar loops in art_tree.h instead. TSAN is excluded because the vector
// loads read std::atomic<uint8_t> arrays as raw 16/32-byte lanes —
// bit-identical layout and safe under the seqlock validation protocol, but
// indistinguishable from a data race to the instrumenter.
// next_occupied48_vec upgrades from SSE2 (x86-64 baseline) to AVX2 when the
// host supports it (cached cpuid probe).
//
// The scalar references are always compiled so the differential tests can
// compare vector vs scalar on any build.
#pragma once

#include <cstdint>

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HART_SIMD_TSAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define HART_SIMD_TSAN 1
#endif

#if !defined(HART_SIMD_TSAN) && (defined(__SSE2__) || defined(__x86_64__))
#define HART_SIMD 1
#else
#define HART_SIMD 0
#endif

#if HART_SIMD
#include <immintrin.h>
#endif

namespace hart::art::simd {

// ---- scalar references (always available) -------------------------------
/// Index of `byte` within keys[0, min(count,16)), or -1.
inline int find_byte16_scalar(const uint8_t* keys, unsigned count,
                              uint8_t byte) {
  const unsigned n = count < 16 ? count : 16;
  for (unsigned i = 0; i < n; ++i)
    if (keys[i] == byte) return static_cast<int>(i);
  return -1;
}

/// Smallest b in [start, 256) with idx[b] != empty, or 256.
inline unsigned next_occupied48_scalar(const uint8_t* idx, unsigned start,
                                       uint8_t empty) {
  for (unsigned b = start; b < 256; ++b)
    if (idx[b] != empty) return b;
  return 256;
}

#if HART_SIMD

/// Cached cpuid probe; the function-local static costs one branch per call.
inline bool avx2_available() {
  static const bool ok = __builtin_cpu_supports("avx2");
  return ok;
}

/// Vector find_byte16: one 16-byte compare + movemask. The load always
/// covers all 16 key bytes (in-bounds struct memory); lanes >= count are
/// masked off, so garbage beyond num_children cannot match.
inline int find_byte16_vec(const uint8_t* keys, unsigned count,
                           uint8_t byte) {
  const __m128i probe = _mm_set1_epi8(static_cast<char>(byte));
  const __m128i lane =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(keys));
  unsigned mask =
      static_cast<unsigned>(_mm_movemask_epi8(_mm_cmpeq_epi8(lane, probe)));
  mask &= count >= 16 ? 0xFFFFu : (1u << count) - 1;
  return mask != 0 ? __builtin_ctz(mask) : -1;
}

inline unsigned next_occupied48_sse2(const uint8_t* idx, unsigned start,
                                     uint8_t empty) {
  const __m128i e = _mm_set1_epi8(static_cast<char>(empty));
  unsigned head = 0xFFFFu << (start & 15u);
  for (unsigned b = start & ~15u; b < 256; b += 16) {
    const __m128i lane =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + b));
    unsigned neq = 0xFFFFu &
        ~static_cast<unsigned>(_mm_movemask_epi8(_mm_cmpeq_epi8(lane, e)));
    neq &= head;
    head = 0xFFFFu;
    if (neq != 0) return b + static_cast<unsigned>(__builtin_ctz(neq));
  }
  return 256;
}

__attribute__((target("avx2"))) inline unsigned next_occupied48_avx2(
    const uint8_t* idx, unsigned start, uint8_t empty) {
  const __m256i e = _mm256_set1_epi8(static_cast<char>(empty));
  uint32_t head = ~0u << (start & 31u);
  for (unsigned b = start & ~31u; b < 256; b += 32) {
    const __m256i lane =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + b));
    uint32_t neq = ~static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(lane, e)));
    neq &= head;
    head = ~0u;
    if (neq != 0) return b + static_cast<unsigned>(__builtin_ctz(neq));
  }
  return 256;
}

inline unsigned next_occupied48_vec(const uint8_t* idx, unsigned start,
                                    uint8_t empty) {
  return avx2_available() ? next_occupied48_avx2(idx, start, empty)
                          : next_occupied48_sse2(idx, start, empty);
}

#endif  // HART_SIMD

}  // namespace hart::art::simd
