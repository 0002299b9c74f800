// Differential tests for the SIMD in-node search primitives (art/simd.h):
// the vector paths must be bit-identical to the always-compiled scalar
// references over every occupancy, and a whole tree must answer searches
// and iterate in sorted key order over every node width. The tree test runs
// the vector path in a default x86-64 build and the scalar loops under
// ThreadSanitizer, which compiles the vector path out.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "art/art_tree.h"
#include "art/simd.h"
#include "common/rng.h"

namespace hart::art {
namespace {

struct TestLeaf {
  std::string key;
};

struct TestTraits {
  using Leaf = TestLeaf;
  Key key(const Leaf* l) const {
    return {reinterpret_cast<const uint8_t*>(l->key.data()), l->key.size()};
  }
};

Key k(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

// The *_vec / *_sse2 / *_avx2 symbols only exist when the vector paths are
// compiled in, so the differential tests are preprocessor-gated (TSAN and
// non-x86 builds still compile this file and run the tree test).
#if HART_SIMD

TEST(ArtSimd, FindByte16MatchesScalarExhaustively) {
  common::Rng rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    uint8_t keys[16];
    for (auto& b : keys) b = static_cast<uint8_t>(rng.next());
    if (trial % 3 == 0) keys[rng.next() % 16] = keys[rng.next() % 16];
    for (unsigned count = 0; count <= 16; ++count) {
      for (unsigned byte = 0; byte < 256; ++byte) {
        const auto want = simd::find_byte16_scalar(
            keys, count, static_cast<uint8_t>(byte));
        const auto got =
            simd::find_byte16_vec(keys, count, static_cast<uint8_t>(byte));
        ASSERT_EQ(got, want)
            << "count=" << count << " byte=" << byte << " trial=" << trial;
      }
    }
  }
}

TEST(ArtSimd, FindByte16IgnoresLanesBeyondCount) {
  // Garbage past num_children must never match: plant the probe byte in
  // every masked-off lane.
  uint8_t keys[16];
  std::memset(keys, 0x7A, sizeof(keys));
  for (unsigned count = 0; count < 16; ++count) {
    uint8_t k16[16];
    std::memset(k16, 0x01, sizeof(k16));
    for (unsigned i = count; i < 16; ++i) k16[i] = 0x7A;
    EXPECT_EQ(simd::find_byte16_vec(k16, count, 0x7A), -1) << count;
  }
  EXPECT_EQ(simd::find_byte16_vec(keys, 16, 0x7A), 0);
}

TEST(ArtSimd, NextOccupied48MatchesScalarAcrossDensities) {
  common::Rng rng(7);
  const uint8_t empty = detail::kEmptySlot;
  for (const int fill_pct : {0, 1, 10, 50, 90, 100}) {
    for (int trial = 0; trial < 20; ++trial) {
      uint8_t idx[256];
      std::memset(idx, empty, sizeof(idx));
      for (unsigned b = 0; b < 256; ++b)
        if (static_cast<int>(rng.next() % 100) < fill_pct)
          idx[b] = static_cast<uint8_t>(rng.next() % 48);
      for (unsigned start = 0; start <= 256; ++start) {
        const auto want = simd::next_occupied48_scalar(idx, start, empty);
        ASSERT_EQ(simd::next_occupied48_sse2(idx, start, empty), want)
            << "sse2 start=" << start << " fill=" << fill_pct;
        ASSERT_EQ(simd::next_occupied48_vec(idx, start, empty), want)
            << "vec start=" << start << " fill=" << fill_pct;
        if (simd::avx2_available())
          ASSERT_EQ(simd::next_occupied48_avx2(idx, start, empty), want)
              << "avx2 start=" << start << " fill=" << fill_pct;
      }
    }
  }
}

#endif  // HART_SIMD

// Whole-tree check: every key is found, absent bytes miss inside each node
// width, and for_each visits the keys in sorted order.
TEST(ArtSimd, TreeSearchAndIterationMatchSortedKeys) {
  std::atomic<uint64_t> dram{0};
  Tree<TestTraits> tree(TestTraits{}, &dram);
  std::vector<std::unique_ptr<TestLeaf>> leaves;
  std::vector<std::string> keys;
  std::vector<std::string> absent;
  // Fanouts 3 / 12 / 40 / 200 under distinct prefixes: Node4, Node16,
  // Node48 and Node256 interior nodes all on live search paths.
  const struct {
    const char* prefix;
    int fanout;
  } shapes[] = {{"aa", 3}, {"bb", 12}, {"cc", 40}, {"dd", 200}};
  for (const auto& s : shapes) {
    for (int i = 0; i < s.fanout; ++i) {
      std::string key = std::string(s.prefix) +
                        static_cast<char>(1 + i) + "suffix";
      leaves.push_back(std::make_unique<TestLeaf>(TestLeaf{key}));
      HARTLINT_SUPPRESS("HL003: single-threaded test tree, eager frees")
      ASSERT_EQ(tree.insert(k(key), leaves.back().get()), nullptr);
      keys.push_back(std::move(key));
    }
    absent.push_back(std::string(s.prefix) +
                     static_cast<char>(1 + s.fanout) + "suffix");
  }

  for (const auto& key : keys) {
    TestLeaf* l = tree.search(k(key));
    ASSERT_NE(l, nullptr) << key;
    EXPECT_EQ(l->key, key);
    EXPECT_EQ(tree.search(k(key + "x")), nullptr) << key;
  }
  for (const auto& key : absent) EXPECT_EQ(tree.search(k(key)), nullptr);

  std::vector<std::string> found;
  tree.for_each([&](TestLeaf* l) {
    found.push_back(l->key);
    return true;
  });
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(found, keys);
}

}  // namespace
}  // namespace hart::art
