// Tests for Hart::range's scan kernel: oracle parity against DramIndex on
// random trees (partition boundaries, mid-partition starts, starts past the
// last key, partitions emptied by deletes; limits from 1 to a full cursor
// batch), and a pin on the exact PM read charges a fixed set of scans
// incurs in both read modes.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "art/dram_index.h"
#include "common/rng.h"
#include "hart/hart.h"

namespace hart::core {
namespace {

using Rows = std::vector<std::pair<std::string, std::string>>;

/// Keys whose two hash-prefix bytes come from a four-letter alphabet, so
/// the default kh = 2 yields 16 partitions of a few hundred keys each. A
/// family of keys sharing a 14-byte tail prefix exercises the walk's
/// long-prefix (pessimistic) comparison on the boundary path.
std::set<std::string> make_keys(uint64_t seed, size_t n) {
  common::Rng rng(seed);
  std::set<std::string> keys;
  while (keys.size() < n) {
    std::string k;
    k.push_back(static_cast<char>('A' + rng.next_below(4)));
    k.push_back(static_cast<char>('A' + rng.next_below(4)));
    if (rng.next_below(16) == 0) k += "longsharedpfx_";
    const size_t len = 1 + rng.next_below(8);
    for (size_t j = 0; j < len; ++j)
      k.push_back(static_cast<char>('a' + rng.next_below(20)));
    keys.insert(k);
  }
  return keys;
}

std::string value_for(const std::string& k, size_t salt) {
  // Sizes 8..40 B: every value size class but the largest shows up.
  std::string v = "v" + std::to_string(salt) + ":" + k;
  v.resize(8 + (k.size() + salt) % 33, '.');
  return v;
}

/// The same key set in a Hart and in the DramIndex oracle: `n` keys
/// inserted, then partition "BC" deleted entirely and every fifth other
/// key deleted (holes mid-partition).
struct Pair {
  std::unique_ptr<pmem::Arena> arena;
  std::unique_ptr<Hart> hart;
  art::DramIndex oracle;

  Pair(uint64_t seed, size_t n, bool rwlock) {
    pmem::Arena::Options o;
    o.size = size_t{64} << 20;
    o.charge_alloc_persist = false;
    arena = std::make_unique<pmem::Arena>(o);
    Hart::Options ho;
    ho.rwlock_reads = rwlock;
    hart = std::make_unique<Hart>(*arena, ho);
    size_t i = 0;
    for (const std::string& k : make_keys(seed, n)) {
      const std::string v = value_for(k, i++);
      EXPECT_TRUE(hart->insert(k, v).ok());
      EXPECT_TRUE(oracle.insert(k, v).ok());
    }
    i = 0;
    for (const std::string& k : make_keys(seed, n)) {
      if (k.compare(0, 2, "BC") == 0 || i++ % 5 == 0) {
        EXPECT_TRUE(hart->remove(k).ok());
        EXPECT_TRUE(oracle.remove(k).ok());
      }
    }
  }
};

std::vector<std::string> start_keys(uint64_t seed) {
  std::vector<std::string> s = {
      "AA",                           // before every key: first partition
      "AB",                           // a partition boundary (kh bytes only)
      "ABa",                          // just past that boundary
      "BB" + std::string(20, 'z'),    // last possible key of a partition
      "BC",                           // a partition emptied by deletes
      "BCkkk",                        // mid-way through the emptied one
      "BClongsharedpfx_",             // long prefix inside the emptied one
      "CClongsharedpfx_",             // long-prefix family, mid-partition
      "CClongsharedpfx_m",
      "DD" + std::string(20, 'z'),    // past the last key: empty result
      "zz",                           // past every partition
  };
  const std::set<std::string> keys = make_keys(seed, 3000);
  size_t i = 0;
  for (const std::string& k : keys)  // existing keys, some deleted
    if (i++ % 97 == 0) s.push_back(k);
  common::Rng rng(seed + 1);  // absent keys, mid-partition
  for (int j = 0; j < 12; ++j) {
    std::string k;
    k.push_back(static_cast<char>('A' + rng.next_below(4)));
    k.push_back(static_cast<char>('A' + rng.next_below(4)));
    k.push_back(static_cast<char>('a' + rng.next_below(26)));
    k.push_back('_');
    s.push_back(k);
  }
  return s;
}

void expect_parity(bool rwlock) {
  constexpr uint64_t kSeed = 11;
  Pair p(kSeed, 3000, rwlock);
  for (const std::string& lo : start_keys(kSeed)) {
    for (const size_t limit : {1, 99, 100, 512, 4096}) {
      Rows got;
      Rows want;
      const size_t n = p.hart->range(lo, limit, &got);
      p.oracle.range(lo, limit, &want);
      ASSERT_EQ(n, got.size());
      ASSERT_EQ(got, want) << "lo=" << lo << " limit=" << limit;
    }
  }
  // Reusing one output vector (as HartCursor and the service do) must not
  // leak rows from the previous call.
  Rows reused;
  p.hart->range("AA", 4096, &reused);
  p.hart->range("DD", 3, &reused);
  Rows want;
  p.oracle.range("DD", 3, &want);
  EXPECT_EQ(reused, want);
}

TEST(HartScan, MatchesOracleOptimistic) { expect_parity(false); }
TEST(HartScan, MatchesOracleRwlock) { expect_parity(true); }

TEST(HartScan, CursorBatchesMatchOracle) {
  // A cursor batch as large as the biggest the service uses, across the
  // emptied partition and the holes.
  Pair p(5, 3000, false);
  Rows want;
  p.oracle.range("AA", 1 << 20, &want);
  HartCursor cur(*p.hart, "AA", 4096);
  size_t i = 0;
  for (; cur.valid(); cur.next(), ++i) {
    ASSERT_LT(i, want.size());
    ASSERT_EQ(cur.key(), want[i].first);
    ASSERT_EQ(cur.value(), want[i].second);
  }
  EXPECT_EQ(i, want.size());
}

/// Total PM lines charged by a fixed set of scans over a fixed tree.
uint64_t scan_read_lines(bool rwlock) {
  constexpr uint64_t kSeed = 23;
  Pair p(kSeed, 3000, rwlock);
  const uint64_t before = p.arena->stats().pm_read_lines.load();
  Rows out;
  for (const std::string& lo : start_keys(kSeed))
    for (const size_t limit : {1, 100, 512}) p.hart->range(lo, limit, &out);
  return p.arena->stats().pm_read_lines.load() - before;
}

// The scan kernel's prefetches are not PM reads: a scan must charge exactly
// the lines it did before the kernel existed — the boundary-path key reads
// of the ART walk plus one value object per emitted entry. The constants
// were measured on the pre-kernel implementation.
TEST(HartScan, PmReadChargesArePinned) {
  EXPECT_EQ(scan_read_lines(false), 43499u);
  EXPECT_EQ(scan_read_lines(true), 43499u);
}

}  // namespace
}  // namespace hart::core
