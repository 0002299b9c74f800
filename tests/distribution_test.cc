// Tests for the request distributions (Zipfian / Latest / Uniform) and
// their integration with the mixed-workload generator.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <vector>

#include "workload/distribution.h"
#include "workload/mixes.h"

namespace hart::workload {
namespace {

TEST(Zipfian, StaysInRange) {
  common::Rng rng(1);
  ZipfianGen z;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t v = z.next_below(1000, rng);
    EXPECT_LT(v, 1000u);
  }
}

TEST(Zipfian, IsHeavilySkewedTowardLowRanks) {
  common::Rng rng(2);
  ZipfianGen z;
  constexpr int kDraws = 100000;
  constexpr uint64_t kN = 10000;
  uint64_t in_top_10 = 0, in_top_100 = 0;
  for (int i = 0; i < kDraws; ++i) {
    const uint64_t v = z.next_below(kN, rng);
    in_top_10 += v < 10;
    in_top_100 += v < 100;
  }
  // theta=0.99 Zipf over 10k items: top-10 gets roughly a third of all
  // accesses, top-100 roughly half. Loose bounds:
  EXPECT_GT(in_top_10, kDraws / 5);
  EXPECT_GT(in_top_100, kDraws / 3);
  EXPECT_LT(in_top_10, kDraws * 3 / 4);
}

TEST(Zipfian, GrowingDomainKeepsWorking) {
  common::Rng rng(3);
  ZipfianGen z;
  for (uint64_t n = 2; n <= 4096; n *= 2)
    for (int i = 0; i < 500; ++i) EXPECT_LT(z.next_below(n, rng), n);
  // Shrinking afterwards also works (recompute path).
  for (int i = 0; i < 500; ++i) EXPECT_LT(z.next_below(100, rng), 100u);
}

TEST(Zipfian, IncrementalZetaMatchesFromScratchSum) {
  // A churn mix moves the live count up and down by a few keys per op;
  // each move adjusts zeta by the changed terms only. After a million
  // alternating grow/shrink steps the running sum must still equal a
  // from-scratch sum.
  common::Rng rng(9);
  ZipfianGen z;
  uint64_t n = 5000;
  for (int step = 0; step < 1000000; ++step) {
    const uint64_t d = 1 + rng.next_below(8);
    n = step % 2 == 0 ? n + d : n - std::min(d, n - 1);
    EXPECT_LT(z.next_below(n, rng), n);
  }
  double fresh = 0;
  for (uint64_t i = 0; i < n; ++i)
    fresh += 1.0 / std::pow(static_cast<double>(i + 1), 0.99);
  EXPECT_NEAR(z.zeta(), fresh, 1e-9 * fresh) << "n=" << n;
}

TEST(Zipfian, ChurnMixCostDoesNotGrowWithLiveCount) {
  // Read-Intensive deletes shrink the live count, and each shrink used to
  // re-sum zeta from 1: generation time grew linearly with the live count
  // (about 4x from 10k to 40k live keys). Now both sizes cost about the
  // same; the bound leaves room for a loaded host.
  auto best_of_3 = [](size_t live) {
    double best = 1e9;
    for (int r = 0; r < 3; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      const auto ops = make_mixed_ops(20000, live, live + 20000,
                                      kReadIntensive, 3, DistKind::kZipfian);
      const std::chrono::duration<double> dt =
          std::chrono::steady_clock::now() - t0;
      EXPECT_EQ(ops.size(), 20000u);
      best = std::min(best, dt.count());
    }
    return best;
  };
  const double small = best_of_3(10000);
  const double large = best_of_3(40000);
  EXPECT_LT(large, 2.5 * small + 0.02) << small << " s vs " << large << " s";
}

TEST(Latest, FavorsHighestIndices) {
  common::Rng rng(4);
  RequestDist d(DistKind::kLatest);
  constexpr uint64_t kN = 10000;
  uint64_t in_newest_100 = 0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    const uint64_t v = d.next_below(kN, rng);
    ASSERT_LT(v, kN);
    in_newest_100 += v >= kN - 100;
  }
  EXPECT_GT(in_newest_100, kDraws / 3);
}

TEST(Uniform, IsNotSkewed) {
  common::Rng rng(5);
  RequestDist d(DistKind::kUniform);
  uint64_t low_half = 0;
  for (int i = 0; i < 50000; ++i) low_half += d.next_below(1000, rng) < 500;
  EXPECT_NEAR(low_half, 25000, 1500);
}

TEST(RequestDist, DegenerateDomains) {
  common::Rng rng(6);
  for (const DistKind k :
       {DistKind::kUniform, DistKind::kZipfian, DistKind::kLatest}) {
    RequestDist d(k);
    EXPECT_EQ(d.next_below(0, rng), 0u);
    EXPECT_EQ(d.next_below(1, rng), 0u);
  }
}

TEST(MixesWithDistributions, ZipfianMixTargetsHotKeys) {
  // Read-Modified-Write keeps the live set stable, so the Zipfian skew
  // shows up directly as per-key concentration.
  const auto ops = make_mixed_ops(50000, 5000, 60000, kReadModifyWrite, 7,
                                  DistKind::kZipfian);
  std::map<uint32_t, uint64_t> freq;
  for (const auto& op : ops) ++freq[op.key_idx];
  uint64_t max_freq = 0;
  for (const auto& [idx, f] : freq) max_freq = std::max(max_freq, f);
  // Uniform expectation is 10 per key; the Zipf hot key gets orders of
  // magnitude more.
  EXPECT_GT(max_freq, 1000u);
}

TEST(MixesWithDistributions, ReplayValiditySkewed) {
  // Same live-set validity as the uniform case: skew must never produce an
  // op on a dead key.
  const size_t preload = 300;
  const auto ops = make_mixed_ops(20000, preload, 50000, kReadIntensive,
                                  11, DistKind::kLatest);
  std::map<uint32_t, bool> live;
  for (uint32_t i = 0; i < preload; ++i) live[i] = true;
  for (const auto& op : ops) {
    switch (op.type) {
      case OpType::kInsert:
        EXPECT_FALSE(live.count(op.key_idx) && live[op.key_idx]);
        live[op.key_idx] = true;
        break;
      case OpType::kDelete:
        EXPECT_TRUE(live[op.key_idx]);
        live[op.key_idx] = false;
        break;
      default:
        EXPECT_TRUE(live[op.key_idx]);
    }
  }
}

}  // namespace
}  // namespace hart::workload
