// Stress tests for HART's optimistic lock-free read path (versioned ART
// nodes + epoch-based reclamation). Readers race writers that continuously
// grow, shrink and delete nodes in a SINGLE partition (shared 2-byte
// prefix), the worst case for the seqlock validation: every structural
// change and every value update bumps a version a reader may be
// validating against.
//
// Invariants checked:
//   * no torn reads — every returned value is internally consistent
//     (single repeated character, the writers only store such values);
//   * optimistic retries actually happen (art_optimistic_retry_total
//     moves) — the test is exercising contended validation, not an idle
//     fast path;
//   * frees are deferred through EBR (ebr_deferred_free_total moves) and
//     reclaimed on quiesce();
//   * multi_get and range agree with the same invariants under churn;
//   * range scans and cursors that cross a churned partition stay sorted,
//     start at their lower bound and lose no key a writer never touched;
//   * the EBR advance cadence restarts with every fresh Hart, so two
//     identical op streams cost identical PM work.
//
// Run under TSAN (HART_SANITIZE=thread) this doubles as the data-race
// proof for the whole read protocol; the CI tsan-stress job does exactly
// that.
#include <gtest/gtest.h>

#include "checked_arena.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/ebr.h"
#include "common/rng.h"
#include "hart/hart.h"
#include "obs/counters.h"

namespace hart::core {
namespace {

testutil::CheckedArena make_arena(size_t mb = 256) {
  pmem::Arena::Options o;
  o.size = mb << 20;
  o.charge_alloc_persist = false;
  return testutil::make_checked_arena(o);
}

uint64_t ctr(const char* name) {
  return obs::Registry::instance().counter(name).value();
}

/// Writers only ever store values that repeat one character; a read that
/// observes anything else is torn.
bool untorn(const std::string& v) {
  for (const char c : v)
    if (c != v.front()) return false;
  return !v.empty();
}

std::string churn_key(int i) { return "zz" + std::to_string(i); }

TEST(HartOptimistic, ReadersNeverSeeTornValuesUnderChurn) {
  auto arena = make_arena();
  Hart h(*arena);
  constexpr int kKeys = 512;
  for (int i = 0; i < kKeys; i += 2)
    ASSERT_EQ(h.insert(churn_key(i), std::string(8, 'a')), common::Status::kInserted);

  const uint64_t retries0 = ctr("art_optimistic_retry_total");
  const uint64_t deferred0 = ctr("ebr_deferred_free_total");

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};
  std::atomic<uint64_t> hits{0};

  // Two writers churning one ART: inserts force NODE4->16->48 growth and
  // prefix splits, removes force shrink/collapse, updates swing value
  // pointers across size classes.
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&h, &stop, w] {
      common::Rng rng(w * 31 + 7);
      int round = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const int i = static_cast<int>(rng.next_below(kKeys));
        const std::string v(1 + (i + round) % 24,
                            static_cast<char>('a' + round % 26));
        switch (rng.next_below(4)) {
          case 0:
          case 1:
            h.insert(churn_key(i), v);
            break;
          case 2:
            h.update(churn_key(i), v);
            break;
          default:
            h.remove(churn_key(i));
            break;
        }
        ++round;
      }
    });
  }

  // Six readers: point lookups, batched lookups, range scans.
  std::vector<std::thread> readers;
  for (int t = 0; t < 6; ++t) {
    readers.emplace_back([&, t] {
      common::Rng rng(t + 101);
      std::string v;
      std::vector<std::string> batch;
      std::vector<std::string> vals;
      std::vector<bool> found;
      std::vector<std::pair<std::string, std::string>> out;
      while (!stop.load(std::memory_order_relaxed)) {
        const int i = static_cast<int>(rng.next_below(kKeys));
        if (h.search(churn_key(i), &v).ok()) {
          hits.fetch_add(1, std::memory_order_relaxed);
          if (!untorn(v)) torn.fetch_add(1, std::memory_order_relaxed);
        }
        if (t % 3 == 0) {  // batched reads
          batch.clear();
          for (int j = 0; j < 16; ++j)
            batch.push_back(churn_key(static_cast<int>(
                rng.next_below(kKeys))));
          h.multi_get(batch, &vals, &found);
          for (size_t j = 0; j < batch.size(); ++j)
            if (found[j] && !untorn(vals[j]))
              torn.fetch_add(1, std::memory_order_relaxed);
        } else if (t % 3 == 1) {  // range scans must stay sorted + untorn
          h.range(churn_key(i), 32, &out);
          for (size_t j = 0; j < out.size(); ++j) {
            if (!untorn(out[j].second))
              torn.fetch_add(1, std::memory_order_relaxed);
            if (j > 0 && !(out[j - 1].first < out[j].first))
              torn.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  // Run until the contention counters prove the optimistic machinery was
  // exercised (typically milliseconds), hard cap 20s.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline &&
         (ctr("art_optimistic_retry_total") == retries0 ||
          ctr("ebr_deferred_free_total") == deferred0))
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  // Let the race soak a little beyond the first retry.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  for (auto& th : writers) th.join();
  for (auto& th : readers) th.join();

  EXPECT_EQ(torn.load(), 0u) << "optimistic read returned a torn value";
  EXPECT_GT(hits.load(), 0u);
  EXPECT_GT(ctr("art_optimistic_retry_total"), retries0)
      << "no optimistic retry ever happened - the test exercised nothing";
  EXPECT_GT(ctr("ebr_deferred_free_total"), deferred0)
      << "no free was deferred through EBR";

  // Reclamation completes at quiesce: what is left live in the allocator
  // must match the surviving keys (no leak from the deferred frees).
  h.quiesce();
  size_t live = 0;
  for (int i = 0; i < kKeys; ++i) {
    std::string v;
    if (h.search(churn_key(i), &v).ok()) {
      ++live;
      EXPECT_TRUE(untorn(v));
    }
  }
  EXPECT_EQ(h.size(), live);

  // And recovery sees exactly the same state (EBR never touched PM
  // durability: retired slots were persistently freed eagerly).
  Hart h2(*arena);
  EXPECT_EQ(h2.size(), live);
}

TEST(HartOptimistic, EpochsAdvanceAndReclaimDram) {
  auto arena = make_arena(64);
  Hart h(*arena);
  const uint64_t advances0 = ctr("ebr_epoch_advance_total");
  // Enough churn to cycle several epochs (advance is attempted once a
  // retire batch fills).
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 2000; ++i)
      h.insert("ep" + std::to_string(i), std::string(8, 'x'));
    for (int i = 0; i < 2000; ++i) h.remove("ep" + std::to_string(i));
  }
  h.quiesce();
  EXPECT_GT(ctr("ebr_epoch_advance_total"), advances0);
  EXPECT_EQ(h.size(), 0u);
  // All retired PM slots were recycled by the drain.
  EXPECT_EQ(arena->stats().pm_live_bytes.load(), 0u);
}

TEST(HartOptimistic, RwlockAblationServesSameContract) {
  auto arena = make_arena(64);
  Hart h(*arena, {.rwlock_reads = true});
  const uint64_t deferred0 = ctr("ebr_deferred_free_total");
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};
  std::thread writer([&] {
    common::Rng rng(5);
    int round = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const int i = static_cast<int>(rng.next_below(128));
      const std::string v(1 + i % 16, static_cast<char>('a' + round % 26));
      if (rng.next_below(3) == 0)
        h.remove(churn_key(i));
      else
        h.insert(churn_key(i), v);
      ++round;
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      common::Rng rng(t + 40);
      std::string v;
      for (int n = 0; n < 20000; ++n)
        if (h.search(churn_key(static_cast<int>(rng.next_below(128))), &v).ok() &&
            !untorn(v))
          torn.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (auto& th : readers) th.join();
  stop.store(true);
  writer.join();
  EXPECT_EQ(torn.load(), 0u);
  // The ablation frees eagerly: nothing went through the EBR limbo.
  EXPECT_EQ(ctr("ebr_deferred_free_total"), deferred0);
}

/// Stable keys ("no writer touches them") fill partitions "sa" and "sc"
/// and every other slot of partition "sb"; churn keys fill the slots in
/// between, so a scan through "sb" meets leaves deleted under it.
std::string stable_key(char part, int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "s%c%04d0", part, i);
  return buf;
}
std::string churn_slot(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "sb%04d5", i);
  return buf;
}

TEST(HartOptimistic, ScansLoseNoUntouchedKeyUnderWriters) {
  auto arena = make_arena(64);
  Hart h(*arena);
  constexpr int kPerPart = 300;
  std::vector<std::string> stable;
  for (const char part : {'a', 'b', 'c'})
    for (int i = 0; i < kPerPart; ++i) stable.push_back(stable_key(part, i));
  std::sort(stable.begin(), stable.end());
  for (const std::string& k : stable)
    ASSERT_EQ(h.insert(k, std::string(8, 'k')), common::Status::kInserted);
  for (int i = 0; i < kPerPart; i += 2)
    ASSERT_EQ(h.insert(churn_slot(i), std::string(8, 'c')),
              common::Status::kInserted);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bad{0};
  std::atomic<uint64_t> scans{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&h, &stop, w] {
      common::Rng rng(w * 17 + 3);
      int round = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string k =
            churn_slot(static_cast<int>(rng.next_below(kPerPart)));
        const std::string v(1 + round % 40,
                            static_cast<char>('a' + round % 26));
        switch (rng.next_below(3)) {
          case 0: h.insert(k, v); break;
          case 1: h.update(k, v); break;
          default: h.remove(k); break;
        }
        ++round;
      }
    });
  }

  // Every stable key in [lo, last returned key] — or in [lo, end) when
  // the scan came back short of its limit — must be in the result.
  auto check = [&](const std::string& lo, size_t limit,
                   const std::vector<std::pair<std::string, std::string>>&
                       out) {
    if (!out.empty() && out.front().first < lo) bad.fetch_add(1);
    for (size_t j = 0; j < out.size(); ++j) {
      if (!untorn(out[j].second)) bad.fetch_add(1);
      if (j > 0 && !(out[j - 1].first < out[j].first)) bad.fetch_add(1);
    }
    const auto first = std::lower_bound(stable.begin(), stable.end(), lo);
    const auto last =
        out.size() < limit
            ? stable.end()
            : std::upper_bound(stable.begin(), stable.end(),
                               out.back().first);
    size_t seen = 0;
    for (const auto& [k, v] : out)
      seen += std::binary_search(first, last, k) ? 1 : 0;
    if (first < last && seen != static_cast<size_t>(last - first))
      bad.fetch_add(1);
  };

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      common::Rng rng(t + 71);
      std::vector<std::pair<std::string, std::string>> out;
      for (int n = 0; n < 400; ++n) {
        if (t == 2 && n % 40 == 0) {  // a cursor walks all three partitions
          std::vector<std::pair<std::string, std::string>> walked;
          for (HartCursor c(h, "sa", 1 + n % 97); c.valid(); c.next())
            walked.emplace_back(c.key(), c.value());
          check("sa", SIZE_MAX, walked);
        }
        const char part = static_cast<char>('a' + rng.next_below(3));
        const std::string lo =
            stable_key(part, static_cast<int>(rng.next_below(kPerPart)));
        const size_t limit = 1 + rng.next_below(2 * kPerPart);
        h.range(lo, limit, &out);
        check(lo, limit, out);
        scans.fetch_add(1);
      }
    });
  }
  for (auto& th : readers) th.join();
  stop.store(true);
  for (auto& th : writers) th.join();
  EXPECT_EQ(bad.load(), 0u) << "a scan lost, reordered or tore an entry";
  EXPECT_EQ(scans.load(), 1200u);
}

/// PM work of one fixed op stream on a fresh Hart, plus how many items it
/// retired through EBR.
struct StreamCost {
  uint64_t persists, read_lines, allocs, frees, retires;
  bool operator==(const StreamCost&) const = default;
};

StreamCost replay_stream() {
  pmem::Arena::Options o;
  o.size = size_t{64} << 20;
  pmem::Arena arena(o);
  const pmem::StatsSnapshot s0 = arena.stats().snapshot();
  const uint64_t r0 = ctr("ebr_deferred_free_total");
  {
    Hart h(arena);
    for (int i = 0; i < 700; ++i)
      h.insert("cad" + std::to_string(i), std::string(8, 'a'));
    for (int round = 0; round < 9; ++round) {
      for (int i = 0; i < 60; ++i) h.remove("cad" + std::to_string(round * 60 + i));
      for (int i = 0; i < 35; ++i)
        h.insert("new" + std::to_string(round * 35 + i), std::string(16, 'b'));
      for (int i = 0; i < 7; ++i)
        h.update("cad" + std::to_string(600 + round * 7 + i), std::string(32, 'c'));
      std::string v;
      for (int i = 0; i < 50; ++i) h.search("cad" + std::to_string(i * 13), &v);
    }
  }  // ~Hart drains the domain
  const pmem::StatsSnapshot s1 = arena.stats().snapshot();
  return {s1.persist_calls - s0.persist_calls,
          s1.pm_read_lines - s0.pm_read_lines, s1.alloc_calls - s0.alloc_calls,
          s1.free_calls - s0.free_calls, ctr("ebr_deferred_free_total") - r0};
}

TEST(HartOptimistic, EbrCadenceRestartsWithEachInstance) {
  // The domain is process-wide: without a cadence restart, the first
  // instance's retire count (mod the advance interval) would shift every
  // advance — and with it slot reuse and chunk recycling — of the second.
  const StreamCost first = replay_stream();
  ASSERT_GE(first.retires, 200u);
  ASSERT_NE(first.retires % common::ebr::kAdvanceEvery, 0u);
  const StreamCost second = replay_stream();
  EXPECT_EQ(first.persists, second.persists);
  EXPECT_EQ(first.read_lines, second.read_lines);
  EXPECT_EQ(first.allocs, second.allocs);
  EXPECT_EQ(first.frees, second.frees);
  EXPECT_EQ(first.retires, second.retires);
}

}  // namespace
}  // namespace hart::core
