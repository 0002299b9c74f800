// Allocator format and batched-metadata crash-repair tests. The golden
// arena test pins the persistent format (chunk lists, headers, micro-logs,
// leaves, values) against an image written by the former single-instance
// allocator, so the format cannot drift silently. The batched chunk-header
// schedule introduces two recoverable torn shapes (an in-flight delete
// whose header clears were deferred, and a committed value orphaned by
// such a delete); the remaining tests pin both the deterministic repairs
// and a crash sweep across the persist stream.
#include <gtest/gtest.h>

#include "checked_arena.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "hart/hart.h"
#include "hart/verify.h"
#include "obs/counters.h"
#include "workload/keygen.h"

namespace hart::core {
namespace {

testutil::CheckedArena make_arena(bool shadow = false) {
  pmem::Arena::Options o;
  o.size = size_t{64} << 20;
  o.shadow = shadow;
  o.charge_alloc_persist = false;
  return testutil::make_checked_arena(o);
}

Hart::Options batched() {
  Hart::Options o;
  o.batched_meta = true;
  return o;
}

uint64_t counter_value(const char* name) {
  return obs::Registry::instance().counter(name).value();
}

// ---- golden arena ---------------------------------------------------------
//
// tests/alloc_golden_arena.inc is the image a Hart left behind at commit
// a9213d9, the last commit with the single-instance allocator (the
// paper's EPallocator as a separate class: one lock domain, every chunk
// header persisted inline). It was generated once, by a program that is
// not kept because it needs that deleted class:
//   * a 4 MiB anonymous arena, charge_alloc_persist off, Hart defaults
//     (kh = 2) with the single-instance allocator selected;
//   * golden_stream() below, applied op by op (every op must succeed);
//   * the Hart destroyed cleanly, then every nonzero 64-byte line of the
//     arena (header included) dumped as {offset, hex}.
// The image held 133 live keys, 11 chunks, and verified clean.

struct GoldenLine {
  uint64_t off;
  const char* hex;  // 64 bytes
};
constexpr GoldenLine kGoldenArena[] = {
#include "alloc_golden_arena.inc"
};
constexpr size_t kGoldenArenaBytes = size_t{4} << 20;

enum class Op { kInsert, kUpdate, kRemove };

uint64_t splitmix64(uint64_t* s) {
  uint64_t z = (*s += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// `n` distinct alphanumeric keys of 4..12 bytes. Self-contained, so the
/// golden image does not depend on the workload generators.
std::vector<std::string> stream_keys(size_t n, uint64_t seed) {
  static const char kAlpha[] =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
  std::vector<std::string> out;
  std::set<std::string> seen;
  while (out.size() < n) {
    std::string k(4 + splitmix64(&seed) % 9, ' ');
    for (char& c : k) c = kAlpha[splitmix64(&seed) % 62];
    if (seen.insert(k).second) out.push_back(k);
  }
  return out;
}

/// The stream that wrote the golden image: two churn rounds over 150 and
/// 50 keys. Each round inserts its keys (values of every size class),
/// updates every 5th to a value of another length (class-changing
/// updates go through the update micro-log), then deletes every 3rd.
template <class F>
void golden_stream(F&& apply) {
  const auto keys = stream_keys(200, 0x601DE4A);
  const size_t rounds[2][2] = {{0, 150}, {150, 200}};
  for (const auto& r : rounds) {
    for (size_t i = r[0]; i < r[1]; ++i)
      apply(Op::kInsert, keys[i],
            std::string(1 + (i * 13) % 64, static_cast<char>('a' + i % 26)));
    for (size_t i = r[0]; i < r[1]; i += 5)
      apply(Op::kUpdate, keys[i],
            std::string(1 + (i * 29 + 17) % 64,
                        static_cast<char>('A' + i % 26)));
    for (size_t i = r[0]; i < r[1]; i += 3) apply(Op::kRemove, keys[i], "");
  }
}

/// Writes the golden image into a sparse file of kGoldenArenaBytes.
void write_golden_file(const std::string& path) {
  std::filesystem::remove(path);
  { std::ofstream create(path, std::ios::binary); }
  std::filesystem::resize_file(path, kGoldenArenaBytes);
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f) << path;
  for (const GoldenLine& line : kGoldenArena) {
    char bytes[64];
    for (size_t i = 0; i < sizeof(bytes); ++i) {
      unsigned v = 0;
      ASSERT_EQ(std::sscanf(line.hex + 2 * i, "%2x", &v), 1);
      bytes[i] = static_cast<char>(v);
    }
    f.seekp(static_cast<std::streamoff>(line.off));
    f.write(bytes, sizeof(bytes));
  }
  ASSERT_TRUE(f.good());
}

void expect_matches(const Hart& h,
                    const std::map<std::string, std::string>& model,
                    const std::vector<std::string>& all_keys) {
  EXPECT_EQ(h.size(), model.size());
  for (const auto& k : all_keys) {
    std::string v;
    const auto it = model.find(k);
    if (it != model.end()) {
      ASSERT_EQ(h.search(k, &v), common::Status::kOk) << k;
      EXPECT_EQ(v, it->second) << k;
    } else {
      EXPECT_EQ(h.search(k, nullptr), common::Status::kNotFound) << k;
    }
  }
}

void expect_clean_image(const pmem::Arena& arena) {
  const VerifyReport rep = verify_hart_image(arena);
  EXPECT_TRUE(rep.issues.empty()) << rep.summary();
}

TEST(AllocParity, GoldenArenaReopensWithEveryKeyIntact) {
  std::map<std::string, std::string> model;
  golden_stream([&](Op op, const std::string& k, const std::string& v) {
    if (op == Op::kRemove) {
      model.erase(k);
    } else {
      model[k] = v;
    }
  });
  const auto all_keys = stream_keys(200, 0x601DE4A);
  ASSERT_EQ(model.size(), 133u);

  const std::string path = testing::TempDir() + "alloc_golden.arena";
  write_golden_file(path);
  pmem::Arena::Options o;
  o.size = kGoldenArenaBytes;
  o.charge_alloc_persist = false;
  o.file_path = path;
  {
    auto arena = testutil::make_checked_arena(o);
    ASSERT_TRUE(arena->reopened());
    expect_clean_image(*arena);  // the raw image, before any recovery
    Hart h(*arena);              // Algorithm 7 over the golden image
    expect_matches(h, model, all_keys);
    // The recovered tree keeps working on the old image: delete half the
    // survivors and re-insert the deleted keys with new values.
    size_t i = 0;
    for (const auto& k : all_keys) {
      if (model.contains(k)) {
        if (i++ % 2 == 0) {
          ASSERT_EQ(h.remove(k), common::Status::kOk) << k;
          model.erase(k);
        }
      } else {
        const std::string v(1 + k.size() * 5, 'r');
        ASSERT_EQ(h.insert(k, v), common::Status::kInserted) << k;
        model[k] = v;
      }
    }
  }
  {
    auto arena = testutil::make_checked_arena(o);
    expect_clean_image(*arena);
    Hart h(*arena);
    expect_matches(h, model, all_keys);
  }
  std::filesystem::remove(path);
}

// Deterministic batched-metadata repairs: fence a populated tree, delete
// one key without fencing, crash. The leaf's p_value clear is eager, the
// header-bit clears were deferred — recovery must complete the delete
// (R1) and sweep the now-orphaned committed value (R3).
TEST(AllocParity, BatchedDeleteCrashCompletesOnRecovery) {
  auto arena = make_arena(/*shadow=*/true);
  const auto keys = workload::make_random(50, 33, 4, 12);
  const uint64_t deletes0 =
      counter_value("hart_recover_completed_deletes_total");
  const uint64_t orphans0 = counter_value("hart_recover_orphan_values_total");
  {
    Hart h(*arena, batched());
    for (const auto& k : keys) h.insert(k, "v-" + k.substr(0, 4));
    h.flush_epoch();  // all 50 inserts durable
    ASSERT_EQ(h.remove(keys[7]), common::Status::kOk);
    arena->crash();  // deferred header clears are lost; p_value=0 survives
  }
  Hart h2(*arena, batched());
  EXPECT_EQ(counter_value("hart_recover_completed_deletes_total"),
            deletes0 + 1);
  EXPECT_EQ(counter_value("hart_recover_orphan_values_total"), orphans0 + 1);
  for (size_t i = 0; i < keys.size(); ++i) {
    const auto want =
        i == 7 ? common::Status::kNotFound : common::Status::kOk;
    EXPECT_EQ(h2.search(keys[i], nullptr), want) << keys[i];
  }
  EXPECT_EQ(h2.size(), keys.size() - 1);
  EXPECT_TRUE(verify_hart_image(*arena).ok())
      << verify_hart_image(*arena).summary();
  // The repairs themselves were made durable by recovery's final
  // metadata flush: a second crash+recover must not repeat them.
  arena->crash();
  Hart h3(*arena, batched());
  EXPECT_EQ(counter_value("hart_recover_completed_deletes_total"),
            deletes0 + 1);
  EXPECT_EQ(counter_value("hart_recover_orphan_values_total"), orphans0 + 1);
  EXPECT_EQ(h3.size(), keys.size() - 1);
}

// Crash sweep under the batched schedule: everything fenced by
// flush_epoch() must survive; whatever else survives must be
// well-formed. Mirrors HartCrash.InsertSweep but with deferred header
// persists, so the crash can land between an operation and its fence.
TEST(AllocParity, BatchedCrashSweepKeepsFencedWrites) {
  const auto keys = workload::make_random(240, 55, 4, 12);
  const auto opts = batched();
  for (uint64_t crash_at = 7; crash_at <= 400; crash_at += 23) {
    auto arena = make_arena(/*shadow=*/true);
    size_t fenced = 0;  // keys[0..fenced) are durable
    bool crashed = false;
    {
      Hart h(*arena, opts);
      arena->arm_crash_after(crash_at);
      try {
        for (size_t i = 0; i < keys.size(); ++i) {
          h.insert(keys[i], "val-" + keys[i].substr(0, 4));
          if ((i + 1) % 16 == 0) {
            h.flush_epoch();
            fenced = i + 1;
          }
        }
        arena->disarm_crash();
        h.flush_epoch();
        fenced = keys.size();
      } catch (const pmem::CrashPoint&) {
        crashed = true;
        arena->crash();
      }
    }
    Hart h2(*arena, opts);
    ASSERT_GE(h2.size(), fenced);
    for (size_t i = 0; i < fenced; ++i) {
      std::string v;
      ASSERT_EQ(h2.search(keys[i], &v), common::Status::kOk)
          << "fenced write lost (crash_at=" << crash_at << "): " << keys[i];
      EXPECT_EQ(v, "val-" + keys[i].substr(0, 4));
    }
    // Unfenced survivors are allowed (their header line may have been
    // flushed incidentally) but must carry their full committed value.
    for (size_t i = fenced; i < keys.size(); ++i) {
      std::string v;
      if (h2.search(keys[i], &v) == common::Status::kOk) {
        EXPECT_EQ(v, "val-" + keys[i].substr(0, 4)) << keys[i];
      }
    }
    const VerifyReport rep = verify_hart_image(*arena);
    EXPECT_TRUE(rep.ok()) << "crash_at=" << crash_at << ": " << rep.summary();
    // The recovered tree keeps working and fencing.
    EXPECT_EQ(h2.insert("post-" + std::to_string(crash_at), "v"),
              common::Status::kInserted);
    h2.flush_epoch();
    if (!crashed) break;  // stream fully fenced; later crash_at are no-ops
  }
}

}  // namespace
}  // namespace hart::core
