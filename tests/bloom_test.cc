// Counting-Bloom tests: the no-false-negative property under add/remove
// churn (the contract the shard enforces via index status codes), sticky
// counter saturation, false-positive sanity — and the hartd integration:
// dispatcher GET/MGET short-circuit, filter maintenance across deletes,
// and rebuild-on-recovery after a restart.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "common/bloom.h"
#include "common/rng.h"
#include "obs/counters.h"
#include "server/hartd.h"
#include "server/proto.h"

namespace hart::server {
namespace {

std::string make_test_dir(const char* tag) {
  std::string tmpl = testing::TempDir() + "hart_bloom_" + tag + "_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  const char* d = ::mkdtemp(buf.data());
  EXPECT_NE(d, nullptr);
  return d != nullptr ? std::string(d) : std::string();
}

std::string key_of(uint64_t i) { return "bloom-key-" + std::to_string(i); }

TEST(CountingBloom, NoFalseNegativesUnderChurn) {
  common::CountingBloom bloom(2000, 10);
  common::Rng rng(5);
  std::set<uint64_t> live;
  // Heavy add/remove churn respecting the contract (remove only live
  // keys): every live key must always be reported possibly-present.
  for (int step = 0; step < 20000; ++step) {
    const uint64_t i = rng.next() % 3000;
    if (live.count(i) != 0) {
      bloom.remove(key_of(i));
      live.erase(i);
    } else {
      bloom.add(key_of(i));
      live.insert(i);
    }
    if (step % 500 == 0) {
      for (const uint64_t l : live)
        ASSERT_TRUE(bloom.may_contain(key_of(l))) << l << " at " << step;
    }
  }
  for (const uint64_t l : live) EXPECT_TRUE(bloom.may_contain(key_of(l)));
}

TEST(CountingBloom, FalsePositiveRateIsSane) {
  constexpr size_t kKeys = 10000;
  common::CountingBloom bloom(kKeys, 10);
  for (size_t i = 0; i < kKeys; ++i) bloom.add(key_of(i));
  size_t fps = 0;
  for (size_t i = kKeys; i < 2 * kKeys; ++i)
    if (bloom.may_contain(key_of(i))) ++fps;
  // Textbook ~0.8% at 10 bits/key; allow generous slack for hash luck.
  EXPECT_LT(fps, kKeys / 20) << "false-positive rate above 5%";
  EXPECT_GT(bloom.memory_bytes(), 0u);
  EXPECT_GE(bloom.hashes(), 1u);
}

TEST(CountingBloom, SaturatedCountersAreStickySafe) {
  // Drive counters to saturation with balanced adds/removes of one key:
  // sticky-15 means the key stays possibly-present forever — degraded
  // false-positive rate, never a false negative for anyone else.
  common::CountingBloom bloom(16, 4);
  for (int i = 0; i < 40; ++i) bloom.add("hot");
  for (int i = 0; i < 40; ++i) bloom.remove("hot");
  EXPECT_TRUE(bloom.may_contain("hot"));
}

TEST(BloomShard, DispatcherShortCircuitsDefinitiveMisses) {
  Hartd::Options o;
  o.shards = 2;
  o.arena_mb = 32;
  o.bloom_bits_per_key = 10;
  Hartd db(o);
  for (uint64_t i = 0; i < 500; ++i)
    ASSERT_EQ(db.execute({OpCode::kPut, key_of(i), "v"}).status,
              Status::kOk);

  auto& negatives =
      obs::Registry::instance().counter("hartd_bloom_negative_total");
  const uint64_t before = negatives.value();
  for (uint64_t i = 0; i < 500; ++i) {
    EXPECT_EQ(db.execute({OpCode::kGet, key_of(i), ""}).status, Status::kOk);
    EXPECT_EQ(db.execute({OpCode::kGet, key_of(100000 + i), ""}).status,
              Status::kNotFound);
  }
  // Most of the 500 misses short-circuit at the filter (a few may be
  // Bloom false positives and reach the Hart).
  EXPECT_GT(negatives.value() - before, 400u);
  db.shutdown();
}

TEST(BloomShard, DeleteMakesKeyDefinitivelyAbsentAgain) {
  Hartd::Options o;
  o.shards = 1;
  o.arena_mb = 32;
  o.bloom_bits_per_key = 10;
  Hartd db(o);
  for (uint64_t i = 0; i < 200; ++i)
    ASSERT_EQ(db.execute({OpCode::kPut, key_of(i), "v"}).status,
              Status::kOk);
  for (uint64_t i = 0; i < 100; ++i)
    ASSERT_EQ(db.execute({OpCode::kDelete, key_of(i), ""}).status,
              Status::kOk);
  // Live keys must never be filtered out (no false negatives)...
  for (uint64_t i = 100; i < 200; ++i)
    EXPECT_EQ(db.execute({OpCode::kGet, key_of(i), ""}).status, Status::kOk);
  // ...and deleted keys answer NotFound (whether via filter or Hart).
  for (uint64_t i = 0; i < 100; ++i)
    EXPECT_EQ(db.execute({OpCode::kGet, key_of(i), ""}).status,
              Status::kNotFound);
  db.shutdown();
}

TEST(BloomShard, MgetFiltersPerKey) {
  Hartd::Options o;
  o.shards = 2;
  o.arena_mb = 32;
  o.bloom_bits_per_key = 10;
  Hartd db(o);
  for (uint64_t i = 0; i < 50; ++i)
    ASSERT_EQ(db.execute({OpCode::kPut, key_of(i), "v" + std::to_string(i)})
                  .status,
              Status::kOk);
  std::vector<std::string> keys;
  for (uint64_t i = 0; i < 100; ++i) keys.push_back(key_of(i));
  std::string payload;
  ASSERT_TRUE(encode_mget_keys(keys, &payload));
  const Response r = db.execute({OpCode::kMget, "", payload});
  ASSERT_EQ(r.status, Status::kOk);
  std::vector<std::string> values;
  std::vector<bool> found;
  ASSERT_TRUE(decode_mget_result(r.value, &values, &found));
  ASSERT_EQ(found.size(), keys.size());
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(found[i], i < 50) << i;
    if (i < 50) EXPECT_EQ(values[i], "v" + std::to_string(i));
  }
  db.shutdown();
}

TEST(BloomShard, RestartRebuildsFilterFromRecoveredKeys) {
  const std::string dir = make_test_dir("rebuild");
  Hartd::Options o;
  o.shards = 2;
  o.arena_mb = 32;
  o.arena_dir = dir;
  o.bloom_bits_per_key = 10;
  {
    Hartd db(o);
    for (uint64_t i = 0; i < 300; ++i)
      ASSERT_EQ(db.execute({OpCode::kPut, key_of(i), "v"}).status,
                Status::kOk);
    for (uint64_t i = 0; i < 100; ++i)
      ASSERT_EQ(db.execute({OpCode::kDelete, key_of(i), ""}).status,
                Status::kOk);
    db.shutdown();
  }
  Hartd db(o);
  EXPECT_TRUE(db.reopened());
  // The rebuilt filter must pass every recovered live key (no false
  // negatives after recovery) and still short-circuit cold misses.
  for (uint64_t i = 100; i < 300; ++i)
    EXPECT_EQ(db.execute({OpCode::kGet, key_of(i), ""}).status, Status::kOk)
        << i;
  for (uint64_t i = 0; i < 100; ++i)
    EXPECT_EQ(db.execute({OpCode::kGet, key_of(i), ""}).status,
              Status::kNotFound);
  auto& negatives =
      obs::Registry::instance().counter("hartd_bloom_negative_total");
  const uint64_t before = negatives.value();
  for (uint64_t i = 0; i < 200; ++i)
    EXPECT_EQ(db.execute({OpCode::kGet, key_of(500000 + i), ""}).status,
              Status::kNotFound);
  EXPECT_GT(negatives.value() - before, 150u);
  db.shutdown();
}

}  // namespace
}  // namespace hart::server
