// Workload-generator properties the benchmark's comparisons rely on:
// seeded determinism, the unique pool's size against the caches, and the
// Zipf mix's cache hit ratio.

#include <memory>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "index/xml_index.h"
#include "serve/suggestion_cache.h"
#include "workload.h"

namespace xclean::e2e {
namespace {

// Engine cache capacity and per-thread variant memo size of the workloads.
constexpr size_t kCacheCapacity = 16384;
constexpr size_t kVariantMemo = 8192;

std::unique_ptr<XmlIndex> BuildIndex(const WorkloadSpec& spec) {
  return XmlIndex::Build(GenerateCorpus(spec));
}

bool SameSchedule(const std::vector<Arrival>& a,
                  const std::vector<Arrival>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].due_ns != b[i].due_ns || a[i].query != b[i].query) return false;
  }
  return true;
}

TEST(WorkloadTest, SameSeedSameInputsOtherSeedOtherHash) {
  for (const WorkloadSpec& full : Workloads()) {
    const WorkloadSpec spec = SmokeSpec(full);
    SCOPED_TRACE(spec.name);
    const std::unique_ptr<XmlIndex> index = BuildIndex(spec);
    const std::vector<std::string> docs = GenerateLiveDocuments(7);
    const std::vector<PoolQuery> a = BuildPool(spec, *index, 7);
    const std::vector<PoolQuery> b = BuildPool(spec, *index, 7);
    ASSERT_EQ(a.size(), spec.pool_size);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].text, b[i].text);
      ASSERT_EQ(a[i].truth, b[i].truth);
    }
    ArrivalSource sa(spec, a.size(), 7);
    ArrivalSource sb(spec, b.size(), 7);
    for (int phase = 0; phase < 3; ++phase) {
      EXPECT_TRUE(SameSchedule(sa.Schedule(500.0, 1.0),
                               sb.Schedule(500.0, 1.0)));
    }
    const uint64_t hash = WorkloadHash(spec, *index, a, 7, docs);
    EXPECT_EQ(hash, WorkloadHash(spec, *index, b, 7, docs));

    const std::vector<PoolQuery> c = BuildPool(spec, *index, 8);
    EXPECT_NE(hash, WorkloadHash(spec, *index, c, 8, docs));
    ArrivalSource sc(spec, c.size(), 8);
    ArrivalSource sd(spec, a.size(), 7);
    EXPECT_FALSE(SameSchedule(sc.Schedule(500.0, 1.0),
                              sd.Schedule(500.0, 1.0)));
  }
}

TEST(WorkloadTest, WriteScheduleIsSeeded) {
  WriteSource a(3);
  WriteSource b(3);
  WriteSource c(4);
  const std::vector<WriteOp> wa = a.Schedule(100.0);
  const std::vector<WriteOp> wb = b.Schedule(100.0);
  const std::vector<WriteOp> wc = c.Schedule(100.0);
  ASSERT_EQ(wa.size(), wb.size());
  for (size_t i = 0; i < wa.size(); ++i) {
    EXPECT_EQ(wa[i].due_ns, wb[i].due_ns);
    EXPECT_EQ(wa[i].is_delete, wb[i].is_delete);
    EXPECT_EQ(wa[i].pick, wb[i].pick);
  }
  EXPECT_TRUE(wa.size() != wc.size() || wa[0].due_ns != wc[0].due_ns);
  const double rate =
      WriteSource::kAddsPerSecond + WriteSource::kDeletesPerSecond;
  size_t deletes = 0;
  for (const WriteOp& op : wa) deletes += op.is_delete ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(wa.size()), rate * 100.0, rate * 10.0);
  EXPECT_NEAR(static_cast<double>(deletes) / wa.size(),
              WriteSource::kDeletesPerSecond / rate, 0.06);
}

TEST(WorkloadTest, InexUniquePoolIsDistinctAndOutgrowsTheCaches) {
  const WorkloadSpec& spec = *FindWorkload("inex-unique");
  const std::unique_ptr<XmlIndex> index = BuildIndex(spec);
  const std::vector<PoolQuery> pool = BuildPool(spec, *index, 1);
  ASSERT_EQ(pool.size(), spec.pool_size);
  std::unordered_set<std::string> texts;
  for (const PoolQuery& q : pool) {
    EXPECT_TRUE(texts.insert(q.text).second) << q.text;
    EXPECT_EQ(q.query.size(), q.truth.size());
  }
  EXPECT_GE(pool.size(), 3 * kCacheCapacity);
  EXPECT_GE(pool.size(), 7 * kVariantMemo);
  // A shuffled replay sends every pool entry once per cycle.
  QueryStream stream(spec, pool.size(), 1);
  std::vector<bool> sent(pool.size(), false);
  for (size_t i = 0; i < pool.size(); ++i) {
    const uint32_t q = stream.Next();
    EXPECT_FALSE(sent[q]);
    sent[q] = true;
  }
}

TEST(WorkloadTest, DblpZipfHitsTheCacheAboutEightyPercent) {
  const WorkloadSpec& spec = *FindWorkload("dblp-zipf");
  const std::unique_ptr<XmlIndex> index = BuildIndex(spec);
  const std::vector<PoolQuery> pool = BuildPool(spec, *index, 1);
  ASSERT_EQ(pool.size(), spec.pool_size);
  serve::CacheOptions options;
  options.capacity = kCacheCapacity;
  serve::SuggestionCache cache(options);
  QueryStream stream(spec, pool.size(), 1);
  // Warm-up and fixed-rate phases of a 20-second run at the nominal rate.
  const auto warm = static_cast<size_t>(spec.nominal_qps * 2.0);
  const auto measured = static_cast<size_t>(spec.nominal_qps * 10.0);
  std::vector<Suggestion> out;
  size_t hits = 0;
  for (size_t i = 0; i < warm + measured; ++i) {
    const std::string& key = pool[stream.Next()].text;
    const bool hit = cache.Get(key, &out);
    if (!hit) cache.Put(key, {});
    if (i >= warm && hit) ++hits;
  }
  const double ratio = static_cast<double>(hits) / measured;
  EXPECT_GE(ratio, 0.75);
  EXPECT_LE(ratio, 0.85);
}

}  // namespace
}  // namespace xclean::e2e
