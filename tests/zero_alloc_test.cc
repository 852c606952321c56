#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "core/naive.h"
#include "core/query_scratch.h"
#include "core/suggester.h"
#include "core/variant_gen.h"
#include "core/xclean.h"
#include "data/dblp_gen.h"
#include "shard/sharded_corpus.h"
#include "alloc_probe.h"

namespace xclean {
namespace {

/// The zero-steady-state-allocation contract of QueryScratch (node-type
/// semantics): after a warm-up pass has grown every arena to its working
/// size, further SuggestWithScratch calls perform no heap allocation at
/// all — not in the merged lists, the occurrence buffers, the accumulator
/// table, the memo tables, or the output emission.

std::unique_ptr<XmlIndex> Corpus() {
  DblpGenOptions gen;
  gen.num_publications = 400;
  gen.seed = 11;
  return XmlIndex::Build(GenerateDblp(gen));
}

std::vector<Query> TestQueries(const XmlIndex& index) {
  std::vector<Query> queries;
  for (const char* q : {"algoritm", "tree indexing", "wilson grap",
                        "parralel database", "query optimizaton"}) {
    queries.push_back(ParseQuery(q, index.tokenizer()));
  }
  return queries;
}

/// Allocations of five SuggestWithScratch passes over `queries` after a
/// two-pass warm-up (the first grows the arenas; the second proves the
/// growth converged before counting). Also checks the runs produce output.
uint64_t SteadyStateAllocations(const XClean& algorithm,
                                const std::vector<Query>& queries) {
  QueryScratch scratch;
  // One reused output vector per query: steady state means each query's
  // result shape repeats, so its own buffers stop growing after warm-up.
  std::vector<std::vector<Suggestion>> outs(queries.size());
  auto pass = [&] {
    for (size_t i = 0; i < queries.size(); ++i) {
      algorithm.SuggestWithScratch(queries[i], scratch, &outs[i], nullptr);
    }
  };
  pass();
  pass();

  testing::AllocProbe probe;
  for (int round = 0; round < 5; ++round) pass();
  const uint64_t allocations = probe.allocations();

  size_t nonempty = 0;
  for (const auto& out : outs) nonempty += out.empty() ? 0 : 1;
  EXPECT_GT(nonempty, 0u);
  return allocations;
}

TEST(ZeroAllocTest, SteadyStateSuggestDoesNotAllocate) {
  auto index = Corpus();
  XCleanOptions options;
  options.semantics = Semantics::kNodeType;
  XClean algorithm(*index, options);
  EXPECT_EQ(SteadyStateAllocations(algorithm, TestQueries(*index)), 0u);
}

/// The same contract over several layers: the engine of a 3-shard corpus
/// runs one anchor-loop pass per shard per query, through per-layer variant
/// memos and global token and path maps.
TEST(ZeroAllocTest, SteadyStateSuggestOverShardLayersDoesNotAllocate) {
  DblpGenOptions gen;
  gen.num_publications = 400;
  gen.seed = 11;
  shard::ShardedCorpusOptions options;
  options.num_shards = 3;
  options.xclean.semantics = Semantics::kNodeType;
  Result<shard::ShardedCorpus> corpus =
      shard::BuildShardedCorpus(GenerateDblp(gen), options);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  ASSERT_EQ(corpus->engine->layer_count(), 3u);
  EXPECT_EQ(SteadyStateAllocations(
                *corpus->engine,
                TestQueries(*corpus->layers->layers[0].index)),
            0u);
}

/// Eviction churn must not allocate either: with a tiny gamma the
/// accumulator table constantly erases and re-creates entries, exercising
/// the CandidateMap free list and in-place tombstone flushes.
TEST(ZeroAllocTest, GammaEvictionChurnDoesNotAllocate) {
  auto index = Corpus();
  XCleanOptions options;
  options.semantics = Semantics::kNodeType;
  options.gamma = 1;
  XClean algorithm(*index, options);
  // A short misspelled keyword has many scoring variant candidates, so a
  // single accumulator slot guarantees eviction churn.
  Query query = ParseQuery("tre", index->tokenizer());

  QueryScratch scratch;
  std::vector<Suggestion> out;
  XCleanRunStats stats;
  for (int pass = 0; pass < 2; ++pass) {
    algorithm.SuggestWithScratch(query, scratch, &out, &stats);
  }
  ASSERT_GT(stats.accumulator_evictions, 0u)
      << "gamma=1 should force evictions, or the test is vacuous";

  testing::AllocProbe probe;
  for (int pass = 0; pass < 5; ++pass) {
    algorithm.SuggestWithScratch(query, scratch, &out, nullptr);
  }
  EXPECT_EQ(probe.allocations(), 0u);
}

/// A CancelToken on the hot path must not cost an allocation: budget
/// bookkeeping is a couple of integers on the stack, and a token whose
/// budget never trips leaves the steady-state zero-alloc contract intact.
TEST(ZeroAllocTest, SuggestWithBudgetAttachedDoesNotAllocate) {
  auto index = Corpus();
  XCleanOptions options;
  options.semantics = Semantics::kNodeType;
  XClean algorithm(*index, options);
  std::vector<Query> queries = TestQueries(*index);

  QueryScratch scratch;
  std::vector<std::vector<Suggestion>> outs(queries.size());
  QueryBudget budget;
  budget.max_postings = 1000000000;  // attached but never trips
  budget.max_candidates = 1000000000;

  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < queries.size(); ++i) {
      CancelToken token(budget);
      algorithm.SuggestWithScratch(queries[i], scratch, &outs[i], nullptr,
                                   &token);
    }
  }

  testing::AllocProbe probe;
  for (int pass = 0; pass < 5; ++pass) {
    for (size_t i = 0; i < queries.size(); ++i) {
      CancelToken token(budget);
      algorithm.SuggestWithScratch(queries[i], scratch, &outs[i], nullptr,
                                   &token);
    }
  }
  EXPECT_EQ(probe.allocations(), 0u);
}

/// A variant-memo miss allocates the memo entry (its key, its vector and
/// its node) and nothing else: the FastSS probe and variant generation
/// run in the scratch's own buffers. Two XClean instances take turns on
/// one scratch; each hand-over drops the memo tables (keeping their
/// capacity), so every keyword of a pass misses the variant memo while
/// every arena is already warm. Each query ends in a keyword with no
/// variants, which empties the candidate space before any result-type
/// computation (a result-type memo miss allocates on its own).
TEST(ZeroAllocTest, VariantMemoMissAllocatesOnlyTheMemoEntry) {
  auto index = Corpus();
  XCleanOptions options;
  options.semantics = Semantics::kNodeType;
  XClean first(*index, options);
  XClean second(*index, options);
  std::vector<Query> queries;
  for (const char* keyword : {"algoritm", "tree", "indexing", "wilson",
                              "parralel", "databse", "optimizaton"}) {
    queries.push_back(ParseQuery(std::string(keyword) + " qqqqqqqq",
                                 index->tokenizer()));
  }

  QueryScratch scratch;
  std::vector<Suggestion> out;
  auto pass = [&](const XClean& algorithm) {
    for (const Query& query : queries) {
      algorithm.SuggestWithScratch(query, scratch, &out, nullptr);
    }
  };
  for (int round = 0; round < 2; ++round) {
    pass(first);
    pass(second);
  }
  pass(first);

  // What inserting each distinct keyword's entry costs on its own, into a
  // map whose buckets are already allocated.
  VariantGenerator generator(*index, VariantGenOptions{options.max_ed});
  std::unordered_map<std::string, std::vector<Variant>> memo;
  memo.reserve(64);
  uint64_t entry_allocations = 0;
  size_t with_variants = 0;
  for (const Query& query : queries) {
    for (const std::string& keyword : query.keywords) {
      if (memo.count(keyword) != 0) continue;
      std::vector<Variant> variants = generator.Generate(keyword);
      with_variants += variants.empty() ? 0 : 1;
      testing::AllocProbe entry;
      memo.emplace(keyword, variants);
      entry_allocations += entry.allocations();
    }
  }
  ASSERT_EQ(with_variants, queries.size())
      << "every leading keyword needs variants, or the probe is not tested";

  testing::AllocProbe probe;
  pass(second);
  EXPECT_EQ(scratch.variant_cache_entries(), memo.size());
  EXPECT_LE(probe.allocations(), entry_allocations);
  EXPECT_TRUE(out.empty());
}

/// A result-type memo miss allocates nothing of its own: FindResultType's
/// intersection cursors live in the scratch. As above, two instances take
/// turns on one scratch, so the counted pass misses both memos with every
/// arena warm; its candidates have real result types, and the variant memo
/// entries are the only allocations allowed.
TEST(ZeroAllocTest, ResultTypeMemoMissAllocatesOnlyTheMemoEntries) {
  auto index = Corpus();
  XCleanOptions options;
  options.semantics = Semantics::kNodeType;
  XClean first(*index, options);
  XClean second(*index, options);
  std::vector<Query> queries = TestQueries(*index);

  QueryScratch scratch;
  std::vector<std::vector<Suggestion>> outs(queries.size());
  uint64_t type_computations = 0;
  auto pass = [&](const XClean& algorithm) {
    type_computations = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      XCleanRunStats stats;
      algorithm.SuggestWithScratch(queries[i], scratch, &outs[i], &stats);
      type_computations += stats.result_type_computations;
    }
  };
  for (int round = 0; round < 2; ++round) {
    pass(first);
    pass(second);
  }
  pass(first);

  VariantGenerator generator(*index, VariantGenOptions{options.max_ed});
  std::unordered_map<std::string, std::vector<Variant>> memo;
  memo.reserve(64);
  uint64_t entry_allocations = 0;
  for (const Query& query : queries) {
    for (const std::string& keyword : query.keywords) {
      if (memo.count(keyword) != 0) continue;
      std::vector<Variant> variants = generator.Generate(keyword);
      testing::AllocProbe entry;
      memo.emplace(keyword, variants);
      entry_allocations += entry.allocations();
    }
  }

  testing::AllocProbe probe;
  pass(second);
  const uint64_t allocations = probe.allocations();
  ASSERT_GT(type_computations, 0u)
      << "the counted pass must miss the result-type memo";
  EXPECT_LE(allocations, entry_allocations);
}

/// Sanity-check the probe itself: a heap allocation in the probed region
/// must be observed (guards against the replacement operators silently not
/// linking in).
TEST(ZeroAllocTest, ProbeObservesAllocations) {
  testing::AllocProbe probe;
  std::vector<int>* v = new std::vector<int>(100);
  uint64_t seen = probe.allocations();
  delete v;
  EXPECT_GE(seen, 1u);
}

}  // namespace
}  // namespace xclean
