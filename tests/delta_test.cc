// The incremental-indexing subsystem (src/delta/): memtable visibility,
// tombstone deletion, compaction score-stability, stable DocIds, the
// ServingEngine live-update API (including cache invalidation across
// mutations and live metrics), durable background compaction, and a
// concurrent add/suggest/compact stress run (the `delta` ctest label's
// TSan target).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/query_scratch.h"
#include "core/suggester.h"
#include "delta/live_index.h"
#include "index/manifest.h"
#include "index/xml_index.h"
#include "serve/engine.h"
#include "xml/parser.h"

namespace xclean {
namespace {

namespace fs = std::filesystem;

constexpr const char* kBaseXml =
    "<dblp>"
    "<article><title>keyword search</title><year>2009</year></article>"
    "<article><title>xml keyword query</title></article>"
    "<article><title>spelling correction</title></article>"
    "<book><title>database systems</title></book>"
    "</dblp>";

std::shared_ptr<const XmlIndex> BuildBase() {
  Result<XmlTree> tree = ParseXmlString(kBaseXml);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  return XmlIndex::Build(std::move(tree).value());
}

delta::LiveIndexOptions ExactOptions() {
  delta::LiveIndexOptions o;
  o.xclean.gamma = 0;
  o.xclean.top_k = 20;
  return o;
}

Query Q(std::vector<std::string> keywords) {
  Query q;
  q.keywords = std::move(keywords);
  return q;
}

bool Suggests(const delta::LiveIndex& live, const Query& query,
              const std::string& word) {
  QueryScratch scratch;
  for (const Suggestion& s :
       live.snapshot()->Suggest(query, &scratch)) {
    for (const std::string& w : s.words) {
      if (w == word) return true;
    }
  }
  return false;
}

TEST(LiveIndexTest, AddIsVisibleToTheNextSuggestCall) {
  delta::LiveIndex live(BuildBase(), ExactOptions());
  // "zanzibar" exists nowhere in the base corpus.
  EXPECT_FALSE(Suggests(live, Q({"zanzibar"}), "zanzibar"));

  Result<delta::DocId> id =
      live.Add("<article><title>zanzibar travels</title></article>");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  // The visibility contract: queryable the moment Add returns, no flush.
  EXPECT_TRUE(Suggests(live, Q({"zanzibar"}), "zanzibar"));
  // And reachable through the error model from a misspelling.
  EXPECT_TRUE(Suggests(live, Q({"zanzibat"}), "zanzibar"));
  EXPECT_EQ(live.counters().adds, 1u);
  EXPECT_EQ(live.counters().memtable_docs, 1u);
}

TEST(LiveIndexTest, DeleteSuppressesMemtableAndBaseDocuments) {
  delta::LiveIndex live(BuildBase(), ExactOptions());

  // Memtable delete: the staged document is dropped outright.
  Result<delta::DocId> id =
      live.Add("<article><title>ephemeral note</title></article>");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(Suggests(live, Q({"ephemeral"}), "ephemeral"));
  ASSERT_TRUE(live.Delete(id.value()).ok());
  EXPECT_FALSE(Suggests(live, Q({"ephemeral"}), "ephemeral"));
  // Idempotent.
  EXPECT_TRUE(live.Delete(id.value()).ok());

  // Base delete: the document dies behind a tombstone. "spelling" occurs
  // only in base document 2 (0-based ordinal, DocId 2).
  ASSERT_TRUE(Suggests(live, Q({"spelling"}), "spelling"));
  ASSERT_TRUE(live.Delete(2).ok());
  EXPECT_FALSE(Suggests(live, Q({"spelling"}), "spelling"));
  // The rest of the base corpus still serves.
  EXPECT_TRUE(Suggests(live, Q({"database"}), "database"));
  EXPECT_EQ(live.counters().deletes, 2u);
}

TEST(LiveIndexTest, CompactionPreservesScoresExactly) {
  delta::LiveIndex live(BuildBase(), ExactOptions());
  ASSERT_TRUE(
      live.Add("<article><title>keyword search engines</title></article>")
          .ok());
  ASSERT_TRUE(
      live.Add("<article><title>query spelling xml</title></article>").ok());
  ASSERT_TRUE(live.Delete(0).ok());  // tombstone one base document

  const std::vector<Query> queries = {Q({"keyward"}), Q({"xml", "quary"}),
                                      Q({"speling"}), Q({"database"})};
  QueryScratch scratch;
  std::vector<std::vector<Suggestion>> before;
  for (const Query& q : queries) {
    before.push_back(live.snapshot()->Suggest(q, &scratch));
  }
  ASSERT_FALSE(live.snapshot()->fast_path());
  ASSERT_GT(live.snapshot()->layer_count(), 1u);

  Result<uint64_t> gen = live.Compact();
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  EXPECT_EQ(gen.value(), 0u);  // no lifecycle: in-memory merge only
  EXPECT_TRUE(live.snapshot()->fast_path());
  EXPECT_EQ(live.snapshot()->layer_count(), 1u);
  EXPECT_EQ(live.counters().compactions, 1u);

  for (size_t i = 0; i < queries.size(); ++i) {
    std::vector<Suggestion> after =
        live.snapshot()->Suggest(queries[i], &scratch);
    ASSERT_EQ(after.size(), before[i].size()) << "query " << i;
    for (size_t r = 0; r < after.size(); ++r) {
      EXPECT_EQ(after[r].words, before[i][r].words) << "query " << i;
      EXPECT_NEAR(after[r].score, before[i][r].score,
                  1e-9 * (1.0 + std::abs(before[i][r].score)))
          << "query " << i << " rank " << r;
      EXPECT_EQ(after[r].entity_count, before[i][r].entity_count)
          << "query " << i << " rank " << r;
      EXPECT_EQ(after[r].result_type, before[i][r].result_type)
          << "query " << i << " rank " << r;
    }
  }
}

TEST(LiveIndexTest, DocIdsRemainValidAcrossCompaction) {
  delta::LiveIndex live(BuildBase(), ExactOptions());
  Result<delta::DocId> id =
      live.Add("<article><title>persistent handle</title></article>");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(live.Compact().ok());
  ASSERT_TRUE(Suggests(live, Q({"persistent"}), "persistent"));

  // The pre-compaction id now addresses the document inside the new base
  // generation; deleting through it must still work.
  ASSERT_TRUE(live.Delete(id.value()).ok());
  EXPECT_FALSE(Suggests(live, Q({"persistent"}), "persistent"));
  // A second compaction folds the tombstone away for good.
  ASSERT_TRUE(live.Compact().ok());
  EXPECT_FALSE(Suggests(live, Q({"persistent"}), "persistent"));
  EXPECT_TRUE(Suggests(live, Q({"database"}), "database"));
}

TEST(LiveIndexTest, BackgroundCompactionPublishesDurably) {
  const std::string dir =
      testing::TempDir() + "/delta_publish_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  fs::remove_all(dir);
  SnapshotLifecycle lifecycle(dir);

  delta::LiveIndex live(BuildBase(), ExactOptions());
  ASSERT_TRUE(
      live.Add("<article><title>durable payload</title></article>").ok());

  std::atomic<bool> done{false};
  Result<uint64_t> outcome = 0;
  ASSERT_TRUE(live.CompactInBackground(&lifecycle,
                                       [&](Result<uint64_t> r) {
                                         outcome = std::move(r);
                                         done.store(true);
                                       })
                  .ok());
  live.WaitForCompaction();
  ASSERT_TRUE(done.load());
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome.value(), 1u);
  EXPECT_EQ(live.counters().compactions, 1u);

  // Recovery from the journal yields the compacted generation, carrying
  // both the base corpus and the live-added document.
  Result<RecoveredSnapshot> recovered = RecoverLatestSnapshot(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value().generation, 1u);
  EXPECT_TRUE(recovered.value().index->vocabulary().Contains("durable"));
  EXPECT_TRUE(recovered.value().index->vocabulary().Contains("database"));
  fs::remove_all(dir);
}

std::unique_ptr<serve::ServingEngine> MakeEngine(
    serve::EngineOptions options = {}) {
  options.pool.num_threads = 2;
  Result<XmlTree> tree = ParseXmlString(kBaseXml);
  EXPECT_TRUE(tree.ok());
  SuggesterOptions sopts;
  sopts.xclean.gamma = 0;
  auto suggester = std::make_shared<const XCleanSuggester>(
      XCleanSuggester::FromIndex(
          XmlIndex::Build(std::move(tree).value(), IndexOptions()), sopts));
  return std::make_unique<serve::ServingEngine>(std::move(suggester), options);
}

bool EngineSuggests(serve::ServingEngine& engine, const std::string& text,
                    const std::string& word) {
  serve::ServeResult r = engine.Suggest(text);
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  for (const Suggestion& s : r.suggestions) {
    for (const std::string& w : s.words) {
      if (w == word) return true;
    }
  }
  return false;
}

TEST(EngineLiveUpdateTest, AddDeleteCompactThroughTheEngine) {
  std::unique_ptr<serve::ServingEngine> engine_ptr = MakeEngine();
  serve::ServingEngine& engine = *engine_ptr;
  ASSERT_TRUE(engine.EnableLiveUpdates().ok());

  // Warm the cache on the pre-add answer, then mutate: the mutation
  // sequence in the cache key makes the stale entry unreachable, so the
  // very next request sees the new document.
  EXPECT_FALSE(EngineSuggests(engine, "zeppelin", "zeppelin"));
  Result<delta::DocId> id =
      engine.AddDocument("<article><title>zeppelin flight</title></article>");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_TRUE(EngineSuggests(engine, "zeppelin", "zeppelin"));
  EXPECT_TRUE(EngineSuggests(engine, "zeppelim", "zeppelin"));

  serve::MetricsSnapshot m = engine.Metrics();
  EXPECT_TRUE(m.live_enabled);
  EXPECT_EQ(m.live_adds, 1u);
  EXPECT_GT(m.delta_layers, 1u);

  ASSERT_TRUE(engine.DeleteDocument(id.value()).ok());
  EXPECT_FALSE(EngineSuggests(engine, "zeppelin", "zeppelin"));

  // Compact down to one generation; serving continues seamlessly.
  ASSERT_TRUE(engine.AddDocument("<article><title>postcompact token</title>"
                                 "</article>")
                  .ok());
  Result<uint64_t> gen = engine.CompactLive();
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  EXPECT_TRUE(EngineSuggests(engine, "postcompact", "postcompact"));
  EXPECT_FALSE(EngineSuggests(engine, "zeppelin", "zeppelin"));
  m = engine.Metrics();
  EXPECT_EQ(m.live_compactions, 1u);
  EXPECT_EQ(m.live_deletes, 1u);
  // The one-line dump carries the live section.
  EXPECT_NE(m.ToString().find("live="), std::string::npos) << m.ToString();
  engine.Shutdown();
}

TEST(EngineLiveUpdateTest, PreconditionsAndLifecycleErrors) {
  // Configurations a layer stack cannot reproduce: space-edit
  // segmentation, min_depth < 2 and an entity prior.
  SuggesterOptions refused[3];
  refused[0].space_tau = 2;
  refused[1].xclean.min_depth = 1;
  refused[2].xclean.entity_prior = [](NodeId) { return 1.0; };
  for (const SuggesterOptions& sopts : refused) {
    Result<XmlTree> tree = ParseXmlString(kBaseXml);
    ASSERT_TRUE(tree.ok());
    serve::EngineOptions eopts;
    eopts.pool.num_threads = 1;
    serve::ServingEngine engine(
        std::make_shared<const XCleanSuggester>(XCleanSuggester::FromIndex(
            XmlIndex::Build(std::move(tree).value(), IndexOptions()), sopts)),
        eopts);
    EXPECT_EQ(engine.EnableLiveUpdates().code(),
              StatusCode::kInvalidArgument);
    engine.Shutdown();
  }

  std::unique_ptr<serve::ServingEngine> engine_ptr = MakeEngine();
  serve::ServingEngine& engine = *engine_ptr;
  // Mutations before enabling are refused.
  EXPECT_EQ(engine.AddDocument("<a><b>x</b></a>").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.DeleteDocument(0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.CompactLive().status().code(),
            StatusCode::kInvalidArgument);

  ASSERT_TRUE(engine.EnableLiveUpdates().ok());
  EXPECT_EQ(engine.EnableLiveUpdates().code(),
            StatusCode::kInvalidArgument);  // double enable

  // SwapIndex detaches the live stack: live mutations are refused again
  // and the engine serves the swapped snapshot alone.
  ASSERT_TRUE(
      engine.AddDocument("<article><title>volatile</title></article>").ok());
  ASSERT_TRUE(EngineSuggests(engine, "volatile", "volatile"));
  engine.SwapIndex(engine.snapshot());
  EXPECT_EQ(engine.live_index(), nullptr);
  EXPECT_EQ(engine.AddDocument("<a><b>x</b></a>").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(EngineSuggests(engine, "volatile", "volatile"));
  // Live updates can be re-enabled over the swapped snapshot.
  EXPECT_TRUE(engine.EnableLiveUpdates().ok());
  engine.Shutdown();
}

TEST(EngineLiveUpdateTest, AutoCompactionTriggersInBackground) {
  const std::string dir =
      testing::TempDir() + "/delta_auto_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  fs::remove_all(dir);
  std::unique_ptr<serve::ServingEngine> engine_ptr = MakeEngine();
  serve::ServingEngine& engine = *engine_ptr;
  ASSERT_TRUE(engine.EnableLiveUpdates(/*compact_after_docs=*/3, dir).ok());

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine
                    .AddDocument("<article><title>bulk doc " +
                                 std::to_string(i) + "</title></article>")
                    .ok());
  }
  engine.WaitForLiveCompaction();
  serve::MetricsSnapshot m = engine.Metrics();
  EXPECT_GE(m.live_compactions, 1u);

  // The background compaction published durably.
  Result<RecoveredSnapshot> recovered = RecoverLatestSnapshot(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered.value().index->vocabulary().Contains("bulk"));
  EXPECT_TRUE(EngineSuggests(engine, "bulk", "bulk"));
  engine.Shutdown();
  fs::remove_all(dir);
}

/// The TSan target behind `ctest -L delta`: concurrent adders, deleters,
/// readers and a compactor hammer one LiveIndex. Readers must always see a
/// coherent snapshot (no torn layer stacks), and the final state must
/// contain exactly the documents that survived.
TEST(LiveIndexStressTest, ConcurrentAddSuggestCompactStress) {
  delta::LiveIndex live(BuildBase(), ExactOptions());
  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr int kDocsPerWriter = 12;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&live, w] {
      for (int i = 0; i < kDocsPerWriter; ++i) {
        std::string word =
            "stress" + std::to_string(w) + "x" + std::to_string(i);
        Result<delta::DocId> id = live.Add("<article><title>" + word +
                                           " workload</title></article>");
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        if (i % 3 == 2) {
          ASSERT_TRUE(live.Delete(id.value()).ok());
        }
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&live, &stop, &reads] {
      QueryScratch scratch;
      const Query queries[] = {Q({"workload"}), Q({"database"}),
                               Q({"keyword", "search"})};
      size_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        std::shared_ptr<const delta::LiveSnapshot> snap = live.snapshot();
        std::vector<Suggestion> got =
            snap->Suggest(queries[i % 3], &scratch);
        // The base corpus is never deleted here, so "database" always
        // produces at least one suggestion regardless of interleaving.
        if (i % 3 == 1) {
          EXPECT_FALSE(got.empty());
        }
        reads.fetch_add(1, std::memory_order_relaxed);
        ++i;
      }
    });
  }
  std::thread compactor([&live, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      Result<uint64_t> gen = live.Compact();
      ASSERT_TRUE(gen.ok()) << gen.status().ToString();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true, std::memory_order_release);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();
  compactor.join();
  EXPECT_GT(reads.load(), 0u);

  // Quiesced state: one final compaction, then exact content checks.
  ASSERT_TRUE(live.Compact().ok());
  EXPECT_TRUE(live.snapshot()->fast_path());
  const uint64_t kept = kWriters * (kDocsPerWriter - kDocsPerWriter / 3);
  EXPECT_EQ(live.counters().live_docs, 4u + kept);
  EXPECT_TRUE(Suggests(live, Q({"stress0x0"}), "stress0x0"));
  EXPECT_FALSE(Suggests(live, Q({"stress0x2"}), "stress0x2"));
}

}  // namespace
}  // namespace xclean
