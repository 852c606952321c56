#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/naive.h"
#include "core/query_scratch.h"
#include "core/xclean.h"
#include "data/workload.h"
#include "delta/layer.h"
#include "delta/live_index.h"
#include "xml/parser.h"
#include "xml/tree.h"

namespace xclean {
namespace {

/// Differential-oracle harness: the naive per-candidate scorer (Sec. V) is
/// an exact reference for the one-pass algorithm, so any hot-path
/// optimization must keep XClean score-identical to it. This test generates
/// random corpora and dirty queries (seeded; override the base seed with
/// XCLEAN_DIFF_SEED to widen coverage in CI) and checks, per semantics:
///
///   - gamma = 0 (unbounded accumulators): XClean == naive within 1e-9;
///   - gamma > 0 (bounded): the pruned top-k is a subset of the exact
///     candidate set, every pruned score is an underestimate of the exact
///     score (eviction can only discard probability mass), and whenever the
///     run reports zero evictions the pruned list is exactly the exact
///     top-k prefix.

uint64_t BaseSeed() {
  const char* env = std::getenv("XCLEAN_DIFF_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 20110411ull;
}

/// Random corpora with confusable vocabulary and irregular structure:
/// variable nesting depth (so min_depth and result-type inference have
/// real work), repeated words (tf > 1), and sibling record types.
std::unique_ptr<XmlIndex> RandomCorpus(uint64_t seed) {
  static const char* kWords[] = {
      "tree",  "trees", "trie",   "tried", "three", "icde",  "icdt",
      "index", "night", "light",  "sight", "graph", "grape", "query",
      "quern", "table", "cable",  "fable", "joins", "coins", "merge",
      "serge", "parse", "sparse", "terse"};
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
  XmlTreeBuilder b;
  EXPECT_TRUE(b.BeginElement("corpus").ok());
  uint64_t sections = 2 + rng.Uniform(4);
  for (uint64_t s = 0; s < sections; ++s) {
    EXPECT_TRUE(
        b.BeginElement(rng.Bernoulli(0.5) ? "journal" : "proceedings").ok());
    uint64_t records = 2 + rng.Uniform(6);
    for (uint64_t r = 0; r < records; ++r) {
      EXPECT_TRUE(b.BeginElement(rng.Bernoulli(0.7) ? "paper" : "book").ok());
      uint64_t fields = 1 + rng.Uniform(3);
      for (uint64_t f = 0; f < fields; ++f) {
        std::string text;
        uint64_t words = 1 + rng.Uniform(7);
        for (uint64_t w = 0; w < words; ++w) {
          if (!text.empty()) text += " ";
          text += kWords[rng.Uniform(std::size(kWords))];
          // Repeats drive tf > 1 through the per-entity counts.
          if (rng.Bernoulli(0.15)) {
            text += " ";
            text += text.substr(text.find_last_of(' ') + 1);
          }
        }
        EXPECT_TRUE(
            b.AddLeaf(rng.Bernoulli(0.5) ? "title" : "abstract", text).ok());
      }
      if (rng.Bernoulli(0.3)) {
        EXPECT_TRUE(b.BeginElement("citations").ok());
        EXPECT_TRUE(
            b.AddLeaf("cite", kWords[rng.Uniform(std::size(kWords))]).ok());
        EXPECT_TRUE(b.EndElement().ok());
      }
      EXPECT_TRUE(b.EndElement().ok());
    }
    EXPECT_TRUE(b.EndElement().ok());
  }
  EXPECT_TRUE(b.EndElement().ok());
  Result<XmlTree> tree = std::move(b).Finish();
  EXPECT_TRUE(tree.ok());
  return XmlIndex::Build(std::move(tree).value());
}

/// Dirty queries via the workload generator's RAND/RULE perturbations over
/// queries sampled from the corpus itself (answerable ground truth), the
/// same machinery the paper's Sec. VII-A evaluation uses.
std::vector<Query> DirtyQueries(const XmlIndex& index, uint64_t seed) {
  WorkloadOptions wopts;
  wopts.seed = seed;
  wopts.num_queries = 8;
  wopts.max_len = 3;
  wopts.min_keyword_cf = 1;
  Rng rng(seed);
  std::vector<Query> out;
  for (const Query& clean : SampleInitialQueries(index, wopts)) {
    out.push_back(clean);
    out.push_back(PerturbRand(clean, index, wopts, rng));
    out.push_back(PerturbRule(clean, index, wopts, rng));
  }
  return out;
}

void ExpectSameSuggestions(const std::vector<Suggestion>& fast,
                           const std::vector<Suggestion>& oracle,
                           double tolerance, const std::string& context) {
  ASSERT_EQ(fast.size(), oracle.size()) << context;
  for (size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i].words, oracle[i].words) << context << " rank " << i;
    EXPECT_NEAR(fast[i].score, oracle[i].score,
                tolerance * (1.0 + std::abs(oracle[i].score)))
        << context << " rank " << i;
    EXPECT_EQ(fast[i].entity_count, oracle[i].entity_count)
        << context << " rank " << i;
    EXPECT_EQ(fast[i].result_type, oracle[i].result_type)
        << context << " rank " << i;
  }
}

class DifferentialTest : public ::testing::TestWithParam<Semantics> {};

TEST_P(DifferentialTest, UnboundedXCleanEqualsNaiveOracle) {
  const Semantics semantics = GetParam();
  const uint64_t base = BaseSeed();
  for (uint64_t round = 0; round < 6; ++round) {
    const uint64_t seed = base + round;
    auto index = RandomCorpus(seed);
    XCleanOptions options;
    options.gamma = 0;
    options.semantics = semantics;
    options.top_k = 100;
    XClean fast(*index, options);
    NaiveCleaner oracle(*index, options);
    QueryScratch scratch;  // shared across queries: the production path
    std::vector<Suggestion> got;
    for (const Query& query : DirtyQueries(*index, seed)) {
      fast.SuggestWithScratch(query, scratch, &got, nullptr);
      ExpectSameSuggestions(got, oracle.Suggest(query), 1e-9,
                            query.ToString() + " seed " +
                                std::to_string(seed));
    }
  }
}

TEST_P(DifferentialTest, BoundedGammaIsSubsetWithUnderestimatedScores) {
  const Semantics semantics = GetParam();
  const uint64_t base = BaseSeed();
  for (uint64_t round = 0; round < 4; ++round) {
    const uint64_t seed = base + 100 + round;
    auto index = RandomCorpus(seed);
    XCleanOptions exact_opts;
    exact_opts.gamma = 0;
    exact_opts.semantics = semantics;
    exact_opts.top_k = 10000;  // the full exact candidate ranking
    XCleanOptions pruned_opts = exact_opts;
    pruned_opts.gamma = 4;
    pruned_opts.top_k = 10;
    XClean exact(*index, exact_opts);
    XClean pruned(*index, pruned_opts);
    for (const Query& query : DirtyQueries(*index, seed)) {
      std::vector<Suggestion> full = exact.SuggestWithStats(query, nullptr);
      XCleanRunStats stats;
      std::vector<Suggestion> topk = pruned.SuggestWithStats(query, &stats);
      const std::string context =
          query.ToString() + " seed " + std::to_string(seed);
      ASSERT_LE(topk.size(), pruned_opts.top_k) << context;
      for (const Suggestion& s : topk) {
        // Every surviving candidate exists in the exact ranking, and its
        // pruned score never exceeds the exact score (an evicted-and-
        // recreated accumulator restarts from zero, losing mass).
        auto it = std::find_if(full.begin(), full.end(),
                               [&](const Suggestion& f) {
                                 return f.words == s.words;
                               });
        ASSERT_NE(it, full.end()) << context << ": pruned suggestion not in "
                                  << "exact candidate set";
        EXPECT_LE(s.score,
                  it->score + 1e-9 * (1.0 + std::abs(it->score)))
            << context;
      }
      if (stats.accumulator_evictions == 0) {
        // No evictions: the bounded run is exact, so its list must be the
        // exact top-k prefix.
        ASSERT_LE(topk.size(), full.size()) << context;
        for (size_t i = 0; i < topk.size(); ++i) {
          EXPECT_EQ(topk[i].words, full[i].words) << context << " rank " << i;
          EXPECT_NEAR(topk[i].score, full[i].score,
                      1e-12 * (1.0 + std::abs(full[i].score)))
              << context << " rank " << i;
        }
      }
    }
  }
}

/// An attached-but-unlimited CancelToken must be bit-identical to no token
/// at all, against the naive oracle and across every semantics: the budget
/// checks may change when the algorithm stops, never one floating-point
/// operation of what it computes.
TEST_P(DifferentialTest, UnlimitedBudgetEqualsNaiveOracleBitIdentically) {
  const Semantics semantics = GetParam();
  const uint64_t base = BaseSeed();
  for (uint64_t round = 0; round < 3; ++round) {
    const uint64_t seed = base + 300 + round;
    auto index = RandomCorpus(seed);
    XCleanOptions options;
    options.gamma = 0;
    options.semantics = semantics;
    options.top_k = 100;
    XClean fast(*index, options);
    NaiveCleaner oracle(*index, options);
    QueryScratch scratch;
    std::vector<Suggestion> budgeted, bare;
    for (const Query& query : DirtyQueries(*index, seed)) {
      CancelToken unlimited;
      XCleanRunStats stats;
      fast.SuggestWithScratch(query, scratch, &budgeted, &stats, &unlimited);
      const std::string context =
          query.ToString() + " seed " + std::to_string(seed);
      EXPECT_FALSE(stats.truncated) << context;
      ExpectSameSuggestions(budgeted, oracle.Suggest(query), 1e-9, context);

      // And exactly equal — not merely within tolerance — to the same run
      // without a token.
      fast.SuggestWithScratch(query, scratch, &bare, nullptr);
      ASSERT_EQ(budgeted.size(), bare.size()) << context;
      for (size_t i = 0; i < budgeted.size(); ++i) {
        EXPECT_EQ(budgeted[i].words, bare[i].words) << context;
        EXPECT_EQ(budgeted[i].score, bare[i].score) << context;
        EXPECT_EQ(budgeted[i].entity_count, bare[i].entity_count) << context;
      }
    }
  }
}

/// gamma large enough to hold every candidate is exact end-to-end, across
/// every semantics and seed — the "subset-ordered prefix" property's
/// degenerate (and strongest) case.
TEST_P(DifferentialTest, LargeGammaEqualsUnbounded) {
  const Semantics semantics = GetParam();
  const uint64_t seed = BaseSeed() + 200;
  auto index = RandomCorpus(seed);
  XCleanOptions exact_opts;
  exact_opts.gamma = 0;
  exact_opts.semantics = semantics;
  exact_opts.top_k = 50;
  XCleanOptions bounded_opts = exact_opts;
  bounded_opts.gamma = 1000000;
  XClean exact(*index, exact_opts);
  XClean bounded(*index, bounded_opts);
  for (const Query& query : DirtyQueries(*index, seed)) {
    ExpectSameSuggestions(bounded.SuggestWithStats(query, nullptr),
                          exact.SuggestWithStats(query, nullptr), 1e-12,
                          query.ToString());
  }
}

/// One random document for the incremental-indexing oracle: documents are
/// depth-2 children of the live root, with the same confusable vocabulary
/// RandomCorpus uses so dirty queries hit overlapping variant sets across
/// layers.
std::string RandomDocumentXml(Rng& rng) {
  static const char* kWords[] = {
      "tree",  "trees", "trie",   "tried", "three", "icde",  "icdt",
      "index", "night", "light",  "sight", "graph", "grape", "query",
      "quern", "table", "cable",  "fable", "joins", "coins", "merge",
      "serge", "parse", "sparse", "terse"};
  const char* doc_tag = rng.Bernoulli(0.7) ? "paper" : "book";
  std::string xml = std::string("<") + doc_tag + ">";
  uint64_t fields = 1 + rng.Uniform(3);
  for (uint64_t f = 0; f < fields; ++f) {
    const char* tag = rng.Bernoulli(0.5) ? "title" : "abstract";
    xml += "<";
    xml += tag;
    xml += ">";
    uint64_t words = 1 + rng.Uniform(7);
    for (uint64_t w = 0; w < words; ++w) {
      if (w > 0) xml += " ";
      const char* word = kWords[rng.Uniform(std::size(kWords))];
      xml += word;
      if (rng.Bernoulli(0.15)) {
        xml += " ";
        xml += word;  // repeats drive tf > 1
      }
    }
    xml += "</";
    xml += tag;
    xml += ">";
  }
  xml += std::string("</") + doc_tag + ">";
  return xml;
}

/// Incremental-indexing oracle (XClean's layer-view exactness claim, DESIGN
/// §8, checked end to end): under a random schedule of adds, tombstone
/// deletes and compactions, XClean over the live stack must score every
/// query identically to an index rebuilt from scratch over exactly the
/// live documents. Both a single clean generation and a multi-layer stack
/// must come under test.
TEST(DeltaDifferentialTest, DeltaLayersEqualFullRebuild) {
  const uint64_t base_seed = BaseSeed();
  const Semantics all[] = {Semantics::kNodeType, Semantics::kSlca,
                           Semantics::kElca};
  for (const Semantics semantics : all) {
    const uint64_t seed =
        base_seed + 400 + static_cast<uint64_t>(semantics) * 17;
    Rng rng(seed);

    std::vector<std::string> base_docs;
    for (int i = 0; i < 6; ++i) base_docs.push_back(RandomDocumentXml(rng));
    Result<XmlTree> base_tree = ParseXmlCollection(base_docs, "corpus");
    ASSERT_TRUE(base_tree.ok()) << base_tree.status().ToString();
    std::shared_ptr<const XmlIndex> base =
        XmlIndex::Build(std::move(base_tree).value());

    delta::LiveIndexOptions lopts;
    lopts.xclean.gamma = 0;  // the oracle contract requires exact scoring
    lopts.xclean.semantics = semantics;
    lopts.xclean.top_k = 50;
    delta::LiveIndex live(base, lopts);

    std::vector<delta::DocId> known;
    for (delta::DocId d = 0; d < live.base_doc_count(); ++d) {
      known.push_back(d);
    }

    size_t fast_checks = 0;
    size_t layered_checks = 0;
    auto check = [&](uint64_t tag) {
      std::shared_ptr<const delta::LiveSnapshot> snap = live.snapshot();
      Result<XmlTree> joined = delta::JoinLiveTree(snap->layers());
      ASSERT_TRUE(joined.ok()) << joined.status().ToString();
      std::unique_ptr<XmlIndex> rebuilt =
          XmlIndex::Build(std::move(joined).value(), base->options());
      XClean oracle(*rebuilt, lopts.xclean);
      if (snap->fast_path()) {
        ++fast_checks;
      } else {
        ++layered_checks;
      }
      QueryScratch scratch;
      for (const Query& query : DirtyQueries(*rebuilt, seed + tag)) {
        ExpectSameSuggestions(snap->Suggest(query, &scratch),
                              oracle.SuggestWithStats(query, nullptr), 1e-9,
                              query.ToString() + " seed " +
                                  std::to_string(seed) + " op " +
                                  std::to_string(tag));
      }
    };

    check(0);  // pristine stack: the single-generation fast path
    const int kOps = 40;
    for (int op = 1; op <= kOps; ++op) {
      const uint64_t dice = rng.Uniform(100);
      if (dice < 55) {
        Result<delta::DocId> id = live.Add(RandomDocumentXml(rng));
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        known.push_back(id.value());
      } else if (dice < 85) {
        // May hit an already-deleted id: Delete is idempotent.
        ASSERT_TRUE(live.Delete(known[rng.Uniform(known.size())]).ok());
      } else {
        Result<uint64_t> gen = live.Compact();
        ASSERT_TRUE(gen.ok()) << gen.status().ToString();
      }
      if (op % 5 == 0 || op == kOps) check(static_cast<uint64_t>(op));
    }
    EXPECT_GT(fast_checks, 0u);
    EXPECT_GT(layered_checks, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSemantics, DifferentialTest,
                         ::testing::Values(Semantics::kNodeType,
                                           Semantics::kSlca,
                                           Semantics::kElca),
                         [](const auto& info) {
                           switch (info.param) {
                             case Semantics::kNodeType:
                               return "NodeType";
                             case Semantics::kSlca:
                               return "Slca";
                             default:
                               return "Elca";
                           }
                         });

}  // namespace
}  // namespace xclean
