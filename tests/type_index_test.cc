// Property test for the type lists of Sec. V-B: on random small trees,
// every entry of type_index().list(w) must equal a brute-force count of
// f_w^p (Eq. 7) — the number of nodes of label path p whose subtree
// contains token w — and every non-zero count must have an entry. The
// brute force tokenizes each subtree from scratch, independent of the
// builder's posting lists and ancestor walk.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "index/xml_index.h"

namespace xclean {
namespace {

constexpr const char* kLabels[] = {"a", "b", "c", "d"};
constexpr const char* kWords[] = {"tree", "trie", "icde", "icdt",
                                  "forest", "xml", "query", "clean"};

void AddRandomElement(Rng& rng, uint32_t depth, XmlTreeBuilder& b) {
  ASSERT_TRUE(b.BeginElement(kLabels[rng.Uniform(4)]).ok());
  if (rng.Bernoulli(0.6)) {
    std::string text;
    const uint64_t words = rng.Uniform(5);
    for (uint64_t i = 0; i < words; ++i) {
      if (!text.empty()) text += ' ';
      text += kWords[rng.Uniform(8)];
    }
    ASSERT_TRUE(b.AddText(text).ok());
  }
  if (depth < 5) {
    const uint64_t children = rng.Uniform(4);
    for (uint64_t i = 0; i < children; ++i) {
      AddRandomElement(rng, depth + 1, b);
    }
  }
  ASSERT_TRUE(b.EndElement().ok());
}

XmlTree RandomTree(uint64_t seed) {
  Rng rng(seed);
  XmlTreeBuilder b;
  EXPECT_TRUE(b.BeginElement("root").ok());
  const uint64_t docs = 1 + rng.Uniform(6);
  for (uint64_t i = 0; i < docs; ++i) AddRandomElement(rng, 2, b);
  EXPECT_TRUE(b.EndElement().ok());
  Result<XmlTree> tree = std::move(b).Finish();
  EXPECT_TRUE(tree.ok());
  return std::move(tree).value();
}

/// (token, path) -> f_w^p, counted node by node from the raw text.
std::map<std::pair<std::string, PathId>, uint32_t> BruteForceTypeFreqs(
    const XmlIndex& index) {
  const XmlTree& tree = index.tree();
  std::map<std::pair<std::string, PathId>, uint32_t> freq;
  for (NodeId n = 0; n < tree.size(); ++n) {
    std::set<std::string> contained;
    for (NodeId d = n; d <= tree.subtree_end(n); ++d) {
      if (!tree.has_text(d)) continue;
      for (std::string& w : index.tokenizer().Tokenize(tree.text(d))) {
        contained.insert(std::move(w));
      }
    }
    for (const std::string& w : contained) ++freq[{w, tree.path_id(n)}];
  }
  return freq;
}

class TypeIndexPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(TypeIndexPropertyTest, ListsEqualBruteForceSubtreeCounts) {
  for (uint64_t seed = 0; seed < 200; ++seed) {
    IndexOptions options;
    options.build_threads = GetParam();
    auto index = XmlIndex::Build(RandomTree(seed), options);
    const auto want = BruteForceTypeFreqs(*index);

    std::map<std::pair<std::string, PathId>, uint32_t> got;
    const Vocabulary& vocabulary = index->vocabulary();
    for (TokenId t = 0; t < vocabulary.size(); ++t) {
      PathId prev = 0;
      bool first = true;
      for (const PathFreq& pf : index->type_index().list(t)) {
        EXPECT_TRUE(first || pf.path > prev)
            << "type list of \"" << vocabulary.token(t)
            << "\" not strictly sorted by path, seed " << seed;
        EXPECT_GT(pf.freq, 0u);
        got[{vocabulary.token(t), pf.path}] = pf.freq;
        prev = pf.path;
        first = false;
      }
    }
    ASSERT_EQ(got, want) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(BuildThreads, TypeIndexPropertyTest,
                         ::testing::Values(size_t{1}, size_t{3}));

}  // namespace
}  // namespace xclean
