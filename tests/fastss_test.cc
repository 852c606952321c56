#include "text/fastss.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "text/edit_distance.h"

namespace xclean {
namespace {

std::vector<std::string> BruteForce(const std::vector<std::string>& words,
                                    const std::string& query,
                                    uint32_t max_ed) {
  std::vector<std::string> out;
  for (const std::string& w : words) {
    if (EditDistance(query, w) <= max_ed) out.push_back(w);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> IndexFind(const FastSsIndex& index,
                                   const std::string& query,
                                   uint32_t max_ed) {
  std::vector<std::string> out;
  for (const FastSsIndex::Match& m : index.Find(query, max_ed)) {
    out.push_back(index.word(m.word_id));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Brute-force reference neighborhood: materializes every string obtainable
/// from `current` by deleting at most `remaining` characters, deduplicated
/// through the set (deleting different positions of repeated characters
/// yields the same string).
void EnumerateDeletions(const std::string& current, uint32_t remaining,
                        size_t min_pos, std::set<std::string>& out) {
  out.insert(current);
  if (remaining == 0) return;
  for (size_t i = min_pos; i < current.size(); ++i) {
    std::string next = current;
    next.erase(i, 1);
    // Deleting at position i then at j >= i covers every position subset.
    EnumerateDeletions(next, remaining - 1, i, out);
  }
}

std::set<std::string> DeletionNeighborhood(const std::string& word,
                                           uint32_t max_deletions) {
  std::set<std::string> out;
  EnumerateDeletions(word, max_deletions, 0, out);
  return out;
}

TEST(FastSsTest, ReferenceNeighborhoodSizeAndContent) {
  EXPECT_EQ(DeletionNeighborhood("abc", 0), (std::set<std::string>{"abc"}));
  EXPECT_EQ(DeletionNeighborhood("abc", 1),
            (std::set<std::string>{"abc", "bc", "ac", "ab"}));
  // Repeated characters dedupe: "aab" - 1 deletion -> {aab, ab, aa}.
  EXPECT_EQ(DeletionNeighborhood("aab", 1),
            (std::set<std::string>{"aab", "ab", "aa"}));
}

// The hash enumerator must emit exactly HashVariant(tag, v) for every
// distinct variant v of the reference neighborhood, sorted and once each.
TEST(FastSsTest, DeletionHashesMatchHashedReferenceNeighborhood) {
  Rng rng(77);
  std::vector<uint64_t> got;
  for (int round = 0; round < 400; ++round) {
    std::string word;
    const size_t len = rng.Uniform(13);
    // A 3-letter alphabet makes repeated characters (duplicate variants)
    // the common case.
    for (size_t i = 0; i < len; ++i) {
      word.push_back(static_cast<char>('a' + rng.Uniform(3)));
    }
    const auto k = static_cast<uint32_t>(rng.Uniform(4));
    for (FastSsIndex::Tag tag :
         {FastSsIndex::Tag::kWhole, FastSsIndex::Tag::kLeft,
          FastSsIndex::Tag::kRight}) {
      std::vector<uint64_t> want;
      for (const std::string& v : DeletionNeighborhood(word, k)) {
        want.push_back(FastSsIndex::HashVariant(tag, v));
      }
      std::sort(want.begin(), want.end());
      FastSsIndex::DeletionHashes(tag, word, k, got);
      EXPECT_EQ(got, want) << "word=\"" << word << "\" k=" << k
                           << " tag=" << static_cast<int>(tag);
    }
  }
}

TEST(FastSsTest, ExactMatchAtZero) {
  FastSsIndex index(FastSsIndex::Options{2, 13});
  index.Build({"tree", "trie", "trees"});
  auto matches = index.Find("tree", 0);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(index.word(matches[0].word_id), "tree");
  EXPECT_EQ(matches[0].distance, 0u);
}

TEST(FastSsTest, PaperExampleVariants) {
  FastSsIndex index(FastSsIndex::Options{1, 13});
  index.Build({"tree", "trees", "trie", "icde", "icdt", "forest"});
  EXPECT_EQ(IndexFind(index, "tree", 1),
            (std::vector<std::string>{"tree", "trees", "trie"}));
  EXPECT_EQ(IndexFind(index, "icdt", 1),
            (std::vector<std::string>{"icde", "icdt"}));
}

TEST(FastSsTest, ReportsCorrectDistances) {
  FastSsIndex index(FastSsIndex::Options{2, 13});
  index.Build({"health", "wealth", "stealth"});
  for (const auto& m : index.Find("health", 2)) {
    EXPECT_EQ(m.distance, EditDistance("health", index.word(m.word_id)));
  }
}

TEST(FastSsTest, EmptyIndex) {
  FastSsIndex index(FastSsIndex::Options{2, 13});
  index.Build({});
  EXPECT_TRUE(index.Find("anything", 2).empty());
}

/// Property: Find == brute force, across index radii and partition
/// thresholds (small thresholds force the partitioned code path).
struct FastSsParam {
  uint32_t max_ed;
  size_t partition_min_length;
};

class FastSsPropertyTest : public ::testing::TestWithParam<FastSsParam> {};

TEST_P(FastSsPropertyTest, MatchesBruteForce) {
  const FastSsParam param = GetParam();
  Rng rng(500 + param.max_ed * 10 + param.partition_min_length);

  auto random_word = [&](size_t min_len, size_t max_len) {
    std::string s;
    size_t len = min_len + rng.Uniform(max_len - min_len + 1);
    for (size_t i = 0; i < len; ++i) {
      s.push_back(static_cast<char>('a' + rng.Uniform(5)));
    }
    return s;
  };

  std::set<std::string> vocab_set;
  while (vocab_set.size() < 300) vocab_set.insert(random_word(3, 18));
  std::vector<std::string> vocab(vocab_set.begin(), vocab_set.end());

  FastSsIndex index(
      FastSsIndex::Options{param.max_ed, param.partition_min_length});
  index.Build(vocab);

  for (int q = 0; q < 100; ++q) {
    std::string query = random_word(2, 20);
    for (uint32_t ed = 0; ed <= param.max_ed; ++ed) {
      EXPECT_EQ(IndexFind(index, query, ed), BruteForce(vocab, query, ed))
          << "query=" << query << " ed=" << ed
          << " k=" << param.max_ed << " part=" << param.partition_min_length;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RadiiAndPartitions, FastSsPropertyTest,
    ::testing::Values(FastSsParam{1, 13}, FastSsParam{2, 13},
                      FastSsParam{2, 6}, FastSsParam{3, 9},
                      FastSsParam{3, 100}));

TEST(FastSsTest, PartitionedUsesFewerPostingsForLongWords) {
  std::vector<std::string> long_words;
  Rng rng(4242);
  for (int i = 0; i < 50; ++i) {
    std::string w;
    for (int j = 0; j < 16; ++j) {
      w.push_back(static_cast<char>('a' + rng.Uniform(26)));
    }
    long_words.push_back(w);
  }
  FastSsIndex full(FastSsIndex::Options{3, 100});
  full.Build(long_words);
  FastSsIndex partitioned(FastSsIndex::Options{3, 9});
  partitioned.Build(long_words);
  // Full Del_3 of a 16-char word is ~C(16,3) entries; two 1-deletion halves
  // are ~18. The space claim of Sec. V-A in action:
  EXPECT_LT(partitioned.posting_count() * 10, full.posting_count());
}

}  // namespace
}  // namespace xclean
