#include "text/fastss.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "text/edit_distance.h"

namespace xclean {

/// Reads the posting layout the probe relies on.
struct FastSsIndexPeer {
  using Posting = FastSsIndex::Posting;

  static size_t BucketCount() { return FastSsIndex::kNumBuckets; }
  static size_t BucketOf(uint64_t hash) { return FastSsIndex::BucketOf(hash); }
  static Posting Project(uint64_t hash, uint32_t word_id) {
    return Posting{FastSsIndex::FingerprintOf(hash), word_id};
  }
  /// The postings of bucket b, in stored order.
  static std::vector<Posting> Bucket(const FastSsIndex& index, size_t b) {
    return {index.postings_.begin() + index.bucket_start_[b],
            index.postings_.begin() + index.bucket_start_[b + 1]};
  }
};

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

/// The 8-byte layout, pinned against the reference neighborhoods: bucket b
/// holds exactly the (fingerprint, word) projections of the variant hashes
/// whose top bits are b, sorted by (fp, word_id), and the posting count is
/// the sum of the reference neighborhood sizes.
TEST(FastSsTest, BucketsHoldSortedProjectionsOfReferenceNeighborhoods) {
  using Peer = FastSsIndexPeer;
  const FastSsIndex::Options options{2, 9};
  Rng rng(2024);
  std::set<std::string> vocab_set;
  while (vocab_set.size() < 400) {
    std::string w;
    const size_t len = 3 + rng.Uniform(12);
    for (size_t i = 0; i < len; ++i) {
      w.push_back(static_cast<char>('a' + rng.Uniform(6)));
    }
    vocab_set.insert(w);
  }
  std::vector<std::string> vocab(vocab_set.begin(), vocab_set.end());
  FastSsIndex index(options);
  index.Build(vocab);

  std::map<size_t, std::vector<Peer::Posting>> want;
  size_t reference_size = 0;
  auto add = [&](FastSsIndex::Tag tag, const std::string& piece,
                 uint32_t deletions, uint32_t id) {
    for (const std::string& v : DeletionNeighborhood(piece, deletions)) {
      const uint64_t hash = FastSsIndex::HashVariant(tag, v);
      want[Peer::BucketOf(hash)].push_back(Peer::Project(hash, id));
      ++reference_size;
    }
  };
  for (uint32_t id = 0; id < vocab.size(); ++id) {
    const std::string& w = vocab[id];
    if (w.size() >= options.partition_min_length) {
      const size_t h = (w.size() + 1) / 2;
      add(FastSsIndex::Tag::kLeft, w.substr(0, h), options.max_ed / 2, id);
      add(FastSsIndex::Tag::kRight, w.substr(h), options.max_ed / 2, id);
    } else {
      add(FastSsIndex::Tag::kWhole, w, options.max_ed, id);
    }
  }
  EXPECT_EQ(index.posting_count(), reference_size);

  size_t seen = 0;
  for (size_t b = 0; b < Peer::BucketCount(); ++b) {
    const std::vector<Peer::Posting> got = Peer::Bucket(index, b);
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end())) << "bucket " << b;
    std::vector<Peer::Posting> expected;
    if (auto it = want.find(b); it != want.end()) expected = it->second;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(got, expected) << "bucket " << b;
    seen += got.size();
  }
  EXPECT_EQ(seen, index.posting_count());
}

/// The memory figure is exact: 8 bytes per posting, the 65,537-entry
/// bucket directory, and each word's copy.
TEST(FastSsTest, ApproxMemoryBytesCountsPostingsDirectoryAndWords) {
  FastSsIndex index(FastSsIndex::Options{1, 13});
  index.Build({"tree", "trie", "icde"});
  // Del_1: tree -> {tree, ree, tee, tre}; trie -> {trie, rie, tie, tre,
  // tri}; icde -> {icde, cde, ide, ice, icd}.
  ASSERT_EQ(index.posting_count(), 14u);
  EXPECT_EQ(index.ApproxMemoryBytes(),
            14 * 8 + 65537 * 4 + 3 * (sizeof(std::string) + 4));
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
