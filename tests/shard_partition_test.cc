#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/durable_file.h"
#include "common/random.h"
#include "core/elca.h"
#include "core/slca.h"
#include "index/shard_manifest.h"
#include "shard/sharded_corpus.h"
#include "tests/shard_testutil.h"
#include "xml/dewey.h"
#include "xml/tree.h"

namespace xclean::shard {
namespace {

using shardtest::RandomCorpusTree;
using shardtest::ShardBaseSeed;

/// Property: PartitionByWeight tiles the document space — every ordinal in
/// exactly one range, ranges contiguous in shard order, boundaries
/// deterministic.
TEST(ShardPartitionTest, RangesTileDocumentSpace) {
  const uint64_t base = ShardBaseSeed();
  for (uint64_t round = 0; round < 50; ++round) {
    Rng rng(base + round);
    const size_t num_docs = rng.Uniform(40);  // includes 0
    const size_t num_shards = 1 + rng.Uniform(8);
    std::vector<uint64_t> weights;
    for (size_t i = 0; i < num_docs; ++i) {
      // Heavy-tailed weights: occasional giant documents stress the
      // boundary rounding.
      weights.push_back(rng.Bernoulli(0.1) ? 1 + rng.Uniform(1000)
                                           : 1 + rng.Uniform(20));
    }
    SCOPED_TRACE("seed " + std::to_string(base + round) + " docs " +
                 std::to_string(num_docs) + " shards " +
                 std::to_string(num_shards));

    const std::vector<ShardRange> ranges =
        PartitionByWeight(weights, num_shards);
    ASSERT_EQ(ranges.size(), num_shards);
    EXPECT_EQ(ranges.front().doc_begin, 0u);
    EXPECT_EQ(ranges.back().doc_end, num_docs);
    for (size_t s = 0; s < num_shards; ++s) {
      EXPECT_LE(ranges[s].doc_begin, ranges[s].doc_end);
      if (s > 0) EXPECT_EQ(ranges[s].doc_begin, ranges[s - 1].doc_end);
    }
    for (uint32_t doc = 0; doc < num_docs; ++doc) {
      size_t owners = 0;
      for (const ShardRange& r : ranges) owners += r.Contains(doc);
      EXPECT_EQ(owners, 1u) << "doc " << doc;
      EXPECT_NE(ShardForDocument(ranges, doc), UINT32_MAX);
    }
    EXPECT_EQ(ShardForDocument(ranges, static_cast<uint32_t>(num_docs)),
              UINT32_MAX);
    // Determinism: the partition is a pure function of its inputs.
    EXPECT_TRUE(std::equal(ranges.begin(), ranges.end(),
                           PartitionByWeight(weights, num_shards).begin(),
                           [](const ShardRange& a, const ShardRange& b) {
                             return a.doc_begin == b.doc_begin &&
                                    a.doc_end == b.doc_end;
                           }));
  }
}

/// Weight balance: no shard exceeds the ideal share by more than one
/// document's weight (the granularity limit of contiguous partitioning).
TEST(ShardPartitionTest, BalancedWithinOneDocumentGranularity) {
  const uint64_t base = ShardBaseSeed();
  for (uint64_t round = 0; round < 20; ++round) {
    Rng rng(base + 1000 + round);
    const size_t num_docs = 10 + rng.Uniform(60);
    const size_t num_shards = 2 + rng.Uniform(6);
    std::vector<uint64_t> weights;
    uint64_t total = 0, max_w = 0;
    for (size_t i = 0; i < num_docs; ++i) {
      weights.push_back(1 + rng.Uniform(30));
      total += weights.back();
      max_w = std::max(max_w, weights.back());
    }
    const std::vector<ShardRange> ranges =
        PartitionByWeight(weights, num_shards);
    const double ideal = static_cast<double>(total) / num_shards;
    for (size_t s = 0; s < num_shards; ++s) {
      uint64_t w = 0;
      for (uint32_t d = ranges[s].doc_begin; d < ranges[s].doc_end; ++d) {
        w += weights[d];
      }
      EXPECT_LE(w, ideal + max_w)
          << "shard " << s << " seed " << (base + 1000 + round);
    }
  }
}

/// The Dewey-boundary property the range partition rests on: a document's
/// ordinal is its Dewey code's second component minus one, so a contiguous
/// ordinal range is a contiguous Dewey range, and the string round-trip
/// (DeweyString -> DeweyFromString -> FindByDewey) is the identity at and
/// around every partition boundary.
TEST(ShardPartitionTest, DeweyBoundaryMathMatchesOrdinals) {
  const uint64_t base = ShardBaseSeed();
  for (uint64_t round = 0; round < 6; ++round) {
    const XmlTree corpus = RandomCorpusTree(base + round);
    const std::vector<NodeId> docs = DocumentRoots(corpus);
    std::vector<uint64_t> weights;
    for (NodeId doc : docs) {
      weights.push_back(corpus.subtree_end(doc) - doc + 1);
    }
    for (size_t num_shards : {1u, 2u, 4u, 7u}) {
      const std::vector<ShardRange> ranges =
          PartitionByWeight(weights, num_shards);
      SCOPED_TRACE("seed " + std::to_string(base + round) + " shards " +
                   std::to_string(num_shards));
      for (uint32_t ordinal = 0; ordinal < docs.size(); ++ordinal) {
        const NodeId doc = docs[ordinal];
        const std::string dewey_str = corpus.DeweyString(doc);
        const std::vector<uint32_t> parsed = DeweyFromString(dewey_str);
        ASSERT_EQ(parsed.size(), 2u) << dewey_str;
        EXPECT_EQ(parsed[0], 1u);
        EXPECT_EQ(parsed[1], ordinal + 1) << dewey_str;
        EXPECT_EQ(corpus.FindByDewey(DeweyView(parsed)), doc);
        EXPECT_EQ(DocumentOrdinal(corpus, doc), ordinal);
        // The node one past a shard's last document belongs to a strictly
        // later shard (possibly skipping empty ranges) — boundaries cut
        // exactly between sibling subtrees, never through one.
        const uint32_t shard = ShardForDocument(ranges, ordinal);
        ASSERT_NE(shard, UINT32_MAX);
        if (ordinal + 1 < docs.size() &&
            ordinal + 1 == ranges[shard].doc_end) {
          const uint32_t next = ShardForDocument(ranges, ordinal + 1);
          ASSERT_NE(next, UINT32_MAX);
          EXPECT_GT(next, shard);
        }
      }
      // Every node below the root maps to a document whose subtree
      // actually contains it, so the preorder id range of each shard's
      // documents covers the shard's node population with no leaks.
      for (NodeId n = 1; n < corpus.size(); ++n) {
        const uint32_t ordinal = DocumentOrdinal(corpus, n);
        ASSERT_LT(ordinal, docs.size()) << "node " << n;
        const NodeId doc = docs[ordinal];
        EXPECT_TRUE(doc <= n && n <= corpus.subtree_end(doc))
            << "node " << n << " ordinal " << ordinal;
        EXPECT_NE(ShardForDocument(ranges, ordinal), UINT32_MAX);
      }
    }
  }
}

/// SLCA/ELCA anchors never straddle a partition boundary: any SLCA or ELCA
/// of depth >= min_depth (2) lies inside a single document, hence a single
/// shard — cross-shard witness combinations only ever meet at the root,
/// which min_depth excludes. This is the locality argument that lets each
/// shard compute its entities independently.
/// Options that break shard locality are refused with InvalidArgument.
TEST(ShardPartitionTest, BuildRefusesOptionsThatBreakShardLocality) {
  const XmlTree corpus = RandomCorpusTree(ShardBaseSeed() + 4000);
  ShardedCorpusOptions shallow;
  shallow.xclean.min_depth = 1;
  ShardedCorpusOptions prior;
  prior.xclean.entity_prior = [](NodeId) { return 1.0; };
  for (const ShardedCorpusOptions& options : {shallow, prior}) {
    Result<ShardedCorpus> built = BuildShardedCorpus(corpus, options);
    ASSERT_FALSE(built.ok());
    EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ShardPartitionTest, LcaAnchorsNeverStraddleShards) {
  const uint64_t base = ShardBaseSeed();
  for (uint64_t round = 0; round < 6; ++round) {
    const XmlTree corpus = RandomCorpusTree(base + 2000 + round);
    const std::vector<NodeId> docs = DocumentRoots(corpus);
    std::vector<uint64_t> weights;
    for (NodeId doc : docs) {
      weights.push_back(corpus.subtree_end(doc) - doc + 1);
    }
    const std::vector<ShardRange> ranges = PartitionByWeight(weights, 4);
    Rng rng(base + 2000 + round);

    for (int trial = 0; trial < 40; ++trial) {
      // Random witness lists spanning shards (the adversarial case).
      std::vector<std::vector<NodeId>> lists(1 + rng.Uniform(3));
      for (std::vector<NodeId>& list : lists) {
        const size_t n = 1 + rng.Uniform(6);
        for (size_t i = 0; i < n; ++i) {
          list.push_back(1 + static_cast<NodeId>(
                                 rng.Uniform(corpus.size() - 1)));
        }
        std::sort(list.begin(), list.end());
        list.erase(std::unique(list.begin(), list.end()), list.end());
      }
      for (const std::vector<NodeId>& anchors :
           {ComputeSlcas(corpus, lists), ComputeElcas(corpus, lists)}) {
        for (NodeId anchor : anchors) {
          if (corpus.depth(anchor) < 2) continue;  // root: below min_depth
          const uint32_t shard =
              ShardForDocument(ranges, DocumentOrdinal(corpus, anchor));
          // The whole anchor subtree sits in that shard.
          for (NodeId n = anchor; n <= corpus.subtree_end(anchor); ++n) {
            ASSERT_EQ(ShardForDocument(ranges, DocumentOrdinal(corpus, n)),
                      shard)
                << "anchor " << anchor << " node " << n << " seed "
                << (base + 2000 + round);
          }
        }
      }
    }
  }
}

class ShardManifestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "shard_manifest_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(ShardManifestTest, RoundTrip) {
  ShardSetManifest manifest;
  manifest.generation = 42;
  manifest.shards = {
      {0, 0, 3, "shard-0000.idx", 123, 0xdeadbeefULL},
      {1, 3, 3, "shard-0001.idx", 0, 0},  // empty range is legal
      {2, 3, 9, "shard-0002.idx", 456, 0x1234ULL},
  };
  ASSERT_TRUE(SaveShardSetManifest(dir_, manifest).ok());
  Result<ShardSetManifest> loaded = LoadShardSetManifest(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->generation, 42u);
  ASSERT_EQ(loaded->shards.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(loaded->shards[i].shard_id, manifest.shards[i].shard_id);
    EXPECT_EQ(loaded->shards[i].doc_begin, manifest.shards[i].doc_begin);
    EXPECT_EQ(loaded->shards[i].doc_end, manifest.shards[i].doc_end);
    EXPECT_EQ(loaded->shards[i].file, manifest.shards[i].file);
    EXPECT_EQ(loaded->shards[i].bytes, manifest.shards[i].bytes);
    EXPECT_EQ(loaded->shards[i].checksum, manifest.shards[i].checksum);
  }
}

TEST_F(ShardManifestTest, CorruptRecordIsParseError) {
  ShardSetManifest manifest;
  manifest.generation = 1;
  manifest.shards = {{0, 0, 5, "shard-0000.idx", 10, 7}};
  ASSERT_TRUE(SaveShardSetManifest(dir_, manifest).ok());
  Result<std::string> contents = ReadFileToString(dir_ + "/SHARDSET");
  ASSERT_TRUE(contents.ok());
  std::string flipped = contents.value();
  flipped[flipped.find("shard ")] ^= 0x20;  // flip one payload bit
  ASSERT_TRUE(AtomicWriteFile(dir_ + "/SHARDSET", flipped).ok());
  Result<ShardSetManifest> loaded = LoadShardSetManifest(dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

TEST_F(ShardManifestTest, NonContiguousRangesRejected) {
  ShardSetManifest manifest;
  manifest.generation = 1;
  manifest.shards = {
      {0, 0, 3, "shard-0000.idx", 1, 1},
      {1, 4, 6, "shard-0001.idx", 1, 1},  // gap: doc 3 unowned
  };
  ASSERT_TRUE(SaveShardSetManifest(dir_, manifest).ok());
  Result<ShardSetManifest> loaded = LoadShardSetManifest(dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

/// Save/Load of a whole sharded corpus: the reloaded shard set serves
/// (generation, ranges, global stats) exactly like the in-memory build.
TEST_F(ShardManifestTest, ShardedCorpusRoundTrip) {
  const XmlTree corpus = RandomCorpusTree(ShardBaseSeed() + 3000);
  ShardedCorpusOptions options;
  options.num_shards = 3;
  options.xclean.gamma = 0;
  Result<ShardedCorpus> built =
      BuildShardedCorpus(corpus, options, /*generation=*/7);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_TRUE(SaveShardedCorpus(built.value(), dir_).ok());

  Result<ShardedCorpus> loaded = LoadShardedCorpus(dir_, options.xclean);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->generation, 7u);
  ASSERT_EQ(loaded->num_shards(), 3u);
  for (size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(loaded->ranges[s].doc_begin, built->ranges[s].doc_begin);
    EXPECT_EQ(loaded->ranges[s].doc_end, built->ranges[s].doc_end);
    EXPECT_EQ(loaded->layers->layers[s].index->tree().size(),
              built->layers->layers[s].index->tree().size());
  }
  // A tampered shard snapshot must fail the checksum gate, not load.
  Result<std::string> bytes = ReadFileToString(dir_ + "/shard-0001.idx");
  ASSERT_TRUE(bytes.ok());
  std::string corrupted = bytes.value();
  corrupted[corrupted.size() / 2] ^= 0xFF;
  ASSERT_TRUE(AtomicWriteFile(dir_ + "/shard-0001.idx", corrupted).ok());
  EXPECT_FALSE(LoadShardedCorpus(dir_, options.xclean).ok());
}

}  // namespace
}  // namespace xclean::shard
