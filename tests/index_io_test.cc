#include "index/index_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/random.h"
#include "core/xclean.h"
#include "data/dblp_gen.h"
#include "xml/parser.h"

namespace xclean {
namespace {

std::unique_ptr<XmlIndex> BuildSample() {
  IndexOptions options;
  options.fastss_max_ed = 2;
  return XmlIndex::Build(
      std::move(ParseXmlString(
                    "<a><c><x>tree</x><x>trie icde</x></c>"
                    "<d><x>trie</x><x>icde icdt icde</x></d></a>")
                    .value()),
      options);
}

std::string SaveToString(const XmlIndex& index,
                         IndexSaveOptions options = IndexSaveOptions()) {
  std::ostringstream out;
  EXPECT_TRUE(SaveIndex(index, out, options).ok());
  return out.str();
}

std::unique_ptr<XmlIndex> LoadFromString(const std::string& bytes) {
  std::istringstream in(bytes);
  Result<std::unique_ptr<XmlIndex>> r = LoadIndex(in);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

TEST(IndexIoTest, RoundTripPreservesStructureAndStats) {
  auto original = BuildSample();
  auto loaded = LoadFromString(SaveToString(*original));

  const XmlTree& t1 = original->tree();
  const XmlTree& t2 = loaded->tree();
  ASSERT_EQ(t1.size(), t2.size());
  for (NodeId n = 0; n < t1.size(); ++n) {
    EXPECT_EQ(t1.label(n), t2.label(n));
    EXPECT_EQ(t1.text(n), t2.text(n));
    EXPECT_EQ(t1.depth(n), t2.depth(n));
    EXPECT_EQ(t1.subtree_end(n), t2.subtree_end(n));
    EXPECT_EQ(t1.path_id(n), t2.path_id(n));
    EXPECT_EQ(t1.DeweyString(n), t2.DeweyString(n));
  }

  ASSERT_EQ(original->vocabulary().size(), loaded->vocabulary().size());
  for (TokenId tok = 0; tok < original->vocabulary().size(); ++tok) {
    EXPECT_EQ(original->vocabulary().token(tok),
              loaded->vocabulary().token(tok));
    EXPECT_EQ(original->collection_freq(tok), loaded->collection_freq(tok));
    EXPECT_EQ(original->doc_freq(tok), loaded->doc_freq(tok));
    const PostingList& l1 = original->postings(tok);
    const PostingList& l2 = loaded->postings(tok);
    ASSERT_EQ(l1.size(), l2.size());
    for (size_t i = 0; i < l1.size(); ++i) {
      EXPECT_EQ(l1[i].node, l2[i].node);
      EXPECT_EQ(l1[i].tf, l2[i].tf);
    }
    auto tl1 = original->type_index().list(tok);
    auto tl2 = loaded->type_index().list(tok);
    ASSERT_EQ(tl1.size(), tl2.size());
    for (size_t i = 0; i < tl1.size(); ++i) {
      EXPECT_EQ(tl1[i].path, tl2[i].path);
      EXPECT_EQ(tl1[i].freq, tl2[i].freq);
    }
  }
  EXPECT_EQ(original->total_tokens(), loaded->total_tokens());
  EXPECT_EQ(original->text_node_count(), loaded->text_node_count());
  for (NodeId n = 0; n < t1.size(); ++n) {
    EXPECT_EQ(original->node_token_count(n), loaded->node_token_count(n));
    EXPECT_EQ(original->subtree_token_count(n),
              loaded->subtree_token_count(n));
  }
  EXPECT_EQ(original->options().fastss_max_ed,
            loaded->options().fastss_max_ed);
}

TEST(IndexIoTest, LoadedIndexGivesIdenticalSuggestions) {
  auto original = BuildSample();
  auto loaded = LoadFromString(SaveToString(*original));

  XCleanOptions options;
  options.max_ed = 1;
  options.gamma = 0;
  XClean a(*original, options);
  XClean b(*loaded, options);
  Query q;
  q.keywords = {"tree", "icdt"};
  auto sa = a.Suggest(q);
  auto sb = b.Suggest(q);
  ASSERT_EQ(sa.size(), sb.size());
  for (size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].words, sb[i].words);
    EXPECT_DOUBLE_EQ(sa[i].score, sb[i].score);
  }
}

TEST(IndexIoTest, RoundTripOnGeneratedCorpus) {
  DblpGenOptions gen;
  gen.num_publications = 300;
  auto original = XmlIndex::Build(GenerateDblp(gen));
  std::string bytes = SaveToString(*original);
  auto loaded = LoadFromString(bytes);
  EXPECT_EQ(original->stats().node_count, loaded->stats().node_count);
  EXPECT_EQ(original->stats().vocabulary_size,
            loaded->stats().vocabulary_size);
  // FastSS works after load (its postings were persisted, not rebuilt).
  EXPECT_EQ(loaded->fastss().Find("algorithm", 1).size(),
            original->fastss().Find("algorithm", 1).size());
}

TEST(IndexIoTest, FileRoundTrip) {
  auto original = BuildSample();
  std::string path = testing::TempDir() + "/xclean_index_io_test.idx";
  ASSERT_TRUE(SaveIndex(*original, path).ok());
  Result<std::unique_ptr<XmlIndex>> loaded = LoadIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->total_tokens(), original->total_tokens());
  std::remove(path.c_str());
}

TEST(IndexIoTest, RejectsBadMagic) {
  std::istringstream in("NOTANINDEXFILE................");
  Result<std::unique_ptr<XmlIndex>> r = LoadIndex(in);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("magic"), std::string::npos);
}

TEST(IndexIoTest, RejectsWrongVersion) {
  auto original = BuildSample();
  std::string bytes = SaveToString(*original);
  bytes[6] = 99;  // version byte
  std::istringstream in(bytes);
  Result<std::unique_ptr<XmlIndex>> r = LoadIndex(in);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("version"), std::string::npos);
}

TEST(IndexIoTest, RejectsTruncation) {
  auto original = BuildSample();
  std::string bytes = SaveToString(*original);
  for (size_t cut : {bytes.size() - 1, bytes.size() / 2, size_t{10}}) {
    std::istringstream in(bytes.substr(0, cut));
    EXPECT_FALSE(LoadIndex(in).ok()) << "cut at " << cut;
  }
}

TEST(IndexIoTest, RejectsBitFlips) {
  auto original = BuildSample();
  std::string bytes = SaveToString(*original);
  // Flip a byte in the payload: checksum must catch it.
  size_t payload_start = 6 + 4 + 8;
  for (size_t offset : {payload_start, payload_start + 37,
                        bytes.size() - 9 - 1}) {
    std::string corrupted = bytes;
    corrupted[offset] = static_cast<char>(corrupted[offset] ^ 0x5A);
    std::istringstream in(corrupted);
    EXPECT_FALSE(LoadIndex(in).ok()) << "flip at " << offset;
  }
}

TEST(IndexIoTest, MissingFile) {
  Result<std::unique_ptr<XmlIndex>> r = LoadIndex("/no/such/file.idx");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(IndexIoTest, DefaultWriteIsLatestFormat) {
  auto original = BuildSample();
  std::string bytes = SaveToString(*original);
  EXPECT_EQ(static_cast<uint32_t>(bytes[6]), kIndexFormatLatest);
}

TEST(IndexIoTest, RejectsUnknownWriteVersion) {
  auto original = BuildSample();
  std::ostringstream out;
  Status s = SaveIndex(*original, out, IndexSaveOptions{.format_version = 3});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

// Old-version snapshots written by the legacy monolithic format must keep
// loading after the v2 switch.
TEST(IndexIoTest, V1FilesStillLoad) {
  auto original = BuildSample();
  std::string v1 = SaveToString(
      *original, IndexSaveOptions{.format_version = kIndexFormatV1});
  EXPECT_EQ(static_cast<uint32_t>(v1[6]), kIndexFormatV1);
  auto loaded = LoadFromString(v1);

  EXPECT_EQ(original->stats().node_count, loaded->stats().node_count);
  EXPECT_EQ(original->total_tokens(), loaded->total_tokens());

  XCleanOptions options;
  options.max_ed = 1;
  options.gamma = 0;
  XClean a(*original, options);
  XClean b(*loaded, options);
  Query q;
  q.keywords = {"tree", "icdt"};
  auto sa = a.Suggest(q);
  auto sb = b.Suggest(q);
  ASSERT_EQ(sa.size(), sb.size());
  for (size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].words, sb[i].words);
    EXPECT_DOUBLE_EQ(sa[i].score, sb[i].score);
  }
}

TEST(IndexIoTest, V1RejectsTruncationAndBitFlips) {
  auto original = BuildSample();
  std::string bytes = SaveToString(
      *original, IndexSaveOptions{.format_version = kIndexFormatV1});
  for (size_t cut : {bytes.size() - 1, bytes.size() / 2, size_t{10}}) {
    std::istringstream in(bytes.substr(0, cut));
    EXPECT_FALSE(LoadIndex(in).ok()) << "cut at " << cut;
  }
  size_t payload_start = 6 + 4 + 8;
  for (size_t offset :
       {payload_start, payload_start + 37, bytes.size() - 9 - 1}) {
    std::string corrupted = bytes;
    corrupted[offset] = static_cast<char>(corrupted[offset] ^ 0x5A);
    std::istringstream in(corrupted);
    EXPECT_FALSE(LoadIndex(in).ok()) << "flip at " << offset;
  }
}

// The sectioned v2 layout reports *which* structure a corruption hit.
TEST(IndexIoTest, V2CorruptionNamesTheSection) {
  auto original = BuildSample();
  std::string bytes = SaveToString(*original);
  // Flip a byte well inside the first (tree) section's payload: the
  // header is magic(6) + version(4) + tag(1) + size(8).
  size_t tree_payload_start = 6 + 4 + 1 + 8;
  std::string corrupted = bytes;
  corrupted[tree_payload_start + 5] ^= 0x5A;
  std::istringstream in(corrupted);
  Result<std::unique_ptr<XmlIndex>> r = LoadIndex(in);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("tree"), std::string::npos)
      << r.status().ToString();
}

// The tentpole's compression claim, asserted: delta + varint encoding must
// shrink a realistic snapshot by at least 30% versus the v1 raw structs.
TEST(IndexIoTest, V2IsAtLeast30PercentSmallerThanV1) {
  DblpGenOptions gen;
  gen.num_publications = 300;
  auto index = XmlIndex::Build(GenerateDblp(gen));
  std::string v1 =
      SaveToString(*index, IndexSaveOptions{.format_version = kIndexFormatV1});
  std::string v2 = SaveToString(*index);
  EXPECT_LE(v2.size(), (v1.size() * 7) / 10)
      << "v1=" << v1.size() << " bytes, v2=" << v2.size() << " bytes";
  // And the compressed form still round-trips losslessly.
  auto loaded = LoadFromString(v2);
  EXPECT_EQ(index->stats().node_count, loaded->stats().node_count);
  EXPECT_EQ(index->stats().vocabulary_size, loaded->stats().vocabulary_size);
  EXPECT_EQ(index->total_tokens(), loaded->total_tokens());
}

// Damaged files rejected through the path-based entry point — the one
// ServingEngine::SwapIndexFromFile depends on. A truncated copy (torn
// write) and a bit-flipped copy (disk corruption) must both come back
// non-OK, and the intact bytes must load again afterwards.
TEST(IndexIoTest, FileBasedTruncationAndCorruptionAreRejected) {
  auto original = BuildSample();
  std::string good = SaveToString(*original);
  std::string path = testing::TempDir() + "/xclean_index_io_damage.idx";
  auto write_file = [&](const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };

  write_file(good.substr(0, good.size() / 2));
  EXPECT_FALSE(LoadIndex(path).ok());

  std::string corrupted = good;
  corrupted[good.size() - 10] =
      static_cast<char>(corrupted[good.size() - 10] ^ 0x5A);
  write_file(corrupted);
  EXPECT_FALSE(LoadIndex(path).ok());

  write_file(good);
  EXPECT_TRUE(LoadIndex(path).ok());
  std::remove(path.c_str());
}

// A v2 load followed by a save must reproduce the exact input bytes (the
// loader rebuilds every structure the writer serializes).
TEST(IndexIoTest, V2LoadSaveIsByteStable) {
  auto original = BuildSample();
  std::string bytes = SaveToString(*original);
  auto loaded = LoadFromString(bytes);
  EXPECT_EQ(SaveToString(*loaded), bytes);
}

// A loaded index keeps only the 8-byte projection of the FastSS section;
// its probes must find exactly what the built index finds, from either
// format. Every vocabulary word is probed with one random edit.
TEST(IndexIoTest, LoadedFastSsFindsWhatTheBuiltIndexFinds) {
  DblpGenOptions gen;
  gen.num_publications = 300;
  IndexOptions options;
  // Partition the longer words too, so the split probes are exercised.
  options.fastss_partition_min_length = 9;
  auto built = XmlIndex::Build(GenerateDblp(gen), options);
  ASSERT_TRUE(built->fastss().size() > 100);
  auto v1 = LoadFromString(SaveToString(
      *built, IndexSaveOptions{.format_version = kIndexFormatV1}));
  auto v2 = LoadFromString(SaveToString(*built));

  auto same = [](const std::vector<FastSsIndex::Match>& a,
                 const std::vector<FastSsIndex::Match>& b) {
    return a.size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin(),
                      [](const FastSsIndex::Match& x,
                         const FastSsIndex::Match& y) {
                        return x.word_id == y.word_id &&
                               x.distance == y.distance;
                      });
  };
  Rng rng(99);
  size_t matched = 0;
  for (const std::string& word : built->vocabulary().tokens()) {
    std::string query = word;
    const size_t pos = rng.Uniform(query.size() + 1);
    const char c = static_cast<char>('a' + rng.Uniform(26));
    switch (rng.Uniform(3)) {
      case 0:
        query.insert(query.begin() + pos, c);
        break;
      case 1:
        if (pos < query.size()) query.erase(pos, 1);
        break;
      default:
        if (pos < query.size()) query[pos] = c;
        break;
    }
    const auto want = built->fastss().Find(query, 2);
    EXPECT_TRUE(same(v1->fastss().Find(query, 2), want)) << query;
    EXPECT_TRUE(same(v2->fastss().Find(query, 2), want)) << query;
    matched += want.empty() ? 0 : 1;
  }
  // One edit stays within distance 2 of the word it came from.
  EXPECT_EQ(matched, built->vocabulary().size());
}

// The FastSS section is rebuilt from the vocabulary at save time. A loaded
// file whose postings are not that rebuild (here: one posting's word id
// rewritten, checksum fixed up) still loads, but saving it is refused and
// writes nothing.
TEST(IndexIoTest, SaveRefusesFastSsPostingsItWouldNotHaveWritten) {
  auto original = BuildSample();
  std::string bytes = SaveToString(
      *original, IndexSaveOptions{.format_version = kIndexFormatV1});
  // v1 tail: ... last posting {u64 hash, u32 word_id, u32 pad},
  // u32 has_partitioned, u64 checksum.
  const size_t word_id_at = bytes.size() - 8 - 4 - 16 + 8;
  uint32_t word_id = 0;
  std::memcpy(&word_id, bytes.data() + word_id_at, sizeof(word_id));
  word_id = word_id == 0 ? 1 : 0;
  std::memcpy(bytes.data() + word_id_at, &word_id, sizeof(word_id));
  const size_t payload_start = 6 + 4 + 8;
  uint64_t checksum = 14695981039346656037ULL;
  for (size_t i = payload_start; i < bytes.size() - 8; ++i) {
    checksum = (checksum ^ static_cast<uint8_t>(bytes[i])) * 1099511628211ULL;
  }
  std::memcpy(bytes.data() + bytes.size() - 8, &checksum, sizeof(checksum));

  auto loaded = LoadFromString(bytes);
  ASSERT_NE(loaded, nullptr);
  for (uint32_t version : {kIndexFormatV1, kIndexFormatLatest}) {
    std::ostringstream out;
    const Status s =
        SaveIndex(*loaded, out, IndexSaveOptions{.format_version = version});
    EXPECT_FALSE(s.ok()) << "format v" << version;
    EXPECT_TRUE(out.str().empty()) << "format v" << version;
  }
}

}  // namespace
}  // namespace xclean
