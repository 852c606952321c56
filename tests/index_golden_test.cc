// Golden snapshot test: the serialized index of fixed small corpora must
// hash to recorded constants. Any drift in token-id order, statistics,
// type lists or the FastSS layout changes the snapshot bytes, so a builder
// change that is meant to be layout-neutral fails here first — long before
// the end-to-end benchmark's workload hash would notice.
//
// The constants were recorded from the builder that predates the fused
// tokenize/intern pass. If a change alters the layout on purpose, record
// the new constants and say why in the change description.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "data/dblp_gen.h"
#include "data/inex_gen.h"
#include "index/index_io.h"
#include "index/xml_index.h"

namespace xclean {
namespace {

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 14695981039346656037ULL;
  for (char c : bytes) {
    h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ULL;
  }
  return h;
}

uint64_t SnapshotHash(XmlTree tree, IndexOptions options) {
  auto index = XmlIndex::Build(std::move(tree), options);
  std::ostringstream out;
  EXPECT_TRUE(SaveIndex(*index, out).ok());
  return Fnv1a64(out.str());
}

XmlTree SmallDblp() {
  DblpGenOptions gen;
  gen.seed = 7;
  gen.num_publications = 300;
  return GenerateDblp(gen);
}

XmlTree SmallInex() {
  InexGenOptions gen;
  gen.seed = 11;
  gen.num_articles = 40;
  return GenerateInex(gen);
}

struct GoldenCase {
  const char* name;
  XmlTree (*corpus)();
  size_t partition_min_length;
  uint64_t hash;
};

class IndexGoldenTest : public ::testing::TestWithParam<size_t> {};

TEST_P(IndexGoldenTest, SnapshotBytesMatchRecordedHash) {
  const GoldenCase cases[] = {
      {"dblp", SmallDblp, 13, 0xf49f9b5c9832e617ULL},
      {"inex", SmallInex, 13, 0x1af04e7880b0d843ULL},
      // Short partition threshold: most words take the split-half layout.
      {"inex-partitioned", SmallInex, 6, 0x13fe93677022f5afULL},
  };
  for (const GoldenCase& c : cases) {
    IndexOptions options;
    options.build_threads = GetParam();
    options.fastss_partition_min_length = c.partition_min_length;
    EXPECT_EQ(SnapshotHash(c.corpus(), options), c.hash)
        << c.name << " build_threads=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(BuildThreads, IndexGoldenTest,
                         ::testing::Values(size_t{1}, size_t{4}));

}  // namespace
}  // namespace xclean
