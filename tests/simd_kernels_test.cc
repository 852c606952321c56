#include "common/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "common/varint.h"
#include "core/xclean.h"
#include "index/postings.h"
#include "text/edit_distance.h"
#include "text/fastss.h"
#include "xml/parser.h"

namespace xclean {
namespace {

/// Differential tests for the runtime-dispatched hot-path kernels: every
/// vector tier must produce bit-identical outputs to its scalar twin —
/// edit distances, decoded varint groups, window-scan counts, lower-bound
/// positions, FNV lanes, cursor positions, FastSS match sets, and whole
/// XClean suggestion lists. ScopedLevel clamps requests above the running
/// CPU's capability, so iterating all tiers is safe everywhere (clamped
/// duplicates just re-run the best supported tier).

const simd::Level kAllLevels[] = {simd::Level::kScalar, simd::Level::kSse42,
                                  simd::Level::kAvx2, simd::Level::kNeon};

std::string RandomString(Rng& rng, size_t len, uint32_t sigma) {
  std::string s;
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>('a' + rng.Uniform(sigma)));
  }
  return s;
}

TEST(SimdDispatchTest, ScopedLevelOverridesAndRestores) {
  const simd::Level before = simd::ActiveLevel();
  {
    simd::ScopedLevel scalar(simd::Level::kScalar);
    EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);
    {
      simd::ScopedLevel best(simd::DetectedLevel());
      EXPECT_EQ(simd::ActiveLevel(), simd::DetectedLevel());
    }
    EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);
  }
  EXPECT_EQ(simd::ActiveLevel(), before);
}

TEST(SimdDispatchTest, OverridesAboveDetectedAreClamped) {
  for (simd::Level level : kAllLevels) {
    simd::ScopedLevel scoped(level);
    EXPECT_LE(static_cast<int>(simd::ActiveLevel()),
              static_cast<int>(simd::DetectedLevel()))
        << LevelName(level);
  }
}

TEST(SimdDispatchTest, ForceScalarEnvDemotesActiveLevel) {
  // The kernels-scalar CI leg runs this whole suite with
  // XCLEAN_FORCE_SCALAR=1: the process must have come up on the scalar
  // tier (ScopedLevel overrides in other tests restore on scope exit).
  if (simd::ForceScalarFromEnv()) {
    EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);
  } else {
    EXPECT_EQ(simd::ActiveLevel(), simd::DetectedLevel());
  }
}

TEST(SimdDispatchTest, LevelNamesAreStable) {
  EXPECT_STREQ(LevelName(simd::Level::kScalar), "scalar");
  EXPECT_STREQ(LevelName(simd::Level::kSse42), "sse4.2");
  EXPECT_STREQ(LevelName(simd::Level::kAvx2), "avx2");
  EXPECT_STREQ(LevelName(simd::Level::kNeon), "neon");
}

// --- edit distance --------------------------------------------------------

TEST(SimdEditDistanceTest, ExhaustiveSmallAlphabet) {
  // Every pair of strings over {a,b} with length <= 4: the bit-parallel
  // path must equal the scalar DP for the full and every bounded variant.
  std::vector<std::string> all{""};
  for (size_t len = 1; len <= 4; ++len) {
    const size_t start = all.size() - (size_t{1} << (len - 1));
    std::vector<std::string> next;
    for (size_t i = start; i < all.size(); ++i) {
      next.push_back(all[i] + "a");
      next.push_back(all[i] + "b");
    }
    all.insert(all.end(), next.begin(), next.end());
  }
  for (simd::Level level : kAllLevels) {
    simd::ScopedLevel scoped(level);
    for (const std::string& a : all) {
      for (const std::string& b : all) {
        EXPECT_EQ(EditDistance(a, b), EditDistanceScalar(a, b))
            << LevelName(level) << " \"" << a << "\" vs \"" << b << "\"";
        for (uint32_t max_ed : {0u, 1u, 2u, 3u, 4u}) {
          EXPECT_EQ(EditDistanceBounded(a, b, max_ed),
                    EditDistanceBoundedScalar(a, b, max_ed))
              << LevelName(level) << " \"" << a << "\" vs \"" << b
              << "\" k=" << max_ed;
        }
      }
    }
  }
}

TEST(SimdEditDistanceTest, WordBoundaryPatternLengths) {
  // Pattern lengths that straddle the 64-bit word: 0, 1, 63, 64, 65. The
  // 65-length patterns take the scalar fallback inside the dispatcher and
  // must still agree.
  Rng rng(2024);
  const size_t kLens[] = {0, 1, 63, 64, 65};
  for (simd::Level level : kAllLevels) {
    simd::ScopedLevel scoped(level);
    for (size_t ls : kLens) {
      for (size_t lt : kLens) {
        for (int round = 0; round < 20; ++round) {
          std::string s = RandomString(rng, ls, 3);
          std::string t = RandomString(rng, lt, 3);
          EXPECT_EQ(EditDistance(s, t), EditDistanceScalar(s, t))
              << LevelName(level) << " |s|=" << ls << " |t|=" << lt;
          for (uint32_t max_ed : {0u, 1u, 2u, 5u, 64u, 100u}) {
            EXPECT_EQ(EditDistanceBounded(s, t, max_ed),
                      EditDistanceBoundedScalar(s, t, max_ed))
                << LevelName(level) << " |s|=" << ls << " |t|=" << lt
                << " k=" << max_ed;
          }
        }
      }
    }
  }
}

TEST(SimdEditDistanceTest, RandomizedDifferential) {
  Rng rng(99);
  for (int round = 0; round < 2000; ++round) {
    std::string s = RandomString(rng, rng.Uniform(80), 4);
    std::string t = RandomString(rng, rng.Uniform(80), 4);
    const uint32_t max_ed = static_cast<uint32_t>(rng.Uniform(8));
    const uint32_t want_full = EditDistanceScalar(s, t);
    const uint32_t want_bounded = EditDistanceBoundedScalar(s, t, max_ed);
    for (simd::Level level : kAllLevels) {
      simd::ScopedLevel scoped(level);
      EXPECT_EQ(EditDistance(s, t), want_full)
          << LevelName(level) << " \"" << s << "\" vs \"" << t << "\"";
      EXPECT_EQ(EditDistanceBounded(s, t, max_ed), want_bounded)
          << LevelName(level) << " \"" << s << "\" vs \"" << t
          << "\" k=" << max_ed;
    }
  }
}

// --- varint group decode --------------------------------------------------

std::string EncodeValues(const std::vector<uint32_t>& values) {
  std::string buf;
  for (uint32_t v : values) PutVarint32(buf, v);
  return buf;
}

void ExpectGroupDecodesEqual(const std::string& buf, size_t count) {
  std::vector<uint32_t> want(count + 1, 0xDEADBEEF);
  const char* want_end = GetVarint32GroupScalar(
      buf.data(), buf.data() + buf.size(), want.data(), count);
  for (simd::Level level : kAllLevels) {
    std::vector<uint32_t> got(count + 1, 0xDEADBEEF);
    const char* got_end = simd::DecodeVarint32Group(
        level, buf.data(), buf.data() + buf.size(), got.data(), count);
    EXPECT_EQ(got_end, want_end) << LevelName(level) << " count=" << count;
    if (want_end != nullptr && got_end != nullptr) {
      EXPECT_EQ(got, want) << LevelName(level) << " count=" << count;
    }
  }
}

TEST(SimdVarintTest, GroupTailsAtEveryCount) {
  // Counts 0..40 cover every residue of the 8- and 16-value vector groups,
  // over a stream of one-byte varints (the vector fast path) with no slack
  // after the last value — the 16/32-byte loads must refuse to over-read.
  Rng rng(7);
  for (size_t count = 0; count <= 40; ++count) {
    std::vector<uint32_t> values;
    for (size_t i = 0; i < count; ++i) {
      values.push_back(static_cast<uint32_t>(rng.Uniform(128)));
    }
    ExpectGroupDecodesEqual(EncodeValues(values), count);
  }
}

TEST(SimdVarintTest, MixedWidthStreams) {
  Rng rng(13);
  for (int round = 0; round < 300; ++round) {
    const size_t count = rng.Uniform(50);
    std::vector<uint32_t> values;
    for (size_t i = 0; i < count; ++i) {
      switch (rng.Uniform(4)) {
        case 0:
          values.push_back(static_cast<uint32_t>(rng.Uniform(128)));
          break;
        case 1:
          values.push_back(static_cast<uint32_t>(rng.Uniform(1u << 14)));
          break;
        case 2:
          values.push_back(static_cast<uint32_t>(rng.Uniform(1u << 28)));
          break;
        default:
          values.push_back(static_cast<uint32_t>(rng.Next64()));
          break;
      }
    }
    ExpectGroupDecodesEqual(EncodeValues(values), count);
  }
}

TEST(SimdVarintTest, TruncationFailsOnEveryTier) {
  std::vector<uint32_t> values;
  for (uint32_t i = 0; i < 24; ++i) values.push_back(i * 300);
  const std::string buf = EncodeValues(values);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    const std::string trunc = buf.substr(0, cut);
    std::vector<uint32_t> out(values.size());
    for (simd::Level level : kAllLevels) {
      EXPECT_EQ(simd::DecodeVarint32Group(level, trunc.data(),
                                          trunc.data() + trunc.size(),
                                          out.data(), values.size()),
                nullptr)
          << LevelName(level) << " cut=" << cut;
    }
  }
}

TEST(SimdVarintTest, OverflowFailsOnEveryTier) {
  // A 64-bit value above 2^32 is a valid varint64 but not a varint32.
  std::string buf;
  PutVarint64(buf, 0x1FFFFFFFFull);
  uint32_t out = 0;
  for (simd::Level level : kAllLevels) {
    EXPECT_EQ(simd::DecodeVarint32Group(level, buf.data(),
                                        buf.data() + buf.size(), &out, 1),
              nullptr)
        << LevelName(level);
  }
}

TEST(SimdVarintTest, PublicGroupEntryPointMatchesScalar) {
  Rng rng(21);
  std::vector<uint32_t> values;
  for (int i = 0; i < 37; ++i) {
    values.push_back(static_cast<uint32_t>(rng.Uniform(100)));
  }
  const std::string buf = EncodeValues(values);
  std::vector<uint32_t> want(values.size()), got(values.size());
  const char* we = GetVarint32GroupScalar(buf.data(), buf.data() + buf.size(),
                                          want.data(), values.size());
  for (simd::Level level : kAllLevels) {
    simd::ScopedLevel scoped(level);
    const char* ge = GetVarint32Group(buf.data(), buf.data() + buf.size(),
                                      got.data(), values.size());
    EXPECT_EQ(ge, we) << LevelName(level);
    EXPECT_EQ(got, want) << LevelName(level);
  }
}

// --- posting cursor -------------------------------------------------------

TEST(SimdPostingCursorTest, SkipToPositionsAgreeAcrossLevels) {
  Rng rng(61);
  for (int round = 0; round < 100; ++round) {
    const size_t size = rng.Uniform(300);
    std::vector<Posting> postings(size);
    uint32_t node = 0;
    for (size_t i = 0; i < size; ++i) {
      node += 1 + static_cast<uint32_t>(rng.Uniform(9));
      postings[i] = Posting{node, 1 + static_cast<uint32_t>(rng.Uniform(4))};
    }
    PostingList list(std::move(postings));
    // One shared random skip script replayed under every level.
    std::vector<NodeId> script;
    uint32_t t = 0;
    for (int k = 0; k < 40; ++k) {
      t += static_cast<uint32_t>(rng.Uniform(node / 8 + 2));
      script.push_back(t);
    }
    std::vector<size_t> want;
    {
      simd::ScopedLevel scoped(simd::Level::kScalar);
      PostingCursor cursor(list);
      for (NodeId target : script) {
        cursor.SkipTo(target);
        want.push_back(list.size() - cursor.remaining());
      }
    }
    for (simd::Level level : kAllLevels) {
      simd::ScopedLevel scoped(level);
      PostingCursor cursor(list);
      for (size_t k = 0; k < script.size(); ++k) {
        cursor.SkipTo(script[k]);
        EXPECT_EQ(list.size() - cursor.remaining(), want[k])
            << LevelName(level) << " skip " << k << " target=" << script[k];
      }
    }
  }
}

// --- FastSS ---------------------------------------------------------------

TEST(SimdFastSsTest, BuildAndFindAgreeAcrossLevels) {
  Rng rng(71);
  std::vector<std::string> words;
  for (int i = 0; i < 300; ++i) {
    words.push_back(RandomString(rng, 3 + rng.Uniform(14), 5));
  }
  std::sort(words.begin(), words.end());
  words.erase(std::unique(words.begin(), words.end()), words.end());

  auto matches_for = [&](simd::Level level) {
    simd::ScopedLevel scoped(level);
    FastSsIndex index;
    index.Build(words);
    std::vector<std::vector<FastSsIndex::Match>> out;
    for (int q = 0; q < 60; ++q) {
      Rng qrng(500 + q);
      std::string query = RandomString(qrng, 2 + qrng.Uniform(14), 5);
      auto matches = index.Find(query, 2);
      std::sort(matches.begin(), matches.end(),
                [](const FastSsIndex::Match& a, const FastSsIndex::Match& b) {
                  return a.word_id < b.word_id;
                });
      out.push_back(std::move(matches));
    }
    return std::make_pair(index.posting_count(), std::move(out));
  };

  const auto want = matches_for(simd::Level::kScalar);
  for (simd::Level level : kAllLevels) {
    const auto got = matches_for(level);
    EXPECT_EQ(got.first, want.first) << LevelName(level);
    ASSERT_EQ(got.second.size(), want.second.size()) << LevelName(level);
    for (size_t q = 0; q < want.second.size(); ++q) {
      ASSERT_EQ(got.second[q].size(), want.second[q].size())
          << LevelName(level) << " query " << q;
      for (size_t m = 0; m < want.second[q].size(); ++m) {
        EXPECT_EQ(got.second[q][m].word_id, want.second[q][m].word_id)
            << LevelName(level) << " query " << q;
        EXPECT_EQ(got.second[q][m].distance, want.second[q][m].distance)
            << LevelName(level) << " query " << q;
      }
    }
  }
}

// --- whole-pipeline equivalence -------------------------------------------

std::unique_ptr<XmlIndex> SmallCorpus(uint64_t seed) {
  static const char* kWords[] = {"tree",  "trees", "trie",  "tried", "three",
                                 "icde",  "icdt",  "index", "night", "light",
                                 "sight", "graph", "grape", "query", "quern"};
  Rng rng(seed);
  XmlTreeBuilder b;
  EXPECT_TRUE(b.BeginElement("root").ok());
  const uint64_t sections = 2 + rng.Uniform(4);
  for (uint64_t s = 0; s < sections; ++s) {
    EXPECT_TRUE(b.BeginElement(rng.Bernoulli(0.5) ? "sec" : "chap").ok());
    const uint64_t items = 1 + rng.Uniform(5);
    for (uint64_t i = 0; i < items; ++i) {
      EXPECT_TRUE(b.BeginElement("item").ok());
      const uint64_t nwords = 1 + rng.Uniform(6);
      std::string text;
      for (uint64_t w = 0; w < nwords; ++w) {
        if (!text.empty()) text += " ";
        text += kWords[rng.Uniform(std::size(kWords))];
      }
      EXPECT_TRUE(b.AddText(text).ok());
      EXPECT_TRUE(b.EndElement().ok());
    }
    EXPECT_TRUE(b.EndElement().ok());
  }
  EXPECT_TRUE(b.EndElement().ok());
  Result<XmlTree> tree = std::move(b).Finish();
  EXPECT_TRUE(tree.ok());
  return XmlIndex::Build(std::move(tree).value());
}

class SimdPipelineTest : public ::testing::TestWithParam<Semantics> {};

TEST_P(SimdPipelineTest, SuggestionsAreIdenticalAcrossLevels) {
  // End-to-end: the same index queried under every tier must return the
  // same suggestions with bit-identical scores (the kernels feed variant
  // generation, candidate verification, posting skips and intersections —
  // any divergence surfaces here). Queries include misspellings, clean
  // hits, a single keyword (singleton intersections) and nonsense (empty
  // intersections).
  static const char* kQueries[] = {"tree icde",   "tres",        "grap quer",
                                   "night",       "trie icdt",   "three light",
                                   "inde",        "tree query",  "sigt grape",
                                   "zzzzqq",      "tree zzzzqq", "q"};
  for (uint64_t seed : {1u, 2u, 3u}) {
    auto index = SmallCorpus(seed);
    XCleanOptions options;
    options.semantics = GetParam();
    XClean algorithm(*index, options);
    for (const char* text : kQueries) {
      const Query query = ParseQuery(text, index->tokenizer());
      std::vector<Suggestion> want;
      {
        simd::ScopedLevel scoped(simd::Level::kScalar);
        want = algorithm.Suggest(query);
      }
      for (simd::Level level : kAllLevels) {
        simd::ScopedLevel scoped(level);
        const std::vector<Suggestion> got = algorithm.Suggest(query);
        ASSERT_EQ(got.size(), want.size())
            << LevelName(level) << " seed=" << seed << " \"" << text << "\"";
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got[i].words, want[i].words)
              << LevelName(level) << " seed=" << seed << " \"" << text
              << "\" rank " << i;
          // Bit-identical, not approximately equal: every kernel tier
          // computes the same intermediate values.
          EXPECT_EQ(got[i].score, want[i].score)
              << LevelName(level) << " seed=" << seed << " \"" << text
              << "\" rank " << i;
          EXPECT_EQ(got[i].entity_count, want[i].entity_count)
              << LevelName(level) << " seed=" << seed << " \"" << text
              << "\" rank " << i;
          EXPECT_EQ(got[i].result_type, want[i].result_type)
              << LevelName(level) << " seed=" << seed << " \"" << text
              << "\" rank " << i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSemantics, SimdPipelineTest,
                         ::testing::Values(Semantics::kNodeType,
                                           Semantics::kSlca,
                                           Semantics::kElca));

}  // namespace
}  // namespace xclean
