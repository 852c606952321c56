#include "index/vocabulary.h"

#include <gtest/gtest.h>

#include <string>

namespace xclean {
namespace {

TEST(VocabularyTest, InternAssignsDenseIds) {
  Vocabulary v;
  EXPECT_EQ(v.Intern("alpha"), 0u);
  EXPECT_EQ(v.Intern("beta"), 1u);
  EXPECT_EQ(v.Intern("alpha"), 0u);  // idempotent
  EXPECT_EQ(v.size(), 2u);
}

TEST(VocabularyTest, FindAndContains) {
  Vocabulary v;
  v.Intern("alpha");
  EXPECT_EQ(v.Find("alpha"), 0u);
  EXPECT_EQ(v.Find("missing"), kInvalidToken);
  EXPECT_TRUE(v.Contains("alpha"));
  EXPECT_FALSE(v.Contains("missing"));
}

// Each token once (no map key copy), plus the slot table: 16 slots of 8
// bytes until the ninth token doubles it.
TEST(VocabularyTest, ApproxMemoryBytesCountsTokensAndSlotTable) {
  Vocabulary v;
  EXPECT_EQ(v.ApproxMemoryBytes(), 0u);
  v.Intern("alpha");
  v.Intern("beta");
  v.Intern("alpha");
  EXPECT_EQ(v.ApproxMemoryBytes(),
            16 * 8 + 2 * sizeof(std::string) + 5 + 4);
}

TEST(VocabularyTest, TokenLookup) {
  Vocabulary v;
  TokenId a = v.Intern("alpha");
  TokenId b = v.Intern("beta");
  EXPECT_EQ(v.token(a), "alpha");
  EXPECT_EQ(v.token(b), "beta");
  EXPECT_EQ(v.tokens(), (std::vector<std::string>{"alpha", "beta"}));
}

TEST(VocabularyTest, SurvivesManyInsertsAndRehashes) {
  Vocabulary v;
  for (int i = 0; i < 20000; ++i) {
    v.Intern("token" + std::to_string(i));
  }
  EXPECT_EQ(v.size(), 20000u);
  // Lookups after massive growth (vector reallocation + map rehash).
  for (int i = 0; i < 20000; i += 997) {
    std::string t = "token" + std::to_string(i);
    TokenId id = v.Find(t);
    ASSERT_NE(id, kInvalidToken);
    EXPECT_EQ(v.token(id), t);
  }
}

}  // namespace
}  // namespace xclean
