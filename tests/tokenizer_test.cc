#include "xml/tokenizer.h"

#include <gtest/gtest.h>

namespace xclean {
namespace {

TEST(TokenizerTest, SplitsOnPunctuationAndSpace) {
  Tokenizer t;
  EXPECT_EQ(t.Tokenize("hello, world! foo-bar"),
            (std::vector<std::string>{"hello", "world", "foo", "bar"}));
}

TEST(TokenizerTest, Lowercases) {
  Tokenizer t;
  EXPECT_EQ(t.Tokenize("Hello WORLD"),
            (std::vector<std::string>{"hello", "world"}));
}

TEST(TokenizerTest, DropsShortTokens) {
  Tokenizer t;
  EXPECT_EQ(t.Tokenize("go to big cities"),
            (std::vector<std::string>{"big", "cities"}));
}

TEST(TokenizerTest, DropsNumbers) {
  Tokenizer t;
  EXPECT_EQ(t.Tokenize("pages 123-456 volume"),
            (std::vector<std::string>{"pages", "volume"}));
}

TEST(TokenizerTest, KeepsAlphanumericMixes) {
  Tokenizer t;
  // Mixed alphanumerics are content-bearing ("x86" is 3 chars and not a
  // pure number, so it survives); "42" falls to the length filter.
  EXPECT_EQ(t.Tokenize("icde2011 x86 42"),
            (std::vector<std::string>{"icde2011", "x86"}));
}

TEST(TokenizerTest, DropsStopwords) {
  Tokenizer t;
  EXPECT_EQ(t.Tokenize("the tree and the trie"),
            (std::vector<std::string>{"tree", "trie"}));
}

TEST(TokenizerTest, StopwordsCanBeKept) {
  TokenizerOptions options;
  options.drop_stopwords = false;
  Tokenizer t(options);
  EXPECT_EQ(t.Tokenize("the tree"),
            (std::vector<std::string>{"the", "tree"}));
}

TEST(TokenizerTest, MinLengthConfigurable) {
  TokenizerOptions options;
  options.min_token_length = 1;
  options.drop_stopwords = false;
  Tokenizer t(options);
  EXPECT_EQ(t.Tokenize("a bb ccc"),
            (std::vector<std::string>{"a", "bb", "ccc"}));
}

TEST(TokenizerTest, Utf8BytesSurvive) {
  Tokenizer t;
  std::vector<std::string> tokens = t.Tokenize("schütze model");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0], "schütze");
  EXPECT_EQ(tokens[1], "model");
}

TEST(TokenizerTest, EmptyAndPurePunctuation) {
  Tokenizer t;
  EXPECT_TRUE(t.Tokenize("").empty());
  EXPECT_TRUE(t.Tokenize("... --- !!!").empty());
}

TEST(TokenizerTest, NormalizeTokenGluesPunctuatedWord) {
  Tokenizer t;
  EXPECT_EQ(t.NormalizeToken("geo-tagging,"), "geotagging");
  EXPECT_EQ(t.NormalizeToken("Hello!"), "hello");
  EXPECT_EQ(t.NormalizeToken("of"), "");    // too short
  EXPECT_EQ(t.NormalizeToken("the"), "");   // stopword
  EXPECT_EQ(t.NormalizeToken("2009"), "");  // number
}

TEST(TokenizerTest, IsStopword) {
  EXPECT_TRUE(Tokenizer::IsStopword("the"));
  EXPECT_TRUE(Tokenizer::IsStopword("with"));
  EXPECT_FALSE(Tokenizer::IsStopword("tree"));
}

TEST(TokenizerTest, IsStopwordIsExactOnPrefixesAndExtensions) {
  for (std::string_view w : {"about", "after", "all", "before", "which"}) {
    EXPECT_TRUE(Tokenizer::IsStopword(w)) << w;
    EXPECT_FALSE(Tokenizer::IsStopword(w.substr(0, w.size() - 1))) << w;
    EXPECT_FALSE(Tokenizer::IsStopword(std::string(w) + "s")) << w;
    EXPECT_FALSE(Tokenizer::IsStopword(std::string(w) + '\0')) << w;
  }
  EXPECT_FALSE(Tokenizer::IsStopword(""));
  EXPECT_FALSE(Tokenizer::IsStopword("The"));  // expects lowercased input
  EXPECT_FALSE(Tokenizer::IsStopword("thereafter"));
}

TEST(TokenizerTest, ForEachTokenViewsMatchTokenizeAcrossCalls) {
  Tokenizer t;
  std::string buf;
  std::vector<std::string> seen;
  // Lowercase tokens are views into the text, mixed-case ones into `buf`;
  // both kinds interleave here, and `buf` is reused across calls.
  for (std::string_view text :
       {"Tree trie ICDE icdt", "schütze Model the forest", "XML query"}) {
    seen.clear();
    t.ForEachToken(text, buf,
                   [&seen](std::string_view token) { seen.emplace_back(token); });
    EXPECT_EQ(seen, t.Tokenize(text)) << text;
  }
}

}  // namespace
}  // namespace xclean
