#include "xml/tokenizer.h"

#include <algorithm>
#include <array>
#include <cstdint>

#include "common/string_util.h"

namespace xclean {

namespace {

// Small closed-class stopword list; enough to keep glue words out of the
// vocabulary without suppressing content terms.
constexpr std::array<std::string_view, 42> kStopwords = {
    "about", "after", "all",   "also",  "and",   "are",  "been",  "before",
    "but",   "can",   "could", "did",   "for",   "from", "had",   "has",
    "have",  "her",   "his",   "how",   "into",  "its",  "more",  "not",
    "one",   "our",   "out",   "over",  "she",   "that", "the",   "their",
    "then",  "there", "they",  "this",  "was",   "were", "which", "who",
    "with",  "you",
};

constexpr size_t kMaxStopwordLength = 7;

/// A string of at most kMaxStopwordLength bytes packed into one integer:
/// the bytes little-endian, the length in the top byte. Equal keys mean
/// equal strings.
constexpr uint64_t PackKey(std::string_view s) {
  uint64_t key = uint64_t{s.size()} << 56;
  for (size_t i = 0; i < s.size(); ++i) {
    key |= uint64_t{static_cast<uint8_t>(s[i])} << (8 * i);
  }
  return key;
}

// The stopword list as sorted packed keys: the check runs for every token
// of every indexed text node, and a binary search over integers is
// several times cheaper than one over strings.
constexpr auto kStopwordKeys = [] {
  std::array<uint64_t, kStopwords.size()> keys{};
  for (size_t i = 0; i < kStopwords.size(); ++i) {
    keys[i] = PackKey(kStopwords[i]);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}();
static_assert(std::all_of(kStopwords.begin(), kStopwords.end(),
                          [](std::string_view w) {
                            return w.size() <= kMaxStopwordLength;
                          }));

}  // namespace

Tokenizer::Tokenizer(TokenizerOptions options) : options_(options) {}

bool Tokenizer::IsStopword(std::string_view token) {
  return token.size() <= kMaxStopwordLength &&
         std::binary_search(kStopwordKeys.begin(), kStopwordKeys.end(),
                            PackKey(token));
}

bool Tokenizer::Keep(std::string_view token) const {
  if (token.size() < options_.min_token_length) return false;
  if (options_.drop_numbers &&
      std::all_of(token.begin(), token.end(),
                  [](char c) { return IsAsciiDigit(c); })) {
    return false;
  }
  if (options_.drop_stopwords && IsStopword(token)) return false;
  return true;
}

std::vector<std::string> Tokenizer::Tokenize(std::string_view text) const {
  std::vector<std::string> out;
  std::string buf;
  ForEachToken(text, buf, [&out](std::string_view token) {
    out.emplace_back(token);
  });
  return out;
}

std::string Tokenizer::NormalizeToken(std::string_view word) const {
  // A query keyword may still carry punctuation (e.g. "geo-tagging,"): run
  // it through the same splitter and glue the pieces back together so the
  // result is a single keyword comparable with vocabulary tokens.
  std::vector<std::string> pieces;
  size_t i = 0;
  while (i < word.size()) {
    while (i < word.size() && !IsTokenChar(word[i])) ++i;
    size_t start = i;
    while (i < word.size() && IsTokenChar(word[i])) ++i;
    if (i > start) pieces.emplace_back(word.substr(start, i - start));
  }
  std::string token = Join(pieces, "");
  if (options_.lowercase) AsciiLowerInPlace(token);
  if (!Keep(token)) return std::string();
  return token;
}

}  // namespace xclean
