#ifndef XCLEAN_XML_TOKENIZER_H_
#define XCLEAN_XML_TOKENIZER_H_

#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/string_util.h"

namespace xclean {

/// Tokenization policy. The defaults mirror the paper's indexing rules
/// (Sec. VII-A): "Stop words, numbers and short tokens (less than three
/// characters) are not indexed."
struct TokenizerOptions {
  /// Lowercase tokens (ASCII).
  bool lowercase = true;
  /// Minimum token length kept; shorter tokens are dropped.
  size_t min_token_length = 3;
  /// Drop tokens consisting solely of digits.
  bool drop_numbers = true;
  /// Drop common English stop words.
  bool drop_stopwords = true;
};

/// Splits element text into index/query tokens: contiguous runs of ASCII
/// alphanumerics (everything else — whitespace and punctuation — is a
/// separator), then applies the filters above. Bytes >= 0x80 (UTF-8
/// continuation or lead bytes) are treated as part of a token so that
/// non-ASCII words survive as opaque tokens rather than being shredded.
class Tokenizer {
 public:
  explicit Tokenizer(TokenizerOptions options = TokenizerOptions());

  /// Calls `fn(std::string_view token)` for every token of `text`, in
  /// order, after filtering. This is the one definition of splitting and
  /// filtering; everything else wraps it. A token is a view into `text`,
  /// or, when lowercasing changed it, into `buf`, which the next token
  /// overwrites: a view is valid only during its call. Reusing one `buf`
  /// across calls (the index build does, for every text node) makes
  /// tokenization allocation-free in steady state.
  template <typename Fn>
  void ForEachToken(std::string_view text, std::string& buf, Fn&& fn) const;

  /// Tokens of `text`, in order, after filtering, each copied into its own
  /// string. Callers that only look tokens up use ForEachToken.
  std::vector<std::string> Tokenize(std::string_view text) const;

  /// Applies normalization + filters to a single word. Returns an empty
  /// string if the word is filtered out. Used for query keywords, where
  /// splitting already happened on whitespace.
  std::string NormalizeToken(std::string_view word) const;

  const TokenizerOptions& options() const { return options_; }

  /// True if `token` (already lowercased) is in the built-in stopword list.
  static bool IsStopword(std::string_view token);

 private:
  /// ASCII alphanumerics and every byte >= 0x80. Inline (not
  /// IsAsciiAlnum) because it runs for every byte of every indexed text.
  static bool IsTokenChar(char c) {
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
           (c >= 'A' && c <= 'Z') || static_cast<unsigned char>(c) >= 0x80;
  }

  bool Keep(std::string_view token) const;

  TokenizerOptions options_;
};

template <typename Fn>
void Tokenizer::ForEachToken(std::string_view text, std::string& buf,
                             Fn&& fn) const {
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && !IsTokenChar(text[i])) ++i;
    const size_t start = i;
    bool upper = false;
    while (i < text.size() && IsTokenChar(text[i])) {
      upper |= text[i] >= 'A' && text[i] <= 'Z';
      ++i;
    }
    if (i == start) continue;
    std::string_view token = text.substr(start, i - start);
    if (options_.lowercase && upper) {
      buf.assign(token);
      AsciiLowerInPlace(buf);
      token = buf;
    }
    if (Keep(token)) fn(token);
  }
}

}  // namespace xclean

#endif  // XCLEAN_XML_TOKENIZER_H_
