#ifndef XCLEAN_INDEX_VOCABULARY_H_
#define XCLEAN_INDEX_VOCABULARY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace xclean {

/// Dense token id. Tokens are interned in first-seen order during index
/// construction.
using TokenId = uint32_t;

inline constexpr TokenId kInvalidToken = 0xFFFFFFFFu;

/// The token dictionary V of the paper: every distinct token appearing in
/// the document's text content. Bidirectional string <-> id mapping;
/// statistics (cf, df) live in XmlIndex.
class Vocabulary {
 public:
  Vocabulary() = default;

  /// Id of `token`, interning it if new.
  TokenId Intern(std::string_view token);

  /// Id of `token` or kInvalidToken if it is not in the vocabulary.
  TokenId Find(std::string_view token) const;

  bool Contains(std::string_view token) const {
    return Find(token) != kInvalidToken;
  }

  const std::string& token(TokenId id) const { return tokens_[id]; }
  size_t size() const { return tokens_.size(); }

  /// All tokens in id order (used to build the FastSS index).
  const std::vector<std::string>& tokens() const { return tokens_; }

  /// Approximate resident bytes: the token strings and the slot table.
  uint64_t ApproxMemoryBytes() const;

 private:
  /// One open-addressing slot: a token id and the low 32 bits of the
  /// token's hash, compared before the string and reused on growth.
  struct Slot {
    uint32_t hash;
    TokenId id;  // kInvalidToken = empty
  };

  static uint32_t Hash(std::string_view token);
  /// The slot holding `token`, or the empty slot where it belongs.
  size_t Probe(std::string_view token, uint32_t hash) const;
  /// Doubles the table (at least 16 slots) and reinserts every id.
  void Grow();

  std::vector<std::string> tokens_;
  /// Linear-probing table over tokens_: a power of two in size, at most
  /// half full, and empty until the first Intern. Index construction
  /// interns every token occurrence; a flat probe avoids a node-based
  /// map's bucket-then-node chase on each one.
  std::vector<Slot> slots_;
};

}  // namespace xclean

#endif  // XCLEAN_INDEX_VOCABULARY_H_
