#include "index/vocabulary.h"

#include <functional>

namespace xclean {

uint32_t Vocabulary::Hash(std::string_view token) {
  return static_cast<uint32_t>(std::hash<std::string_view>()(token));
}

size_t Vocabulary::Probe(std::string_view token, uint32_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.id == kInvalidToken ||
        (slot.hash == hash && tokens_[slot.id] == token)) {
      return i;
    }
  }
}

void Vocabulary::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{0, kInvalidToken});
  const size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.id == kInvalidToken) continue;
    size_t i = slot.hash & mask;
    while (slots_[i].id != kInvalidToken) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

TokenId Vocabulary::Intern(std::string_view token) {
  if (2 * (tokens_.size() + 1) > slots_.size()) Grow();
  const uint32_t hash = Hash(token);
  Slot& slot = slots_[Probe(token, hash)];
  if (slot.id != kInvalidToken) return slot.id;
  slot = Slot{hash, static_cast<TokenId>(tokens_.size())};
  tokens_.emplace_back(token);
  return slot.id;
}

uint64_t Vocabulary::ApproxMemoryBytes() const {
  uint64_t bytes = slots_.size() * sizeof(Slot);
  for (const std::string& s : tokens_) bytes += sizeof(std::string) + s.size();
  return bytes;
}

TokenId Vocabulary::Find(std::string_view token) const {
  if (slots_.empty()) return kInvalidToken;
  return slots_[Probe(token, Hash(token))].id;
}

}  // namespace xclean
