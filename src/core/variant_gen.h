#ifndef XCLEAN_CORE_VARIANT_GEN_H_
#define XCLEAN_CORE_VARIANT_GEN_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "index/xml_index.h"
#include "text/fastss.h"

namespace xclean {

/// One entry of var_eps(q): a vocabulary token within the error threshold
/// of the observed keyword, with its edit distance (the error model input).
struct Variant {
  TokenId token;
  uint32_t distance;
};

/// Variant generation knobs.
struct VariantGenOptions {
  /// Edit distance threshold eps. Must be <= the index's FastSS radius.
  uint32_t max_ed = 2;
  /// Cognitive-error extension (Sec. VI-A): also admit vocabulary tokens
  /// with the same Soundex code. Such tokens, when beyond the edit
  /// threshold, enter with distance = max_ed so the error model gives them
  /// the weakest in-threshold weight (a modeling choice; the paper leaves
  /// the combination of error types to future work).
  bool include_soundex = false;
};

/// Computes var_eps(q) for query keywords (Sec. V-A): probes the index's
/// FastSS deletion-neighborhood structure and verifies candidates, plus the
/// optional Soundex expansion. Results are sorted by (distance, token) so
/// downstream enumeration is deterministic.
class VariantGenerator {
 public:
  VariantGenerator(const XmlIndex& index, VariantGenOptions options);

  /// Variants of one observed keyword, written over `out`. Empty if nothing
  /// in the vocabulary is close enough — in that case no candidate query
  /// can use this slot. Allocation-free once `probe` and `out` are warm.
  void Generate(const std::string& keyword, FastSsIndex::ProbeScratch& probe,
                std::vector<Variant>& out) const;

  /// Same, into a fresh vector (allocates; for callers off the hot path).
  std::vector<Variant> Generate(const std::string& keyword) const;

  const VariantGenOptions& options() const { return options_; }

 private:
  const XmlIndex* index_;
  VariantGenOptions options_;
  // soundex code -> token ids, built only when include_soundex is set.
  std::unordered_map<std::string, std::vector<TokenId>> soundex_buckets_;
};

}  // namespace xclean

#endif  // XCLEAN_CORE_VARIANT_GEN_H_
