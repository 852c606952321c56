#ifndef XCLEAN_CORE_NAIVE_H_
#define XCLEAN_CORE_NAIVE_H_

#include <string>
#include <vector>

#include "core/query.h"
#include "core/xclean.h"
#include "lm/language_model.h"

namespace xclean {

/// The naive evaluation strategy the paper contrasts Algorithm 1 against
/// (Sec. V): "enumerate all candidate queries and score them one by one",
/// re-scanning every variant's full inverted list for every candidate it
/// appears in. Scores are mathematically identical to XClean with unbounded
/// accumulators (gamma = 0) — the equivalence test in
/// tests/xclean_equivalence_test.cc relies on this — but the I/O grows with
/// the number of candidates instead of staying one pass.
///
/// Reuses XCleanOptions; gamma is ignored (the naive scorer is exact),
/// entity_prior and both semantics are honored.
class NaiveCleaner : public QueryCleaner {
 public:
  NaiveCleaner(const XmlIndex& index, XCleanOptions options = XCleanOptions());

  std::vector<Suggestion> Suggest(const Query& query) override;
  std::string name() const override { return "Naive"; }

  /// Budgeted evaluation: charges one candidate per Cartesian entry and one
  /// posting per entry scanned; when `cancel` trips, the candidates scored
  /// so far are ranked and returned with last_truncated() set. An unlimited
  /// token gives results identical to Suggest(). The naive scorer exists as
  /// the differential oracle, so its budget hooks mirror XClean's — the
  /// oracle must survive the same adversarial queries the serving path does.
  std::vector<Suggestion> SuggestWithBudget(const Query& query,
                                            CancelToken* cancel);

  /// Candidates actually scored by the last Suggest call.
  uint64_t last_candidates() const { return last_candidates_; }
  /// Posting entries read by the last Suggest call (the repeated-I/O cost).
  uint64_t last_postings_read() const { return last_postings_read_; }
  /// True when the last call was stopped early by its CancelToken.
  bool last_truncated() const { return last_truncated_; }

  /// Safety valve for benchmarks: queries whose Cartesian candidate space
  /// exceeds this are skipped (Suggest returns empty and
  /// last_query_skipped() is set) — the naive strategy is exponential in
  /// the query length, which is the point being measured. 0 = no cap.
  void set_candidate_cap(uint64_t cap) { candidate_cap_ = cap; }
  bool last_query_skipped() const { return last_query_skipped_; }

 private:
  struct Scored {
    std::vector<TokenId> tokens;
    double sum = 0.0;
    double error_weight = 0.0;
    uint32_t entity_count = 0;
    PathId result_type = XmlTree::kInvalidPath;
    double n_entities = 0.0;
  };

  void ScoreCandidateNodeType(const std::vector<TokenId>& candidate,
                              Scored& out, CancelToken* cancel);
  void ScoreCandidateSlca(const std::vector<TokenId>& candidate, Scored& out,
                          CancelToken* cancel);

  const XmlIndex* index_;
  XCleanOptions options_;
  VariantGenerator variant_gen_;
  ErrorModel error_model_;
  LanguageModel language_model_;
  ResultTypeScorer type_scorer_;
  uint64_t last_candidates_ = 0;
  uint64_t last_postings_read_ = 0;
  uint64_t candidate_cap_ = 0;
  bool last_query_skipped_ = false;
  bool last_truncated_ = false;
};

}  // namespace xclean

#endif  // XCLEAN_CORE_NAIVE_H_
