#ifndef XCLEAN_CORE_ACCUMULATOR_H_
#define XCLEAN_CORE_ACCUMULATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/candidate_map.h"
#include "index/vocabulary.h"
#include "xml/tree.h"

namespace xclean {

/// Candidate queries are encoded as byte strings (l * 4 bytes of TokenId)
/// where a string-keyed container is convenient (tests, diagnostics). The
/// hot path keys tables by the raw TokenId sequence instead.
std::string EncodeCandidate(const std::vector<TokenId>& tokens);
std::vector<TokenId> DecodeCandidate(const std::string& key);

/// Per-candidate score accumulator state.
struct CandidateState {
  /// Σ_j Π_w P(w | D(r_j)) over the entities processed so far (the sum of
  /// Eq. 8 before the 1/N prior).
  double sum = 0.0;
  /// P(Q|C): the error-model weight of this candidate.
  double error_weight = 0.0;
  /// Entities that contributed (each contains every keyword of C).
  uint32_t entity_count = 0;
};

/// One candidate's accumulator state exported from a partial evaluation —
/// the unit a scatter-gather coordinator merges. Because P(C|T) is a sum
/// over entities (Eq. 8) and every entity lives in exactly one shard,
/// per-shard partials combine by plain addition of `sum`, `entity_count`
/// and `lca_total`; `error_weight` and `result_type` are functions of the
/// candidate and the *global* statistics, so equal across shards. The
/// normalizer N is applied only after the merge: the global path node
/// count for node-type semantics, Σ lca_total for SLCA/ELCA.
struct PartialCandidate {
  /// Candidate token sequence in the global vocabulary
  /// (delta::MergedStats ids).
  std::vector<TokenId> tokens;
  /// P(Q|C); identical on every shard (a string property of C and Q).
  double error_weight = 0.0;
  /// This shard's share of Σ_j Π_w P(w | D(r_j)).
  double sum = 0.0;
  /// Entities of this shard that contributed.
  uint32_t entity_count = 0;
  /// This shard's contribution to the SLCA/ELCA normalizer N (0 under
  /// node-type semantics, where N is the global path node count).
  uint32_t lca_total = 0;
  /// Globally-chosen result type (node-type semantics only). Shards share
  /// the merged type lists, so every shard reports the same choice for the
  /// same candidate.
  PathId result_type = XmlTree::kInvalidPath;
};

/// One scored candidate at final-ranking time; `key` points into the
/// accumulator table's key pool (stable until the table changes).
struct RankedCandidate {
  double score;
  double error_weight;
  uint32_t entity_count;
  PathId result_type;
  const TokenId* key;
  uint32_t key_len;
};

/// The paper's bounded in-memory accumulator table (Sec. V-D): at most
/// gamma candidate queries hold score accumulators. When a new candidate
/// arrives and the table is full, the victim is the candidate whose
/// estimated final score — error_weight * sum, i.e. P(Q|C) times the
/// partial P(C|T) mass observed so far (Hoeffding sample-mean estimate) —
/// is lowest; ties break to the lexicographically smallest candidate token
/// sequence (pinned by a regression test: the victim choice is part of the
/// algorithm's observable behavior under gamma pruning). An evicted
/// candidate that reappears restarts from zero; the probabilistic argument
/// is that low-partial-score candidates are unlikely to reach the top-k.
///
/// Storage is a flat open-addressing table (CandidateMap) whose backing
/// arrays survive Reset(), so a QueryScratch-owned instance allocates only
/// while warming up.
class AccumulatorTable {
 public:
  /// gamma = 0 means unbounded (exact evaluation).
  explicit AccumulatorTable(size_t gamma) : gamma_(gamma) {}

  /// Drops all entries and the eviction counter but keeps the backing
  /// storage; `gamma` may change between runs.
  void Reset(size_t gamma) {
    gamma_ = gamma;
    evictions_ = 0;
    map_.Clear();
  }

  /// Accumulator for the candidate token sequence, creating (and possibly
  /// evicting) as needed. The returned pointer is invalidated by the next
  /// GetOrCreate call. `error_weight` is stored on creation.
  CandidateState* GetOrCreate(const TokenId* key, size_t len,
                              double error_weight);

  /// Accumulator for the candidate if present.
  CandidateState* Find(const TokenId* key, size_t len) {
    return map_.Find(key, len);
  }

  /// Folds one exported partial into the table: gets-or-creates the
  /// candidate's accumulator and adds the partial's probability mass and
  /// entity count. Partials must be merged in a deterministic order (the
  /// coordinator merges shards in ascending shard id) so the floating-point
  /// summation is reproducible run to run. Returns the merged state.
  CandidateState* MergePartial(const TokenId* key, size_t len,
                               double error_weight, double sum,
                               uint32_t entity_count) {
    CandidateState* state = GetOrCreate(key, len, error_weight);
    state->sum += sum;
    state->entity_count += entity_count;
    return state;
  }

  /// String-keyed conveniences over EncodeCandidate keys (tests and
  /// non-hot-path callers).
  CandidateState* GetOrCreate(const std::string& key, double error_weight);
  CandidateState* Find(const std::string& key);

  size_t size() const { return map_.size(); }
  uint64_t eviction_count() const { return evictions_; }

  /// Calls fn(key, key_len, state) for every live accumulator.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    map_.ForEach(fn);
  }

 private:
  void EvictLowest();

  size_t gamma_;
  uint64_t evictions_ = 0;
  CandidateMap<CandidateState> map_;
};

}  // namespace xclean

#endif  // XCLEAN_CORE_ACCUMULATOR_H_
