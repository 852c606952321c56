#ifndef XCLEAN_CORE_XCLEAN_H_
#define XCLEAN_CORE_XCLEAN_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "core/accumulator.h"
#include "core/query.h"
#include "core/query_scratch.h"
#include "core/variant_gen.h"
#include "index/xml_index.h"
#include "lm/error_model.h"
#include "lm/lm_stats_cache.h"
#include "lm/result_type.h"

namespace xclean {

/// Which XML keyword query semantics defines the entities r_j of Eq. (8).
enum class Semantics {
  /// Specific result node type (XReal-style; the paper's main setting,
  /// Sec. IV-B2): FindResultType picks one label path p_C per candidate and
  /// every node of that path is an entity (N = #nodes of the path).
  kNodeType,
  /// SLCA semantics (Sec. VI-B): the candidate's SLCA nodes are its
  /// entities (N = #SLCAs of the candidate).
  kSlca,
  /// ELCA semantics (Sec. VIII lists it among the result structures the
  /// framework accommodates): the candidate's exclusive LCAs are its
  /// entities — a superset of the SLCAs that also credits ancestors with
  /// their own exclusive witnesses.
  kElca,
};

/// All tuning knobs of the XClean algorithm, named after the paper's
/// symbols. The defaults are the paper's reported best settings.
struct XCleanOptions {
  /// Edit distance threshold eps for var_eps(q). Must not exceed the
  /// index's FastSS radius.
  uint32_t max_ed = 2;
  /// Error penalty beta of Eq. (5); beta = 5 is the paper's best (Table IV).
  double beta = 5.0;
  /// Dirichlet smoothing mass mu (Eq. for P(w|D); unstated in the paper, we
  /// use the standard 2000).
  double mu = 2000.0;
  /// Depth reduction r of Eq. (7).
  double reduction = 0.8;
  /// Minimal depth threshold d (Sec. V-B): result types shallower than this
  /// are never considered and subtrees are formed by truncating anchors to
  /// this depth. The paper finds d = 2 usually sufficient.
  uint32_t min_depth = 2;
  /// Number of suggestions returned.
  size_t top_k = 10;
  /// Maximum number of in-memory score accumulators gamma (Sec. V-D);
  /// 0 means unbounded (exact evaluation).
  size_t gamma = 1000;
  /// Entity semantics.
  Semantics semantics = Semantics::kNodeType;
  /// Cognitive-error extension: admit Soundex-equal variants.
  bool include_soundex = false;
  /// Optional non-uniform entity prior P(r_j|T) (Sec. IV-B2 notes the
  /// generalization). When set, each entity's contribution is weighted by
  /// prior(r_j) and the uniform 1/N factor is dropped.
  std::function<double(NodeId)> entity_prior;
};

/// Per-query degradation overrides: an overloaded server tightens the
/// paper's quality knobs for one request without rebuilding the algorithm
/// (each XClean instance is immutable and shared across threads). Every
/// field is a *cap* against the instance's XCleanOptions — the effective
/// value is min(option, tuning) — so tuning can only cheapen a query,
/// never widen it past what the index supports (e.g. max_ed stays within
/// the FastSS radius). Sentinel values mean "no override"; a
/// default-constructed QueryTuning changes nothing.
struct QueryTuning {
  /// Cap on XCleanOptions::max_ed (variants with larger edit distance are
  /// skipped). UINT32_MAX = no override.
  uint32_t max_ed = UINT32_MAX;
  /// Cap on the accumulator bound gamma. Applies even when the instance
  /// runs unbounded (options.gamma == 0). SIZE_MAX = no override.
  size_t gamma = SIZE_MAX;
  /// Cap on the suggestions returned. SIZE_MAX = no override.
  size_t top_k = SIZE_MAX;

  bool no_override() const {
    return max_ed == UINT32_MAX && gamma == SIZE_MAX && top_k == SIZE_MAX;
  }
};

/// Counters describing the work done by the last Suggest() call; used by
/// the efficiency benches and the skipping/pruning tests.
struct XCleanRunStats {
  uint64_t subtrees_processed = 0;
  uint64_t occurrences_collected = 0;
  uint64_t candidates_enumerated = 0;
  uint64_t entities_scored = 0;
  uint64_t result_type_computations = 0;
  uint64_t accumulator_evictions = 0;
  uint64_t accumulators_final = 0;
  /// True when a CancelToken stopped the run before the merged-list pass
  /// completed: the returned suggestions are a best-effort partial top-k
  /// (every score is an underestimate of the full evaluation).
  bool truncated = false;
  /// Which budget tripped when truncated is set.
  CancelCause cancel_cause = CancelCause::kNone;
};

/// Refuses options a multi-layer evaluation cannot reproduce exactly:
/// min_depth < 2 would let a depth-d subtree or an entity span two
/// documents, hence two layers, and an entity_prior would need node-id
/// translation across layers. Live updates and shard sets return this
/// Status; the multi-layer XClean constructor checks it.
Status ValidateLayeredOptions(const XCleanOptions& options);

/// A tombstoned document: the inclusive preorder node range of its subtree.
struct DeadRange {
  NodeId begin;
  NodeId end;
};

/// One layer of the collection XClean evaluates: an index plus what lifts
/// its layer-local ids into the collection's global ids. A clean index is
/// the one-layer case: identity maps, no dead ranges.
struct LayerView {
  const XmlIndex* index = nullptr;
  /// Sorted by begin, disjoint.
  std::vector<DeadRange> dead;
  /// Local -> global token ids; empty means identity.
  std::span<const TokenId> token_map;
  /// Local -> global label-path ids; empty means identity.
  std::span<const PathId> path_map;
  /// Dirichlet terms of Eq. (8): this layer's entity denominators and the
  /// collection's smoothing masses, indexed by global token.
  const LmStatsCache* lm = nullptr;

  TokenId GlobalToken(TokenId local) const {
    return token_map.empty() ? local : token_map[local];
  }
  PathId GlobalPath(PathId local) const {
    return path_map.empty() ? local : path_map[local];
  }
  /// True if node n lies inside a dead range.
  bool IsDead(NodeId n) const;
};

/// Statistics of the whole collection, indexed by global ids.
struct CollectionView {
  /// P_w per token: the input of FindResultType.
  TypeLists type_lists;
  /// Per label path: its depth, and its node count (the N of Eq. 8).
  std::span<const uint32_t> path_depths;
  std::span<const uint32_t> path_node_counts;
  /// Token strings: ids below vocabulary->size() are the vocabulary's own,
  /// later ids index extra_tokens.
  const Vocabulary* vocabulary = nullptr;
  std::span<const std::string> extra_tokens;

  /// One index's own statistics.
  static CollectionView Of(const XmlIndex& index);

  const std::string& token(TokenId global) const {
    return global < vocabulary->size()
               ? vocabulary->token(global)
               : extra_tokens[global - vocabulary->size()];
  }
};

/// Final scoring (Eq. 10): scores every accumulator as
/// P(Q|C) * sum / N, sorts by score and then by the candidate's word
/// sequence, and writes the top `top_k` into *out, reusing its storage.
/// `normalize(key, key_len, &result_type)` returns the candidate's N and
/// sets its result type. An N of 0 (a type whose every node was
/// tombstoned) scores 0 instead of dividing into inf/nan.
template <typename Normalize>
void RankCandidates(const AccumulatorTable& accumulators,
                    const CollectionView& collection, size_t top_k,
                    Normalize&& normalize,
                    std::vector<RankedCandidate>& finals,
                    std::vector<Suggestion>* out) {
  finals.clear();
  accumulators.ForEach([&](const TokenId* key, size_t key_len,
                           const CandidateState& state) {
    RankedCandidate e;
    e.key = key;
    e.key_len = static_cast<uint32_t>(key_len);
    e.error_weight = state.error_weight;
    e.entity_count = state.entity_count;
    e.result_type = XmlTree::kInvalidPath;
    const double n_entities = normalize(key, key_len, &e.result_type);
    e.score = n_entities > 0.0
                  ? state.error_weight * state.sum / n_entities
                  : 0.0;
    finals.push_back(e);
  });

  std::sort(finals.begin(), finals.end(),
            [&](const RankedCandidate& a, const RankedCandidate& b) {
              if (a.score != b.score) return a.score > b.score;
              // Lexicographic comparison of the suggested word sequences
              // (equal TokenIds are equal words, so compare strings only
              // where ids differ).
              const size_t n = std::min(a.key_len, b.key_len);
              for (size_t i = 0; i < n; ++i) {
                if (a.key[i] == b.key[i]) continue;
                return collection.token(a.key[i]) < collection.token(b.key[i]);
              }
              return a.key_len < b.key_len;
            });

  const size_t k = std::min(finals.size(), top_k);
  for (size_t r = 0; r < k; ++r) {
    const RankedCandidate& e = finals[r];
    if (out->size() <= r) out->emplace_back();
    Suggestion& s = (*out)[r];
    if (s.words.size() != e.key_len) s.words.resize(e.key_len);
    for (size_t i = 0; i < e.key_len; ++i) {
      s.words[i] = collection.token(e.key[i]);
    }
    s.score = e.score;
    s.error_weight = e.error_weight;
    s.entity_count = e.entity_count;
    s.result_type = e.result_type;
  }
  out->resize(k);
}

/// The XClean algorithm (Algorithm 1): computes the scores of all candidate
/// queries in a single pass over the merged variant inverted lists, driven
/// by anchor nodes and depth-d Dewey truncation, with skip-based list
/// advancement, lazy result-type computation and gamma-bounded
/// probabilistic accumulator pruning.
///
/// The collection is a sequence of layers (LayerView): one clean index, or
/// an LSM stack / shard set whose CollectionView merges the layers'
/// statistics. Every query runs one anchor-loop pass per layer, in layer
/// order, into one set of accumulators. Because min_depth >= 2 keeps every
/// subtree and entity inside one document, hence one layer, the passes
/// score exactly what one pass over the joined collection would (DESIGN
/// §8).
///
/// All per-query state lives in a QueryScratch arena; entry points differ
/// only in which scratch they use (a private one for the stats-recording
/// QueryCleaner path, a caller-provided one for batch/serving reuse, a
/// stack-local one otherwise).
class XClean : public QueryCleaner {
 public:
  /// Over one clean index, which the caller keeps alive.
  XClean(const XmlIndex& index, XCleanOptions options = XCleanOptions());

  /// Over several layers scored against `collection`. `owner` keeps alive
  /// everything the views point into. Checks ValidateLayeredOptions.
  XClean(std::vector<LayerView> layers, CollectionView collection,
         XCleanOptions options, std::shared_ptr<const void> owner);

  /// QueryCleaner entry point; records the run's counters in
  /// last_run_stats() and reuses a private scratch across calls, so it is
  /// NOT safe to call concurrently on one instance — concurrent servers
  /// use SuggestWithStats or per-thread scratches.
  std::vector<Suggestion> Suggest(const Query& query) override;
  std::string name() const override;

  /// Thread-safe entry point: all mutable state lives on the stack (plus
  /// the immutable index), so any number of threads may call this on one
  /// XClean instance concurrently. `stats` (optional) receives the run's
  /// work counters.
  std::vector<Suggestion> SuggestWithStats(const Query& query,
                                           XCleanRunStats* stats) const;

  /// The core evaluation: runs Algorithm 1 with all per-query state in
  /// `scratch` and writes the ranked suggestions into *out (reusing its
  /// storage; it is resized to the result count). Safe to call from many
  /// threads concurrently provided each uses its own scratch. A scratch
  /// previously used with a different XClean instance is re-zeroed
  /// automatically.
  ///
  /// `cancel` (optional) makes the run cooperatively cancellable: work is
  /// charged inside the merged-list drains, skips, candidate enumeration
  /// and entity scoring, and when the token trips the anchor loop unwinds
  /// and the accumulators gathered so far are ranked into a partial top-k
  /// (stats->truncated = true). An attached-but-unlimited token produces
  /// bit-identical scores to running without one — cancellation changes
  /// when the algorithm stops, never what it computes. `tuning` (optional)
  /// caps max_ed/gamma/top_k for this query only (graceful degradation
  /// under load); both hooks keep the steady state allocation-free.
  void SuggestWithScratch(const Query& query, QueryScratch& scratch,
                          std::vector<Suggestion>* out, XCleanRunStats* stats,
                          CancelToken* cancel = nullptr,
                          const QueryTuning* tuning = nullptr) const;

  /// Scatter phase of scatter-gather serving: runs Algorithm 1 over layer
  /// `layer` ONLY and exports the resulting accumulators as partials keyed
  /// by global tokens, in canonical (token-id ascending) order. Because the
  /// collection statistics are global, a coordinator that adds the `sum`,
  /// `entity_count` and `lca_total` fields across layers and renormalises
  /// once recovers exactly the scores SuggestWithScratch would compute over
  /// every layer (same real-valued sum; floating-point grouping differs,
  /// see shard/coordinator.h). Honors the same cancellation and tuning
  /// contract as SuggestWithScratch; a cancelled pass exports whatever
  /// accumulated and sets stats->truncated.
  void CollectLayerPartials(const Query& query, size_t layer,
                            QueryScratch& scratch,
                            std::vector<PartialCandidate>* out,
                            XCleanRunStats* stats,
                            CancelToken* cancel = nullptr,
                            const QueryTuning* tuning = nullptr) const;

  /// Evaluates a batch of queries through one shared scratch, so later
  /// queries reuse the arena storage and memo tables warmed by earlier
  /// ones. `scratch` may be null (a local one is used); `stats` (optional)
  /// receives one entry per query. `cancel` (optional) covers the whole
  /// batch: once it trips, the current query surfaces its partial top-k
  /// and the remaining queries return empty, truncated results.
  std::vector<std::vector<Suggestion>> SuggestBatch(
      const std::vector<Query>& queries, QueryScratch* scratch = nullptr,
      std::vector<XCleanRunStats>* stats = nullptr,
      CancelToken* cancel = nullptr,
      const QueryTuning* tuning = nullptr) const;

  const XCleanOptions& options() const { return options_; }
  const XCleanRunStats& last_run_stats() const { return stats_; }
  size_t layer_count() const { return layers_.size(); }

  /// Process-unique id of this instance; QueryScratch uses it to detect
  /// that it was handed to a different algorithm (e.g. after an index
  /// hot-swap) and must drop its memo tables.
  uint64_t epoch() const { return epoch_; }

 private:
  /// What both public constructors share; adds no layer.
  XClean(XCleanOptions options, CollectionView collection,
         std::shared_ptr<const void> owner);
  void AddLayer(LayerView layer);

  /// Re-zeroes `scratch` if it was last used by a different instance.
  void BindScratch(QueryScratch& scratch) const;

  /// Variants of `keyword` in layer `li`'s vocabulary, through the
  /// scratch's cross-query memo.
  const std::vector<Variant>& LookupVariants(QueryScratch& scratch, size_t li,
                                             const std::string& keyword) const;

  /// exp(-beta * d), precomputed per edit distance (d <= max_ed always;
  /// Soundex variants enter clamped to max_ed). Same call as
  /// ErrorModel::Weight, hoisted out of the per-candidate loop.
  double EditWeight(uint32_t distance) const {
    return distance < edit_weight_.size() ? edit_weight_[distance]
                                          : error_model_.Weight(distance);
  }

  /// Resets the accumulators and runs the passes over layers [first, last).
  void Evaluate(const Query& query, size_t first, size_t last,
                QueryScratch& scratch, XCleanRunStats& run_stats,
                CancelToken* cancel, const QueryTuning* tuning) const;

  /// One anchor-loop pass over layer `li` (Algorithm 1 lines 4-16),
  /// folding into the accumulators in `scratch`.
  void RunLayer(size_t li, const Query& query, uint32_t max_ed,
                QueryScratch& scratch, XCleanRunStats& run_stats,
                CancelToken* cancel) const;

  /// Node-type semantics: attribute the current candidate's occurrences to
  /// entities of the chosen result type and fold complete entities into the
  /// accumulator.
  void ScoreNodeTypeEntities(const LayerView& layer, QueryScratch& scratch,
                             size_t num_slots,
                             const ResultTypeScorer::Choice& choice,
                             double error_weight, XCleanRunStats& stats,
                             CancelToken* cancel) const;

  /// SLCA/ELCA semantics: compute the candidate's LCA-family entities
  /// inside the current subtree and fold them into the accumulator.
  void ScoreLcaEntities(const LayerView& layer, QueryScratch& scratch,
                        size_t num_slots, double error_weight,
                        XCleanRunStats& stats, CancelToken* cancel) const;

  XCleanOptions options_;
  CollectionView collection_;
  std::vector<LayerView> layers_;
  /// One per layer: FastSS is per index, and the union of the per-layer
  /// variant sets is the collection's (edit distance is a string property).
  std::vector<VariantGenerator> variant_gen_;
  /// The single-index constructor's LM cache; layered views point into
  /// their owner's.
  std::unique_ptr<LmStatsCache> own_lm_;
  std::shared_ptr<const void> owner_;
  ErrorModel error_model_;
  std::vector<double> edit_weight_;
  ResultTypeScorer type_scorer_;
  uint64_t epoch_;
  XCleanRunStats stats_;
  /// Scratch for the stats-recording Suggest() path (single-threaded by
  /// contract), so the experiment harness gets cross-query arena reuse.
  /// Created on first use.
  std::unique_ptr<QueryScratch> own_scratch_;
};

}  // namespace xclean

#endif  // XCLEAN_CORE_XCLEAN_H_
