#ifndef XCLEAN_CORE_QUERY_SCRATCH_H_
#define XCLEAN_CORE_QUERY_SCRATCH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/accumulator.h"
#include "core/candidate_map.h"
#include "core/variant_gen.h"
#include "index/merged_list.h"
#include "lm/result_type.h"

namespace xclean {

/// Reusable per-query arena for the XClean hot path: owns the merged-list
/// heads and heap storage, the per-slot occurrence buffers, the candidate
/// key buffer, and the AccumulatorTable backing store, plus two cross-query
/// memo tables (variant lists per (layer, keyword), result-type choices
/// per candidate). A warmed-up scratch makes steady-state Suggest() calls
/// with zero heap allocation, and a memo miss allocates at most the new
/// memo entry (both asserted by tests/zero_alloc_test.cc for the node-type
/// semantics, over one index and over a layer stack; the LCA semantics
/// still allocate inside the SLCA/ELCA computations).
///
/// Usage: pass one instance to XClean::SuggestWithScratch /
/// XCleanSuggester::Suggest(query, &scratch) across many queries. A scratch
/// binds to the first XClean instance that uses it; when a *different*
/// instance (new options or a hot-swapped index) picks it up, the memo
/// tables are dropped automatically — this is how serving threads keep a
/// thread_local scratch across index swaps without ever serving stale
/// statistics.
///
/// Thread safety: none. One scratch belongs to one thread at a time.
class QueryScratch {
 public:
  QueryScratch() = default;
  QueryScratch(QueryScratch&&) noexcept = default;
  QueryScratch& operator=(QueryScratch&&) noexcept = default;
  QueryScratch(const QueryScratch&) = delete;
  QueryScratch& operator=(const QueryScratch&) = delete;

  /// Drops all cached state and releases the arena storage.
  void Clear() { *this = QueryScratch(); }

  /// Cross-query memo sizes (diagnostics / tests).
  size_t variant_cache_entries() const {
    size_t n = 0;
    for (const auto& layer : variant_cache_) n += layer.size();
    return n;
  }
  size_t type_cache_entries() const { return type_cache_.size(); }

  /// Caps on the cross-query memo tables (the variant cap is per layer):
  /// when one outgrows its cap it is dropped wholesale and re-warmed by
  /// subsequent queries. Bounds the footprint of a long-lived (e.g.
  /// thread_local) scratch without per-entry LRU bookkeeping.
  static constexpr size_t kMaxVariantCacheEntries = 8192;
  static constexpr size_t kMaxTypeCacheEntries = 1u << 17;

  /// Process-unique epoch source for the XClean instances that bind
  /// scratches. Two instances never share an epoch, so a scratch handed
  /// from one to the other (an index hot-swap, a new live-index snapshot)
  /// always detects the change and drops its memo tables. 0 is reserved
  /// for "unbound".
  static uint64_t NextEpoch();

 private:
  friend class XClean;

  /// One occurrence of a variant inside the current subtree.
  struct OccInfo {
    NodeId node;
    uint32_t tf;
  };

  /// Occurrences of one (slot, rank) bucket aggregated per entity at some
  /// depth: the entity, its label path, and the summed term frequency.
  /// Lists are ascending by entity (buckets are node-ascending and
  /// AncestorAtDepth is monotone), so candidate scoring intersects them
  /// linearly.
  struct EntityAgg {
    NodeId entity;
    PathId path;
    uint64_t tf;
  };

  /// Sentinel for Slot::agg_depth: the rank's aggregation is stale.
  static constexpr uint32_t kNoAggDepth = 0xFFFFFFFFu;

  /// First index >= p with list[index].entity >= target (or list.size()).
  /// Short linear probe for the common 0-2-entry advance, then galloping +
  /// binary search — same result as the plain linear scan the l-way
  /// intersection loops used to run, but logarithmic when a candidate's
  /// lists are far apart (large subtrees, RULE variant fanouts).
  static size_t AdvanceAgg(const std::vector<EntityAgg>& list, size_t p,
                           NodeId target) {
    const size_t n = list.size();
    for (size_t probe = 0; probe < 4; ++probe, ++p) {
      if (p >= n || list[p].entity >= target) return p;
    }
    size_t step = 4;
    while (p + step < n && list[p + step].entity < target) {
      p += step;
      step <<= 1;
    }
    size_t hi = p + step < n ? p + step : n;
    while (p < hi) {
      const size_t mid = p + (hi - p) / 2;
      if (list[mid].entity < target) {
        p = mid + 1;
      } else {
        hi = mid;
      }
    }
    return p;
  }

  /// Per-keyword-slot state: the variant list (sorted by token; index =
  /// the variant's rank and its MergedList member id), the merged list, and
  /// the current subtree's occurrences bucketed by rank. `active_ranks`
  /// lists the ranks with a non-empty bucket — the invariant maintained
  /// everywhere is: occ_by_rank[r] non-empty implies r is in active_ranks,
  /// so clearing active buckets is O(what was used). `agg_by_rank[r]` memos
  /// the bucket's per-entity aggregation at depth `agg_depth[r]` (stale =
  /// kNoAggDepth): candidates sharing a variant rank and result-type depth
  /// within one subtree attribute occurrences to entities once, not per
  /// candidate.
  struct Slot {
    std::vector<Variant> variants;
    MergedList merged;
    std::vector<std::vector<OccInfo>> occ_by_rank;
    std::vector<uint32_t> active_ranks;
    std::vector<std::vector<EntityAgg>> agg_by_rank;
    std::vector<uint32_t> agg_depth;
  };

  /// Epoch of the XClean instance the memo tables belong to; 0 = unbound.
  uint64_t bound_epoch_ = 0;

  // Cross-query memos (valid only for the bound instance). The variant
  // memo holds one table per layer of that instance.
  std::vector<std::unordered_map<std::string, std::vector<Variant>>>
      variant_cache_;
  CandidateMap<ResultTypeScorer::Choice> type_cache_;
  // FindResultType's intersection cursors on a result-type memo miss.
  ResultTypeScorer::Buffers type_buffers_;

  // Variant generation on a memo miss: the FastSS probe buffers and the
  // generated list, copied into the memo entry at its exact size. A miss
  // then allocates only the entry itself.
  FastSsIndex::ProbeScratch probe_;
  std::vector<Variant> generated_;

  // Per-query arenas; reset (capacity retained) at the start of every run.
  std::vector<Slot> slots_;
  AccumulatorTable accumulators_{0};
  CandidateMap<uint32_t> slca_totals_;
  std::vector<TokenId> candidate_;
  std::vector<size_t> odometer_;
  std::vector<const std::vector<EntityAgg>*> agg_lists_;
  std::vector<size_t> agg_pos_;
  std::vector<std::vector<NodeId>> witness_lists_;
  std::vector<RankedCandidate> finals_;
};

}  // namespace xclean

#endif  // XCLEAN_CORE_QUERY_SCRATCH_H_
