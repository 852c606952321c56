#ifndef XCLEAN_DELTA_MERGED_STATS_H_
#define XCLEAN_DELTA_MERGED_STATS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/xclean.h"
#include "delta/layer.h"
#include "lm/lm_stats_cache.h"

namespace xclean::delta {

/// Cross-layer statistics that make XClean over a layer stack score
/// exactly like a from-scratch rebuild over the live documents (see
/// tests/differential_test.cc, DeltaLayersEqualFullRebuild):
///
///  - a global vocabulary: base-layer ids kept verbatim, delta-only tokens
///    appended, so candidate keys / accumulator entries / suggestion words
///    are layer-independent;
///  - a global label-path table interned in the exact order a rebuild over
///    JoinLiveTree() would intern paths (first live occurrence, layer
///    order), so PathIds — and with them FindResultType's smaller-PathId
///    tie break — match the rebuild bit for bit;
///  - live collection frequencies (layer totals minus tombstone losses,
///    exact integer arithmetic) folded into the rebuild's smoothing-mass
///    expression mu * (cf / total), shared by one LmStatsCache per layer;
///  - merged type lists per global token: per-layer containment counts
///    minus tombstone losses, mapped to global paths and summed, sorted by
///    PathId. Root-path entries are intentionally stale (summed across
///    layers, dead docs included) — the root's depth 1 sits below every
///    admissible min_depth, so FindResultType skips them before reading
///    the frequency.
///
/// Instances are immutable and describe one LayerSet snapshot; any layer
/// change (add, tombstone, compaction) builds a fresh one.
class MergedStats {
 public:
  static std::shared_ptr<const MergedStats> Build(const LayerSet& set,
                                                  const XCleanOptions& options);

  const std::string& token(TokenId global) const {
    return collection_.token(global);
  }
  size_t path_count() const { return path_depths_.size(); }
  /// Live nodes of the path across all layers — the N of Eq. (8).
  uint32_t path_node_count(PathId p) const { return path_node_counts_[p]; }

  /// The collection-wide statistics XClean scores against.
  const CollectionView& collection() const { return collection_; }
  /// XClean's view of layer `li` of the set this was built from.
  LayerView View(const LayerSet& set, size_t li) const;

 private:
  MergedStats() = default;

  TokenId ToGlobalToken(size_t layer, TokenId local) const {
    const std::vector<TokenId>& m = local_to_global_[layer];
    return m.empty() ? local : m[local];
  }

  std::shared_ptr<const XmlIndex> base_;  // keeps base vocab strings alive
  std::vector<std::vector<TokenId>> local_to_global_;  // [layer][local]
  std::vector<std::string> extra_tokens_;              // global - base ids
  std::vector<std::vector<PathId>> path_to_global_;    // [layer][local]
  std::vector<uint32_t> path_depths_;
  std::vector<uint32_t> path_node_counts_;
  std::vector<std::unique_ptr<LmStatsCache>> lm_;
  std::vector<uint32_t> type_offsets_;  // one per global token, plus one
  std::vector<PathFreq> type_entries_;
  CollectionView collection_;
};

/// XClean over every layer of `layers`, scored against `stats` (built from
/// the same set). The algorithm keeps both alive.
std::shared_ptr<const XClean> XCleanOverLayers(
    std::shared_ptr<const LayerSet> layers,
    std::shared_ptr<const MergedStats> stats, const XCleanOptions& options);

}  // namespace xclean::delta

#endif  // XCLEAN_DELTA_MERGED_STATS_H_
