#ifndef XCLEAN_SHARD_SHARDED_CORPUS_H_
#define XCLEAN_SHARD_SHARDED_CORPUS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/xclean.h"
#include "delta/layer.h"
#include "delta/merged_stats.h"
#include "index/shard_manifest.h"
#include "xml/tree.h"

namespace xclean::shard {

/// One shard's contiguous slice of document ordinals, [doc_begin, doc_end).
/// Documents are the depth-2 children of the corpus root in document
/// order, so a contiguous ordinal range is a contiguous preorder/Dewey
/// range — SLCA/ELCA anchors of any entity stay inside one shard (every
/// entity sits below one document at min_depth >= 2) and Dewey locality is
/// preserved shard-locally.
struct ShardRange {
  uint32_t doc_begin = 0;
  uint32_t doc_end = 0;

  bool empty() const { return doc_begin == doc_end; }
  bool Contains(uint32_t doc) const {
    return doc >= doc_begin && doc < doc_end;
  }
};

/// Preorder node ids of the corpus root's children — the document roots
/// the partitioner assigns to shards. Ordinal i in every ShardRange refers
/// to docs[i] of this vector.
std::vector<NodeId> DocumentRoots(const XmlTree& corpus);

/// Ordinal of the document containing `n` (any node below the root):
/// index into DocumentRoots(corpus) of its depth-2 ancestor. The root
/// itself belongs to no document; passing it is an error.
uint32_t DocumentOrdinal(const XmlTree& corpus, NodeId n);

/// Splits `num_docs` documents into `num_shards` contiguous ranges,
/// balanced by per-document weight (linear greedy sweep against the ideal
/// cumulative boundary — each boundary lands where the running weight
/// first reaches i/N of the total). Deterministic; tail ranges may be
/// empty when there are fewer documents than shards. `weights[i]` is the
/// cost proxy of document i (we use subtree node count).
std::vector<ShardRange> PartitionByWeight(const std::vector<uint64_t>& weights,
                                          size_t num_shards);

/// Shard for a document ordinal under `ranges` (which must tile the
/// document space); kInvalidNode-like sentinel UINT32_MAX if out of range.
uint32_t ShardForDocument(const std::vector<ShardRange>& ranges, uint32_t doc);

struct ShardedCorpusOptions {
  size_t num_shards = 4;
  IndexOptions index;
  XCleanOptions xclean;
};

/// A corpus range-partitioned into N single-layer indexes plus the global
/// statistics every shard evaluates against.
///
/// The partition reuses the delta machinery with shards as layers: shard
/// s's tree is the corpus root's label (root text goes to shard 0, the
/// "base" layer) plus the documents of range s replayed in document order,
/// indexed independently through the normal build pipeline. The LayerSet
/// of all shard indexes then feeds delta::MergedStats, which computes the
/// *global* vocabulary, path table, Dirichlet smoothing masses and merged
/// type lists — the statistics a distributed deployment would broadcast to
/// every shard at publish time. Each shard evaluates Algorithm 1 over its
/// own postings only (XClean::CollectLayerPartials), but against
/// the global background model, which is what makes per-shard partial sums
/// combine exactly: P(C|T) is a sum over entities (Eq. 8), every entity
/// lives in exactly one shard, and each per-entity term depends only on
/// shard-local postings plus the shared global statistics.
struct ShardedCorpus {
  uint64_t generation = 0;
  std::vector<ShardRange> ranges;
  /// layers->layers[s].index is shard s's index; tombstones are empty.
  std::shared_ptr<const delta::LayerSet> layers;
  std::shared_ptr<const delta::MergedStats> stats;
  /// The shared per-shard evaluation engine (immutable, thread-safe):
  /// XClean with one layer per shard.
  std::shared_ptr<const XClean> engine;

  size_t num_shards() const { return ranges.size(); }
};

/// Range-partitions `corpus` into `options.num_shards` shard indexes and
/// builds the global statistics. Returns ValidateLayeredOptions' refusal
/// for options.xclean that break shard locality. `generation`
/// tags the build for staleness detection at the coordinator.
Result<ShardedCorpus> BuildShardedCorpus(const XmlTree& corpus,
                                         const ShardedCorpusOptions& options,
                                         uint64_t generation = 1);

/// Persists every shard snapshot plus the SHARDSET manifest into `dir`
/// (created by the caller). Snapshot files are named shard-%04u.idx.
Status SaveShardedCorpus(const ShardedCorpus& corpus, const std::string& dir);

/// Loads a shard set previously written by SaveShardedCorpus, verifying
/// the manifest and every per-shard checksum before rebuilding the global
/// statistics. `options.num_shards` is taken from the manifest.
Result<ShardedCorpus> LoadShardedCorpus(const std::string& dir,
                                        const XCleanOptions& xclean);

}  // namespace xclean::shard

#endif  // XCLEAN_SHARD_SHARDED_CORPUS_H_
