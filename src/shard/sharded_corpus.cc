#include "shard/sharded_corpus.h"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "common/check.h"
#include "common/durable_file.h"
#include "index/index_io.h"

namespace xclean::shard {

namespace {

std::string ShardFileName(uint32_t shard_id) {
  char name[32];
  std::snprintf(name, sizeof(name), "shard-%04u.idx", shard_id);
  return name;
}

/// Materializes shard `range` of `corpus` as its own tree: the corpus
/// root's label, the root's direct text on shard 0 only (mirroring
/// JoinLiveTree, where root text belongs to the base layer), then the
/// range's documents replayed in document order. The concatenation of all
/// shard trees in shard order is therefore exactly the JoinLiveTree of the
/// resulting LayerSet — the partition and the join are inverses.
Result<XmlTree> BuildShardTree(const XmlTree& corpus,
                               const std::vector<NodeId>& docs,
                               const ShardRange& range, bool is_base) {
  XmlTreeBuilder builder;
  Status s = builder.BeginElement(corpus.label(corpus.root()));
  if (!s.ok()) return s;
  if (is_base && corpus.has_text(corpus.root())) {
    s = builder.AddText(corpus.text(corpus.root()));
    if (!s.ok()) return s;
  }
  for (uint32_t doc = range.doc_begin; doc < range.doc_end; ++doc) {
    s = delta::ReplaySubtree(corpus, docs[doc], builder);
    if (!s.ok()) return s;
  }
  s = builder.EndElement();
  if (!s.ok()) return s;
  return std::move(builder).Finish();
}

Result<ShardedCorpus> AssembleFromIndexes(
    std::vector<std::shared_ptr<const XmlIndex>> indexes,
    std::vector<ShardRange> ranges, const XCleanOptions& xclean,
    uint64_t generation) {
  Status valid = ValidateLayeredOptions(xclean);
  if (!valid.ok()) return valid;
  auto layers = std::make_shared<delta::LayerSet>();
  layers->layers.reserve(indexes.size());
  for (std::shared_ptr<const XmlIndex>& index : indexes) {
    layers->layers.push_back(delta::Layer{std::move(index), {}});
  }
  ShardedCorpus corpus;
  corpus.generation = generation;
  corpus.ranges = std::move(ranges);
  corpus.layers = layers;
  corpus.stats = delta::MergedStats::Build(*layers, xclean);
  corpus.engine = delta::XCleanOverLayers(layers, corpus.stats, xclean);
  return corpus;
}

}  // namespace

std::vector<NodeId> DocumentRoots(const XmlTree& corpus) {
  std::vector<NodeId> docs;
  for (NodeId c = corpus.FirstChild(corpus.root()); c != kInvalidNode;
       c = corpus.NextSibling(c)) {
    docs.push_back(c);
  }
  return docs;
}

uint32_t DocumentOrdinal(const XmlTree& corpus, NodeId n) {
  XCLEAN_CHECK(n != corpus.root() && n < corpus.size());
  const NodeId doc_root = corpus.AncestorAtDepth(n, 2);
  uint32_t ordinal = 0;
  for (NodeId c = corpus.FirstChild(corpus.root()); c != kInvalidNode;
       c = corpus.NextSibling(c)) {
    if (c == doc_root) return ordinal;
    ++ordinal;
  }
  XCLEAN_CHECK(false);  // every non-root node lies under some root child
  return UINT32_MAX;
}

std::vector<ShardRange> PartitionByWeight(const std::vector<uint64_t>& weights,
                                          size_t num_shards) {
  XCLEAN_CHECK(num_shards > 0);
  const size_t num_docs = weights.size();
  uint64_t total = 0;
  for (uint64_t w : weights) total += w;

  std::vector<ShardRange> ranges(num_shards);
  size_t doc = 0;
  uint64_t cum = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    ranges[s].doc_begin = static_cast<uint32_t>(doc);
    if (s + 1 == num_shards) {
      doc = num_docs;  // last shard absorbs the remainder
    } else if (total == 0) {
      doc = (s + 1) * num_docs / num_shards;  // count-balanced fallback
    } else {
      // A document joins shard s while its weight midpoint lies before the
      // ideal cumulative boundary total*(s+1)/num_shards; comparing
      // midpoints splits an oversized document's pull between neighbours
      // instead of always rounding it down. (Fits in uint64: weights are
      // node counts of one tree, bounded by NodeId range.)
      const uint64_t boundary = 2 * total * (s + 1);
      while (doc < num_docs &&
             (2 * cum + weights[doc]) * num_shards < boundary) {
        cum += weights[doc++];
      }
    }
    ranges[s].doc_end = static_cast<uint32_t>(doc);
  }
  return ranges;
}

uint32_t ShardForDocument(const std::vector<ShardRange>& ranges,
                          uint32_t doc) {
  for (size_t s = 0; s < ranges.size(); ++s) {
    if (ranges[s].Contains(doc)) return static_cast<uint32_t>(s);
  }
  return UINT32_MAX;
}

Result<ShardedCorpus> BuildShardedCorpus(const XmlTree& corpus,
                                         const ShardedCorpusOptions& options,
                                         uint64_t generation) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  const std::vector<NodeId> docs = DocumentRoots(corpus);
  std::vector<uint64_t> weights;
  weights.reserve(docs.size());
  for (NodeId doc : docs) {
    weights.push_back(corpus.subtree_end(doc) - doc + 1);
  }
  std::vector<ShardRange> ranges =
      PartitionByWeight(weights, options.num_shards);

  std::vector<std::shared_ptr<const XmlIndex>> indexes;
  indexes.reserve(ranges.size());
  for (size_t s = 0; s < ranges.size(); ++s) {
    Result<XmlTree> tree = BuildShardTree(corpus, docs, ranges[s], s == 0);
    if (!tree.ok()) return tree.status();
    indexes.push_back(XmlIndex::Build(std::move(tree).value(), options.index));
  }
  return AssembleFromIndexes(std::move(indexes), std::move(ranges),
                             options.xclean, generation);
}

Status SaveShardedCorpus(const ShardedCorpus& corpus, const std::string& dir) {
  ShardSetManifest manifest;
  manifest.generation = corpus.generation;
  for (size_t s = 0; s < corpus.num_shards(); ++s) {
    ShardManifestEntry entry;
    entry.shard_id = static_cast<uint32_t>(s);
    entry.doc_begin = corpus.ranges[s].doc_begin;
    entry.doc_end = corpus.ranges[s].doc_end;
    entry.file = ShardFileName(entry.shard_id);
    const std::string path = dir + "/" + entry.file;
    Status status = SaveIndex(*corpus.layers->layers[s].index, path);
    if (!status.ok()) return status;
    std::error_code ec;
    entry.bytes = std::filesystem::file_size(path, ec);
    if (ec) return Status::Internal("stat " + path + ": " + ec.message());
    Result<uint64_t> checksum = HashFileContents(path);
    if (!checksum.ok()) return checksum.status();
    entry.checksum = checksum.value();
    manifest.shards.push_back(std::move(entry));
  }
  // The manifest lands last, atomically: a crash mid-save leaves either no
  // manifest (shard files are garbage to be rewritten) or a manifest whose
  // every referenced snapshot is already complete and checksummed.
  return SaveShardSetManifest(dir, manifest);
}

Result<ShardedCorpus> LoadShardedCorpus(const std::string& dir,
                                        const XCleanOptions& xclean) {
  Result<ShardSetManifest> manifest = LoadShardSetManifest(dir);
  if (!manifest.ok()) return manifest.status();

  std::vector<std::shared_ptr<const XmlIndex>> indexes;
  std::vector<ShardRange> ranges;
  for (const ShardManifestEntry& entry : manifest->shards) {
    const std::string path = dir + "/" + entry.file;
    Status status = VerifyFileChecksum(path, entry.bytes, entry.checksum);
    if (!status.ok()) return status;
    Result<std::unique_ptr<XmlIndex>> index = LoadIndex(path);
    if (!index.ok()) return index.status();
    indexes.push_back(std::move(index).value());
    ranges.push_back(ShardRange{entry.doc_begin, entry.doc_end});
  }
  return AssembleFromIndexes(std::move(indexes), std::move(ranges), xclean,
                             manifest->generation);
}

}  // namespace xclean::shard
