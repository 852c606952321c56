#ifndef XCLEAN_INDEX_INDEX_BUILDER_H_
#define XCLEAN_INDEX_INDEX_BUILDER_H_

#include <memory>

#include "index/xml_index.h"

namespace xclean {

/// Pipelined, optionally parallel construction of an XmlIndex
/// (IndexOptions::build_threads picks the degree). The pipeline:
///
///   1. tokenize + intern — one serial pass over the text nodes in node
///                     order: tokens stream out of Tokenizer::ForEachToken
///                     straight into the vocabulary (ids come out in
///                     first-seen preorder) and into a flat table of
///                     per-node (token, tf) occurrences,
///   2. postings     — parallel over vocabulary shards: each shard scans
///                     the occurrence table once and appends postings
///                     for its own token range (node order is preserved
///                     because the table is in node order),
///   3. subtree sums — serial reverse-preorder accumulation (O(n)),
///   4. type lists   — parallel over token ranges: a stamped ancestor walk
///                     per posting into a flat per-path counter,
///   5. FastSS       — parallel neighborhood generation per vocabulary
///                     shard with a deterministic sorted merge.
///
/// The per-token and per-posting work allocates nothing in steady state.
/// Every merge point is deterministic, so a build with any thread count
/// serializes to byte-identical snapshots (asserted by
/// parallel_build_test). XmlIndex::Build delegates here; this header only
/// exists so tests and tools can name the builder directly.
class IndexBuilder {
 public:
  static std::unique_ptr<XmlIndex> Build(XmlTree tree, IndexOptions options);
};

}  // namespace xclean

#endif  // XCLEAN_INDEX_INDEX_BUILDER_H_
