#include "index/xml_index.h"

#include <utility>

#include "index/index_builder.h"

namespace xclean {

std::unique_ptr<XmlIndex> XmlIndex::Build(XmlTree tree, IndexOptions options) {
  return IndexBuilder::Build(std::move(tree), options);
}

uint64_t XmlIndex::ApproxMemoryBytes() const {
  uint64_t bytes = tree_.ApproxMemoryBytes() + fastss_.ApproxMemoryBytes();
  for (const PostingList& list : inverted_lists_) {
    bytes += sizeof(PostingList) + list.size() * sizeof(Posting);
  }
  for (TokenId t = 0; t < type_index_.token_count(); ++t) {
    bytes += type_index_.list(t).size() * sizeof(PathFreq);
  }
  bytes += vocabulary_.ApproxMemoryBytes();
  bytes += cf_.capacity() * sizeof(uint64_t) +
           df_.capacity() * sizeof(uint32_t) +
           node_tokens_.capacity() * sizeof(uint32_t) +
           subtree_tokens_.capacity() * sizeof(uint64_t);
  return bytes;
}

IndexStats XmlIndex::stats() const {
  IndexStats s;
  s.node_count = tree_.size();
  s.text_node_count = text_node_count_;
  s.token_occurrences = total_tokens_;
  s.vocabulary_size = vocabulary_.size();
  s.path_count = tree_.path_count();
  s.max_depth = tree_.max_depth();
  s.avg_depth = tree_.avg_depth();
  s.xml_bytes = source_bytes_;
  return s;
}

}  // namespace xclean
