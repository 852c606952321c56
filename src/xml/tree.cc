#include "xml/tree.h"

#include <algorithm>

#include "common/check.h"

namespace xclean {

namespace {
const std::string kEmptyString;
}  // namespace

NodeId XmlTree::AncestorAtDepth(NodeId n, uint32_t target_depth) const {
  XCLEAN_CHECK(target_depth >= 1 && target_depth <= nodes_[n].depth);
  NodeId cur = n;
  while (nodes_[cur].depth > target_depth) cur = nodes_[cur].parent;
  return cur;
}

NodeId XmlTree::Lca(NodeId a, NodeId b) const {
  size_t prefix = DeweyCommonPrefix(dewey(a), dewey(b));
  XCLEAN_CHECK(prefix >= 1);  // every pair shares the root
  return AncestorAtDepth(a, static_cast<uint32_t>(prefix));
}

const std::string& XmlTree::text(NodeId n) const {
  if (nodes_[n].text_id == kNoText) return kEmptyString;
  return texts_[nodes_[n].text_id];
}

NodeId XmlTree::FindByDewey(DeweyView d) const {
  if (d.empty() || d[0] != 1 || nodes_.empty()) return kInvalidNode;
  NodeId cur = root();
  for (size_t i = 1; i < d.size(); ++i) {
    uint32_t ordinal = d[i];
    NodeId child = FirstChild(cur);
    for (uint32_t seen = 1; child != kInvalidNode && seen < ordinal; ++seen) {
      child = NextSibling(child);
    }
    if (child == kInvalidNode) return kInvalidNode;
    cur = child;
  }
  return cur;
}

std::string XmlTree::PathString(PathId p) const {
  std::vector<LabelId> chain;
  for (PathId cur = p; cur != kInvalidPath; cur = path_parents_[cur]) {
    chain.push_back(path_labels_[cur]);
  }
  std::string out;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    out.push_back('/');
    out += labels_[*it];
  }
  return out;
}

PathId XmlTree::FindPath(const std::string& path) const {
  // Paths are few (tens to hundreds); a linear scan keeps the tree free of
  // an extra string->id map that only tests and examples need.
  for (PathId p = 0; p < path_depths_.size(); ++p) {
    if (PathString(p) == path) return p;
  }
  return kInvalidPath;
}

double XmlTree::avg_depth() const {
  if (nodes_.empty()) return 0.0;
  return static_cast<double>(depth_sum_) / static_cast<double>(nodes_.size());
}

uint64_t XmlTree::ApproxMemoryBytes() const {
  uint64_t bytes = nodes_.capacity() * sizeof(Node) +
                   dewey_pool_.capacity() * sizeof(uint32_t) +
                   path_parents_.capacity() * sizeof(PathId) +
                   path_labels_.capacity() * sizeof(LabelId) +
                   path_depths_.capacity() * sizeof(uint32_t) +
                   path_node_counts_.capacity() * sizeof(uint32_t);
  for (const std::string& s : texts_) bytes += sizeof(std::string) + s.size();
  for (const std::string& s : labels_) {
    bytes += sizeof(std::string) + s.size();
  }
  return bytes;
}

XmlTreeBuilder::XmlTreeBuilder() = default;

LabelId XmlTreeBuilder::InternLabel(std::string_view label) {
  auto it = label_ids_.find(std::string(label));
  if (it != label_ids_.end()) return it->second;
  LabelId id = static_cast<LabelId>(tree_.labels_.size());
  tree_.labels_.emplace_back(label);
  label_ids_.emplace(std::string(label), id);
  return id;
}

PathId XmlTreeBuilder::InternPath(PathId parent, LabelId label) {
  uint64_t key = (static_cast<uint64_t>(parent) << 32) | label;
  auto it = path_ids_.find(key);
  if (it != path_ids_.end()) return it->second;
  PathId id = static_cast<PathId>(tree_.path_depths_.size());
  tree_.path_parents_.push_back(parent);
  tree_.path_labels_.push_back(label);
  uint32_t depth =
      parent == XmlTree::kInvalidPath ? 1 : tree_.path_depths_[parent] + 1;
  tree_.path_depths_.push_back(depth);
  tree_.path_node_counts_.push_back(0);
  path_ids_.emplace(key, id);
  return id;
}

Status XmlTreeBuilder::BeginElement(std::string_view label) {
  if (stack_.empty() && root_done_) {
    return Status::InvalidArgument(
        "XmlTreeBuilder: multiple roots (element after root closed)");
  }
  if (label.empty()) {
    return Status::InvalidArgument("XmlTreeBuilder: empty element label");
  }
  NodeId id = static_cast<NodeId>(tree_.nodes_.size());
  XmlTree::Node node;
  node.label_id = InternLabel(label);
  if (stack_.empty()) {
    node.parent = kInvalidNode;
    node.depth = 1;
    node.path_id = InternPath(XmlTree::kInvalidPath, node.label_id);
    node.dewey_offset = static_cast<uint32_t>(tree_.dewey_pool_.size());
    tree_.dewey_pool_.push_back(1);
  } else {
    NodeId parent = stack_.back();
    node.parent = parent;
    node.depth = tree_.nodes_[parent].depth + 1;
    node.path_id = InternPath(tree_.nodes_[parent].path_id, node.label_id);
    // Dewey = parent's dewey + this child's 1-based ordinal.
    uint32_t ordinal = ++child_counts_.back();
    node.dewey_offset = static_cast<uint32_t>(tree_.dewey_pool_.size());
    DeweyView pd(tree_.dewey_pool_.data() + tree_.nodes_[parent].dewey_offset,
                 tree_.nodes_[parent].depth);
    tree_.dewey_pool_.insert(tree_.dewey_pool_.end(), pd.begin(), pd.end());
    tree_.dewey_pool_.push_back(ordinal);
  }
  tree_.path_node_counts_[node.path_id]++;
  tree_.max_depth_ = std::max(tree_.max_depth_, node.depth);
  tree_.depth_sum_ += node.depth;
  tree_.nodes_.push_back(node);
  stack_.push_back(id);
  child_counts_.push_back(0);
  return Status::Ok();
}

Status XmlTreeBuilder::AddText(std::string_view text) {
  if (stack_.empty()) {
    return Status::InvalidArgument("XmlTreeBuilder: text outside any element");
  }
  XmlTree::Node& node = tree_.nodes_[stack_.back()];
  if (node.text_id == XmlTree::kNoText) {
    node.text_id = static_cast<uint32_t>(tree_.texts_.size());
    tree_.texts_.emplace_back(text);
  } else {
    // Mixed content: merge the runs with a separating space so token
    // boundaries survive.
    std::string& existing = tree_.texts_[node.text_id];
    if (!existing.empty() && !text.empty()) existing.push_back(' ');
    existing.append(text);
  }
  return Status::Ok();
}

Status XmlTreeBuilder::AddLeaf(std::string_view label, std::string_view text) {
  Status s = BeginElement(label);
  if (!s.ok()) return s;
  if (!text.empty()) {
    s = AddText(text);
    if (!s.ok()) return s;
  }
  return EndElement();
}

Status XmlTreeBuilder::EndElement() {
  if (stack_.empty()) {
    return Status::InvalidArgument("XmlTreeBuilder: EndElement without open");
  }
  NodeId id = stack_.back();
  tree_.nodes_[id].subtree_end = static_cast<NodeId>(tree_.nodes_.size() - 1);
  stack_.pop_back();
  child_counts_.pop_back();
  if (stack_.empty()) root_done_ = true;
  return Status::Ok();
}

Result<XmlTree> XmlTreeBuilder::Finish() && {
  if (!stack_.empty()) {
    return Status::InvalidArgument("XmlTreeBuilder: unclosed elements");
  }
  if (!root_done_) {
    return Status::InvalidArgument("XmlTreeBuilder: empty tree");
  }
  return std::move(tree_);
}

}  // namespace xclean
