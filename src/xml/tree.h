#ifndef XCLEAN_XML_TREE_H_
#define XCLEAN_XML_TREE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "xml/dewey.h"

namespace xclean {

/// Preorder node identifier. Document order on Dewey codes coincides with
/// preorder-id order, so all list processing in the index layer works on
/// NodeIds; Dewey codes are materialized only for truncation, LCA and
/// display.
using NodeId = uint32_t;

inline constexpr NodeId kInvalidNode = 0xFFFFFFFFu;

/// Identifier of a label path ("node type" in the paper): the concatenation
/// of element labels from the root to a node, e.g. /dblp/article/title.
using PathId = uint32_t;

/// Identifier of an element label.
using LabelId = uint32_t;

/// Rooted, node-labeled, ordered tree model of one XML document (or of a
/// collection joined under a virtual root). Nodes are stored in preorder.
///
/// Per the paper's data model (Sec. III):
///  - attributes and PCDATA are treated as element nodes; in this
///    implementation attribute nodes carry "@name" labels and text content
///    attaches to the element that directly contains it,
///  - the root has depth 1,
///  - label paths act as node types; two nodes with equal PathId contain the
///    same sort of information.
///
/// Instances are immutable after construction (via XmlTreeBuilder or the
/// parser) and cheap to query: every accessor is O(1) except
/// AncestorAtDepth which walks the parent chain.
class XmlTree {
 public:
  XmlTree(const XmlTree&) = delete;
  XmlTree& operator=(const XmlTree&) = delete;
  XmlTree(XmlTree&&) noexcept = default;
  XmlTree& operator=(XmlTree&&) noexcept = default;

  /// Number of nodes. Valid ids are [0, size()); 0 is the root.
  NodeId size() const { return static_cast<NodeId>(nodes_.size()); }
  NodeId root() const { return 0; }

  /// Parent id, or kInvalidNode for the root.
  NodeId parent(NodeId n) const { return nodes_[n].parent; }

  /// Depth with the paper's convention: root depth is 1.
  uint32_t depth(NodeId n) const { return nodes_[n].depth; }

  LabelId label_id(NodeId n) const { return nodes_[n].label_id; }
  const std::string& label(NodeId n) const {
    return labels_[nodes_[n].label_id];
  }

  PathId path_id(NodeId n) const { return nodes_[n].path_id; }

  /// Largest preorder id inside n's subtree (inclusive); equals n for a
  /// leaf. Descendant test: a <_AD b  iff  a < b && b <= subtree_end(a).
  NodeId subtree_end(NodeId n) const { return nodes_[n].subtree_end; }

  bool IsAncestor(NodeId a, NodeId d) const {
    return a < d && d <= nodes_[a].subtree_end;
  }
  bool IsAncestorOrSelf(NodeId a, NodeId d) const {
    return a <= d && d <= nodes_[a].subtree_end;
  }

  /// Dewey code view (valid as long as the tree lives).
  DeweyView dewey(NodeId n) const {
    return DeweyView(dewey_pool_.data() + nodes_[n].dewey_offset,
                     nodes_[n].depth);
  }
  std::string DeweyString(NodeId n) const { return DeweyToString(dewey(n)); }

  /// Ancestor of n at the given depth (1 = root). Requires
  /// 1 <= target_depth <= depth(n); returns n itself when equal.
  NodeId AncestorAtDepth(NodeId n, uint32_t target_depth) const;

  /// Lowest common ancestor of two nodes.
  NodeId Lca(NodeId a, NodeId b) const;

  /// Text directly attached to this node (concatenation of its PCDATA
  /// children in document order). Empty for pure structural nodes.
  const std::string& text(NodeId n) const;
  bool has_text(NodeId n) const { return nodes_[n].text_id != kNoText; }

  /// First child / next sibling traversal (preorder layout makes both O(1)).
  NodeId FirstChild(NodeId n) const {
    return nodes_[n].subtree_end > n ? n + 1 : kInvalidNode;
  }
  NodeId NextSibling(NodeId n) const {
    if (nodes_[n].parent == kInvalidNode) return kInvalidNode;
    NodeId next = nodes_[n].subtree_end + 1;
    return next <= nodes_[nodes_[n].parent].subtree_end ? next : kInvalidNode;
  }

  /// Looks a node up by its Dewey code; kInvalidNode if absent.
  NodeId FindByDewey(DeweyView d) const;

  // --- Label table ------------------------------------------------------
  size_t label_count() const { return labels_.size(); }
  const std::string& label_name(LabelId id) const { return labels_[id]; }

  // --- Label path ("node type") table ------------------------------------
  size_t path_count() const { return path_depths_.size(); }
  uint32_t path_depth(PathId p) const { return path_depths_[p]; }
  /// Number of nodes whose label path is p — the N of Eq. (8) when p is the
  /// chosen result type.
  uint32_t path_node_count(PathId p) const { return path_node_counts_[p]; }
  /// The two columns above, indexed by PathId.
  std::span<const uint32_t> path_depths() const { return path_depths_; }
  std::span<const uint32_t> path_node_counts() const {
    return path_node_counts_;
  }
  /// "/a/b/c" rendering of the path.
  std::string PathString(PathId p) const;
  /// PathId for a "/a/b/c" string; kInvalidPath if not present in the tree.
  PathId FindPath(const std::string& path) const;

  static constexpr PathId kInvalidPath = 0xFFFFFFFFu;

  /// Maximum node depth in the tree.
  uint32_t max_depth() const { return max_depth_; }
  /// Mean node depth.
  double avg_depth() const;

  /// Approximate resident bytes of the tree structures (node table, Dewey
  /// pool, text and label storage, path tables).
  uint64_t ApproxMemoryBytes() const;

 private:
  friend class XmlTreeBuilder;
  friend struct SerializationAccess;  // index_io.cc
  XmlTree() = default;

  static constexpr uint32_t kNoText = 0xFFFFFFFFu;

  struct Node {
    NodeId parent = kInvalidNode;
    LabelId label_id = 0;
    PathId path_id = 0;
    uint32_t depth = 0;
    NodeId subtree_end = 0;
    uint32_t dewey_offset = 0;
    uint32_t text_id = kNoText;  // index into texts_, kNoText if none
  };

  std::vector<Node> nodes_;
  std::vector<uint32_t> dewey_pool_;
  std::vector<std::string> texts_;
  std::vector<std::string> labels_;
  // Path table: per path, its (parent path, tail label) plus cached depth and
  // node count. Root path has parent kInvalidPath.
  std::vector<PathId> path_parents_;
  std::vector<LabelId> path_labels_;
  std::vector<uint32_t> path_depths_;
  std::vector<uint32_t> path_node_counts_;
  uint32_t max_depth_ = 0;
  uint64_t depth_sum_ = 0;
};

/// Incremental builder used by the parser and the synthetic data
/// generators. Usage:
///
///   XmlTreeBuilder b;
///   b.BeginElement("dblp");
///     b.BeginElement("article");
///       b.BeginElement("title"); b.AddText("On trees"); b.EndElement();
///     b.EndElement();
///   b.EndElement();
///   Result<XmlTree> tree = std::move(b).Finish();
class XmlTreeBuilder {
 public:
  XmlTreeBuilder();

  /// Opens a child element of the current element (or the root if none is
  /// open yet; only one root is allowed).
  Status BeginElement(std::string_view label);

  /// Appends text to the currently open element.
  Status AddText(std::string_view text);

  /// Convenience: BeginElement + AddText + EndElement.
  Status AddLeaf(std::string_view label, std::string_view text);

  /// Closes the current element.
  Status EndElement();

  /// Current nesting depth (0 when nothing is open).
  size_t open_depth() const { return stack_.size(); }

  /// Finalizes the tree. All elements must be closed and a root must exist.
  Result<XmlTree> Finish() &&;

 private:
  LabelId InternLabel(std::string_view label);
  PathId InternPath(PathId parent, LabelId label);

  XmlTree tree_;
  std::vector<NodeId> stack_;
  std::vector<uint32_t> child_counts_;  // parallel to stack_
  std::unordered_map<std::string, LabelId> label_ids_;
  // (parent_path << 32) | label  ->  path id
  std::unordered_map<uint64_t, PathId> path_ids_;
  bool root_done_ = false;
};

}  // namespace xclean

#endif  // XCLEAN_XML_TREE_H_
