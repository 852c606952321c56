#ifndef XCLEAN_LM_RESULT_TYPE_H_
#define XCLEAN_LM_RESULT_TYPE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "index/xml_index.h"

namespace xclean {

/// The type lists P_w that FindResultType intersects, indexed by token:
/// either one index's TypeIndex, or a flat table (`offsets` holds one entry
/// per token plus a sentinel) of lists merged across index layers.
struct TypeLists {
  const TypeIndex* index = nullptr;
  std::span<const uint32_t> offsets;
  std::span<const PathFreq> entries;

  std::span<const PathFreq> list(TokenId token) const {
    if (index != nullptr) return index->list(token);
    return entries.subspan(offsets[token], offsets[token + 1] - offsets[token]);
  }
};

/// Result-type inference for the "specific node type" keyword query
/// semantics (Sec. IV-B2, following XReal): the desirability of label path
/// p as the result type of candidate query C is
///
///     U(C, p) = log(1 + Π_{w∈C} f_w^p) * r^depth(p)              (Eq. 7)
///
/// where f_w^p counts nodes of path p containing w in their subtree and
/// r < 1 discounts deep paths ("too deep in the tree ... contain little
/// additional information"). The paper's examples use r = 0.8.
class ResultTypeScorer {
 public:
  /// Over one index's type lists and label paths.
  explicit ResultTypeScorer(const XmlIndex& index, double r = 0.8)
      : ResultTypeScorer(TypeLists{&index.type_index(), {}, {}},
                         index.tree().path_depths(), r) {}
  /// Over any type-list source; `path_depths` is indexed by the PathIds the
  /// lists carry.
  ResultTypeScorer(TypeLists lists, std::span<const uint32_t> path_depths,
                   double r)
      : lists_(lists), path_depths_(path_depths), reduction_(r) {}

  double reduction() const { return reduction_; }

  struct Choice {
    PathId path = XmlTree::kInvalidPath;
    double utility = 0.0;
    /// Π_w f_w^p of the winning path (used in tests / diagnostics).
    double freq_product = 0.0;
  };

  /// Intersection cursors of FindResultType; a caller that keeps one
  /// instance across calls makes FindResultType allocation-free.
  struct Buffers {
    std::vector<std::span<const PathFreq>> lists;
    std::vector<size_t> pos;
  };

  /// U(C, p) for an explicit path (0 if some keyword never occurs under p).
  double Utility(const std::vector<TokenId>& candidate, PathId path) const;

  /// The FindResultType(C) algorithm of Sec. V-B: intersects the keywords'
  /// type lists by a multi-way merge (lists are PathId-sorted) and returns
  /// the path maximizing U(C, p) among paths of depth >= min_depth. Ties
  /// break to the smaller PathId for determinism. Returns kInvalidPath if
  /// the keywords never co-occur under a qualifying type.
  Choice FindResultType(std::span<const TokenId> candidate, uint32_t min_depth,
                        Buffers& buffers) const;
  Choice FindResultType(const std::vector<TokenId>& candidate,
                        uint32_t min_depth) const {
    Buffers buffers;
    return FindResultType(candidate, min_depth, buffers);
  }

 private:
  TypeLists lists_;
  std::span<const uint32_t> path_depths_;
  double reduction_;
};

}  // namespace xclean

#endif  // XCLEAN_LM_RESULT_TYPE_H_
