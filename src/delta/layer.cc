#include "delta/layer.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"

namespace xclean::delta {

bool Layer::IsDead(NodeId n) const {
  auto it = std::partition_point(
      tombstones.begin(), tombstones.end(),
      [n](const Tombstone& t) { return t.end < n; });
  return it != tombstones.end() && it->begin <= n;
}

DeadDocStats ComputeDeadDocStats(const XmlIndex& index, NodeId doc) {
  const XmlTree& tree = index.tree();
  const NodeId end = tree.subtree_end(doc);
  DeadDocStats out;

  std::unordered_map<TokenId, uint64_t> cf;
  // (node << 32 | token): a node's containment of a token counts once no
  // matter how many descendant occurrences witness it.
  std::unordered_set<uint64_t> seen;
  // (token << 32 | path) -> containment count.
  std::unordered_map<uint64_t, uint32_t> type_freq;

  std::string buf;
  for (NodeId n = doc; n <= end; ++n) {
    if (!tree.has_text(n)) continue;
    index.tokenizer().ForEachToken(
        tree.text(n), buf, [&](std::string_view w) {
          const TokenId t = index.vocabulary().Find(w);
          // Every indexed occurrence tokenizes back to a vocabulary entry:
          // the index was built with this same tokenizer over this text.
          XCLEAN_CHECK(t != kInvalidToken);
          cf[t] += 1;
          out.total_tokens += 1;
          for (NodeId a = n;; a = tree.parent(a)) {
            if (seen.insert((static_cast<uint64_t>(a) << 32) | t).second) {
              type_freq[(static_cast<uint64_t>(t) << 32) |
                        tree.path_id(a)] += 1;
            }
            if (a == doc) break;
          }
        });
  }

  out.cf.assign(cf.begin(), cf.end());
  std::sort(out.cf.begin(), out.cf.end());
  out.type_freqs.reserve(type_freq.size());
  for (const auto& [key, freq] : type_freq) {
    out.type_freqs.push_back(DeadDocStats::TypeFreq{
        static_cast<TokenId>(key >> 32), static_cast<PathId>(key), freq});
  }
  std::sort(out.type_freqs.begin(), out.type_freqs.end(),
            [](const DeadDocStats::TypeFreq& a,
               const DeadDocStats::TypeFreq& b) {
              return a.token != b.token ? a.token < b.token : a.path < b.path;
            });
  return out;
}

Status ReplaySubtree(const XmlTree& tree, NodeId n, XmlTreeBuilder& builder) {
  Status s = builder.BeginElement(tree.label(n));
  if (!s.ok()) return s;
  if (tree.has_text(n)) {
    s = builder.AddText(tree.text(n));
    if (!s.ok()) return s;
  }
  for (NodeId c = tree.FirstChild(n); c != kInvalidNode;
       c = tree.NextSibling(c)) {
    s = ReplaySubtree(tree, c, builder);
    if (!s.ok()) return s;
  }
  return builder.EndElement();
}

Result<XmlTree> JoinLiveTree(const LayerSet& set) {
  XCLEAN_CHECK(!set.layers.empty());
  XmlTreeBuilder builder;
  const XmlTree& base = set.layers[0].index->tree();
  Status s = builder.BeginElement(base.label(base.root()));
  if (!s.ok()) return s;
  for (const Layer& layer : set.layers) {
    const XmlTree& t = layer.index->tree();
    if (t.has_text(t.root())) {
      s = builder.AddText(t.text(t.root()));
      if (!s.ok()) return s;
    }
  }
  for (const Layer& layer : set.layers) {
    const XmlTree& t = layer.index->tree();
    for (NodeId doc = t.FirstChild(t.root()); doc != kInvalidNode;
         doc = t.NextSibling(doc)) {
      if (layer.IsDead(doc)) continue;
      s = ReplaySubtree(t, doc, builder);
      if (!s.ok()) return s;
    }
  }
  s = builder.EndElement();
  if (!s.ok()) return s;
  return std::move(builder).Finish();
}

}  // namespace xclean::delta
