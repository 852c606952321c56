#include "delta/merged_stats.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/check.h"

namespace xclean::delta {

std::shared_ptr<const MergedStats> MergedStats::Build(
    const LayerSet& set, const XCleanOptions& options) {
  XCLEAN_CHECK(!set.layers.empty());
  std::shared_ptr<MergedStats> out(new MergedStats());
  const size_t num_layers = set.layers.size();
  out->base_ = set.layers[0].index;
  const Vocabulary& base_vocab = out->base_->vocabulary();

  // --- Global vocabulary: base ids verbatim, delta-only tokens appended
  // in (layer, local id) order. The rebuild interns tokens in a different
  // (first-seen text) order; that is immaterial — scores never read token
  // ids and the final ranking compares token *strings*.
  out->local_to_global_.resize(num_layers);
  std::unordered_map<std::string, TokenId> extra_ids;
  for (size_t li = 1; li < num_layers; ++li) {
    const Vocabulary& v = set.layers[li].index->vocabulary();
    std::vector<TokenId>& m = out->local_to_global_[li];
    m.resize(v.size());
    for (TokenId t = 0; t < v.size(); ++t) {
      const std::string& w = v.token(t);
      TokenId g = base_vocab.Find(w);
      if (g == kInvalidToken) {
        auto [it, inserted] = extra_ids.emplace(
            w, static_cast<TokenId>(base_vocab.size() +
                                    out->extra_tokens_.size()));
        if (inserted) out->extra_tokens_.push_back(w);
        g = it->second;
      }
      m[t] = g;
    }
  }
  const size_t vocab_size = base_vocab.size() + out->extra_tokens_.size();

  // --- Global path table: replay the path-interning order of a rebuild
  // over JoinLiveTree() — root first, then every live node in (layer,
  // preorder) order — so global PathIds coincide with the rebuild's.
  std::unordered_map<std::string, LabelId> label_ids;
  std::unordered_map<uint64_t, PathId> path_ids;  // (parent << 32) | label
  auto intern_path = [&](PathId parent, const std::string& name) -> PathId {
    const LabelId label =
        label_ids.emplace(name, static_cast<LabelId>(label_ids.size()))
            .first->second;
    const uint64_t key = (static_cast<uint64_t>(parent) << 32) | label;
    auto [it, inserted] =
        path_ids.emplace(key, static_cast<PathId>(out->path_depths_.size()));
    if (inserted) {
      out->path_depths_.push_back(
          parent == XmlTree::kInvalidPath ? 1 : out->path_depths_[parent] + 1);
      out->path_node_counts_.push_back(0);
    }
    return it->second;
  };

  out->path_to_global_.resize(num_layers);
  for (size_t li = 0; li < num_layers; ++li) {
    const Layer& layer = set.layers[li];
    const XmlTree& tree = layer.index->tree();
    out->path_to_global_[li].assign(tree.path_count(), XmlTree::kInvalidPath);
    std::vector<PathId> node_gpath(tree.size(), XmlTree::kInvalidPath);
    const std::vector<Tombstone>& tombs = layer.tombstones;
    size_t ti = 0;
    for (NodeId n = 0; n < tree.size(); ++n) {
      while (ti < tombs.size() && tombs[ti].end < n) ++ti;
      if (ti < tombs.size() && tombs[ti].begin <= n && n <= tombs[ti].end) {
        n = tombs[ti].end;  // skip the dead document wholesale
        continue;
      }
      const PathId g =
          n == tree.root()
              ? intern_path(XmlTree::kInvalidPath, tree.label(n))
              : intern_path(node_gpath[tree.parent(n)], tree.label(n));
      node_gpath[n] = g;
      out->path_to_global_[li][tree.path_id(n)] = g;
      // Later layers' roots fold into the one joined root; counting them
      // again would inflate the N of Eq. (8) for the root path.
      if (n != tree.root() || li == 0) out->path_node_counts_[g] += 1;
    }
  }

  // --- Live background model: layer totals minus tombstone losses, folded
  // into the exact smoothing-mass expression of the single-index cache,
  // mu * (cf / total).
  std::vector<uint64_t> cf_live(vocab_size, 0);
  uint64_t total_live = 0;
  for (size_t li = 0; li < num_layers; ++li) {
    const Layer& layer = set.layers[li];
    const XmlIndex& idx = *layer.index;
    const size_t vocab = idx.vocabulary().size();
    for (TokenId t = 0; t < vocab; ++t) {
      cf_live[out->ToGlobalToken(li, t)] += idx.collection_freq(t);
    }
    total_live += idx.total_tokens();
    for (const Tombstone& tomb : layer.tombstones) {
      total_live -= tomb.stats.total_tokens;
      for (const auto& [t, c] : tomb.stats.cf) {
        cf_live[out->ToGlobalToken(li, t)] -= c;
      }
    }
  }
  std::vector<double> smoothing_mass(vocab_size);
  for (size_t g = 0; g < vocab_size; ++g) {
    smoothing_mass[g] = options.mu * (static_cast<double>(cf_live[g]) /
                                      static_cast<double>(total_live));
  }
  out->lm_.reserve(num_layers);
  for (size_t li = 0; li < num_layers; ++li) {
    out->lm_.push_back(std::make_unique<LmStatsCache>(
        *set.layers[li].index, options.mu, smoothing_mass));
  }

  // --- Merged type lists: per-layer containment counts minus tombstone
  // losses (exact for depth >= 2 paths: a dead doc is a whole depth-2
  // subtree, so a live node's containment set is untouched), mapped to
  // global paths and summed across layers.
  std::vector<std::pair<uint64_t, uint64_t>> triples;  // ((g<<32)|path, f)
  for (size_t li = 0; li < num_layers; ++li) {
    const Layer& layer = set.layers[li];
    const XmlIndex& idx = *layer.index;
    std::unordered_map<uint64_t, uint32_t> dead;  // (token << 32) | path
    for (const Tombstone& tomb : layer.tombstones) {
      for (const DeadDocStats::TypeFreq& tf : tomb.stats.type_freqs) {
        dead[(static_cast<uint64_t>(tf.token) << 32) | tf.path] += tf.freq;
      }
    }
    const size_t vocab = idx.vocabulary().size();
    for (TokenId t = 0; t < vocab; ++t) {
      const TokenId g = out->ToGlobalToken(li, t);
      for (const PathFreq& pf : idx.type_index().list(t)) {
        uint32_t f = pf.freq;
        if (!dead.empty()) {
          auto it = dead.find((static_cast<uint64_t>(t) << 32) | pf.path);
          if (it != dead.end()) f -= it->second;
        }
        if (f == 0) continue;
        const PathId gp = out->path_to_global_[li][pf.path];
        XCLEAN_CHECK(gp != XmlTree::kInvalidPath);
        triples.emplace_back((static_cast<uint64_t>(g) << 32) | gp, f);
      }
    }
  }
  std::sort(triples.begin(), triples.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  out->type_offsets_.assign(vocab_size + 1, 0);
  out->type_entries_.reserve(triples.size());
  for (size_t i = 0; i < triples.size();) {
    const uint64_t key = triples[i].first;
    uint64_t freq = 0;
    for (; i < triples.size() && triples[i].first == key; ++i) {
      freq += triples[i].second;
    }
    out->type_entries_.push_back(PathFreq{static_cast<PathId>(key),
                                          static_cast<uint32_t>(freq)});
    out->type_offsets_[static_cast<TokenId>(key >> 32) + 1] += 1;
  }
  for (size_t g = 0; g < vocab_size; ++g) {
    out->type_offsets_[g + 1] += out->type_offsets_[g];
  }

  CollectionView& c = out->collection_;
  c.type_lists.offsets = out->type_offsets_;
  c.type_lists.entries = out->type_entries_;
  c.path_depths = out->path_depths_;
  c.path_node_counts = out->path_node_counts_;
  c.vocabulary = &base_vocab;
  c.extra_tokens = out->extra_tokens_;
  return out;
}

LayerView MergedStats::View(const LayerSet& set, size_t li) const {
  LayerView view;
  view.index = set.layers[li].index.get();
  for (const Tombstone& tomb : set.layers[li].tombstones) {
    view.dead.push_back(DeadRange{tomb.begin, tomb.end});
  }
  view.token_map = local_to_global_[li];
  view.path_map = path_to_global_[li];
  view.lm = lm_[li].get();
  return view;
}

std::shared_ptr<const XClean> XCleanOverLayers(
    std::shared_ptr<const LayerSet> layers,
    std::shared_ptr<const MergedStats> stats, const XCleanOptions& options) {
  std::vector<LayerView> views;
  views.reserve(layers->layers.size());
  for (size_t li = 0; li < layers->layers.size(); ++li) {
    views.push_back(stats->View(*layers, li));
  }
  const CollectionView collection = stats->collection();
  auto owner = std::make_shared<std::pair<std::shared_ptr<const LayerSet>,
                                          std::shared_ptr<const MergedStats>>>(
      std::move(layers), std::move(stats));
  return std::make_shared<const XClean>(std::move(views), collection, options,
                                        std::move(owner));
}

}  // namespace xclean::delta
