#include "delta/layered_xclean.h"

#include <algorithm>

#include "common/check.h"
#include "common/fault_injection.h"
#include "core/elca.h"
#include "core/slca.h"
#include "index/merged_list.h"

namespace xclean::delta {

namespace {

/// Sum of tf of `occ` entries whose node lies in [lo, hi]; occ is sorted by
/// node. (Same helper as core/xclean.cc — the arithmetic must match.)
template <typename OccVec>
uint64_t SumTfInRange(const OccVec& occ, NodeId lo, NodeId hi) {
  auto it = std::lower_bound(
      occ.begin(), occ.end(), lo,
      [](const auto& o, NodeId target) { return o.node < target; });
  uint64_t sum = 0;
  for (; it != occ.end() && it->node <= hi; ++it) sum += it->tf;
  return sum;
}

}  // namespace

LayeredXClean::LayeredXClean(std::shared_ptr<const LayerSet> layers,
                             std::shared_ptr<const MergedStats> stats,
                             XCleanOptions options)
    : layers_(std::move(layers)),
      stats_(std::move(stats)),
      options_(options),
      error_model_(options.beta),
      epoch_(QueryScratch::NextEpoch()) {
  XCLEAN_CHECK(!layers_->layers.empty());
  // Layer locality of subtrees/entities requires every depth-d subtree to
  // sit inside one document (a depth-2 child of the root).
  XCLEAN_CHECK(options_.min_depth >= 2);
  // A cross-layer entity prior would need node-id translation; unsupported.
  XCLEAN_CHECK(!options_.entity_prior);
  variant_gen_.reserve(layers_->layers.size());
  for (const Layer& layer : layers_->layers) {
    variant_gen_.push_back(std::make_unique<VariantGenerator>(
        *layer.index,
        VariantGenOptions{options_.max_ed, options_.include_soundex}));
  }
  edit_weight_.reserve(options_.max_ed + 1);
  for (uint32_t d = 0; d <= options_.max_ed; ++d) {
    edit_weight_.push_back(error_model_.Weight(d));
  }
}

void LayeredXClean::BindScratch(QueryScratch& scratch) const {
  if (scratch.bound_epoch_ == epoch_) return;
  scratch.variant_cache_.clear();
  scratch.type_cache_.Clear();
  scratch.bound_epoch_ = epoch_;
}

const std::vector<Variant>& LayeredXClean::LookupVariants(
    QueryScratch& scratch, size_t li, const std::string& keyword) const {
  std::string key;
  key.reserve(keyword.size() + 8);
  key.push_back('L');
  key += std::to_string(li);
  key.push_back('|');
  key += keyword;
  auto it = scratch.variant_cache_.find(key);
  if (it != scratch.variant_cache_.end()) return it->second;
  if (scratch.variant_cache_.size() >= QueryScratch::kMaxVariantCacheEntries) {
    scratch.variant_cache_.clear();
  }
  variant_gen_[li]->Generate(keyword, scratch.probe_, scratch.generated_);
  return scratch.variant_cache_.emplace(std::move(key), scratch.generated_)
      .first->second;
}

void LayeredXClean::ScoreNodeTypeEntities(
    size_t li, QueryScratch& scratch, size_t num_slots,
    const ResultTypeScorer::Choice& choice, double error_weight,
    XCleanRunStats& stats, CancelToken* cancel) const {
  const XmlTree& tree = layers_->layers[li].index->tree();
  const uint32_t entity_depth = stats_->path_depth(choice.path);

  // Per-(slot, rank, depth) entity aggregation, memoized for the current
  // subtree exactly as in core/xclean.cc — with the one difference that the
  // EntityAgg carries the *global* PathId, so the comparison against the
  // merged result type below is id-for-id the rebuild's comparison.
  auto& lists = scratch.agg_lists_;
  auto& pos = scratch.agg_pos_;
  lists.clear();
  pos.assign(num_slots, 0);
  for (size_t i = 0; i < num_slots; ++i) {
    QueryScratch::Slot& slot = scratch.slots_[i];
    const uint32_t rank = slot.active_ranks[scratch.odometer_[i]];
    std::vector<QueryScratch::EntityAgg>& agg = slot.agg_by_rank[rank];
    if (slot.agg_depth[rank] != entity_depth) {
      agg.clear();
      NodeId entity_end = 0;
      bool have_entity = false;
      for (const QueryScratch::OccInfo& o : slot.occ_by_rank[rank]) {
        if (tree.depth(o.node) < entity_depth) continue;
        if (have_entity && o.node <= entity_end) {
          agg.back().tf += o.tf;
          continue;
        }
        const NodeId entity = tree.AncestorAtDepth(o.node, entity_depth);
        entity_end = tree.subtree_end(entity);
        have_entity = true;
        agg.push_back(QueryScratch::EntityAgg{
            entity, stats_->ToGlobalPath(li, tree.path_id(entity)), o.tf});
      }
      slot.agg_depth[rank] = entity_depth;
    }
    if (agg.empty()) return;  // no entity can contain every keyword
    lists.push_back(&agg);
  }

  CandidateState* state = nullptr;
  NodeId target = (*lists[0])[0].entity;
  for (;;) {
    if (cancel != nullptr && cancel->ChargePostings(1)) return;
    bool all_equal = false;
    while (!all_equal) {
      all_equal = true;
      for (size_t i = 0; i < num_slots; ++i) {
        const std::vector<QueryScratch::EntityAgg>& list = *lists[i];
        size_t& p = pos[i];
        p = QueryScratch::AdvanceAgg(list, p, target);
        if (p == list.size()) return;
        if (list[p].entity > target) {
          target = list[p].entity;
          all_equal = false;
        }
      }
    }
    if ((*lists[0])[pos[0]].path == choice.path) {
      double prod = 1.0;
      for (size_t i = 0; i < num_slots; ++i) {
        prod *= ProbInEntity(li, scratch.candidate_[i], (*lists[i])[pos[i]].tf,
                             target);
      }
      if (state == nullptr) {
        state = scratch.accumulators_.GetOrCreate(scratch.candidate_.data(),
                                                  num_slots, error_weight);
      }
      state->sum += prod;
      state->entity_count += 1;
      ++stats.entities_scored;
    }
    for (size_t i = 0; i < num_slots; ++i) ++pos[i];
    if (pos[0] == lists[0]->size()) return;
    target = (*lists[0])[pos[0]].entity;
  }
}

void LayeredXClean::ScoreLcaEntities(size_t li, QueryScratch& scratch,
                                     size_t num_slots, double error_weight,
                                     XCleanRunStats& stats,
                                     CancelToken* cancel) const {
  const XmlTree& tree = layers_->layers[li].index->tree();
  const uint32_t d = options_.min_depth;

  auto& witness = scratch.witness_lists_;
  witness.resize(num_slots);
  for (size_t i = 0; i < num_slots; ++i) {
    const QueryScratch::Slot& slot = scratch.slots_[i];
    const uint32_t rank = slot.active_ranks[scratch.odometer_[i]];
    witness[i].clear();
    for (const QueryScratch::OccInfo& o : slot.occ_by_rank[rank]) {
      witness[i].push_back(o.node);
    }
  }
  // SLCA/ELCA over the layer tree equal the rebuild's over the joined tree:
  // witnesses sit inside one live document, whose subtree the join replays
  // verbatim at the same depths.
  std::vector<NodeId> slcas = options_.semantics == Semantics::kSlca
                                  ? ComputeSlcas(tree, witness)
                                  : ComputeElcas(tree, witness);
  std::erase_if(slcas, [&](NodeId e) { return tree.depth(e) < d; });
  if (slcas.empty()) return;

  uint32_t* total =
      scratch.slca_totals_.GetOrCreate(scratch.candidate_.data(), num_slots);
  *total += static_cast<uint32_t>(slcas.size());

  CandidateState* state = nullptr;
  for (NodeId entity : slcas) {
    if (cancel != nullptr && cancel->ChargePostings(1)) return;
    double prod = 1.0;
    for (size_t i = 0; i < num_slots; ++i) {
      const QueryScratch::Slot& slot = scratch.slots_[i];
      const uint32_t rank = slot.active_ranks[scratch.odometer_[i]];
      uint64_t count = SumTfInRange(slot.occ_by_rank[rank], entity,
                                    tree.subtree_end(entity));
      prod *= ProbInEntity(li, scratch.candidate_[i], count, entity);
    }
    if (state == nullptr) {
      state = scratch.accumulators_.GetOrCreate(scratch.candidate_.data(),
                                                num_slots, error_weight);
    }
    state->sum += prod;
    state->entity_count += 1;
    ++stats.entities_scored;
  }
}

void LayeredXClean::ProcessLayer(size_t li, size_t num_slots,
                                 QueryScratch& scratch, const Query& query,
                                 uint32_t eff_max_ed,
                                 XCleanRunStats& run_stats,
                                 CancelToken* cancel) const {
  const Layer& layer = layers_->layers[li];
  const XmlIndex& index = *layer.index;

  // Per-layer slot setup: variants from this layer's vocabulary, merged
  // lists over this layer's postings. An empty variant list only mutes this
  // layer — other layers may still hold matches.
  for (size_t i = 0; i < num_slots; ++i) {
    QueryScratch::Slot& slot = scratch.slots_[i];
    for (uint32_t r : slot.active_ranks) {
      slot.occ_by_rank[r].clear();
      slot.agg_depth[r] = QueryScratch::kNoAggDepth;
    }
    slot.active_ranks.clear();
    const std::vector<Variant>& vars =
        LookupVariants(scratch, li, query.keywords[i]);
    if (vars.empty()) return;
    slot.variants = vars;
    if (eff_max_ed < options_.max_ed) {
      std::erase_if(slot.variants, [eff_max_ed](const Variant& v) {
        return v.distance > eff_max_ed;
      });
      if (slot.variants.empty()) return;
    }
    std::sort(slot.variants.begin(), slot.variants.end(),
              [](const Variant& a, const Variant& b) {
                return a.token < b.token;
              });
    slot.merged.Reset();
    for (const Variant& v : slot.variants) {
      slot.merged.AddMember(v.token, PostingCursor(index.postings(v.token)));
    }
    slot.merged.Finish();
    if (slot.occ_by_rank.size() < slot.variants.size()) {
      slot.occ_by_rank.resize(slot.variants.size());
      slot.agg_by_rank.resize(slot.variants.size());
      slot.agg_depth.resize(slot.variants.size(), QueryScratch::kNoAggDepth);
    }
  }

  const XmlTree& tree = index.tree();
  const uint32_t d = options_.min_depth;

  // Main anchor loop (Algorithm 1 lines 4-16) over this layer.
  for (;;) {
    XCLEAN_FAULT_HIT("delta.anchor");
    if (cancel != nullptr && cancel->cancelled()) return;
    const MergedList::Head* anchor = nullptr;
    size_t anchor_slot = 0;
    bool exhausted = false;
    for (size_t i = 0; i < num_slots; ++i) {
      const MergedList::Head* h = scratch.slots_[i].merged.cur_pos();
      if (h == nullptr) {
        exhausted = true;
        break;
      }
      if (anchor == nullptr || h->node > anchor->node) {
        anchor = h;
        anchor_slot = i;
      }
    }
    if (exhausted || anchor == nullptr) return;

    if (tree.depth(anchor->node) < d) {
      scratch.slots_[anchor_slot].merged.Next();
      continue;
    }

    NodeId g = tree.AncestorAtDepth(anchor->node, d);
    NodeId g_end = tree.subtree_end(g);

    // Tombstone check at subtree granularity: documents die whole, and
    // every depth-d subtree lies inside one document, so g is either fully
    // live or fully dead. A dead g is skipped wholesale — none of its
    // occurrences surface, matching a rebuild that never indexed the doc.
    if (layer.IsDead(g)) {
      for (size_t i = 0; i < num_slots; ++i) {
        scratch.slots_[i].merged.SkipTo(g_end + 1, cancel);
      }
      if (cancel != nullptr && cancel->cancelled()) return;
      continue;
    }
    ++run_stats.subtrees_processed;

    bool all_slots_present = true;
    for (size_t i = 0; i < num_slots; ++i) {
      QueryScratch::Slot& slot = scratch.slots_[i];
      for (uint32_t r : slot.active_ranks) {
        slot.occ_by_rank[r].clear();
        slot.agg_depth[r] = QueryScratch::kNoAggDepth;
      }
      slot.active_ranks.clear();
      slot.merged.SkipTo(g, cancel);
      slot.merged.DrainUpTo(
          g_end,
          [&](uint32_t member, NodeId node, uint32_t tf) {
            std::vector<QueryScratch::OccInfo>& bucket =
                slot.occ_by_rank[member];
            if (bucket.empty()) slot.active_ranks.push_back(member);
            bucket.push_back(QueryScratch::OccInfo{node, tf});
            ++run_stats.occurrences_collected;
          },
          cancel);
      if (slot.active_ranks.empty()) all_slots_present = false;
      std::sort(slot.active_ranks.begin(), slot.active_ranks.end());
    }
    if (cancel != nullptr && cancel->cancelled()) return;
    if (!all_slots_present) continue;

    // Candidate enumeration: the odometer walks ranks in this layer's
    // token order, which may differ from the rebuild's global token order —
    // harmless, since each candidate's contribution is folded into its own
    // accumulator cell and the final ranking is a total order.
    auto& odo = scratch.odometer_;
    odo.assign(num_slots, 0);
    for (;;) {
      if (cancel != nullptr && cancel->ChargeCandidate()) break;
      double error_weight = 1.0;
      for (size_t i = 0; i < num_slots; ++i) {
        const QueryScratch::Slot& slot = scratch.slots_[i];
        const Variant& v = slot.variants[slot.active_ranks[odo[i]]];
        scratch.candidate_[i] = stats_->ToGlobalToken(li, v.token);
        error_weight *= EditWeight(v.distance);
      }
      ++run_stats.candidates_enumerated;

      if (options_.semantics == Semantics::kNodeType) {
        // The type cache keys on global tokens, so a candidate surfacing in
        // several layers (or several queries) pays the merged-list
        // intersection once.
        bool created = false;
        ResultTypeScorer::Choice* choice = scratch.type_cache_.GetOrCreate(
            scratch.candidate_.data(), num_slots, &created);
        if (created) {
          ++run_stats.result_type_computations;
          *choice = stats_->FindResultType(scratch.candidate_, d);
        }
        if (choice->path != XmlTree::kInvalidPath) {
          ScoreNodeTypeEntities(li, scratch, num_slots, *choice, error_weight,
                                run_stats, cancel);
        }
      } else {
        ScoreLcaEntities(li, scratch, num_slots, error_weight, run_stats,
                         cancel);
      }

      size_t slot = num_slots;
      while (slot > 0) {
        --slot;
        if (++odo[slot] < scratch.slots_[slot].active_ranks.size()) break;
        odo[slot] = 0;
        if (slot == 0) {
          slot = SIZE_MAX;
          break;
        }
      }
      if (slot == SIZE_MAX) break;
    }
  }
}

void LayeredXClean::SuggestWithScratch(const Query& query,
                                       QueryScratch& scratch,
                                       std::vector<Suggestion>* out,
                                       XCleanRunStats* stats,
                                       CancelToken* cancel,
                                       const QueryTuning* tuning) const {
  XCleanRunStats local_stats;
  XCleanRunStats& run_stats = stats != nullptr ? *stats : local_stats;
  run_stats = XCleanRunStats{};
  BindScratch(scratch);

  uint32_t eff_max_ed = options_.max_ed;
  size_t eff_gamma = options_.gamma;
  size_t eff_top_k = options_.top_k;
  if (tuning != nullptr) {
    eff_max_ed = std::min(eff_max_ed, tuning->max_ed);
    if (tuning->gamma != SIZE_MAX) {
      eff_gamma =
          eff_gamma == 0 ? tuning->gamma : std::min(eff_gamma, tuning->gamma);
    }
    eff_top_k = std::min(eff_top_k, tuning->top_k);
  }

  const size_t l = query.size();
  if (l == 0) {
    out->clear();
    return;
  }

  // Cross-layer accumulators reset once per query — layer passes compose
  // into them without intermediate resets, in (layer, preorder) subtree
  // order, i.e. the rebuild's accumulation order.
  scratch.accumulators_.Reset(eff_gamma);
  scratch.slca_totals_.Clear();
  if (scratch.type_cache_.size() > QueryScratch::kMaxTypeCacheEntries) {
    scratch.type_cache_.Clear();
  }
  if (scratch.slots_.size() < l) scratch.slots_.resize(l);
  scratch.candidate_.assign(l, 0);

  for (size_t li = 0; li < layers_->layers.size(); ++li) {
    if (cancel != nullptr && cancel->cancelled()) break;
    ProcessLayer(li, l, scratch, query, eff_max_ed, run_stats, cancel);
  }

  run_stats.accumulator_evictions = scratch.accumulators_.eviction_count();
  run_stats.accumulators_final = scratch.accumulators_.size();
  if (cancel != nullptr && cancel->cancelled()) {
    run_stats.truncated = true;
    run_stats.cancel_cause = cancel->cause();
  }

  // Final scoring (Eq. 10) — identical to core/xclean.cc, with token
  // strings and path-node counts drawn from the merged statistics.
  auto& finals = scratch.finals_;
  finals.clear();
  scratch.accumulators_.ForEach([&](const TokenId* key, size_t key_len,
                                    const CandidateState& state) {
    QueryScratch::FinalEntry e;
    e.key = key;
    e.key_len = static_cast<uint32_t>(key_len);
    e.error_weight = state.error_weight;
    e.entity_count = state.entity_count;
    e.result_type = XmlTree::kInvalidPath;
    double n_entities = 1.0;
    if (options_.semantics == Semantics::kNodeType) {
      const ResultTypeScorer::Choice* choice =
          scratch.type_cache_.Find(key, key_len);
      XCLEAN_CHECK(choice != nullptr);
      e.result_type = choice->path;
      n_entities = stats_->path_node_count(choice->path);
    } else {
      const uint32_t* total = scratch.slca_totals_.Find(key, key_len);
      XCLEAN_CHECK(total != nullptr);
      n_entities = *total;
    }
    e.score = state.error_weight * state.sum / n_entities;
    finals.push_back(e);
  });

  std::sort(finals.begin(), finals.end(),
            [&](const QueryScratch::FinalEntry& a,
                const QueryScratch::FinalEntry& b) {
              if (a.score != b.score) return a.score > b.score;
              size_t n = std::min(a.key_len, b.key_len);
              for (size_t i = 0; i < n; ++i) {
                if (a.key[i] == b.key[i]) continue;
                return stats_->token(a.key[i]) < stats_->token(b.key[i]);
              }
              return a.key_len < b.key_len;
            });

  const size_t k = std::min(finals.size(), eff_top_k);
  for (size_t r = 0; r < k; ++r) {
    const QueryScratch::FinalEntry& e = finals[r];
    if (out->size() <= r) out->emplace_back();
    Suggestion& s = (*out)[r];
    if (s.words.size() != e.key_len) s.words.resize(e.key_len);
    for (size_t i = 0; i < e.key_len; ++i) {
      s.words[i] = stats_->token(e.key[i]);
    }
    s.score = e.score;
    s.error_weight = e.error_weight;
    s.entity_count = e.entity_count;
    s.result_type = e.result_type;
  }
  out->resize(k);
}

void LayeredXClean::CollectLayerPartials(const Query& query, size_t layer,
                                         QueryScratch& scratch,
                                         std::vector<PartialCandidate>* out,
                                         XCleanRunStats* stats,
                                         CancelToken* cancel,
                                         const QueryTuning* tuning) const {
  XCLEAN_CHECK(layer < layers_->layers.size());
  XCleanRunStats local_stats;
  XCleanRunStats& run_stats = stats != nullptr ? *stats : local_stats;
  run_stats = XCleanRunStats{};
  BindScratch(scratch);

  uint32_t eff_max_ed = options_.max_ed;
  size_t eff_gamma = options_.gamma;
  if (tuning != nullptr) {
    eff_max_ed = std::min(eff_max_ed, tuning->max_ed);
    if (tuning->gamma != SIZE_MAX) {
      eff_gamma =
          eff_gamma == 0 ? tuning->gamma : std::min(eff_gamma, tuning->gamma);
    }
  }

  out->clear();
  const size_t l = query.size();
  if (l == 0) return;

  scratch.accumulators_.Reset(eff_gamma);
  scratch.slca_totals_.Clear();
  if (scratch.type_cache_.size() > QueryScratch::kMaxTypeCacheEntries) {
    scratch.type_cache_.Clear();
  }
  if (scratch.slots_.size() < l) scratch.slots_.resize(l);
  scratch.candidate_.assign(l, 0);

  ProcessLayer(layer, l, scratch, query, eff_max_ed, run_stats, cancel);

  run_stats.accumulator_evictions = scratch.accumulators_.eviction_count();
  run_stats.accumulators_final = scratch.accumulators_.size();
  if (cancel != nullptr && cancel->cancelled()) {
    run_stats.truncated = true;
    run_stats.cancel_cause = cancel->cause();
  }

  out->reserve(scratch.accumulators_.size());
  scratch.accumulators_.ForEach([&](const TokenId* key, size_t key_len,
                                    const CandidateState& state) {
    PartialCandidate p;
    p.tokens.assign(key, key + key_len);
    p.error_weight = state.error_weight;
    p.sum = state.sum;
    p.entity_count = state.entity_count;
    if (options_.semantics == Semantics::kNodeType) {
      const ResultTypeScorer::Choice* choice =
          scratch.type_cache_.Find(key, key_len);
      XCLEAN_CHECK(choice != nullptr);
      p.result_type = choice->path;
    } else {
      const uint32_t* total = scratch.slca_totals_.Find(key, key_len);
      XCLEAN_CHECK(total != nullptr);
      p.lca_total = *total;
    }
    out->push_back(std::move(p));
  });

  // Canonical export order: global token ids ascending, so identical shard
  // content yields an identical partial list regardless of the accumulator
  // table's internal layout, and the coordinator's shard-major merge order
  // is fully determined by (shard id, candidate key).
  std::sort(out->begin(), out->end(),
            [](const PartialCandidate& a, const PartialCandidate& b) {
              return a.tokens < b.tokens;
            });
}

}  // namespace xclean::delta
