#include "core/xclean.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/fault_injection.h"
#include "core/elca.h"
#include "core/slca.h"
#include "index/merged_list.h"

namespace xclean {

namespace {

/// Sum of tf of `occ` entries whose node lies in [lo, hi]; occ is sorted by
/// node.
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

Status ValidateLayeredOptions(const XCleanOptions& options) {
  if (options.min_depth < 2) {
    return Status::InvalidArgument(
        "layered evaluation requires min_depth >= 2 (document locality)");
  }
  if (options.entity_prior) {
    return Status::InvalidArgument(
        "layered evaluation does not support an entity_prior");
  }
  return Status::Ok();
}

bool LayerView::IsDead(NodeId n) const {
  if (dead.empty()) return false;
  auto it = std::partition_point(dead.begin(), dead.end(),
                                 [n](const DeadRange& r) { return r.end < n; });
  return it != dead.end() && it->begin <= n;
}

CollectionView CollectionView::Of(const XmlIndex& index) {
  CollectionView c;
  c.type_lists.index = &index.type_index();
  c.path_depths = index.tree().path_depths();
  c.path_node_counts = index.tree().path_node_counts();
  c.vocabulary = &index.vocabulary();
  return c;
}

XClean::XClean(XCleanOptions options, CollectionView collection,
               std::shared_ptr<const void> owner)
    : options_(std::move(options)),
      collection_(collection),
      owner_(std::move(owner)),
      error_model_(options_.beta),
      type_scorer_(collection.type_lists, collection.path_depths,
                   options_.reduction),
      epoch_(QueryScratch::NextEpoch()) {
  edit_weight_.reserve(options_.max_ed + 1);
  for (uint32_t d = 0; d <= options_.max_ed; ++d) {
    edit_weight_.push_back(error_model_.Weight(d));
  }
}

XClean::XClean(const XmlIndex& index, XCleanOptions options)
    : XClean(std::move(options), CollectionView::Of(index), nullptr) {
  own_lm_ = std::make_unique<LmStatsCache>(index, options_.mu);
  AddLayer(LayerView{&index, {}, {}, {}, own_lm_.get()});
}

XClean::XClean(std::vector<LayerView> layers, CollectionView collection,
               XCleanOptions options, std::shared_ptr<const void> owner)
    : XClean(std::move(options), collection, std::move(owner)) {
  XCLEAN_CHECK(!layers.empty());
  XCLEAN_CHECK(ValidateLayeredOptions(options_).ok());
  layers_.reserve(layers.size());
  variant_gen_.reserve(layers.size());
  for (LayerView& layer : layers) AddLayer(std::move(layer));
}

void XClean::AddLayer(LayerView layer) {
  variant_gen_.emplace_back(
      *layer.index,
      VariantGenOptions{options_.max_ed, options_.include_soundex});
  layers_.push_back(std::move(layer));
}

std::string XClean::name() const {
  switch (options_.semantics) {
    case Semantics::kNodeType:
      return "XClean";
    case Semantics::kSlca:
      return "XClean-SLCA";
    default:
      return "XClean-ELCA";
  }
}

std::vector<Suggestion> XClean::Suggest(const Query& query) {
  if (own_scratch_ == nullptr) own_scratch_ = std::make_unique<QueryScratch>();
  std::vector<Suggestion> out;
  SuggestWithScratch(query, *own_scratch_, &out, &stats_);
  return out;
}

std::vector<Suggestion> XClean::SuggestWithStats(const Query& query,
                                                 XCleanRunStats* stats) const {
  QueryScratch scratch;
  std::vector<Suggestion> out;
  SuggestWithScratch(query, scratch, &out, stats);
  return out;
}

std::vector<std::vector<Suggestion>> XClean::SuggestBatch(
    const std::vector<Query>& queries, QueryScratch* scratch,
    std::vector<XCleanRunStats>* stats, CancelToken* cancel,
    const QueryTuning* tuning) const {
  QueryScratch local;
  QueryScratch& shared = scratch != nullptr ? *scratch : local;
  if (stats != nullptr) stats->assign(queries.size(), XCleanRunStats{});
  std::vector<std::vector<Suggestion>> out(queries.size());
  std::vector<Suggestion> buf;
  for (size_t i = 0; i < queries.size(); ++i) {
    XCleanRunStats* query_stats = stats != nullptr ? &(*stats)[i] : nullptr;
    if (cancel != nullptr && cancel->cancelled()) {
      // The batch budget tripped on an earlier query: the rest are
      // explicitly truncated-empty rather than silently skipped.
      if (query_stats != nullptr) {
        query_stats->truncated = true;
        query_stats->cancel_cause = cancel->cause();
      }
      out[i].clear();
      continue;
    }
    SuggestWithScratch(queries[i], shared, &buf, query_stats, cancel, tuning);
    out[i] = buf;
  }
  return out;
}

void XClean::BindScratch(QueryScratch& scratch) const {
  if (scratch.bound_epoch_ == epoch_) return;
  // The scratch last served a different instance (other options, or an
  // index hot-swap rebuilt the algorithm): its memo tables describe the
  // wrong world. Drop them; the arenas are world-free and stay.
  for (auto& memo : scratch.variant_cache_) memo.clear();
  scratch.variant_cache_.resize(layers_.size());
  scratch.type_cache_.Clear();
  scratch.bound_epoch_ = epoch_;
}

const std::vector<Variant>& XClean::LookupVariants(
    QueryScratch& scratch, size_t li, const std::string& keyword) const {
  auto& memo = scratch.variant_cache_[li];
  auto it = memo.find(keyword);
  if (it != memo.end()) return it->second;
  if (memo.size() >= QueryScratch::kMaxVariantCacheEntries) memo.clear();
  variant_gen_[li].Generate(keyword, scratch.probe_, scratch.generated_);
  return memo.emplace(keyword, scratch.generated_).first->second;
}

void XClean::ScoreNodeTypeEntities(const LayerView& layer,
                                   QueryScratch& scratch, size_t num_slots,
                                   const ResultTypeScorer::Choice& choice,
                                   double error_weight, XCleanRunStats& stats,
                                   CancelToken* cancel) const {
  const XmlTree& tree = layer.index->tree();
  const uint32_t entity_depth = collection_.path_depths[choice.path];

  // Attribute each slot's occurrences (for its current variant rank) to
  // entities at the result type's depth, memoized per (slot, rank, depth)
  // for the current subtree: candidates in the Cartesian product share
  // these lists, so the ancestor walk happens once per bucket, not once
  // per candidate. Buckets are node-ascending and AncestorAtDepth is
  // monotone, so each list comes out sorted by entity with adjacent
  // duplicates — a single linear pass aggregates it. Each EntityAgg
  // carries the entity's global PathId, the id space of the chosen type.
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
      // A node inside the last entity's subtree has that entity as its
      // depth-K ancestor; the range test replaces the parent walk for the
      // common consecutive-duplicate case.
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
            entity, layer.GlobalPath(tree.path_id(entity)), o.tf});
      }
      slot.agg_depth[rank] = entity_depth;
    }
    if (agg.empty()) return;  // no entity can contain every keyword
    lists.push_back(&agg);
  }

  // Sorted l-way intersection of the per-slot entity lists: an entity
  // scores only if it contains at least one instance of every keyword
  // (Algorithm 1 line 14) — this is what guarantees suggested queries have
  // non-empty results — and its label path is the chosen result type.
  // Ascending entity order and slot-order products keep the accumulator's
  // floating-point summation identical to the reference evaluation.
  CandidateState* state = nullptr;
  NodeId target = (*lists[0])[0].entity;
  for (;;) {
    // One charge per intersection round bounds the candidate x occurrence
    // re-walk this loop performs across the Cartesian product; stopping
    // between rounds leaves the accumulator with a partial (underestimated)
    // sum, which is exactly the best-effort contract.
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
        prod *= layer.lm->ProbInEntity(scratch.candidate_[i],
                                       (*lists[i])[pos[i]].tf, target);
      }
      if (options_.entity_prior) prod *= options_.entity_prior(target);
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

void XClean::ScoreLcaEntities(const LayerView& layer, QueryScratch& scratch,
                              size_t num_slots, double error_weight,
                              XCleanRunStats& stats,
                              CancelToken* cancel) const {
  const XmlTree& tree = layer.index->tree();
  const uint32_t d = options_.min_depth;

  // The candidate's entities inside this subtree are the SLCAs (or ELCAs)
  // of its per-slot witness sets. Witnesses sit inside one document, so a
  // layer's SLCAs/ELCAs are those of the joined collection.
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
  std::vector<NodeId> slcas = options_.semantics == Semantics::kSlca
                                  ? ComputeSlcas(tree, witness)
                                  : ComputeElcas(tree, witness);
  // ELCA computation can surface ancestors of g (they contain the
  // subtree's witnesses); the minimal-depth threshold excludes them,
  // exactly as it excludes shallow result types. SLCAs are within the
  // subtree already, so this is a no-op for them.
  std::erase_if(slcas, [&](NodeId e) { return tree.depth(e) < d; });
  if (slcas.empty()) return;

  // Per-candidate total entity count N_C (kept outside the bounded
  // accumulator table: N_C is part of the normalizer, not a score).
  uint32_t* total = scratch.slca_totals_.GetOrCreate(
      scratch.candidate_.data(), num_slots);
  *total += static_cast<uint32_t>(slcas.size());

  CandidateState* state = nullptr;
  for (NodeId entity : slcas) {
    // Each entity rescans the slot occurrence lists (SumTfInRange below);
    // charge it like a posting so LCA scoring honours the budget too.
    if (cancel != nullptr && cancel->ChargePostings(1)) return;
    double prod = 1.0;
    for (size_t i = 0; i < num_slots; ++i) {
      const QueryScratch::Slot& slot = scratch.slots_[i];
      const uint32_t rank = slot.active_ranks[scratch.odometer_[i]];
      uint64_t count = SumTfInRange(slot.occ_by_rank[rank], entity,
                                    tree.subtree_end(entity));
      prod *= layer.lm->ProbInEntity(scratch.candidate_[i], count, entity);
    }
    if (options_.entity_prior) prod *= options_.entity_prior(entity);
    if (state == nullptr) {
      state = scratch.accumulators_.GetOrCreate(scratch.candidate_.data(),
                                                num_slots, error_weight);
    }
    state->sum += prod;
    state->entity_count += 1;
    ++stats.entities_scored;
  }
}

void XClean::RunLayer(size_t li, const Query& query, uint32_t max_ed,
                      QueryScratch& scratch, XCleanRunStats& run_stats,
                      CancelToken* cancel) const {
  const LayerView& layer = layers_[li];
  const size_t l = query.size();

  // Step 1 + 2: variant generation (Sec. V-A, memoized across queries) and
  // one MergedList per keyword over its variants' inverted lists in this
  // layer. Variants are ordered by token so a member's index is both the
  // variant's rank and its occurrence bucket — and candidate enumeration
  // over ranks is the deterministic token-order walk the reference
  // evaluation does.
  for (size_t i = 0; i < l; ++i) {
    QueryScratch::Slot& slot = scratch.slots_[i];
    // Occurrence buckets left over from this slot's previous pass.
    for (uint32_t r : slot.active_ranks) {
      slot.occ_by_rank[r].clear();
      slot.agg_depth[r] = QueryScratch::kNoAggDepth;
    }
    slot.active_ranks.clear();
    const std::vector<Variant>& vars =
        LookupVariants(scratch, li, query.keywords[i]);
    // An empty variant list for any keyword empties this layer's Cartesian
    // candidate space; other layers may still hold matches.
    if (vars.empty()) return;
    slot.variants = vars;
    if (max_ed < options_.max_ed) {
      // Degraded tier: drop far variants for this query only. The memoized
      // `vars` stays full-width for the next full-tier query, and erase_if
      // keeps the slot vector's capacity, so this stays allocation-free.
      std::erase_if(slot.variants, [max_ed](const Variant& v) {
        return v.distance > max_ed;
      });
      if (slot.variants.empty()) return;
    }
    std::sort(slot.variants.begin(), slot.variants.end(),
              [](const Variant& a, const Variant& b) {
                return a.token < b.token;
              });
    slot.merged.Reset();
    for (const Variant& v : slot.variants) {
      slot.merged.AddMember(v.token,
                            PostingCursor(layer.index->postings(v.token)));
    }
    slot.merged.Finish();
    if (slot.occ_by_rank.size() < slot.variants.size()) {
      slot.occ_by_rank.resize(slot.variants.size());
      slot.agg_by_rank.resize(slot.variants.size());
      slot.agg_depth.resize(slot.variants.size(), QueryScratch::kNoAggDepth);
    }
  }

  const XmlTree& tree = layer.index->tree();
  const uint32_t d = options_.min_depth;

  // Main anchor loop (Algorithm 1 lines 4-16).
  for (;;) {
    XCLEAN_FAULT_HIT("xclean.anchor");
    if (cancel != nullptr && cancel->cancelled()) return;
    // Anchor: the largest current head across the merged lists; nil if any
    // list is exhausted (no further subtree can contain all keywords).
    const MergedList::Head* anchor = nullptr;
    size_t anchor_slot = 0;
    bool exhausted = false;
    for (size_t i = 0; i < l; ++i) {
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

    // An occurrence shallower than d can lie in no depth-d subtree and no
    // entity of depth >= d; discard it.
    if (tree.depth(anchor->node) < d) {
      scratch.slots_[anchor_slot].merged.Next();
      continue;
    }

    // Truncate the anchor's Dewey code to depth d: the target subtree g.
    NodeId g = tree.AncestorAtDepth(anchor->node, d);
    NodeId g_end = tree.subtree_end(g);

    // Documents die whole and every depth-d subtree lies inside one
    // document, so g is either fully live or fully dead. A dead g is
    // skipped wholesale, matching a rebuild that never indexed the doc.
    if (layer.IsDead(g)) {
      for (size_t i = 0; i < l; ++i) {
        scratch.slots_[i].merged.SkipTo(g_end + 1, cancel);
      }
      if (cancel != nullptr && cancel->cancelled()) return;
      continue;
    }
    ++run_stats.subtrees_processed;

    // Align all lists to g (discarding everything before it — those nodes
    // sit in subtrees that cannot contain occurrences of every keyword)
    // and collect the occurrences inside g's subtree, bucketed by variant
    // rank.
    bool all_slots_present = true;
    for (size_t i = 0; i < l; ++i) {
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
      // Ranks arrive in head order (node-major); candidate enumeration
      // needs them in ascending rank = token order.
      std::sort(slot.active_ranks.begin(), slot.active_ranks.end());
    }
    // A cancelled drain collected only part of the subtree's occurrences;
    // scoring it would attribute wrong counts, so drop the subtree and
    // surface what earlier subtrees accumulated.
    if (cancel != nullptr && cancel->cancelled()) return;
    if (!all_slots_present) continue;

    // Enumerate candidate queries from the variants observed in g: the
    // Cartesian product of the per-slot variant sets, in this layer's
    // token order (odometer over the sorted active ranks, last slot
    // fastest). Each candidate folds into its own accumulator cell and the
    // final ranking is a total order, so layer-local order is harmless.
    auto& odo = scratch.odometer_;
    odo.assign(l, 0);
    for (;;) {
      if (cancel != nullptr && cancel->ChargeCandidate()) break;
      double error_weight = 1.0;
      for (size_t i = 0; i < l; ++i) {
        const QueryScratch::Slot& slot = scratch.slots_[i];
        const Variant& v = slot.variants[slot.active_ranks[odo[i]]];
        scratch.candidate_[i] = layer.GlobalToken(v.token);
        error_weight *= EditWeight(v.distance);
      }
      ++run_stats.candidates_enumerated;

      if (options_.semantics == Semantics::kNodeType) {
        // Lazy FindResultType with the P cache (Algorithm 1 lines 12-13);
        // the cache is cross-query and keyed by global tokens, so repeated
        // candidates across layers and queries pay the type-list merge
        // once.
        bool created = false;
        ResultTypeScorer::Choice* choice = scratch.type_cache_.GetOrCreate(
            scratch.candidate_.data(), l, &created);
        if (created) {
          ++run_stats.result_type_computations;
          *choice = type_scorer_.FindResultType(scratch.candidate_, d,
                                                scratch.type_buffers_);
        }
        if (choice->path != XmlTree::kInvalidPath) {
          ScoreNodeTypeEntities(layer, scratch, l, *choice, error_weight,
                                run_stats, cancel);
        }
      } else {
        ScoreLcaEntities(layer, scratch, l, error_weight, run_stats, cancel);
      }

      // Advance the Cartesian product (odometer).
      size_t slot = l;
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

void XClean::Evaluate(const Query& query, size_t first, size_t last,
                      QueryScratch& scratch, XCleanRunStats& run_stats,
                      CancelToken* cancel, const QueryTuning* tuning) const {
  run_stats = XCleanRunStats{};
  BindScratch(scratch);

  // Effective knobs for this query: the instance's options, optionally
  // capped by the per-query tuning (degraded tiers shrink the variant set
  // and the accumulator bound; they never widen them).
  uint32_t max_ed = options_.max_ed;
  size_t gamma = options_.gamma;
  if (tuning != nullptr) {
    max_ed = std::min(max_ed, tuning->max_ed);
    if (tuning->gamma != SIZE_MAX) {
      // gamma == 0 means unbounded, so min() alone would keep it widest.
      gamma = gamma == 0 ? tuning->gamma : std::min(gamma, tuning->gamma);
    }
  }

  // Per-query arena reset (capacity retained) and cross-query memo cap
  // enforcement. The accumulators are reset once per query: the layer
  // passes fold into them in (layer, preorder) subtree order, which is the
  // joined collection's accumulation order.
  scratch.accumulators_.Reset(gamma);
  scratch.slca_totals_.Clear();
  const size_t l = query.size();
  if (l == 0) return;
  if (scratch.type_cache_.size() > QueryScratch::kMaxTypeCacheEntries) {
    scratch.type_cache_.Clear();
  }
  if (scratch.slots_.size() < l) scratch.slots_.resize(l);
  scratch.candidate_.assign(l, 0);

  for (size_t li = first; li < last; ++li) {
    if (cancel != nullptr && cancel->cancelled()) break;
    RunLayer(li, query, max_ed, scratch, run_stats, cancel);
  }

  run_stats.accumulator_evictions = scratch.accumulators_.eviction_count();
  run_stats.accumulators_final = scratch.accumulators_.size();
  if (cancel != nullptr && cancel->cancelled()) {
    run_stats.truncated = true;
    run_stats.cancel_cause = cancel->cause();
  }
}

void XClean::SuggestWithScratch(const Query& query, QueryScratch& scratch,
                                std::vector<Suggestion>* out,
                                XCleanRunStats* stats, CancelToken* cancel,
                                const QueryTuning* tuning) const {
  XCleanRunStats local_stats;
  Evaluate(query, 0, layers_.size(), scratch,
           stats != nullptr ? *stats : local_stats, cancel, tuning);
  const size_t top_k = tuning != nullptr
                           ? std::min(options_.top_k, tuning->top_k)
                           : options_.top_k;
  RankCandidates(
      scratch.accumulators_, collection_, top_k,
      [&](const TokenId* key, size_t key_len, PathId* result_type) {
        if (options_.semantics == Semantics::kNodeType) {
          const ResultTypeScorer::Choice* choice =
              scratch.type_cache_.Find(key, key_len);
          XCLEAN_CHECK(choice != nullptr);
          *result_type = choice->path;
          if (options_.entity_prior) return 1.0;
          return static_cast<double>(
              collection_.path_node_counts[choice->path]);
        }
        if (options_.entity_prior) return 1.0;
        const uint32_t* total = scratch.slca_totals_.Find(key, key_len);
        XCLEAN_CHECK(total != nullptr);
        return static_cast<double>(*total);
      },
      scratch.finals_, out);
}

void XClean::CollectLayerPartials(const Query& query, size_t layer,
                                  QueryScratch& scratch,
                                  std::vector<PartialCandidate>* out,
                                  XCleanRunStats* stats, CancelToken* cancel,
                                  const QueryTuning* tuning) const {
  XCLEAN_CHECK(layer < layers_.size());
  XCleanRunStats local_stats;
  Evaluate(query, layer, layer + 1, scratch,
           stats != nullptr ? *stats : local_stats, cancel, tuning);

  out->clear();
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

}  // namespace xclean
