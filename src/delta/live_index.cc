#include "delta/live_index.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"

namespace xclean::delta {

namespace {

uint64_t ElapsedMicros(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

}  // namespace

std::vector<Suggestion> LiveSnapshot::Suggest(const Query& query,
                                              QueryScratch* scratch,
                                              CancelToken* cancel,
                                              const QueryTuning* tuning,
                                              XCleanRunStats* stats) const {
  QueryScratch local;
  QueryScratch& s = scratch != nullptr ? *scratch : local;
  std::vector<Suggestion> out;
  algorithm_->SuggestWithScratch(query, s, &out, stats, cancel, tuning);
  return out;
}

LiveIndex::LiveIndex(std::shared_ptr<const XmlIndex> base,
                     LiveIndexOptions options)
    : options_(options) {
  XCLEAN_CHECK(base != nullptr);
  XCLEAN_CHECK(ValidateLayeredOptions(options_.xclean).ok());
  index_options_ = base->options();
  root_label_ = base->tree().label(base->tree().root());
  base_ = std::move(base);
  base_uid_ = next_uid_++;
  memtable_uid_ = next_uid_++;
  memtable_ = std::make_unique<DeltaIndex>(root_label_, index_options_);
  const XmlTree& t = base_->tree();
  for (NodeId doc = t.FirstChild(t.root()); doc != kInvalidNode;
       doc = t.NextSibling(doc)) {
    base_doc_nodes_.push_back(doc);
    base_doc_ids_.push_back(static_cast<DocId>(docs_.size()));
    docs_.push_back(DocRecord{base_uid_, base_doc_nodes_.size() - 1, false});
  }
  live_docs_ = docs_.size();
  std::lock_guard<std::mutex> lock(mu_);
  RebuildSnapshotLocked();
}

LiveIndex::LiveIndex(const XmlIndex& base, std::shared_ptr<const void> owner,
                     LiveIndexOptions options)
    : LiveIndex(std::shared_ptr<const XmlIndex>(std::move(owner), &base),
                options) {}

LiveIndex::~LiveIndex() { WaitForCompaction(); }

Result<DocId> LiveIndex::Add(std::string_view document_xml) {
  std::lock_guard<std::mutex> lock(mu_);
  Result<size_t> ordinal = memtable_->Add(document_xml);
  if (!ordinal.ok()) return ordinal.status();
  const DocId id = static_cast<DocId>(docs_.size());
  XCLEAN_CHECK(ordinal.value() == memtable_ids_.size());
  memtable_ids_.push_back(id);
  docs_.push_back(DocRecord{memtable_uid_, ordinal.value(), false});
  live_docs_ += 1;
  adds_ += 1;
  sequence_ += 1;
  // Rebuilding before returning is the visibility contract: a snapshot
  // taken after Add() returns serves the new document.
  RebuildSnapshotLocked();
  return id;
}

Status LiveIndex::Delete(DocId id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= docs_.size()) return Status::NotFound("no such document id");
  DocRecord& rec = docs_[id];
  if (rec.deleted) return Status::Ok();
  if (rec.layer_uid == memtable_uid_) {
    Status s = memtable_->Remove(rec.ordinal);
    if (!s.ok()) return s;
  } else if (rec.layer_uid == base_uid_) {
    InsertTombstone(base_tombstones_, *base_, base_doc_nodes_[rec.ordinal]);
  } else {
    FrozenLayer* layer = nullptr;
    for (FrozenLayer& f : frozen_) {
      if (f.layer_uid == rec.layer_uid) {
        layer = &f;
        break;
      }
    }
    XCLEAN_CHECK(layer != nullptr);
    InsertTombstone(layer->tombstones, *layer->index,
                    layer->doc_nodes[rec.ordinal]);
  }
  rec.deleted = true;
  live_docs_ -= 1;
  deletes_ += 1;
  sequence_ += 1;
  RebuildSnapshotLocked();
  return Status::Ok();
}

void LiveIndex::InsertTombstone(std::vector<Tombstone>& tombs,
                                const XmlIndex& index, NodeId node) {
  Tombstone t;
  t.begin = node;
  t.end = index.tree().subtree_end(node);
  t.stats = ComputeDeadDocStats(index, node);
  auto it = std::lower_bound(tombs.begin(), tombs.end(), t,
                             [](const Tombstone& a, const Tombstone& b) {
                               return a.begin < b.begin;
                             });
  tombs.insert(it, std::move(t));
}

std::shared_ptr<const LiveSnapshot> LiveIndex::snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

void LiveIndex::RebuildSnapshotLocked() {
  auto layers = std::make_shared<LayerSet>();
  layers->layers.push_back(Layer{base_, base_tombstones_});
  for (const FrozenLayer& f : frozen_) {
    layers->layers.push_back(Layer{f.index, f.tombstones});
  }
  const BuiltLayer& mb = memtable_->built();
  if (mb.index != nullptr) {
    layers->layers.push_back(Layer{mb.index, {}});
  }
  std::shared_ptr<LiveSnapshot> snap(new LiveSnapshot());
  snap->layers_ = layers;
  snap->sequence_ = sequence_;
  snap->live_docs_ = live_docs_;
  if (snap->fast_path()) {
    snap->algorithm_ = std::make_shared<const XClean>(*base_, options_.xclean);
  } else {
    snap->algorithm_ = XCleanOverLayers(
        layers, MergedStats::Build(*layers, options_.xclean), options_.xclean);
  }
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  snapshot_ = std::move(snap);
}

Result<uint64_t> LiveIndex::Compact(SnapshotLifecycle* lifecycle, bool sync) {
  std::lock_guard<std::mutex> serialize(compact_mu_);
  const auto compact_start = std::chrono::steady_clock::now();

  // Phase 1 (under mu_): freeze the memtable into an immutable delta layer
  // and capture the stack. New Adds land in a fresh memtable while the
  // merge below runs lock-free.
  std::shared_ptr<const XmlIndex> cap_base;
  std::vector<Tombstone> cap_base_tombs;
  std::vector<NodeId> cap_base_nodes;
  std::vector<DocId> cap_base_ids;
  std::vector<FrozenLayer> cap_frozen;
  bool checkpoint_only = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const BuiltLayer& mb = memtable_->built();
    if (memtable_->total_ordinals() > 0) {
      if (mb.index != nullptr) {
        frozen_.push_back(FrozenLayer{mb.index, mb.doc_nodes, memtable_ids_,
                                      {}, memtable_uid_});
      }
      memtable_uid_ = next_uid_++;
      memtable_ = std::make_unique<DeltaIndex>(root_label_, index_options_);
      memtable_ids_.clear();
    }
    if (frozen_.empty() && base_tombstones_.empty()) {
      // Single clean generation: nothing to fold. Publish it as a durable
      // checkpoint when asked; otherwise the call is a no-op.
      if (lifecycle == nullptr) return static_cast<uint64_t>(0);
      checkpoint_only = true;
      cap_base = base_;
    } else {
      cap_base = base_;
      cap_base_tombs = base_tombstones_;
      cap_base_nodes = base_doc_nodes_;
      cap_base_ids = base_doc_ids_;
      cap_frozen = frozen_;
    }
  }

  if (checkpoint_only) {
    Result<PublishedSnapshot> pub =
        lifecycle->Publish(*cap_base, PublishOptions{{}, sync});
    if (!pub.ok()) return pub.status();
    std::lock_guard<std::mutex> lock(mu_);
    last_publish_micros_ = ElapsedMicros(compact_start);
    last_compact_micros_ = last_publish_micros_;
    return pub.value().generation;
  }

  // Phase 2 (no locks): join every live captured document into one tree,
  // in (layer, preorder) order, and build the next base generation.
  LayerSet cap_set;
  cap_set.layers.push_back(Layer{cap_base, cap_base_tombs});
  for (const FrozenLayer& f : cap_frozen) {
    cap_set.layers.push_back(Layer{f.index, f.tombstones});
  }
  Result<XmlTree> joined = JoinLiveTree(cap_set);
  if (!joined.ok()) return joined.status();
  // DocIds of the joined documents, in join order: the new base's ordinal
  // i will be join_ids[i].
  std::vector<DocId> join_ids;
  for (size_t o = 0; o < cap_base_nodes.size(); ++o) {
    if (!cap_set.layers[0].IsDead(cap_base_nodes[o])) {
      join_ids.push_back(cap_base_ids[o]);
    }
  }
  for (size_t li = 0; li < cap_frozen.size(); ++li) {
    const FrozenLayer& f = cap_frozen[li];
    for (size_t o = 0; o < f.doc_nodes.size(); ++o) {
      if (f.doc_nodes[o] == kInvalidNode) continue;
      if (cap_set.layers[li + 1].IsDead(f.doc_nodes[o])) continue;
      join_ids.push_back(f.doc_ids[o]);
    }
  }
  std::shared_ptr<const XmlIndex> next_base =
      XmlIndex::Build(std::move(joined).value(), index_options_);

  // Phase 3: durable publish through the MANIFEST journal. The journal
  // append is the commit point — a crash before it leaves the previous
  // generation live; a failure here aborts the compaction with the old
  // layer stack fully intact.
  uint64_t generation = 0;
  uint64_t publish_micros = 0;
  if (lifecycle != nullptr) {
    const auto publish_start = std::chrono::steady_clock::now();
    Result<PublishedSnapshot> pub =
        lifecycle->Publish(*next_base, PublishOptions{{}, sync});
    if (!pub.ok()) return pub.status();
    generation = pub.value().generation;
    publish_micros = ElapsedMicros(publish_start);
  }

  // Phase 4 (under mu_): install the new generation. Deletes that raced
  // the merge marked their DocRecord; they re-materialize as tombstones
  // against the new base (their in-flight tombstones died with the folded
  // layers).
  {
    std::lock_guard<std::mutex> lock(mu_);
    base_ = next_base;
    base_uid_ = next_uid_++;
    base_tombstones_.clear();
    base_doc_nodes_.clear();
    base_doc_ids_ = join_ids;
    const XmlTree& t = base_->tree();
    for (NodeId doc = t.FirstChild(t.root()); doc != kInvalidNode;
         doc = t.NextSibling(doc)) {
      base_doc_nodes_.push_back(doc);
    }
    XCLEAN_CHECK(base_doc_nodes_.size() == join_ids.size());
    for (size_t o = 0; o < join_ids.size(); ++o) {
      DocRecord& rec = docs_[join_ids[o]];
      rec.layer_uid = base_uid_;
      rec.ordinal = o;
      if (rec.deleted) {
        // Sorted by construction: o ascends with node ids.
        InsertTombstone(base_tombstones_, *base_, base_doc_nodes_[o]);
      }
    }
    frozen_.clear();
    compactions_ += 1;
    last_publish_micros_ = publish_micros;
    last_compact_micros_ = ElapsedMicros(compact_start);
    sequence_ += 1;
    RebuildSnapshotLocked();
  }

  // Phase 5: retire folded generations only after the new one is serving
  // (a crash before this orphans files but never loses the live state).
  if (lifecycle != nullptr) {
    lifecycle->RetireOldGenerations(1);
  }
  return generation;
}

Status LiveIndex::CompactInBackground(
    SnapshotLifecycle* lifecycle, std::function<void(Result<uint64_t>)> done) {
  bool expected = false;
  if (!compacting_.compare_exchange_strong(expected, true,
                                           std::memory_order_acq_rel)) {
    return Status::Unavailable("background compaction already running");
  }
  std::lock_guard<std::mutex> lock(thread_mu_);
  if (compactor_.joinable()) compactor_.join();
  compactor_ = std::thread([this, lifecycle, done = std::move(done)]() {
    Result<uint64_t> result = Compact(lifecycle, /*sync=*/true);
    if (done) done(std::move(result));
    compacting_.store(false, std::memory_order_release);
  });
  return Status::Ok();
}

void LiveIndex::WaitForCompaction() {
  std::lock_guard<std::mutex> lock(thread_mu_);
  if (compactor_.joinable()) compactor_.join();
}

LiveCounters LiveIndex::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  LiveCounters c;
  c.adds = adds_;
  c.deletes = deletes_;
  c.compactions = compactions_;
  c.live_docs = live_docs_;
  c.memtable_docs = memtable_->live_docs();
  c.layer_count = 1 + frozen_.size() +
                  (memtable_->built().index != nullptr ? 1 : 0);
  c.last_publish_micros = last_publish_micros_;
  c.last_compact_micros = last_compact_micros_;
  c.sequence = sequence_;
  return c;
}

size_t LiveIndex::base_doc_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_doc_nodes_.size();
}

}  // namespace xclean::delta
