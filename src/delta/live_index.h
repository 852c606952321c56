#ifndef XCLEAN_DELTA_LIVE_INDEX_H_
#define XCLEAN_DELTA_LIVE_INDEX_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/query_scratch.h"
#include "core/xclean.h"
#include "delta/delta_index.h"
#include "delta/layer.h"
#include "delta/merged_stats.h"
#include "index/manifest.h"
#include "index/xml_index.h"

namespace xclean::delta {

/// Stable handle on a live document; never reused.
using DocId = uint64_t;

struct LiveIndexOptions {
  /// Algorithm options for the read path; must pass
  /// ValidateLayeredOptions.
  XCleanOptions xclean;
  /// Auto-compaction threshold consulted by the serving engine: when the
  /// memtable holds this many documents after an Add, a background
  /// compaction is kicked off. 0 = compact manually.
  size_t compact_after_docs = 0;
};

/// Monotonic counters describing the write/compaction side.
struct LiveCounters {
  uint64_t adds = 0;
  uint64_t deletes = 0;
  uint64_t compactions = 0;
  uint64_t live_docs = 0;
  uint64_t memtable_docs = 0;
  /// Base + frozen deltas + built memtable.
  uint64_t layer_count = 0;
  /// Wall time of the durable publish inside the last compaction (0 when
  /// the last compaction ran without a lifecycle).
  uint64_t last_publish_micros = 0;
  /// Wall time of the last whole compaction (freeze + merge + install).
  uint64_t last_compact_micros = 0;
  /// Bumped by every visible mutation; equals the current snapshot's
  /// sequence once the mutation returns.
  uint64_t sequence = 0;
};

/// One immutable read snapshot of the layer stack. Produced by LiveIndex
/// after every mutation; readers pin it (shared_ptr) and serve any number
/// of queries against a frozen world while writers install successors.
/// Queries run XClean over the snapshot's layers. A single clean base
/// generation is XClean over that index alone; any other stack is XClean
/// over every layer, scored against MergedStats.
class LiveSnapshot {
 public:
  /// Mirrors XCleanSuggester::Suggest(query, scratch, ...): `scratch` may
  /// be null (a stack-local one is used); concurrent callers use distinct
  /// scratches.
  std::vector<Suggestion> Suggest(const Query& query, QueryScratch* scratch,
                                  CancelToken* cancel = nullptr,
                                  const QueryTuning* tuning = nullptr,
                                  XCleanRunStats* stats = nullptr) const;

  /// Mutation sequence this snapshot reflects.
  uint64_t sequence() const { return sequence_; }
  uint64_t live_docs() const { return live_docs_; }
  size_t layer_count() const { return layers_->layers.size(); }
  const LayerSet& layers() const { return *layers_; }
  /// True for a single clean base generation, which needs no merged
  /// statistics.
  bool fast_path() const {
    return layers_->layers.size() == 1 && layers_->layers[0].tombstones.empty();
  }

 private:
  friend class LiveIndex;
  LiveSnapshot() = default;

  std::shared_ptr<const LayerSet> layers_;
  std::shared_ptr<const XClean> algorithm_;
  uint64_t sequence_ = 0;
  uint64_t live_docs_ = 0;
};

/// The incremental-indexing subsystem: an LSM-style stack over XmlIndex.
///
///   [ base generation ] [ frozen delta ]* [ memtable ]
///
/// Writes: Add() parses the document into the memtable (eagerly
/// re-indexed, so the document is visible to the *next* snapshot before
/// Add returns); Delete() drops a memtable document outright, or tombstones
/// a frozen/base document together with the exact statistics it removes.
/// Every mutation installs a fresh LiveSnapshot.
///
/// Compaction: freezes the memtable, replays every live document into one
/// joined tree OUTSIDE the write lock, builds the next base generation,
/// optionally publishes it through the crash-safe MANIFEST journal
/// (index/manifest.h — the commit point is the journal append, so a crash
/// anywhere in between leaves the previous generation live, never a mix),
/// then installs it and drops the folded layers. Queries never block:
/// readers keep serving pinned snapshots throughout.
///
/// Locking: `compact_mu_` serializes compactions; `mu_` guards all mutable
/// state (writes are serialized — the expensive merged-stats rebuild rides
/// on the writer, never on readers); `snapshot_mu_` guards only the
/// published snapshot pointer so readers pin it with two refcount ops.
/// Acquisition order: compact_mu_ -> mu_ -> snapshot_mu_.
class LiveIndex {
 public:
  /// Requires ValidateLayeredOptions(options.xclean) to pass.
  LiveIndex(std::shared_ptr<const XmlIndex> base, LiveIndexOptions options);
  /// Aliasing variant: serve over a base owned by `owner` (e.g. the
  /// engine's XCleanSuggester) without copying it.
  LiveIndex(const XmlIndex& base, std::shared_ptr<const void> owner,
            LiveIndexOptions options);

  /// Waits for any background compaction, then tears down.
  ~LiveIndex();

  LiveIndex(const LiveIndex&) = delete;
  LiveIndex& operator=(const LiveIndex&) = delete;

  /// Parses and stages one XML document. On Ok, the document is visible to
  /// every snapshot taken after the call returns.
  Result<DocId> Add(std::string_view document_xml);

  /// Deletes a document: memtable documents are dropped and re-indexed
  /// out; frozen/base documents are tombstoned with exact removed-stats.
  /// Deleting an already-deleted id is Ok (idempotent).
  Status Delete(DocId id);

  /// The current read snapshot (never null).
  std::shared_ptr<const LiveSnapshot> snapshot() const;

  /// Folds memtable + frozen deltas + tombstones into the next base
  /// generation. With `lifecycle`, the new generation is durably published
  /// through the MANIFEST journal before install (and older generations
  /// retired after), and its generation number is returned; without, the
  /// merge is in-memory only and 0 is returned. `sync` maps to
  /// PublishOptions::sync. Returns 0 without doing work when the stack is
  /// already a single clean generation and no lifecycle was given.
  Result<uint64_t> Compact(SnapshotLifecycle* lifecycle = nullptr,
                           bool sync = true);

  /// Runs Compact(lifecycle, sync=true) on a background thread. Returns
  /// Unavailable if a background compaction is already running. `done`
  /// (optional) is invoked on the compactor thread with the outcome; it
  /// must not call CompactInBackground synchronously.
  Status CompactInBackground(SnapshotLifecycle* lifecycle,
                             std::function<void(Result<uint64_t>)> done = {});

  /// Joins any background compaction (no-op when none is running).
  void WaitForCompaction();
  bool compacting() const {
    return compacting_.load(std::memory_order_acquire);
  }

  LiveCounters counters() const;
  const LiveIndexOptions& options() const { return options_; }
  size_t base_doc_count() const;

 private:
  struct DocRecord {
    uint64_t layer_uid = 0;
    size_t ordinal = 0;
    bool deleted = false;
  };

  struct FrozenLayer {
    std::shared_ptr<const XmlIndex> index;
    std::vector<NodeId> doc_nodes;  // by memtable ordinal; holes invalid
    std::vector<DocId> doc_ids;     // by memtable ordinal
    std::vector<Tombstone> tombstones;
    uint64_t layer_uid = 0;
  };

  /// Builds and installs a fresh LiveSnapshot. Requires mu_.
  void RebuildSnapshotLocked();

  /// Appends a tombstone for `node` (kept sorted by begin). Requires mu_.
  static void InsertTombstone(std::vector<Tombstone>& tombs,
                              const XmlIndex& index, NodeId node);

  LiveIndexOptions options_;
  IndexOptions index_options_;
  std::string root_label_;

  mutable std::mutex mu_;
  std::shared_ptr<const XmlIndex> base_;
  std::vector<Tombstone> base_tombstones_;
  std::vector<NodeId> base_doc_nodes_;  // by base ordinal
  std::vector<DocId> base_doc_ids_;     // by base ordinal
  uint64_t base_uid_ = 0;
  std::vector<FrozenLayer> frozen_;
  std::unique_ptr<DeltaIndex> memtable_;
  std::vector<DocId> memtable_ids_;  // by memtable ordinal
  uint64_t memtable_uid_ = 0;
  uint64_t next_uid_ = 1;
  std::vector<DocRecord> docs_;  // by DocId
  uint64_t live_docs_ = 0;
  uint64_t sequence_ = 0;
  uint64_t adds_ = 0;
  uint64_t deletes_ = 0;
  uint64_t compactions_ = 0;
  uint64_t last_publish_micros_ = 0;
  uint64_t last_compact_micros_ = 0;

  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const LiveSnapshot> snapshot_;  ///< guarded by snapshot_mu_

  std::mutex compact_mu_;  ///< serializes Compact()
  std::atomic<bool> compacting_{false};
  std::mutex thread_mu_;
  std::thread compactor_;  ///< guarded by thread_mu_
};

}  // namespace xclean::delta

#endif  // XCLEAN_DELTA_LIVE_INDEX_H_
