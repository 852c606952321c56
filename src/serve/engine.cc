#include "serve/engine.h"

#include <cstdio>
#include <thread>
#include <utility>

#include "common/cancel.h"
#include "common/check.h"
#include "common/durable_file.h"
#include "common/fault_injection.h"
#include "core/query.h"
#include "index/index_io.h"
#include "index/manifest.h"

namespace xclean::serve {

namespace {

using SteadyClock = std::chrono::steady_clock;

constexpr SteadyClock::time_point kNoDeadline = SteadyClock::time_point::max();

double MillisSince(SteadyClock::time_point start) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - start)
      .count();
}

/// The engine's controller thresholds are expressed relative to the
/// default deadline; fill that in unless the caller already set it.
OverloadControllerOptions ResolveOverloadOptions(const EngineOptions& o) {
  OverloadControllerOptions r = o.overload;
  if (r.deadline_ms <= 0.0 && o.default_deadline.count() > 0) {
    r.deadline_ms = static_cast<double>(o.default_deadline.count());
  }
  return r;
}

/// Per-worker scratch arena: each serving thread reuses one QueryScratch
/// across every request it handles, which is what makes steady-state
/// serving allocation-free in the algorithm. Epoch binding inside the
/// scratch drops its memo tables automatically when a hot-swap installs a
/// new suggester, so a long-lived thread can never serve statistics from a
/// retired index.
QueryScratch& ThreadScratch() {
  static thread_local QueryScratch scratch;
  return scratch;
}

}  // namespace

std::string OptionsFingerprint(const SuggesterOptions& options) {
  const XCleanOptions& x = options.xclean;
  char buf[192];
  // entity_prior is a std::function and cannot be fingerprinted by value;
  // it is pinned per snapshot (options are immutable once a suggester is
  // built), and the snapshot version in the cache-key prefix disambiguates
  // across swaps, so flagging its presence suffices.
  std::snprintf(buf, sizeof(buf),
                "ed%u,b%.6g,mu%.6g,r%.6g,d%u,k%zu,g%zu,s%d,sx%d,pr%d,"
                "st%u,sb%.6g",
                x.max_ed, x.beta, x.mu, x.reduction, x.min_depth, x.top_k,
                x.gamma, static_cast<int>(x.semantics),
                x.include_soundex ? 1 : 0, x.entity_prior ? 1 : 0,
                options.space_tau, options.space_penalty_beta);
  return buf;
}

ServingEngine::ServingEngine(std::shared_ptr<const XCleanSuggester> suggester,
                             EngineOptions options)
    : options_(options),
      snapshot_(MakeSnapshot(std::move(suggester), 1)),
      cache_(options.cache),
      overload_(ResolveOverloadOptions(options)),
      pool_(options.pool) {
  XCLEAN_CHECK(snapshot_->suggester != nullptr);
}

ServingEngine::~ServingEngine() {
  // Any background compaction still references the live stack and the
  // lifecycle; drain it before members start dying.
  WaitForLiveCompaction();
  Shutdown();
}

std::shared_ptr<const ServingEngine::Snapshot> ServingEngine::MakeSnapshot(
    std::shared_ptr<const XCleanSuggester> suggester, uint64_t version,
    std::shared_ptr<delta::LiveIndex> live) {
  auto snap = std::make_shared<Snapshot>();
  snap->version = version;
  snap->key_prefix = "v" + std::to_string(version) + "|" +
                     OptionsFingerprint(suggester->options()) + "|";
  snap->suggester = std::move(suggester);
  snap->live = std::move(live);
  return snap;
}

Status ServingEngine::SubmitSuggest(std::string query_text,
                                    ServeCallback done) {
  SteadyClock::time_point deadline = kNoDeadline;
  if (options_.default_deadline.count() > 0) {
    deadline = SteadyClock::now() + options_.default_deadline;
  }
  return SubmitSuggest(std::move(query_text), deadline, std::move(done));
}

Status ServingEngine::SubmitSuggest(std::string query_text,
                                    SteadyClock::time_point deadline,
                                    ServeCallback done) {
  SteadyClock::time_point enqueued = SteadyClock::now();
  // The callback is shared between the task and the expiry path: exactly
  // one of them runs (the pool guarantees it), but both need to own it.
  auto cb = std::make_shared<ServeCallback>(std::move(done));
  Status submitted = pool_.TrySubmit(
      [this, query_text = std::move(query_text), enqueued, deadline, cb] {
        ServeResult result = Execute(query_text, enqueued, deadline);
        if (*cb) (*cb)(std::move(result));
      },
      deadline,
      [this, enqueued, cb] {
        // Evicted from the queue past its deadline: the queue slot was
        // already released, so this answer never blocks an admissible
        // request behind it.
        metrics_.IncrDeadlineExceeded();
        ServeResult result;
        result.status = Status::DeadlineExceeded("expired in queue");
        result.latency_ms = MillisSince(enqueued);
        if (*cb) (*cb)(std::move(result));
      });
  if (submitted.ok()) {
    metrics_.IncrRequests();
  } else {
    metrics_.IncrRejected();
  }
  return submitted;
}

ServeResult ServingEngine::Suggest(const std::string& query_text) {
  metrics_.IncrRequests();
  SteadyClock::time_point now = SteadyClock::now();
  SteadyClock::time_point deadline = kNoDeadline;
  if (options_.default_deadline.count() > 0) {
    deadline = now + options_.default_deadline;
  }
  return Execute(query_text, now, deadline);
}

std::vector<ServeResult> ServingEngine::SuggestBatch(
    const std::vector<std::string>& query_texts) {
  SteadyClock::time_point now = SteadyClock::now();
  SteadyClock::time_point deadline = kNoDeadline;
  if (options_.default_deadline.count() > 0) {
    deadline = now + options_.default_deadline;
  }
  // One snapshot pin for the whole batch: every result reports the same
  // version even if a swap lands mid-batch.
  std::shared_ptr<const Snapshot> snap = CurrentSnapshot();
  std::vector<ServeResult> results;
  results.reserve(query_texts.size());
  for (const std::string& text : query_texts) {
    metrics_.IncrRequests();
    results.push_back(ExecuteOnSnapshot(snap, text, now, deadline));
  }
  return results;
}

Status ServingEngine::SubmitSuggestBatch(std::vector<std::string> query_texts,
                                         BatchServeCallback done) {
  SteadyClock::time_point enqueued = SteadyClock::now();
  SteadyClock::time_point deadline = kNoDeadline;
  if (options_.default_deadline.count() > 0) {
    deadline = enqueued + options_.default_deadline;
  }
  const size_t batch_size = query_texts.size();
  auto cb = std::make_shared<BatchServeCallback>(std::move(done));
  Status submitted = pool_.TrySubmit(
      [this, queries = std::move(query_texts), enqueued, deadline, cb] {
        std::shared_ptr<const Snapshot> snap = CurrentSnapshot();
        std::vector<ServeResult> results;
        results.reserve(queries.size());
        for (const std::string& text : queries) {
          results.push_back(ExecuteOnSnapshot(snap, text, enqueued, deadline));
        }
        if (*cb) (*cb)(std::move(results));
      },
      deadline,
      [this, enqueued, batch_size, cb] {
        ServeResult expired;
        expired.status = Status::DeadlineExceeded("expired in queue");
        expired.latency_ms = MillisSince(enqueued);
        std::vector<ServeResult> results(batch_size, expired);
        for (size_t i = 0; i < batch_size; ++i) {
          metrics_.IncrDeadlineExceeded();
        }
        if (*cb) (*cb)(std::move(results));
      });
  for (size_t i = 0; i < batch_size; ++i) {
    if (submitted.ok()) {
      metrics_.IncrRequests();
    } else {
      metrics_.IncrRejected();
    }
  }
  return submitted;
}

ServeResult ServingEngine::Execute(const std::string& query_text,
                                   SteadyClock::time_point enqueue_time,
                                   SteadyClock::time_point deadline) {
  // Pin the snapshot for the whole request: a concurrent SwapIndex cannot
  // free it (shared_ptr) and cannot change what this request reads.
  return ExecuteOnSnapshot(CurrentSnapshot(), query_text, enqueue_time,
                           deadline);
}

ServeResult ServingEngine::ExecuteOnSnapshot(
    const std::shared_ptr<const Snapshot>& snap, const std::string& query_text,
    SteadyClock::time_point enqueue_time, SteadyClock::time_point deadline) {
  ServeResult result;
  // Deadline is checked when a worker picks the request up: a request that
  // sat in the queue past its deadline is answered without paying for
  // candidate generation — under overload this sheds exactly the work
  // whose answer nobody is waiting for anymore.
  if (SteadyClock::now() >= deadline) {
    metrics_.IncrDeadlineExceeded();
    result.status = Status::DeadlineExceeded("expired in queue");
    result.latency_ms = std::chrono::duration<double, std::milli>(
                            SteadyClock::now() - enqueue_time)
                            .count();
    return result;
  }

  result.snapshot_version = snap->version;

  // Admission: one walk of the degradation ladder per request. Everything
  // below the shed tier still produces an answer; the tiers only shrink
  // how much work that answer is allowed to cost.
  const ServiceTier tier =
      overload_.Evaluate(pool_.queue_depth(), pool_.queue_capacity());
  result.tier = tier;
  if (tier == ServiceTier::kShed) {
    metrics_.IncrShedOverload();
    result.status = Status::Unavailable("overloaded: shedding all requests");
    result.latency_ms = MillisSince(enqueue_time);
    return result;
  }

  // Input bounds come before tokenization of a pathological payload can
  // cost anything: a megabyte of "query" is an error, not a workload.
  Result<Query> parsed = ParseQueryBounded(
      query_text, snap->suggester->index().tokenizer(), options_.query_limits);
  if (!parsed.ok()) {
    metrics_.IncrInvalidArgument();
    result.status = parsed.status();
    result.latency_ms = MillisSince(enqueue_time);
    return result;
  }
  const Query& query = parsed.value();

  // With live updates on, pin one delta read snapshot for the whole
  // request and fold its mutation sequence into the cache key: a cached
  // answer can then never predate a visible Add/Delete (the key simply
  // stops matching), and the request reads one frozen layer stack even if
  // writers install successors mid-flight.
  std::shared_ptr<const delta::LiveSnapshot> live_snap;
  if (snap->live != nullptr) live_snap = snap->live->snapshot();

  // Tier-aware cache keys: reduced-tier answers are cached under a "t1|"
  // prefix so they can never masquerade as full-quality answers once the
  // engine recovers. Degraded tiers may read full-tier entries (a better
  // answer for free), never the other way around.
  std::string full_key = snap->key_prefix;
  if (live_snap != nullptr) {
    full_key += "q" + std::to_string(live_snap->sequence()) + "|";
  }
  full_key += query.ToString();
  const std::string reduced_key = "t1|" + full_key;

  XCLEAN_FAULT_HIT("serve.cache.lookup");
  bool hit = cache_.Get(full_key, &result.suggestions);
  if (!hit && tier != ServiceTier::kFull) {
    hit = cache_.Get(reduced_key, &result.suggestions);
  }
  if (hit) {
    result.cache_hit = true;
  } else if (tier == ServiceTier::kCacheOnly) {
    metrics_.IncrShedOverload();
    result.status = Status::Unavailable("overloaded: serving cache hits only");
    result.latency_ms = MillisSince(enqueue_time);
    return result;
  } else {
    QueryBudget budget;
    budget.deadline = deadline;
    budget.max_postings = options_.max_postings_per_query;
    budget.max_candidates = options_.max_candidates_per_query;
    CancelToken token(budget);
    const QueryTuning* tuning = tier == ServiceTier::kReduced
                                    ? &overload_.options().reduced_tuning
                                    : nullptr;
    XCleanRunStats run_stats;
    const SteadyClock::time_point compute_start = SteadyClock::now();
    result.suggestions =
        live_snap != nullptr
            ? live_snap->Suggest(query, &ThreadScratch(), &token, tuning,
                                 &run_stats)
            : snap->suggester->Suggest(query, &ThreadScratch(), &token,
                                       tuning, &run_stats);
    result.compute_ms = MillisSince(compute_start);
    if (run_stats.truncated) {
      // The in-algorithm budget tripped. A partial top-k is still an
      // answer (marked so the caller knows); an empty one is not.
      metrics_.IncrTruncated();
      result.truncated = true;
      if (result.suggestions.empty()) {
        metrics_.IncrDeadlineExceeded();
        result.status = Status::DeadlineExceeded(
            std::string("budget exhausted mid-query: ") +
            CancelCauseName(run_stats.cancel_cause));
        result.latency_ms = MillisSince(enqueue_time);
        overload_.RecordLatency(result.latency_ms);
        return result;
      }
      // Truncated lists are never cached: they would freeze a degraded
      // answer past the overload that caused it.
    } else {
      cache_.Put(tuning ? reduced_key : full_key, result.suggestions);
    }
  }

  auto elapsed = SteadyClock::now() - enqueue_time;
  result.latency_ms =
      std::chrono::duration<double, std::milli>(elapsed).count();
  metrics_.RecordLatencyMicros(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
          .count()));
  metrics_.IncrCompleted();
  overload_.RecordLatency(result.latency_ms);
  return result;
}

void ServingEngine::SwapIndex(std::shared_ptr<const XCleanSuggester> next) {
  uint64_t version = version_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::shared_ptr<const Snapshot> snap = MakeSnapshot(std::move(next), version);
  std::shared_ptr<delta::LiveIndex> old_live;
  {
    // A delta stack is layered over one specific base index: swapping the
    // base detaches it. Documents added since EnableLiveUpdates live only
    // in the stack, so a caller who wants them must compact into a durable
    // generation (or swap onto the compacted index) first.
    std::lock_guard<std::mutex> live_lock(live_mu_);
    old_live = std::move(live_);
    lifecycle_.reset();  // in-flight compactions hold their own reference
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_.swap(snap);
  }
  // `snap` now holds the old snapshot; if this was its last reference it
  // is destroyed here, outside the lock, not under it. A detached live
  // stack stays alive while older snapshots pin it and dies inert.
  if (old_live != nullptr) old_live->WaitForCompaction();
  // The p95 estimate measured the old index; against the new one it is
  // stale load signal that would keep the degradation ladder escalated
  // (or, swapping slow-for-fast, admit overload) for the ~19/alpha samples
  // the asymmetric EWMA needs to converge. Start the estimator fresh.
  overload_.ResetLatencySignal();
  metrics_.IncrSwaps();
}

Status ServingEngine::SwapIndexFromFile(const std::string& path,
                                        SuggesterOptions options) {
  // Quarantine identity is a whole-file content checksum: size/mtime
  // would miss an in-place rewrite landing within the filesystem's
  // timestamp granularity at the same length. Hashing costs a full read
  // of the file, though, so it runs only when an entry exists for this
  // path — the common path (no prior failure) pays nothing extra.
  bool was_quarantined = false;
  uint64_t quarantined_checksum = 0;
  {
    std::lock_guard<std::mutex> lock(quarantine_mu_);
    auto it = quarantine_.find(path);
    if (it != quarantine_.end()) {
      was_quarantined = true;
      quarantined_checksum = it->second.checksum;
    }
  }
  if (was_quarantined) {
    const Result<uint64_t> content_hash = HashFileContents(path);
    if (content_hash.ok() &&
        content_hash.value() == quarantined_checksum) {
      return Status::Unavailable(
          "snapshot file quarantined after repeated load failures "
          "(republish to clear): " +
          path);
    }
    // Different bytes (or unreadable): the entry no longer describes the
    // file on disk, so drop it and re-examine.
    std::lock_guard<std::mutex> lock(quarantine_mu_);
    quarantine_.erase(path);
  }

  const int attempts =
      options_.swap_load_attempts < 1 ? 1 : options_.swap_load_attempts;
  Status last = Status::Ok();
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      // Exponential backoff: a snapshot caught mid-publish often becomes
      // readable a few milliseconds later.
      std::this_thread::sleep_for(options_.swap_retry_backoff *
                                  (1 << (attempt - 1)));
    }
    Result<std::unique_ptr<XmlIndex>> index = LoadIndex(path);
    if (index.ok()) {
      {
        std::lock_guard<std::mutex> lock(quarantine_mu_);
        quarantine_.erase(path);
      }
      auto suggester = std::make_shared<const XCleanSuggester>(
          XCleanSuggester::FromIndex(std::move(index).value(), options));
      SwapIndex(std::move(suggester));
      return Status::Ok();
    }
    last = index.status();
    // A missing file is an operator error, not a torn write: retrying or
    // quarantining it would only mask the misconfiguration.
    if (last.code() == StatusCode::kNotFound) return last;
  }

  // Key the quarantine on the bytes present right after the final failed
  // attempt — the closest observable stand-in for the content that failed
  // to load. If the file is republished between the failure and this hash
  // the stale key simply never matches again, so the next call re-reads
  // instead of fast-failing — safe in both directions.
  const Result<uint64_t> content_hash = HashFileContents(path);
  if (content_hash.ok()) {
    std::lock_guard<std::mutex> lock(quarantine_mu_);
    quarantine_[path] = QuarantineEntry{content_hash.value()};
  }
  // The previous snapshot keeps serving; the caller learns why the swap
  // did not happen.
  return last;
}

Result<uint64_t> ServingEngine::RecoverFrom(const std::string& dir,
                                            SuggesterOptions options) {
  Result<RecoveredSnapshot> recovered = RecoverLatestSnapshot(dir);
  if (!recovered.ok()) return recovered.status();
  auto suggester = std::make_shared<const XCleanSuggester>(
      XCleanSuggester::FromIndex(std::move(recovered.value().index),
                                 options));
  SwapIndex(std::move(suggester));
  return recovered.value().generation;
}

Status ServingEngine::EnableLiveUpdates(size_t compact_after_docs,
                                        const std::string& snapshot_dir) {
  std::lock_guard<std::mutex> live_lock(live_mu_);
  if (live_ != nullptr) {
    return Status::InvalidArgument("live updates already enabled");
  }
  std::shared_ptr<const Snapshot> snap = CurrentSnapshot();
  const SuggesterOptions& so = snap->suggester->options();
  // XClean over a layer stack is exact only under these preconditions
  // (DESIGN §8); refuse configurations it cannot reproduce.
  if (so.space_tau != 0) {
    return Status::InvalidArgument(
        "live updates require space_tau == 0 (space-edit segmentation is "
        "not layered)");
  }
  Status valid = ValidateLayeredOptions(so.xclean);
  if (!valid.ok()) return valid;
  std::shared_ptr<SnapshotLifecycle> lifecycle;
  if (!snapshot_dir.empty()) {
    lifecycle = std::make_shared<SnapshotLifecycle>(snapshot_dir);
    Status opened = lifecycle->Open();
    if (!opened.ok()) return opened;
  }
  delta::LiveIndexOptions lopts;
  lopts.xclean = so.xclean;
  lopts.compact_after_docs = compact_after_docs;
  auto live = std::make_shared<delta::LiveIndex>(
      snap->suggester->index(), snap->suggester, std::move(lopts));
  const uint64_t version =
      version_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::shared_ptr<const Snapshot> next =
      MakeSnapshot(snap->suggester, version, live);
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    if (snapshot_->suggester != snap->suggester) {
      // A concurrent SwapIndex landed between the read above and now; the
      // stack we built belongs to a retired base.
      return Status::Unavailable("index swapped during EnableLiveUpdates");
    }
    snapshot_.swap(next);
  }
  live_ = std::move(live);
  lifecycle_ = std::move(lifecycle);
  return Status::Ok();
}

Result<delta::DocId> ServingEngine::AddDocument(
    std::string_view document_xml) {
  std::shared_ptr<delta::LiveIndex> live;
  std::shared_ptr<SnapshotLifecycle> lifecycle;
  {
    std::lock_guard<std::mutex> live_lock(live_mu_);
    live = live_;
    lifecycle = lifecycle_;
  }
  if (live == nullptr) {
    return Status::InvalidArgument("live updates not enabled");
  }
  Result<delta::DocId> id = live->Add(document_xml);
  if (!id.ok()) return id;
  const size_t threshold = live->options().compact_after_docs;
  if (threshold > 0 && !live->compacting() &&
      live->counters().memtable_docs >= threshold) {
    // Best effort: Unavailable just means a compaction is already running
    // and will pick this document up.
    (void)live->CompactInBackground(lifecycle.get(),
                                    [lifecycle](Result<uint64_t>) {});
  }
  return id;
}

Status ServingEngine::DeleteDocument(delta::DocId id) {
  std::shared_ptr<delta::LiveIndex> live;
  {
    std::lock_guard<std::mutex> live_lock(live_mu_);
    live = live_;
  }
  if (live == nullptr) {
    return Status::InvalidArgument("live updates not enabled");
  }
  return live->Delete(id);
}

Result<uint64_t> ServingEngine::CompactLive(bool sync) {
  std::shared_ptr<delta::LiveIndex> live;
  std::shared_ptr<SnapshotLifecycle> lifecycle;
  {
    std::lock_guard<std::mutex> live_lock(live_mu_);
    live = live_;
    lifecycle = lifecycle_;
  }
  if (live == nullptr) {
    return Status::InvalidArgument("live updates not enabled");
  }
  return live->Compact(lifecycle.get(), sync);
}

Status ServingEngine::CompactLiveInBackground() {
  std::shared_ptr<delta::LiveIndex> live;
  std::shared_ptr<SnapshotLifecycle> lifecycle;
  {
    std::lock_guard<std::mutex> live_lock(live_mu_);
    live = live_;
    lifecycle = lifecycle_;
  }
  if (live == nullptr) {
    return Status::InvalidArgument("live updates not enabled");
  }
  return live->CompactInBackground(lifecycle.get(),
                                   [lifecycle](Result<uint64_t>) {});
}

void ServingEngine::WaitForLiveCompaction() {
  std::shared_ptr<delta::LiveIndex> live;
  {
    std::lock_guard<std::mutex> live_lock(live_mu_);
    live = live_;
  }
  if (live != nullptr) live->WaitForCompaction();
}

std::shared_ptr<delta::LiveIndex> ServingEngine::live_index() const {
  std::lock_guard<std::mutex> live_lock(live_mu_);
  return live_;
}

std::shared_ptr<const XCleanSuggester> ServingEngine::snapshot() const {
  return CurrentSnapshot()->suggester;
}

MetricsSnapshot ServingEngine::Metrics() const {
  SuggestionCache::Stats cs = cache_.stats();
  MetricsSnapshot s = metrics_.Snapshot(cs.hits, cs.misses, cs.evictions);
  s.tier_requests = overload_.tier_requests();
  s.current_tier = static_cast<int>(overload_.current_tier());
  s.overload_p95_ms = overload_.p95_ms();
  std::shared_ptr<delta::LiveIndex> live = live_index();
  if (live != nullptr) {
    const delta::LiveCounters lc = live->counters();
    s.live_enabled = true;
    s.live_adds = lc.adds;
    s.live_deletes = lc.deletes;
    s.live_compactions = lc.compactions;
    s.live_docs = lc.live_docs;
    s.delta_layers = lc.layer_count;
    s.last_compact_ms = static_cast<double>(lc.last_compact_micros) / 1e3;
    s.last_publish_ms = static_cast<double>(lc.last_publish_micros) / 1e3;
  }
  return s;
}

}  // namespace xclean::serve
