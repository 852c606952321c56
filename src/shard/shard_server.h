#ifndef XCLEAN_SHARD_SHARD_SERVER_H_
#define XCLEAN_SHARD_SHARD_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "core/accumulator.h"
#include "core/query.h"
#include "core/query_scratch.h"
#include "core/xclean.h"
#include "serve/overload.h"

namespace xclean::shard {

/// One query's fan-out leg to a single shard.
struct ShardRequest {
  Query query;
  /// Wall-clock budget for this leg; the shard truncates (partial results,
  /// `truncated` set) rather than overrun it.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Host-reported queue pressure the degradation ladder runs on (the
  /// shard evaluation itself is synchronous; queueing happens in whatever
  /// transports the request — the coordinator pool here, an RPC server in
  /// a real deployment).
  size_t queue_depth = 0;
  size_t queue_capacity = 1;
  /// Generation the coordinator will merge against. The shard itself
  /// evaluates whatever snapshot it holds (the response carries its actual
  /// generation); this field exists for the routing layer between
  /// coordinator and shard — ReplicaSet prefers replicas whose published
  /// generation matches it. 0 means "no expectation".
  uint64_t expected_generation = 0;
  /// Optional external kill switch, wired into the evaluation's
  /// QueryBudget: raising it cancels the leg cooperatively mid-algorithm.
  /// This is how a hedged leg's loser is cancelled. Must outlive the call.
  const std::atomic<bool>* external_cancel = nullptr;
};

/// A shard's answer: its partial accumulators plus everything the
/// coordinator needs to decide whether they are mergeable (generation) and
/// whether the merged answer must be flagged partial (tier, truncated).
struct ShardResponse {
  /// Ok, Unavailable (ladder shed the request), or an injected/transport
  /// error. Partials are only meaningful when ok().
  Status status;
  uint32_t shard_id = 0;
  /// Generation of the snapshot the partials were computed against. The
  /// coordinator drops responses whose generation differs from the one it
  /// expects — a swap that lands mid-evaluation makes the shard re-read
  /// its generation afterwards, so a torn evaluation can never masquerade
  /// as either generation (see Evaluate()).
  uint64_t generation = 0;
  ServiceTier tier = ServiceTier::kFull;
  /// True when the evaluation stopped early (deadline/budget) or ran at a
  /// reduced tier: the partials underestimate this shard's contribution.
  bool truncated = false;
  CancelCause cancel_cause = CancelCause::kNone;
  std::vector<PartialCandidate> partials;
  XCleanRunStats run_stats;
};

/// Abstract fan-out target so the coordinator and the simulation harness
/// speak one interface: production wraps ShardServer, the simulator wraps
/// scripted fault schedules around it.
class ShardBackend {
 public:
  virtual ~ShardBackend() = default;
  virtual ShardResponse Evaluate(const ShardRequest& request) = 0;
};

/// Monotonic per-shard counters (relaxed atomics, monitoring-grade).
struct ShardServerStats {
  uint64_t requests = 0;
  uint64_t shed = 0;
  uint64_t refused = 0;  ///< expired-on-arrival: never started evaluating
  uint64_t truncated = 0;
  uint64_t stale_risk = 0;  ///< evaluations overlapped by a generation swap
};

/// Serving wrapper for one shard: the per-shard half of scatter-gather.
/// Holds one layer of the shared XClean engine (its postings are the
/// shard's, its statistics the global broadcast), runs PR 4's degradation
/// ladder per shard, pins every evaluation to a generation, and exposes
/// fault-injection points for the simulation harness:
///
///   shard.evaluate        every Evaluate(), any shard (status/delay/cb)
///   shard.evaluate.<id>   same, one shard only
///
/// Thread-safe: concurrent Evaluate() calls draw scratches from a pool;
/// PublishGeneration may race evaluations (that race is the hazard the
/// generation re-read closes).
class ShardServer final : public ShardBackend {
 public:
  ShardServer(uint32_t shard_id,
              std::shared_ptr<const XClean> engine,
              uint64_t generation,
              OverloadControllerOptions overload = OverloadControllerOptions());

  /// Evaluates the request against this shard's postings. Never blocks on
  /// other requests; honours request.deadline cooperatively via a
  /// CancelToken, and refuses outright (truncated, empty partials,
  /// kDeadline) when the deadline has already passed at admission — work
  /// the coordinator has given up on is never started. Ladder behaviour:
  /// kReduced caps the per-query knobs
  /// (reduced_tuning) and marks the response truncated; kCacheOnly and
  /// kShed return Unavailable without evaluating (a shard holds no
  /// response cache — cache-only service is a coordinator concern).
  ShardResponse Evaluate(const ShardRequest& request) override;

  /// Simulates a snapshot swap landing on this shard (the in-process
  /// engine is immutable; what changes is the generation tag a real swap
  /// would change). Evaluations in flight re-read the generation after
  /// computing, see the mismatch with their admission read, and mark the
  /// response with the *new* generation plus truncated — the coordinator
  /// then discards it as stale instead of merging bytes of unknown vintage.
  void PublishGeneration(uint64_t generation) {
    generation_.store(generation, std::memory_order_release);
  }
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  uint32_t shard_id() const { return shard_id_; }
  OverloadController& overload() { return overload_; }
  ShardServerStats stats() const;

 private:
  struct ScratchLease;
  std::unique_ptr<QueryScratch> AcquireScratch();
  void ReleaseScratch(std::unique_ptr<QueryScratch> scratch);

  const uint32_t shard_id_;
  const std::string fault_point_;  ///< "shard.evaluate.<id>"
  std::shared_ptr<const XClean> engine_;
  std::atomic<uint64_t> generation_;
  OverloadController overload_;

  std::mutex scratch_mu_;
  std::vector<std::unique_ptr<QueryScratch>> scratch_pool_;

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> refused_{0};
  std::atomic<uint64_t> truncated_{0};
  std::atomic<uint64_t> stale_risk_{0};
};

}  // namespace xclean::shard

#endif  // XCLEAN_SHARD_SHARD_SERVER_H_
