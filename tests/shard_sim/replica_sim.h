#ifndef XCLEAN_TESTS_SHARD_SIM_REPLICA_SIM_H_
#define XCLEAN_TESTS_SHARD_SIM_REPLICA_SIM_H_

/// Deterministic replica-fault simulation harness, the replication-layer
/// sibling of shard_sim.h: a schedule assigns one ReplicaFaultKind to every
/// replica of every shard, the shards are wrapped in sequential-mode
/// ReplicaSets driven by one shared ManualClock, and the per-shard answers
/// feed the pure Coordinator::Merge. No real sleeps anywhere — backoff,
/// deadline slices and breaker cooldowns all advance the virtual clock, so
/// the same XCLEAN_SHARD_SEED replays routing decisions bit for bit.

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "common/status.h"
#include "core/query.h"
#include "serve/overload.h"
#include "shard/coordinator.h"
#include "shard/replica_set.h"
#include "shard/shard_server.h"
#include "shard/sharded_corpus.h"
#include "tests/shard_testutil.h"

namespace xclean::shardtest {

/// Per-replica behaviours the scheduler draws from. Each models one way a
/// replica of a healthy shard can fail the routing layer.
enum class ReplicaFaultKind : uint8_t {
  kHealthy = 0,  ///< real ShardServer at the expected generation
  kDown,         ///< transport error on every attempt (crashed/unreachable)
  kFlaky,        ///< flapping: transport error, success, error, ... per attempt
  kSlow,         ///< burns its whole deadline slice, then refuses empty
  kStale,        ///< healthy but serving generation expected+1 throughout
  kExpired,      ///< admission clock skew: every request arrives expired
  kNumReplicaFaultKinds,
};

inline const char* ReplicaFaultName(ReplicaFaultKind kind) {
  switch (kind) {
    case ReplicaFaultKind::kHealthy:
      return "healthy";
    case ReplicaFaultKind::kDown:
      return "down";
    case ReplicaFaultKind::kFlaky:
      return "flaky";
    case ReplicaFaultKind::kSlow:
      return "slow";
    case ReplicaFaultKind::kStale:
      return "stale";
    case ReplicaFaultKind::kExpired:
      return "expired";
    default:
      return "?";
  }
}

// ---------------------------------------------------------------------------
// Scripted replica backends. All time flows through the shared ManualClock:
// service time is an explicit Advance, a slow replica is an AdvanceTo the
// attempt's deadline — virtual milliseconds, real nanoseconds.

/// Real ShardServer plus a seeded 1–3 ms virtual service time, charged
/// *after* the evaluation so a sliced deadline never refuses a healthy
/// replica spuriously (the slice models the router's patience, and a
/// healthy replica beats it).
class HealthyReplica : public shard::ShardBackend {
 public:
  HealthyReplica(uint32_t shard_id,
                 std::shared_ptr<const XClean> engine,
                 uint64_t generation, ManualClock* clock, uint64_t seed)
      : clock_(clock), rng_(seed) {
    OverloadControllerOptions overload;
    overload.clock = clock;
    server_ = std::make_unique<shard::ShardServer>(shard_id, engine,
                                                   generation, overload);
  }

  shard::ShardResponse Evaluate(const shard::ShardRequest& request) override {
    shard::ShardResponse response = server_->Evaluate(request);
    clock_->Advance(std::chrono::milliseconds(1 + rng_.Uniform(3)));
    return response;
  }

  shard::ShardServer& server() { return *server_; }

 private:
  ManualClock* clock_;
  Rng rng_;
  std::unique_ptr<shard::ShardServer> server_;
};

/// Crashed or unreachable: every attempt costs 1 virtual ms and comes back
/// as a transport error (the only class the routing layer retries).
class DownReplica : public shard::ShardBackend {
 public:
  DownReplica(uint32_t shard_id, ManualClock* clock)
      : shard_id_(shard_id), clock_(clock) {}

  shard::ShardResponse Evaluate(const shard::ShardRequest&) override {
    clock_->Advance(std::chrono::milliseconds(1));
    shard::ShardResponse response;
    response.shard_id = shard_id_;
    response.status = Status::Unavailable("replica transport down");
    return response;
  }

 private:
  const uint32_t shard_id_;
  ManualClock* clock_;
};

/// Flapping transport: attempts alternate error, success, error, ... —
/// the shape that distinguishes retry policy (recovers on the re-send)
/// from a hard-down replica (never recovers).
class FlakyReplica : public shard::ShardBackend {
 public:
  FlakyReplica(uint32_t shard_id,
               std::shared_ptr<const XClean> engine,
               uint64_t generation, ManualClock* clock, uint64_t seed)
      : healthy_(shard_id, engine, generation, clock, seed),
        down_(shard_id, clock) {}

  shard::ShardResponse Evaluate(const shard::ShardRequest& request) override {
    return (attempt_++ % 2 == 0) ? down_.Evaluate(request)
                                 : healthy_.Evaluate(request);
  }

 private:
  HealthyReplica healthy_;
  DownReplica down_;
  uint64_t attempt_ = 0;
};

/// Pathologically slow: burns the *entire* deadline it was given (the
/// router's backup-request slice, or the leg's remainder when it is the
/// last resort), then refuses honestly — truncated, empty, kDeadline, at
/// the expected generation. The refusal is what the breaker's slow-replica
/// signal keys on.
class SlowReplica : public shard::ShardBackend {
 public:
  SlowReplica(uint32_t shard_id, ManualClock* clock)
      : shard_id_(shard_id), clock_(clock) {}

  shard::ShardResponse Evaluate(const shard::ShardRequest& request) override {
    clock_->AdvanceTo(request.deadline);
    shard::ShardResponse response;
    response.status = Status::Ok();
    response.shard_id = shard_id_;
    response.generation = request.expected_generation;
    response.truncated = true;
    response.cancel_cause = CancelCause::kDeadline;
    return response;
  }

 private:
  const uint32_t shard_id_;
  ManualClock* clock_;
};

/// Healthy in every respect except the snapshot it serves: a real server
/// pinned one generation ahead, so every answer classifies kStale and is
/// only ever a last-resort fallback.
class StaleReplica : public shard::ShardBackend {
 public:
  StaleReplica(uint32_t shard_id,
               std::shared_ptr<const XClean> engine,
               uint64_t expected_generation, ManualClock* clock, uint64_t seed)
      : healthy_(shard_id, engine, expected_generation + 1, clock, seed) {}

  shard::ShardResponse Evaluate(const shard::ShardRequest& request) override {
    return healthy_.Evaluate(request);
  }

 private:
  HealthyReplica healthy_;
};

/// Admission-path clock skew: the replica sees every deadline as already
/// expired, so the real server refuses at admission — exercising the
/// ShardServerStats::refused counter and the injected-clock admission
/// check end to end.
class ExpiredReplica : public shard::ShardBackend {
 public:
  ExpiredReplica(uint32_t shard_id,
                 std::shared_ptr<const XClean> engine,
                 uint64_t generation, ManualClock* clock)
      : clock_(clock) {
    OverloadControllerOptions overload;
    overload.clock = clock;
    server_ = std::make_unique<shard::ShardServer>(shard_id, engine,
                                                   generation, overload);
  }

  shard::ShardResponse Evaluate(const shard::ShardRequest& request) override {
    shard::ShardRequest skewed = request;
    skewed.deadline = clock_->Now() - std::chrono::milliseconds(1);
    return server_->Evaluate(skewed);
  }

  shard::ShardServer& server() { return *server_; }

 private:
  ManualClock* clock_;
  std::unique_ptr<shard::ShardServer> server_;
};

// ---------------------------------------------------------------------------
// Schedules

struct ReplicaSchedule {
  uint64_t seed = 0;
  size_t corpus = 0;
  size_t num_shards = 0;    ///< 2..5
  size_t num_replicas = 0;  ///< per shard, 2..3
  Semantics semantics = Semantics::kNodeType;
  size_t query_index = 0;
  /// faults[s][r] is replica r of shard s.
  std::vector<std::vector<ReplicaFaultKind>> faults;

  /// Every shard keeps at least one fully healthy replica — the regime in
  /// which the routing layer owes an *exact* answer, not a degraded one.
  bool EveryShardHasHealthy() const {
    for (const auto& shard_faults : faults) {
      bool healthy = false;
      for (ReplicaFaultKind f : shard_faults) {
        if (f == ReplicaFaultKind::kHealthy) healthy = true;
      }
      if (!healthy) return false;
    }
    return true;
  }
  bool Has(ReplicaFaultKind kind) const {
    for (const auto& shard_faults : faults) {
      for (ReplicaFaultKind f : shard_faults) {
        if (f == kind) return true;
      }
    }
    return false;
  }
};

/// Draws one schedule from `seed`. Healthy bias ~0.55 per replica keeps a
/// healthy majority of schedules in the exact-answer regime while every
/// fault kind still appears hundreds of times across a 240-schedule run.
inline ReplicaSchedule MakeReplicaSchedule(uint64_t seed, size_t num_corpora,
                                           size_t num_queries) {
  Rng rng(seed * 0x2545F4914F6CDD1Dull + 0xD1B54A32D192ED03ull);
  ReplicaSchedule schedule;
  schedule.seed = seed;
  schedule.corpus = rng.Uniform(num_corpora);
  schedule.num_shards = 2 + rng.Uniform(4);
  schedule.num_replicas = 2 + rng.Uniform(2);
  static constexpr Semantics kAll[] = {Semantics::kNodeType, Semantics::kSlca,
                                       Semantics::kElca};
  schedule.semantics = kAll[rng.Uniform(3)];
  schedule.query_index = rng.Uniform(num_queries);
  schedule.faults.resize(schedule.num_shards);
  for (size_t s = 0; s < schedule.num_shards; ++s) {
    for (size_t r = 0; r < schedule.num_replicas; ++r) {
      if (rng.Bernoulli(0.55)) {
        schedule.faults[s].push_back(ReplicaFaultKind::kHealthy);
      } else {
        schedule.faults[s].push_back(static_cast<ReplicaFaultKind>(
            1 + rng.Uniform(
                    static_cast<uint64_t>(
                        ReplicaFaultKind::kNumReplicaFaultKinds) -
                    1)));
      }
    }
  }
  return schedule;
}

inline std::string FormatReplicaSchedule(const ReplicaSchedule& schedule) {
  std::string out = "replica_schedule{seed=" + std::to_string(schedule.seed) +
                    " corpus=" + std::to_string(schedule.corpus) +
                    " shards=" + std::to_string(schedule.num_shards) +
                    " replicas=" + std::to_string(schedule.num_replicas) +
                    " semantics=" + SemanticsName(schedule.semantics) +
                    " query=" + std::to_string(schedule.query_index) +
                    " faults=[";
  for (size_t s = 0; s < schedule.faults.size(); ++s) {
    if (s > 0) out += " ";
    out += std::to_string(s) + ":(";
    for (size_t r = 0; r < schedule.faults[s].size(); ++r) {
      if (r > 0) out += ",";
      out += ReplicaFaultName(schedule.faults[s][r]);
    }
    out += ")";
  }
  out += "]}";
  return out;
}

// ---------------------------------------------------------------------------
// Execution

/// Everything one schedule run produces: the per-shard answers (as the
/// outcome vector Coordinator::Merge consumes) plus the routing-layer
/// counters the budget and accounting invariants are asserted against.
struct ReplicaRun {
  std::vector<shard::ShardOutcome> outcomes;
  std::vector<shard::ReplicaSetStats> set_stats;
  uint32_t max_attempts_per_leg = 0;
};

/// Executes `schedule` against `corpus`: builds fresh replica backends and
/// sequential-mode ReplicaSets over one shared ManualClock, evaluates one
/// leg per shard in shard-id order, and gathers the answers. Fresh state
/// per run — breakers, counters and the virtual clock cannot leak between
/// schedules.
inline ReplicaRun ExecuteReplicaSchedule(const ReplicaSchedule& schedule,
                                         const shard::ShardedCorpus& corpus,
                                         const Query& query,
                                         uint64_t expected_generation) {
  ManualClock clock;
  ReplicaRun run;
  for (uint32_t s = 0; s < schedule.num_shards; ++s) {
    std::vector<std::unique_ptr<shard::ShardBackend>> backends;
    std::vector<shard::ShardBackend*> raw;
    for (size_t r = 0; r < schedule.num_replicas; ++r) {
      const uint64_t seed =
          schedule.seed * 0x9E3779B97F4A7C15ull + s * 64 + r;
      std::unique_ptr<shard::ShardBackend> backend;
      switch (schedule.faults[s][r]) {
        case ReplicaFaultKind::kHealthy:
          backend = std::make_unique<HealthyReplica>(
              s, corpus.engine, expected_generation, &clock, seed);
          break;
        case ReplicaFaultKind::kDown:
          backend = std::make_unique<DownReplica>(s, &clock);
          break;
        case ReplicaFaultKind::kFlaky:
          backend = std::make_unique<FlakyReplica>(
              s, corpus.engine, expected_generation, &clock, seed);
          break;
        case ReplicaFaultKind::kSlow:
          backend = std::make_unique<SlowReplica>(s, &clock);
          break;
        case ReplicaFaultKind::kStale:
          backend = std::make_unique<StaleReplica>(
              s, corpus.engine, expected_generation, &clock, seed);
          break;
        default:
          backend = std::make_unique<ExpiredReplica>(
              s, corpus.engine, expected_generation, &clock);
          break;
      }
      raw.push_back(backend.get());
      backends.push_back(std::move(backend));
    }

    shard::ReplicaSetOptions ropts;
    ropts.clock = &clock;
    ropts.seed = schedule.seed * 0x2545F4914F6CDD1Dull + s;
    shard::ReplicaSet set(s, raw, ropts);
    run.max_attempts_per_leg = set.max_attempts_per_leg();

    shard::ShardRequest request;
    request.query = query;
    request.expected_generation = expected_generation;
    // A finite *virtual* deadline: generous enough that only a scripted
    // last-resort slow replica can exhaust it, finite so AdvanceTo has a
    // destination.
    request.deadline = clock.Now() + std::chrono::seconds(30);

    shard::ShardOutcome outcome;
    outcome.response = set.Evaluate(request);
    outcome.kind = outcome.response.status.ok()
                       ? shard::ShardOutcomeKind::kOk
                       : shard::ShardOutcomeKind::kError;
    run.outcomes.push_back(std::move(outcome));
    run.set_stats.push_back(set.stats());
  }
  return run;
}

}  // namespace xclean::shardtest

#endif  // XCLEAN_TESTS_SHARD_SIM_REPLICA_SIM_H_
