#ifndef XCLEAN_TESTS_SHARD_SIM_SHARD_SIM_H_
#define XCLEAN_TESTS_SHARD_SIM_SHARD_SIM_H_

/// Deterministic multi-shard simulation harness (thundercracker-style):
/// a fault *schedule* — one FaultKind per shard, drawn from a seeded RNG —
/// is executed against real ShardServers sequentially, producing the exact
/// outcome vector the threaded fan-out could have produced, which then
/// drives the pure Coordinator::Merge. No sleeps, no threads, no clocks in
/// the schedule path: the same seed replays the same schedule, evaluation
/// order and merge, bit for bit. A failing schedule prints itself plus the
/// XCLEAN_SHARD_SEED incantation to replay it.

#include <memory>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/random.h"
#include "core/query.h"
#include "core/xclean.h"
#include "shard/coordinator.h"
#include "shard/shard_server.h"
#include "shard/sharded_corpus.h"
#include "tests/shard_testutil.h"

namespace xclean::shardtest {

/// Per-shard behaviours the scheduler draws from. Each models one failure
/// the coordinator's degradation policy must absorb.
enum class FaultKind : uint8_t {
  kHealthy = 0,    ///< answers in full, on time, at the expected generation
  kSlow,           ///< never answers within the fan-out deadline (kTimeout)
  kCrash,          ///< evaluation dies (injected status / transport error)
  kShed,           ///< overload ladder pinned at kShed: Unavailable
  kReduced,        ///< ladder pinned at kReduced: partial answer, truncated
  kStaleReplica,   ///< serves an older/newer snapshot generation throughout
  kMidQuerySwap,   ///< snapshot swap lands *during* the evaluation
  kTightDeadline,  ///< deadline already expired: cooperative cancellation
  kNumFaultKinds,
};

inline const char* FaultName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kHealthy:
      return "healthy";
    case FaultKind::kSlow:
      return "slow";
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kShed:
      return "shed";
    case FaultKind::kReduced:
      return "reduced";
    case FaultKind::kStaleReplica:
      return "stale";
    case FaultKind::kMidQuerySwap:
      return "swap";
    case FaultKind::kTightDeadline:
      return "deadline";
    default:
      return "?";
  }
}

struct SimSchedule {
  uint64_t seed = 0;
  size_t corpus = 0;       ///< index into the harness's cached corpora
  size_t num_shards = 0;   ///< 2..7
  Semantics semantics = Semantics::kNodeType;
  size_t query_index = 0;  ///< index into the corpus's dirty-query set
  std::vector<FaultKind> faults;  ///< faults[s] is shard s's behaviour

  bool AllHealthy() const {
    for (FaultKind f : faults) {
      if (f != FaultKind::kHealthy) return false;
    }
    return true;
  }
  bool Has(FaultKind kind) const {
    for (FaultKind f : faults) {
      if (f == kind) return true;
    }
    return false;
  }
};

/// Draws one schedule from `seed`. Roughly half the shards stay healthy so
/// most schedules exercise the partial-merge path without starving the
/// all-healthy oracle check.
inline SimSchedule MakeSchedule(uint64_t seed, size_t num_corpora,
                                size_t num_queries) {
  Rng rng(seed * 0x2545F4914F6CDD1Dull + 0x9E3779B97F4A7C15ull);
  SimSchedule schedule;
  schedule.seed = seed;
  schedule.corpus = rng.Uniform(num_corpora);
  schedule.num_shards = 2 + rng.Uniform(6);
  static constexpr Semantics kAll[] = {Semantics::kNodeType, Semantics::kSlca,
                                       Semantics::kElca};
  schedule.semantics = kAll[rng.Uniform(3)];
  schedule.query_index = rng.Uniform(num_queries);
  for (size_t s = 0; s < schedule.num_shards; ++s) {
    if (rng.Bernoulli(0.55)) {
      schedule.faults.push_back(FaultKind::kHealthy);
    } else {
      schedule.faults.push_back(static_cast<FaultKind>(
          1 + rng.Uniform(static_cast<uint64_t>(FaultKind::kNumFaultKinds) -
                          1)));
    }
  }
  return schedule;
}

inline std::string FormatSchedule(const SimSchedule& schedule) {
  std::string out = "schedule{seed=" + std::to_string(schedule.seed) +
                    " corpus=" + std::to_string(schedule.corpus) +
                    " shards=" + std::to_string(schedule.num_shards) +
                    " semantics=" + SemanticsName(schedule.semantics) +
                    " query=" + std::to_string(schedule.query_index) +
                    " faults=[";
  for (size_t s = 0; s < schedule.faults.size(); ++s) {
    if (s > 0) out += ",";
    out += FaultName(schedule.faults[s]);
  }
  out += "]}";
  return out;
}

/// Executes `schedule` against `corpus`, returning the outcome vector a
/// fan-out would gather. Shards are evaluated one at a time in shard-id
/// order — every interleaving the real fan-out could produce is equivalent
/// to *some* outcome vector, and sequential execution pins one
/// deterministically. Fresh ShardServers are built per run so pinned tiers
/// and published generations cannot leak between schedules.
///
/// Fault realisation:
///   kSlow          outcome synthesized as kTimeout (the coordinator's view
///                  of a leg that missed the deadline; the real clock-based
///                  path is covered by the threaded slow-shard test)
///   kCrash         Status armed on the shard's injection point when the
///                  build has fault injection; synthesized kError otherwise
///   kShed/kReduced OverloadControllerOptions::forced_tier
///   kStaleReplica  server constructed at generation expected+1
///   kMidQuerySwap  callback armed on the core anchor loop publishes
///                  expected+1 mid-evaluation (falls back to kStaleReplica
///                  when injection is compiled out)
///   kTightDeadline request deadline already in the past
inline std::vector<shard::ShardOutcome> ExecuteSchedule(
    const SimSchedule& schedule, const shard::ShardedCorpus& corpus,
    const Query& query, uint64_t expected_generation) {
  std::vector<shard::ShardOutcome> outcomes;
  for (uint32_t s = 0; s < schedule.num_shards; ++s) {
    FaultKind fault = schedule.faults[s];
    if (fault == FaultKind::kSlow) {
      outcomes.push_back({shard::ShardOutcomeKind::kTimeout, {}});
      continue;
    }
    if (fault == FaultKind::kCrash && !fault::Enabled()) {
      shard::ShardOutcome outcome;
      outcome.kind = shard::ShardOutcomeKind::kError;
      outcome.response.status = Status::Unavailable("synthesized crash");
      outcomes.push_back(std::move(outcome));
      continue;
    }
    if (fault == FaultKind::kMidQuerySwap && !fault::Enabled()) {
      fault = FaultKind::kStaleReplica;
    }

    OverloadControllerOptions overload;
    if (fault == FaultKind::kShed) {
      overload.forced_tier = static_cast<int>(ServiceTier::kShed);
    } else if (fault == FaultKind::kReduced) {
      overload.forced_tier = static_cast<int>(ServiceTier::kReduced);
    }
    const uint64_t generation = fault == FaultKind::kStaleReplica
                                    ? expected_generation + 1
                                    : expected_generation;
    shard::ShardServer server(s, corpus.engine, generation, overload);

    shard::ShardRequest request;
    request.query = query;
    if (fault == FaultKind::kTightDeadline) {
      request.deadline = std::chrono::steady_clock::now() -
                         std::chrono::milliseconds(1);
    }

    const std::string point = "shard.evaluate." + std::to_string(s);
    if (fault == FaultKind::kCrash) {
      fault::ArmStatus(point, Status::Unavailable("injected shard crash"),
                       /*times=*/1);
    } else if (fault == FaultKind::kMidQuerySwap) {
      fault::ArmCallback(
          "xclean.anchor",
          [&server, expected_generation] {
            server.PublishGeneration(expected_generation + 1);
          },
          /*times=*/1);
    }

    shard::ShardOutcome outcome;
    outcome.kind = shard::ShardOutcomeKind::kOk;
    outcome.response = server.Evaluate(request);
    if (fault == FaultKind::kCrash) {
      fault::Disarm(point);
      // An injected transport error surfaces to the coordinator as a
      // failed leg, not a polite in-band refusal.
      outcome.kind = shard::ShardOutcomeKind::kError;
    } else if (fault == FaultKind::kMidQuerySwap) {
      fault::Disarm("xclean.anchor");
    }
    outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

}  // namespace xclean::shardtest

#endif  // XCLEAN_TESTS_SHARD_SIM_SHARD_SIM_H_
