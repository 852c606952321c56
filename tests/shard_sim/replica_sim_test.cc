/// The replication-layer proof harness: seeded replica-fault schedules
/// (crashed, flapping, slow, stale and clock-skewed replicas in every
/// combination the scheduler draws) executed deterministically against
/// sequential-mode ReplicaSets under one virtual clock, with the routed
/// answers checked against the replication invariants:
///
///   (a) any-one-replica-down — whatever single fault kind strikes one
///       replica of every shard, the merged ranking equals the unsharded
///       oracle exactly: failover is invisible in the answer;
///   (b) budgets — backend sends per leg never exceed
///       1 + max_retries + max_failovers, on every schedule;
///   (c) exactness — when every shard keeps one healthy replica, the
///       merged ranking equals the oracle and is not truncated;
///   (d) accounting — attempts, retries and failovers reconcile, and
///       sequential mode never hedges;
///   (e) purity — Coordinator::Merge over the gathered outcomes is
///       replayable bit for bit;
///   (f) breakers — an always-down replica trips its breaker after a
///       deterministic number of failures, traffic shifts to the sibling,
///       and the cooled-down breaker probes half-open on schedule.
///
/// Every assertion is wrapped in the failing schedule's description plus
/// the XCLEAN_SHARD_SEED needed to replay it. The threaded hedging path
/// (real clock, real sleeps, CancelToken losers) is covered by the
/// stress-labelled tests at the bottom, built for the TSan CI job.

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/thread_pool.h"
#include "core/xclean.h"
#include "index/xml_index.h"
#include "shard/coordinator.h"
#include "shard/replica_set.h"
#include "shard/shard_server.h"
#include "shard/sharded_corpus.h"
#include "tests/shard_sim/replica_sim.h"
#include "tests/shard_testutil.h"

namespace xclean::shardtest {
namespace {

using shard::BreakerState;
using shard::BuildShardedCorpus;
using shard::Coordinator;
using shard::CoordinatorOptions;
using shard::CoordinatorResult;
using shard::ReplicaSet;
using shard::ReplicaSetOptions;
using shard::ReplicaSetStats;
using shard::ShardedCorpus;
using shard::ShardedCorpusOptions;
using shard::ShardOutcome;
using shard::ShardOutcomeKind;
using shard::ShardServer;

constexpr uint64_t kGeneration = 23;
constexpr size_t kNumCorpora = 2;
constexpr size_t kNumSchedules = 240;  // CI bar: >= 240 seeded schedules
constexpr size_t kNumQueries = 24;

XCleanOptions SimOptions(Semantics semantics) {
  XCleanOptions options;
  options.gamma = 0;  // the exactness contract is the unbounded config's
  options.semantics = semantics;
  options.top_k = 50;
  return options;
}

CoordinatorOptions SimCoordinatorOptions() {
  CoordinatorOptions copts;
  copts.top_k = 50;
  return copts;
}

/// Everything derivable from one corpus seed, built once and shared by all
/// schedules: unsharded oracles, the dirty-query set, and the sharded
/// builds for every (shard count, semantics) a schedule can draw.
struct CorpusFixture {
  std::unique_ptr<XmlIndex> oracle_index;
  std::map<Semantics, std::unique_ptr<XClean>> oracles;
  std::vector<Query> queries;
  std::map<std::pair<size_t, Semantics>, ShardedCorpus> sharded;
};

class ReplicaSimTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fixtures_ = new std::vector<CorpusFixture>(kNumCorpora);
    const uint64_t base = ShardBaseSeed();
    static constexpr Semantics kAll[] = {
        Semantics::kNodeType, Semantics::kSlca, Semantics::kElca};
    for (size_t c = 0; c < kNumCorpora; ++c) {
      CorpusFixture& fx = (*fixtures_)[c];
      const uint64_t seed = base + 7000 + c;
      fx.oracle_index = XmlIndex::Build(RandomCorpusTree(seed));
      fx.queries = DirtyQueries(*fx.oracle_index, seed);
      for (Semantics semantics : kAll) {
        fx.oracles[semantics] =
            std::make_unique<XClean>(*fx.oracle_index, SimOptions(semantics));
        for (size_t num_shards = 2; num_shards <= 5; ++num_shards) {
          ShardedCorpusOptions sopts;
          sopts.num_shards = num_shards;
          sopts.xclean = SimOptions(semantics);
          Result<ShardedCorpus> corpus = BuildShardedCorpus(
              RandomCorpusTree(seed), sopts, kGeneration);
          ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
          fx.sharded.emplace(std::make_pair(num_shards, semantics),
                             std::move(corpus.value()));
        }
      }
    }
  }

  static void TearDownTestSuite() {
    delete fixtures_;
    fixtures_ = nullptr;
  }

  static std::vector<CorpusFixture>* fixtures_;
};

std::vector<CorpusFixture>* ReplicaSimTest::fixtures_ = nullptr;

/// (a) Any one replica down, systematically: for every fault kind and
/// every replica position, strike that position on *every* shard at once
/// (the worst correlated single-replica failure) and require the merged
/// ranking to equal the unsharded oracle — under all three semantics.
TEST_F(ReplicaSimTest, AnyOneReplicaDownMatchesOracleExactly) {
  static constexpr Semantics kAll[] = {
      Semantics::kNodeType, Semantics::kSlca, Semantics::kElca};
  CorpusFixture& fx = (*fixtures_)[0];
  const Query& query = fx.queries[1];  // dirty variant of a sampled query

  for (Semantics semantics : kAll) {
    const ShardedCorpus& corpus = fx.sharded.at({3u, semantics});
    const std::vector<Suggestion> oracle =
        fx.oracles.at(semantics)->Suggest(query);
    for (uint8_t k = 1;
         k < static_cast<uint8_t>(ReplicaFaultKind::kNumReplicaFaultKinds);
         ++k) {
      const ReplicaFaultKind kind = static_cast<ReplicaFaultKind>(k);
      for (size_t r = 0; r < 3; ++r) {
        ReplicaSchedule schedule;
        schedule.seed = ShardBaseSeed() + 100 * k + r;
        schedule.num_shards = 3;
        schedule.num_replicas = 3;
        schedule.semantics = semantics;
        schedule.faults.assign(
            3, std::vector<ReplicaFaultKind>(3, ReplicaFaultKind::kHealthy));
        for (size_t s = 0; s < 3; ++s) schedule.faults[s][r] = kind;
        SCOPED_TRACE(FormatReplicaSchedule(schedule));

        const ReplicaRun run =
            ExecuteReplicaSchedule(schedule, corpus, query, kGeneration);
        const CoordinatorResult result = Coordinator::Merge(
            *corpus.stats, SimOptions(semantics), SimCoordinatorOptions(),
            kGeneration, run.outcomes);
        ASSERT_TRUE(result.status.ok()) << result.status.ToString();
        EXPECT_FALSE(result.truncated);
        EXPECT_EQ(result.shards_ok, 3u);
        ExpectSameSuggestions(result.suggestions, oracle, 1e-9,
                              "one-replica-down vs oracle");
        for (const ReplicaSetStats& stats : run.set_stats) {
          EXPECT_LE(stats.attempts, run.max_attempts_per_leg);
        }
      }
    }
  }
}

/// (b)–(e) over the seeded schedule sweep.
TEST_F(ReplicaSimTest, SeededReplicaSchedulesUpholdInvariants) {
  const uint64_t base = ShardBaseSeed();
  const CoordinatorOptions copts = SimCoordinatorOptions();
  size_t exact = 0, degraded = 0, unavailable = 0;

  for (uint64_t round = 0; round < kNumSchedules; ++round) {
    const ReplicaSchedule schedule =
        MakeReplicaSchedule(base + round, kNumCorpora, kNumQueries);
    CorpusFixture& fx = (*fixtures_)[schedule.corpus];
    ASSERT_LT(schedule.query_index, fx.queries.size());
    const Query& query = fx.queries[schedule.query_index];
    const ShardedCorpus& corpus =
        fx.sharded.at({schedule.num_shards, schedule.semantics});
    SCOPED_TRACE(FormatReplicaSchedule(schedule) +
                 " — replay with XCLEAN_SHARD_SEED=" + std::to_string(base));

    const ReplicaRun run =
        ExecuteReplicaSchedule(schedule, corpus, query, kGeneration);
    ASSERT_EQ(run.outcomes.size(), schedule.num_shards);

    // (b) the hard per-leg bound, and (d) the accounting identities. One
    // leg per set, sequential mode: every attempt is the first, a retry,
    // or a failover, and hedging never happens without a pool.
    for (const ReplicaSetStats& stats : run.set_stats) {
      EXPECT_EQ(stats.legs, 1u);
      EXPECT_LE(stats.attempts, run.max_attempts_per_leg);
      EXPECT_LE(stats.attempts, stats.legs + stats.retries + stats.failovers);
      EXPECT_EQ(stats.hedges, 0u);
      EXPECT_EQ(stats.hedge_wins, 0u);
      EXPECT_EQ(stats.losers_cancelled, 0u);
      uint64_t replica_attempts = 0;
      for (const auto& replica : stats.replicas) {
        replica_attempts += replica.attempts;
      }
      EXPECT_EQ(replica_attempts, stats.attempts);
    }

    const CoordinatorResult result = Coordinator::Merge(
        *corpus.stats, SimOptions(schedule.semantics), copts, kGeneration,
        run.outcomes);

    // (e) Merge is pure: replaying the same outcome vector reproduces the
    // answer bit for bit.
    const CoordinatorResult replay = Coordinator::Merge(
        *corpus.stats, SimOptions(schedule.semantics), copts, kGeneration,
        run.outcomes);
    ASSERT_EQ(replay.suggestions.size(), result.suggestions.size());
    for (size_t i = 0; i < result.suggestions.size(); ++i) {
      EXPECT_EQ(replay.suggestions[i].words, result.suggestions[i].words);
      EXPECT_EQ(replay.suggestions[i].score, result.suggestions[i].score);
      EXPECT_EQ(replay.suggestions[i].entity_count,
                result.suggestions[i].entity_count);
    }

    if (!result.status.ok()) {
      ++unavailable;
      continue;
    }

    if (schedule.EveryShardHasHealthy()) {
      // (c) a healthy replica per shard is enough for an exact answer:
      // whatever the siblings did, routing found the healthy one within
      // budget and the merge saw only full, fresh legs.
      EXPECT_FALSE(result.truncated);
      EXPECT_EQ(result.shards_ok, schedule.num_shards);
      ExpectSameSuggestions(result.suggestions,
                            fx.oracles.at(schedule.semantics)->Suggest(query),
                            1e-9, "healthy-replica-per-shard vs oracle");
      ++exact;
    } else {
      ++degraded;
    }
  }

  // The scheduler must exercise all three regimes; a drift in its
  // distribution would quietly hollow the suite out.
  EXPECT_GE(exact, 60u);
  EXPECT_GE(degraded, 30u);
  EXPECT_GE(exact + degraded + unavailable, kNumSchedules);
}

/// Every replica fault kind must occur in the pinned schedule set.
TEST_F(ReplicaSimTest, ScheduleGeneratorCoversAllReplicaFaultKinds) {
  const uint64_t base = ShardBaseSeed();
  std::map<ReplicaFaultKind, size_t> seen;
  for (uint64_t round = 0; round < kNumSchedules; ++round) {
    const ReplicaSchedule schedule =
        MakeReplicaSchedule(base + round, kNumCorpora, kNumQueries);
    for (const auto& shard_faults : schedule.faults) {
      for (ReplicaFaultKind f : shard_faults) ++seen[f];
    }
  }
  for (uint8_t k = 0;
       k < static_cast<uint8_t>(ReplicaFaultKind::kNumReplicaFaultKinds);
       ++k) {
    EXPECT_GT(seen[static_cast<ReplicaFaultKind>(k)], 0u)
        << ReplicaFaultName(static_cast<ReplicaFaultKind>(k));
  }
}

/// (f) Breaker determinism under the injected clock: an always-down
/// replica accumulates exactly min_samples failures before its error EWMA
/// crosses the trip threshold, the breaker opens, traffic shifts wholly to
/// the sibling, and after the cooldown the next leg spends its one
/// half-open probe on the dead replica and re-opens. Every transition at
/// an exact, replayable leg index.
TEST_F(ReplicaSimTest, AlwaysDownReplicaTripsBreakerDeterministically) {
  CorpusFixture& fx = (*fixtures_)[0];
  const ShardedCorpus& corpus = fx.sharded.at({2u, Semantics::kNodeType});
  const Query& query = fx.queries[1];

  ManualClock clock;
  DownReplica down(0, &clock);
  HealthyReplica healthy(0, corpus.engine, kGeneration, &clock,
                         ShardBaseSeed());
  ReplicaSetOptions ropts;
  ropts.clock = &clock;
  ReplicaSet set(0, {&down, &healthy}, ropts);

  auto evaluate = [&] {
    shard::ShardRequest request;
    request.query = query;
    request.expected_generation = kGeneration;
    request.deadline = clock.Now() + std::chrono::seconds(30);
    return set.Evaluate(request);
  };

  // Legs 1..4: selection prefers the lower index, so each leg burns one
  // attempt on the dead replica, retries, and succeeds on the sibling.
  // With error_alpha = 0.2 the EWMA after n straight failures is
  // 1 - 0.8^n, crossing trip_error_rate = 0.5 exactly at n = 4 — the same
  // step min_samples unlocks tripping.
  for (int leg = 1; leg <= 4; ++leg) {
    const shard::ShardResponse response = evaluate();
    ASSERT_TRUE(response.status.ok()) << "leg " << leg;
    EXPECT_FALSE(response.truncated) << "leg " << leg;
    EXPECT_EQ(set.breaker_state(0),
              leg < 4 ? BreakerState::kClosed : BreakerState::kOpen)
        << "leg " << leg;
    EXPECT_EQ(set.breaker_state(1), BreakerState::kClosed) << "leg " << leg;
  }
  ReplicaSetStats stats = set.stats();
  EXPECT_EQ(stats.legs, 4u);
  EXPECT_EQ(stats.attempts, 8u);  // each leg: dead primary + healthy retry
  EXPECT_EQ(stats.retries, 4u);
  EXPECT_EQ(stats.replicas[0].transport_errors, 4u);
  EXPECT_EQ(stats.replicas[0].breaker_opens, 1u);

  // Open breaker: the dead replica is not even attempted.
  const shard::ShardResponse shielded = evaluate();
  ASSERT_TRUE(shielded.status.ok());
  stats = set.stats();
  EXPECT_EQ(stats.attempts, 9u);  // exactly one send, straight to healthy
  EXPECT_EQ(stats.replicas[0].attempts, 4u);

  // Cooldown elapses: the next leg spends the half-open probe on the dead
  // replica, fails, and the breaker re-opens — then the retry succeeds on
  // the sibling. Deterministic, no sleeps.
  clock.Advance(ropts.breaker.open_cooldown +
                std::chrono::milliseconds(1));
  const shard::ShardResponse probed = evaluate();
  ASSERT_TRUE(probed.status.ok());
  stats = set.stats();
  EXPECT_EQ(set.breaker_state(0), BreakerState::kOpen);
  EXPECT_EQ(stats.replicas[0].attempts, 5u);  // the probe
  EXPECT_EQ(stats.replicas[0].breaker_opens, 2u);
}

/// A request that is already dead on arrival still makes exactly one
/// attempt, so the primary refuses politely and the new refused counter
/// accounts for it — parity with the direct-ShardServer path.
TEST_F(ReplicaSimTest, DeadOnArrivalMakesExactlyOneAttempt) {
  CorpusFixture& fx = (*fixtures_)[0];
  const ShardedCorpus& corpus = fx.sharded.at({2u, Semantics::kNodeType});

  ManualClock clock;
  HealthyReplica primary(0, corpus.engine, kGeneration, &clock,
                         ShardBaseSeed());
  HealthyReplica sibling(0, corpus.engine, kGeneration, &clock,
                         ShardBaseSeed() + 1);
  ReplicaSetOptions ropts;
  ropts.clock = &clock;
  ReplicaSet set(0, {&primary, &sibling}, ropts);

  shard::ShardRequest request;
  request.query = fx.queries[1];
  request.expected_generation = kGeneration;
  request.deadline = clock.Now() - std::chrono::milliseconds(5);

  const shard::ShardResponse response = set.Evaluate(request);
  ASSERT_TRUE(response.status.ok());
  EXPECT_TRUE(response.truncated);
  EXPECT_TRUE(response.partials.empty());
  EXPECT_EQ(response.cancel_cause, CancelCause::kDeadline);

  const ReplicaSetStats stats = set.stats();
  EXPECT_EQ(stats.attempts, 1u);
  EXPECT_EQ(primary.server().stats().refused, 1u);
  EXPECT_EQ(sibling.server().stats().refused, 0u);
}

/// The clock-skewed replica refuses at admission through the injected
/// clock, the refusal is counted in ShardServerStats::refused, and the
/// router fails over to the sibling for a full answer.
TEST_F(ReplicaSimTest, ExpiredReplicaCountsRefusalsAndFailsOver) {
  CorpusFixture& fx = (*fixtures_)[0];
  const ShardedCorpus& corpus = fx.sharded.at({2u, Semantics::kNodeType});

  ManualClock clock;
  ExpiredReplica skewed(0, corpus.engine, kGeneration, &clock);
  HealthyReplica healthy(0, corpus.engine, kGeneration, &clock,
                         ShardBaseSeed());
  ReplicaSetOptions ropts;
  ropts.clock = &clock;
  ReplicaSet set(0, {&skewed, &healthy}, ropts);

  shard::ShardRequest request;
  request.query = fx.queries[1];
  request.expected_generation = kGeneration;
  request.deadline = clock.Now() + std::chrono::seconds(30);

  const shard::ShardResponse response = set.Evaluate(request);
  ASSERT_TRUE(response.status.ok());
  EXPECT_FALSE(response.truncated);
  EXPECT_EQ(response.generation, kGeneration);

  const ReplicaSetStats stats = set.stats();
  EXPECT_EQ(stats.attempts, 2u);
  EXPECT_EQ(stats.failovers, 1u);
  EXPECT_EQ(stats.replicas[0].refusals, 1u);
  EXPECT_EQ(skewed.server().stats().refused, 1u);
  EXPECT_EQ(skewed.server().stats().requests, 1u);
}

/// A replica whose behaviour the test flips between legs: down (transport
/// errors), shedding (alive but refusing under load), or healthy — the
/// trajectory a real replica follows through an outage and its recovery.
class ModalReplica : public shard::ShardBackend {
 public:
  enum class Mode { kDown, kShed, kHealthy };

  ModalReplica(uint32_t shard_id,
               std::shared_ptr<const XClean> engine,
               uint64_t generation, ManualClock* clock, uint64_t seed)
      : shard_id_(shard_id),
        clock_(clock),
        down_(shard_id, clock),
        healthy_(shard_id, engine, generation, clock, seed) {}

  Mode mode = Mode::kDown;

  shard::ShardResponse Evaluate(const shard::ShardRequest& request) override {
    switch (mode) {
      case Mode::kDown:
        return down_.Evaluate(request);
      case Mode::kShed: {
        clock_->Advance(std::chrono::milliseconds(1));
        shard::ShardResponse response;
        response.shard_id = shard_id_;
        response.status = Status::Unavailable("ladder shed");
        response.tier = ServiceTier::kShed;
        return response;
      }
      default:
        return healthy_.Evaluate(request);
    }
  }

 private:
  const uint32_t shard_id_;
  ManualClock* clock_;
  DownReplica down_;
  HealthyReplica healthy_;
};

/// A shed answered by a half-open probe resolves the breaker neither way
/// (load, not fault) — the probe must be handed back, not stranded: the
/// breaker stays half-open, and once the replica recovers a later leg
/// probes again and closes it. A leaked probe would exclude the replica
/// from rotation forever.
TEST_F(ReplicaSimTest, ShedDuringHalfOpenProbeReleasesTheProbe) {
  CorpusFixture& fx = (*fixtures_)[0];
  const ShardedCorpus& corpus = fx.sharded.at({2u, Semantics::kNodeType});
  const Query& query = fx.queries[1];

  ManualClock clock;
  ModalReplica modal(0, corpus.engine, kGeneration, &clock, ShardBaseSeed());
  HealthyReplica healthy(0, corpus.engine, kGeneration, &clock,
                         ShardBaseSeed() + 1);
  ReplicaSetOptions ropts;
  ropts.clock = &clock;
  ReplicaSet set(0, {&modal, &healthy}, ropts);

  auto evaluate = [&] {
    shard::ShardRequest request;
    request.query = query;
    request.expected_generation = kGeneration;
    request.deadline = clock.Now() + std::chrono::seconds(30);
    return set.Evaluate(request);
  };

  // Four legs against the down replica trip its breaker (same trajectory
  // as AlwaysDownReplicaTripsBreakerDeterministically).
  for (int leg = 1; leg <= 4; ++leg) {
    ASSERT_TRUE(evaluate().status.ok()) << "leg " << leg;
  }
  ASSERT_EQ(set.breaker_state(0), BreakerState::kOpen);

  // Cooldown elapses; the probe lands on the replica, which now sheds.
  // The leg fails over to the sibling, and the breaker must be left
  // half-open with the probe re-armed.
  modal.mode = ModalReplica::Mode::kShed;
  clock.Advance(ropts.breaker.open_cooldown + std::chrono::milliseconds(1));
  const shard::ShardResponse shed_leg = evaluate();
  ASSERT_TRUE(shed_leg.status.ok());
  EXPECT_EQ(set.breaker_state(0), BreakerState::kHalfOpen);

  // Recovered: the next leg spends a fresh probe on the replica and the
  // success closes the breaker — the replica is back in rotation.
  modal.mode = ModalReplica::Mode::kHealthy;
  const shard::ShardResponse recovered = evaluate();
  ASSERT_TRUE(recovered.status.ok());
  EXPECT_FALSE(recovered.truncated);
  EXPECT_EQ(set.breaker_state(0), BreakerState::kClosed);

  const ReplicaSetStats stats = set.stats();
  EXPECT_EQ(stats.replicas[0].sheds, 1u);
  EXPECT_EQ(stats.replicas[0].breaker_opens, 1u);
}

/// The 64-replica boundary the selection bitmask imposes is enforced at
/// construction, not on the serving path — a maximal configuration builds
/// and serves normally.
TEST_F(ReplicaSimTest, SixtyFourReplicaConfigurationServes) {
  CorpusFixture& fx = (*fixtures_)[0];
  const ShardedCorpus& corpus = fx.sharded.at({2u, Semantics::kNodeType});

  ManualClock clock;
  HealthyReplica healthy(0, corpus.engine, kGeneration, &clock,
                         ShardBaseSeed());
  std::vector<std::unique_ptr<DownReplica>> downs;
  std::vector<shard::ShardBackend*> raw{&healthy};
  while (raw.size() < 64) {
    downs.push_back(std::make_unique<DownReplica>(0, &clock));
    raw.push_back(downs.back().get());
  }
  ReplicaSet set(0, raw, [&] {
    ReplicaSetOptions ropts;
    ropts.clock = &clock;
    return ropts;
  }());
  EXPECT_EQ(set.num_replicas(), 64u);

  shard::ShardRequest request;
  request.query = fx.queries[1];
  request.expected_generation = kGeneration;
  request.deadline = clock.Now() + std::chrono::seconds(30);
  const shard::ShardResponse response = set.Evaluate(request);
  ASSERT_TRUE(response.status.ok());
  EXPECT_FALSE(response.truncated);
  EXPECT_EQ(set.stats().attempts, 1u);  // straight to the healthy primary
}

// ---------------------------------------------------------------------------
// Threaded hedging (real clock, real sleeps) — the TSan targets.

/// Wraps a real ShardServer behind a fixed real-time delay, cooperatively
/// watching the hedged-loser kill switch during the sleep.
class DelayBackend : public shard::ShardBackend {
 public:
  DelayBackend(uint32_t shard_id,
               std::shared_ptr<const XClean> engine,
               uint64_t generation, std::chrono::milliseconds delay)
      : delay_(delay), server_(shard_id, engine, generation) {}

  shard::ShardResponse Evaluate(const shard::ShardRequest& request) override {
    const auto step = std::chrono::milliseconds(1);
    for (auto waited = std::chrono::milliseconds(0); waited < delay_;
         waited += step) {
      if (request.external_cancel != nullptr &&
          request.external_cancel->load(std::memory_order_acquire)) {
        shard::ShardResponse response;
        response.status = Status::Ok();
        response.shard_id = server_.shard_id();
        response.generation = request.expected_generation;
        response.truncated = true;
        response.cancel_cause = CancelCause::kExternal;
        return response;
      }
      std::this_thread::sleep_for(step);
    }
    return server_.Evaluate(request);
  }

 private:
  const std::chrono::milliseconds delay_;
  ShardServer server_;
};

/// A slow primary and a fast sibling under a real hedge pool: the hedge
/// fires after the delay floor, the fast sibling wins, and the slow loser
/// is cancelled through its external-cancel hook. Run under TSan via the
/// stress label.
TEST_F(ReplicaSimTest, HedgedFanoutWinsOnSiblingAndCancelsLoser) {
  CorpusFixture& fx = (*fixtures_)[0];
  const ShardedCorpus& corpus = fx.sharded.at({2u, Semantics::kNodeType});

  DelayBackend slow(0, corpus.engine, kGeneration,
                    std::chrono::milliseconds(400));
  ShardServer fast(0, corpus.engine, kGeneration);

  ThreadPoolOptions popts;
  popts.num_threads = 4;
  ThreadPool pool(popts);
  ReplicaSetOptions ropts;
  ropts.hedge_pool = &pool;
  ropts.hedge_delay_floor = std::chrono::milliseconds(5);
  ropts.hedge_delay_cap = std::chrono::milliseconds(10);
  ropts.hedge_rate_cap = 1.0;  // this test wants every leg hedged
  ReplicaSet set(0, {&slow, &fast}, ropts);

  for (int leg = 0; leg < 3; ++leg) {
    shard::ShardRequest request;
    request.query = fx.queries[1];
    request.expected_generation = kGeneration;
    request.deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    const shard::ShardResponse response = set.Evaluate(request);
    ASSERT_TRUE(response.status.ok()) << "leg " << leg;
    EXPECT_FALSE(response.truncated) << "leg " << leg;
    EXPECT_EQ(response.generation, kGeneration) << "leg " << leg;
  }

  const ReplicaSetStats stats = set.stats();
  EXPECT_EQ(stats.legs, 3u);
  EXPECT_GE(stats.hedges, 1u);
  EXPECT_GE(stats.hedge_wins, 1u);
  EXPECT_GE(stats.losers_cancelled, 1u);
  EXPECT_LE(stats.attempts, 3u * set.max_attempts_per_leg());
}

/// Losing a hedge race is not a failure: the cancelled loser comes back as
/// an externally-cancelled refusal, and that must never feed the breaker —
/// otherwise sustained hedging trips a healthy-but-slower replica out of
/// rotation (min_samples straight "failures" would open it by leg 4).
TEST_F(ReplicaSimTest, CancelledHedgeLosersDoNotTripTheBreaker) {
  CorpusFixture& fx = (*fixtures_)[0];
  const ShardedCorpus& corpus = fx.sharded.at({2u, Semantics::kNodeType});

  DelayBackend slow(0, corpus.engine, kGeneration,
                    std::chrono::milliseconds(400));
  ShardServer fast(0, corpus.engine, kGeneration);

  ThreadPoolOptions popts;
  popts.num_threads = 4;
  ThreadPool pool(popts);
  ReplicaSetOptions ropts;
  ropts.hedge_pool = &pool;
  ropts.hedge_delay_floor = std::chrono::milliseconds(5);
  ropts.hedge_delay_cap = std::chrono::milliseconds(10);
  ropts.hedge_rate_cap = 1.0;
  ReplicaSet set(0, {&slow, &fast}, ropts);

  for (int leg = 0; leg < 6; ++leg) {
    shard::ShardRequest request;
    request.query = fx.queries[1];
    request.expected_generation = kGeneration;
    request.deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    const shard::ShardResponse response = set.Evaluate(request);
    ASSERT_TRUE(response.status.ok()) << "leg " << leg;
    EXPECT_FALSE(response.truncated) << "leg " << leg;
  }

  const ReplicaSetStats stats = set.stats();
  EXPECT_GE(stats.hedge_wins, 4u);  // the slow primary lost nearly every race
  EXPECT_EQ(stats.replicas[0].breaker_opens, 0u);
  EXPECT_EQ(set.breaker_state(0), BreakerState::kClosed);
}

/// hedge_rate_cap = 0 disables hedging outright: the wanted hedge is
/// counted as suppressed and the slow primary is simply waited out.
TEST_F(ReplicaSimTest, HedgeRateCapZeroSuppressesAllHedges) {
  CorpusFixture& fx = (*fixtures_)[0];
  const ShardedCorpus& corpus = fx.sharded.at({2u, Semantics::kNodeType});

  DelayBackend slow(0, corpus.engine, kGeneration,
                    std::chrono::milliseconds(40));
  ShardServer fast(0, corpus.engine, kGeneration);

  ThreadPoolOptions popts;
  popts.num_threads = 2;
  ThreadPool pool(popts);
  ReplicaSetOptions ropts;
  ropts.hedge_pool = &pool;
  ropts.hedge_delay_floor = std::chrono::milliseconds(5);
  ropts.hedge_rate_cap = 0.0;
  ReplicaSet set(0, {&slow, &fast}, ropts);

  shard::ShardRequest request;
  request.query = fx.queries[1];
  request.expected_generation = kGeneration;
  request.deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  const shard::ShardResponse response = set.Evaluate(request);
  ASSERT_TRUE(response.status.ok());
  EXPECT_FALSE(response.truncated);

  const ReplicaSetStats stats = set.stats();
  EXPECT_EQ(stats.hedges, 0u);
  EXPECT_GE(stats.hedge_suppressed, 1u);
  EXPECT_EQ(stats.attempts, 1u);  // the primary answered; no hedge fired
}

/// The full stack under concurrency: a Coordinator fanning out to
/// per-shard ReplicaSets (each two healthy replicas behind a shared hedge
/// pool), hammered from several threads. Answers must stay exact — and
/// TSan must stay quiet about the breakers, counters and hedge state the
/// legs share.
TEST_F(ReplicaSimTest, CoordinatorOverReplicaSetsServesExactlyUnderThreads) {
  CorpusFixture& fx = (*fixtures_)[0];
  const ShardedCorpus& corpus = fx.sharded.at({4u, Semantics::kNodeType});

  ThreadPoolOptions popts;
  popts.num_threads = 8;
  ThreadPool pool(popts);

  std::vector<std::unique_ptr<ShardServer>> servers;
  std::vector<std::unique_ptr<ReplicaSet>> sets;
  std::vector<shard::ShardBackend*> backends;
  for (uint32_t s = 0; s < corpus.num_shards(); ++s) {
    servers.push_back(
        std::make_unique<ShardServer>(s, corpus.engine, kGeneration));
    servers.push_back(
        std::make_unique<ShardServer>(s, corpus.engine, kGeneration));
    ReplicaSetOptions ropts;
    ropts.hedge_pool = &pool;
    sets.push_back(std::make_unique<ReplicaSet>(
        s,
        std::vector<shard::ShardBackend*>{
            servers[2 * s].get(), servers[2 * s + 1].get()},
        ropts));
    backends.push_back(sets.back().get());
  }
  Coordinator coordinator(backends, corpus.stats,
                          SimOptions(Semantics::kNodeType),
                          SimCoordinatorOptions());

  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 8;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int q = 0; q < kQueriesPerThread; ++q) {
        const Query& query = fx.queries[(t + q) % fx.queries.size()];
        const CoordinatorResult result =
            coordinator.Suggest(query, kGeneration);
        if (!result.status.ok() || result.truncated) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);

  // Spot-check exactness single-threadedly against the oracle.
  const CoordinatorResult result =
      coordinator.Suggest(fx.queries[1], kGeneration);
  ASSERT_TRUE(result.status.ok());
  ExpectSameSuggestions(
      result.suggestions,
      fx.oracles.at(Semantics::kNodeType)->Suggest(fx.queries[1]), 1e-9,
      "coordinator-over-replica-sets vs oracle");
}

}  // namespace
}  // namespace xclean::shardtest
