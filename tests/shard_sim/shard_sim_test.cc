/// The scatter-gather proof harness: hundreds of seeded fault schedules
/// (slow, crashed, shed, reduced, stale, mid-query-swapped and
/// deadline-starved shards in every combination the scheduler draws)
/// executed deterministically against real ShardServers, with the merged
/// answer checked against the graceful-degradation invariants:
///
///   (a) an all-healthy schedule reproduces the single-index oracle;
///   (b) generation purity — stale partials contribute nothing (removing
///       them changes no byte of the answer), so no ranking ever mixes two
///       corpus generations;
///   (c) `truncated` is set iff some shard's contribution is missing or
///       partial, and the per-kind counters account for every shard;
///   (d) degraded answers only ever *underestimate*: candidates are a
///       subset of the full candidate set, entity counts never exceed the
///       full merge's, and (node-type semantics, whose normalizer is
///       global) scores never exceed the full score;
///   (e) deadlines are honoured cooperatively — a deadline-starved shard
///       reports truncated rather than a late full answer.
///
/// Every assertion is wrapped in the failing schedule's description plus
/// the XCLEAN_SHARD_SEED needed to replay it; the whole run is a pure
/// function of that seed.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "core/xclean.h"
#include "index/xml_index.h"
#include "shard/coordinator.h"
#include "shard/shard_server.h"
#include "shard/sharded_corpus.h"
#include "tests/shard_sim/shard_sim.h"
#include "tests/shard_testutil.h"

namespace xclean::shardtest {
namespace {

using shard::BuildShardedCorpus;
using shard::Coordinator;
using shard::CoordinatorOptions;
using shard::CoordinatorResult;
using shard::ShardedCorpus;
using shard::ShardedCorpusOptions;
using shard::ShardOutcome;
using shard::ShardOutcomeKind;
using shard::ShardServer;

constexpr uint64_t kGeneration = 11;
constexpr size_t kNumCorpora = 3;
constexpr size_t kNumSchedules = 240;  // CI bar: >= 200 seeded schedules

/// Everything derivable from one corpus seed, built once and reused by all
/// schedules: the unsharded oracles (one per semantics), the dirty query
/// set, and the sharded builds for every shard count a schedule can draw.
struct CorpusFixture {
  std::unique_ptr<XmlIndex> oracle_index;
  std::map<Semantics, std::unique_ptr<XClean>> oracles;
  std::vector<Query> queries;
  /// Keyed by (num_shards, semantics); corpora are small so 6 x 3 sharded
  /// builds per corpus stay cheap.
  std::map<std::pair<size_t, Semantics>, ShardedCorpus> sharded;
};

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

class ShardSimTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fixtures_ = new std::vector<CorpusFixture>(kNumCorpora);
    const uint64_t base = ShardBaseSeed();
    static constexpr Semantics kAll[] = {
        Semantics::kNodeType, Semantics::kSlca, Semantics::kElca};
    for (size_t c = 0; c < kNumCorpora; ++c) {
      CorpusFixture& fx = (*fixtures_)[c];
      const uint64_t seed = base + 5000 + c;
      fx.oracle_index = XmlIndex::Build(RandomCorpusTree(seed));
      fx.queries = DirtyQueries(*fx.oracle_index, seed);
      for (Semantics semantics : kAll) {
        fx.oracles[semantics] =
            std::make_unique<XClean>(*fx.oracle_index, SimOptions(semantics));
        for (size_t num_shards = 2; num_shards <= 7; ++num_shards) {
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

std::vector<CorpusFixture>* ShardSimTest::fixtures_ = nullptr;

/// All-healthy outcomes for the same (corpus, shards, query) — the "full"
/// reference every degraded schedule is compared against.
std::vector<ShardOutcome> FullOutcomes(const ShardedCorpus& corpus,
                                       const Query& query) {
  std::vector<ShardOutcome> outcomes;
  for (uint32_t s = 0; s < corpus.num_shards(); ++s) {
    ShardServer server(s, corpus.engine, kGeneration);
    shard::ShardRequest request;
    request.query = query;
    outcomes.push_back({ShardOutcomeKind::kOk, server.Evaluate(request)});
  }
  return outcomes;
}

std::string JoinWords(const std::vector<std::string>& words) {
  std::string out;
  for (const std::string& w : words) {
    out += w;
    out += ' ';
  }
  return out;
}

/// Replays Merge's per-shard classification from the raw outcomes — the
/// counters differential of invariant (c).
struct ExpectedCounters {
  uint32_t ok = 0, truncated = 0, stale = 0, failed = 0;
};

ExpectedCounters ClassifyOutcomes(const std::vector<ShardOutcome>& outcomes) {
  ExpectedCounters want;
  for (const ShardOutcome& outcome : outcomes) {
    if (outcome.kind != ShardOutcomeKind::kOk ||
        !outcome.response.status.ok()) {
      ++want.failed;
    } else if (outcome.response.generation != kGeneration) {
      ++want.stale;
    } else if (outcome.response.truncated) {
      ++want.truncated;
    } else {
      ++want.ok;
    }
  }
  return want;
}

TEST_F(ShardSimTest, SeededFaultSchedulesUpholdInvariants) {
  const uint64_t base = ShardBaseSeed();
  const CoordinatorOptions copts = SimCoordinatorOptions();
  size_t all_healthy = 0, degraded = 0, unavailable = 0;

  for (uint64_t round = 0; round < kNumSchedules; ++round) {
    const SimSchedule schedule =
        MakeSchedule(base + round, kNumCorpora, /*num_queries=*/24);
    CorpusFixture& fx = (*fixtures_)[schedule.corpus];
    ASSERT_LT(schedule.query_index, fx.queries.size());
    const Query& query = fx.queries[schedule.query_index];
    const ShardedCorpus& corpus =
        fx.sharded.at({schedule.num_shards, schedule.semantics});
    const XCleanOptions options = SimOptions(schedule.semantics);
    SCOPED_TRACE(FormatSchedule(schedule) + " — replay with XCLEAN_SHARD_SEED=" +
                 std::to_string(base));

    const std::vector<ShardOutcome> outcomes =
        ExecuteSchedule(schedule, corpus, query, kGeneration);
    ASSERT_EQ(outcomes.size(), schedule.num_shards);
    const CoordinatorResult result = Coordinator::Merge(
        *corpus.stats, options, copts, kGeneration, outcomes);

    // (c) counters account for every shard, exactly as classified.
    const ExpectedCounters want = ClassifyOutcomes(outcomes);
    EXPECT_EQ(result.shards_ok, want.ok);
    EXPECT_EQ(result.shards_truncated, want.truncated);
    EXPECT_EQ(result.shards_stale, want.stale);
    EXPECT_EQ(result.shards_failed, want.failed);
    EXPECT_EQ(result.shards_ok + result.shards_truncated +
                  result.shards_stale + result.shards_failed,
              schedule.num_shards);

    if (result.shards_ok + result.shards_truncated <
        copts.min_healthy_shards) {
      // Too few contributors: the coordinator must refuse, not serve an
      // answer computed from nothing.
      EXPECT_FALSE(result.status.ok());
      EXPECT_TRUE(result.truncated);
      ++unavailable;
      continue;
    }
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();

    // (c) truncated iff any shard's contribution is missing or partial.
    EXPECT_EQ(result.truncated, result.shards_ok != schedule.num_shards);

    // (e) a shard whose deadline had already expired must refuse to start
    // (expired-on-arrival admission check) and flag the refusal, instead
    // of running to completion inside the cancel token's clock-check
    // stride and posing as a full answer — the exact bug an earlier
    // version of ShardServer had, caught by this harness.
    for (uint32_t s = 0; s < schedule.num_shards; ++s) {
      if (schedule.faults[s] != FaultKind::kTightDeadline) continue;
      const ShardOutcome& outcome = outcomes[s];
      if (outcome.kind == ShardOutcomeKind::kOk &&
          outcome.response.status.ok() &&
          outcome.response.generation == kGeneration) {
        EXPECT_TRUE(outcome.response.truncated) << "shard " << s;
        EXPECT_TRUE(outcome.response.partials.empty()) << "shard " << s;
        EXPECT_EQ(outcome.response.cancel_cause, CancelCause::kDeadline)
            << "shard " << s;
      }
    }

    if (schedule.AllHealthy()) {
      // (a) healthy scatter-gather == the single-index oracle.
      EXPECT_FALSE(result.truncated);
      ExpectSameSuggestions(
          result.suggestions,
          fx.oracles.at(schedule.semantics)->Suggest(query), 1e-9,
          "all-healthy schedule vs oracle");
      ++all_healthy;
      continue;
    }
    ++degraded;

    // (b) generation purity: strip every stale response and re-merge; the
    // answer must not change by a single byte — stale partials were
    // dropped wholesale, never blended.
    std::vector<ShardOutcome> stripped = outcomes;
    for (ShardOutcome& outcome : stripped) {
      if (outcome.kind == ShardOutcomeKind::kOk &&
          outcome.response.status.ok() &&
          outcome.response.generation != kGeneration) {
        outcome = ShardOutcome{ShardOutcomeKind::kError, {}};
      }
    }
    const CoordinatorResult purged = Coordinator::Merge(
        *corpus.stats, options, copts, kGeneration, stripped);
    ASSERT_EQ(purged.suggestions.size(), result.suggestions.size());
    for (size_t i = 0; i < result.suggestions.size(); ++i) {
      EXPECT_EQ(result.suggestions[i].words, purged.suggestions[i].words);
      EXPECT_EQ(result.suggestions[i].score, purged.suggestions[i].score);
      EXPECT_EQ(result.suggestions[i].entity_count,
                purged.suggestions[i].entity_count);
    }

    // (d) degradation only underestimates, relative to the full merge —
    // materialized uncapped so it enumerates the complete candidate set.
    CoordinatorOptions uncapped = copts;
    uncapped.top_k = static_cast<size_t>(-1);
    const CoordinatorResult full = Coordinator::Merge(
        *corpus.stats, options, uncapped, kGeneration,
        FullOutcomes(corpus, query));
    ASSERT_TRUE(full.status.ok());
    std::map<std::string, const Suggestion*> full_by_words;
    for (const Suggestion& s : full.suggestions) {
      full_by_words[JoinWords(s.words)] = &s;
    }
    for (const Suggestion& got : result.suggestions) {
      // Every candidate some shard produced under faults exists in the
      // all-healthy candidate set — a degraded candidate missing from it
      // would be fabricated mass.
      auto it = full_by_words.find(JoinWords(got.words));
      ASSERT_NE(it, full_by_words.end())
          << "degraded answer invented candidate '" << JoinWords(got.words)
          << "'";
      EXPECT_LE(got.entity_count, it->second->entity_count);
      if (schedule.semantics == Semantics::kNodeType) {
        // Node-type normalizer is global, so dropping a shard's mass can
        // only shrink the score. (SLCA/ELCA renormalize by the *merged*
        // entity count, so a partial average may legitimately rise.)
        EXPECT_LE(got.score, it->second->score * (1.0 + 1e-9));
      }
    }
  }

  // The scheduler must actually exercise all three regimes; a drift in its
  // distribution would quietly hollow the suite out.
  EXPECT_GE(all_healthy, 10u);
  EXPECT_GE(degraded, 100u);
  EXPECT_GE(all_healthy + degraded + unavailable, kNumSchedules);
}

/// Every fault kind must occur in the pinned schedule set — otherwise a
/// rebalanced scheduler could silently stop covering, say, mid-query swaps.
TEST_F(ShardSimTest, ScheduleGeneratorCoversAllFaultKinds) {
  const uint64_t base = ShardBaseSeed();
  std::map<FaultKind, size_t> seen;
  for (uint64_t round = 0; round < kNumSchedules; ++round) {
    for (FaultKind f :
         MakeSchedule(base + round, kNumCorpora, 24).faults) {
      ++seen[f];
    }
  }
  for (uint8_t k = 0; k < static_cast<uint8_t>(FaultKind::kNumFaultKinds);
       ++k) {
    EXPECT_GT(seen[static_cast<FaultKind>(k)], 0u)
        << FaultName(static_cast<FaultKind>(k));
  }
}

/// A mid-query snapshot swap, injected into the anchor loop of one real
/// evaluation, must surface as a stale (droppable) response — never as a
/// clean answer at either generation. Direct unit of the torn-evaluation
/// hazard the generation re-read closes.
TEST_F(ShardSimTest, MidQuerySwapIsNeverMergedAsClean) {
  if (!fault::Enabled()) {
    GTEST_SKIP() << "built with -DXCLEAN_FAULT_INJECTION=OFF";
  }
  CorpusFixture& fx = (*fixtures_)[0];
  const ShardedCorpus& corpus = fx.sharded.at({4u, Semantics::kNodeType});
  // The swap callback fires from the anchor loop, so it lands on whichever
  // shard actually holds the query's occurrences — probe until it does
  // (a clean query guarantees some shard has anchors).
  shard::ShardResponse swapped;
  uint32_t swapped_shard = UINT32_MAX;
  for (uint32_t s = 0; s < corpus.num_shards() && swapped_shard == UINT32_MAX;
       ++s) {
    ShardServer server(s, corpus.engine, kGeneration);
    fault::ArmCallback(
        "xclean.anchor",
        [&server] { server.PublishGeneration(kGeneration + 1); },
        /*times=*/1);
    shard::ShardRequest request;
    request.query = fx.queries[0];
    shard::ShardResponse response = server.Evaluate(request);
    fault::Disarm("xclean.anchor");
    if (response.generation == kGeneration + 1) {
      EXPECT_EQ(server.stats().stale_risk, 1u);
      swapped = std::move(response);
      swapped_shard = s;
    }
  }
  ASSERT_NE(swapped_shard, UINT32_MAX)
      << "no shard hit the anchor loop for the clean query";
  ASSERT_TRUE(swapped.status.ok());
  EXPECT_TRUE(swapped.truncated);
  // The coordinator, expecting the old generation, must file it as stale.
  std::vector<ShardOutcome> outcomes(corpus.num_shards());
  outcomes[swapped_shard] = {ShardOutcomeKind::kOk, std::move(swapped)};
  for (uint32_t s = 0; s < corpus.num_shards(); ++s) {
    if (s == swapped_shard) continue;
    ShardServer healthy(s, corpus.engine, kGeneration);
    shard::ShardRequest r;
    r.query = fx.queries[0];
    outcomes[s] = {ShardOutcomeKind::kOk, healthy.Evaluate(r)};
  }
  const CoordinatorResult result =
      Coordinator::Merge(*corpus.stats, SimOptions(Semantics::kNodeType),
                         SimCoordinatorOptions(), kGeneration, outcomes);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.shards_stale, 1u);
  EXPECT_TRUE(result.truncated);
}

/// The real threaded fan-out against a genuinely slow shard: the
/// coordinator must serve a partial answer within its own deadline instead
/// of inheriting the slow shard's latency.
TEST_F(ShardSimTest, ThreadedFanoutHonoursDeadlineUnderSlowShard) {
  if (!fault::Enabled()) {
    GTEST_SKIP() << "built with -DXCLEAN_FAULT_INJECTION=OFF";
  }
  CorpusFixture& fx = (*fixtures_)[0];
  const ShardedCorpus& corpus = fx.sharded.at({4u, Semantics::kNodeType});

  std::vector<std::unique_ptr<ShardServer>> servers;
  std::vector<shard::ShardBackend*> backends;
  for (uint32_t s = 0; s < corpus.num_shards(); ++s) {
    servers.push_back(
        std::make_unique<ShardServer>(s, corpus.engine, kGeneration));
    backends.push_back(servers.back().get());
  }
  CoordinatorOptions copts = SimCoordinatorOptions();
  copts.fanout_timeout = std::chrono::milliseconds(150);
  Coordinator coordinator(backends, corpus.stats,
                          SimOptions(Semantics::kNodeType), copts);

  fault::ArmDelay("shard.evaluate.2", std::chrono::milliseconds(2000),
                  /*times=*/1);
  const auto start = std::chrono::steady_clock::now();
  const CoordinatorResult result =
      coordinator.Suggest(fx.queries[0], kGeneration);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  fault::DisarmAll();

  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(result.truncated);
  EXPECT_EQ(result.shards_failed, 1u);
  EXPECT_EQ(result.shards_ok, corpus.num_shards() - 1);
  EXPECT_FALSE(result.suggestions.empty());
  // Generous CI bound: well under the slow shard's 2 s, proving the
  // coordinator cut the leg loose rather than waiting it out.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed),
            std::chrono::milliseconds(1500));
}

/// Crash isolation with a real process death: a forked child dies (hard
/// _exit, no unwinding) in the middle of evaluating one shard; the parent
/// — playing the coordinator watching a transport — files that leg as
/// kError and still serves from the surviving shards. The kill happens
/// mid-anchor-loop, the worst possible instant.
TEST_F(ShardSimTest, ForkKilledShardDegradesToPartialAnswer) {
  if (!fault::Enabled()) {
    GTEST_SKIP() << "built with -DXCLEAN_FAULT_INJECTION=OFF";
  }
  CorpusFixture& fx = (*fixtures_)[0];
  const ShardedCorpus& corpus = fx.sharded.at({4u, Semantics::kNodeType});
  const Query& query = fx.queries[0];  // clean query: anchors guaranteed

  // The kill fires from the anchor loop, so the child sweeps the shards in
  // order and dies inside the first one holding the query's occurrences —
  // exit code 42 proves death mid-evaluation, not a clean run.
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    fault::ArmCallback("xclean.anchor", [] { _exit(42); }, /*times=*/1);
    for (uint32_t s = 0; s < corpus.num_shards(); ++s) {
      ShardServer server(s, corpus.engine, kGeneration);
      shard::ShardRequest request;
      request.query = query;
      (void)server.Evaluate(request);
    }
    _exit(0);  // not reached: a clean query has anchors in some shard
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 42) << "child survived the injected kill";

  // The parent, as coordinator, watched shard 1's transport die and files
  // the leg as kError; the other shards answer normally. A query whose
  // matches all live on the dead shard legitimately merges to nothing —
  // degradation means partial coverage, not conjuring mass from a dead
  // shard — so probe the query set for one the survivors can still answer.
  bool partial_answer_found = false;
  for (const Query& probe : fx.queries) {
    std::vector<ShardOutcome> outcomes(corpus.num_shards());
    for (uint32_t s = 0; s < corpus.num_shards(); ++s) {
      if (s == 1) {
        outcomes[s].kind = ShardOutcomeKind::kError;
        outcomes[s].response.status =
            Status::Unavailable("shard process died");
        continue;
      }
      ShardServer server(s, corpus.engine, kGeneration);
      shard::ShardRequest request;
      request.query = probe;
      outcomes[s] = {ShardOutcomeKind::kOk, server.Evaluate(request)};
    }
    const CoordinatorResult result =
        Coordinator::Merge(*corpus.stats, SimOptions(Semantics::kNodeType),
                           SimCoordinatorOptions(), kGeneration, outcomes);
    ASSERT_TRUE(result.status.ok());
    EXPECT_TRUE(result.truncated);
    EXPECT_EQ(result.shards_failed, 1u);
    if (!result.suggestions.empty()) {
      partial_answer_found = true;
      break;
    }
  }
  EXPECT_TRUE(partial_answer_found)
      << "no query in the set was answerable by the surviving shards";
}

}  // namespace
}  // namespace xclean::shardtest
