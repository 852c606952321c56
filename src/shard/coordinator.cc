#include "shard/coordinator.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <utility>

#include "common/check.h"
#include "core/accumulator.h"
#include "core/candidate_map.h"

namespace xclean::shard {

namespace {

/// Gather state shared between the fan-out legs and the waiting
/// coordinator thread. Held by shared_ptr so a leg that completes after
/// the fan-out deadline writes into still-live (but no longer read)
/// storage instead of a dangling frame.
struct FanoutState {
  explicit FanoutState(size_t n) : outcomes(n), arrived(n, false), pending(n) {}

  std::mutex mu;
  std::condition_variable cv;
  std::vector<ShardOutcome> outcomes;
  std::vector<bool> arrived;
  size_t pending;

  void Deliver(size_t i, ShardOutcome outcome) {
    std::lock_guard<std::mutex> lock(mu);
    if (!arrived[i]) {
      outcomes[i] = std::move(outcome);
      arrived[i] = true;
      if (--pending == 0) cv.notify_all();
    }
  }
};

}  // namespace

Coordinator::Coordinator(std::vector<ShardBackend*> shards,
                         std::shared_ptr<const delta::MergedStats> stats,
                         XCleanOptions xclean, CoordinatorOptions options)
    : shards_(std::move(shards)),
      stats_(std::move(stats)),
      xclean_(xclean),
      options_(options),
      pool_(ThreadPoolOptions{/*num_threads=*/shards_.size(),
                              /*queue_capacity=*/shards_.size() * 64}) {
  XCLEAN_CHECK(!shards_.empty());
}

CoordinatorResult Coordinator::Suggest(const Query& query,
                                       uint64_t expected_generation) {
  const size_t n = shards_.size();
  const auto deadline =
      std::chrono::steady_clock::now() + options_.fanout_timeout;

  ShardRequest request;
  request.query = query;
  request.deadline = deadline;
  request.queue_depth = pool_.queue_depth();
  request.queue_capacity = pool_.queue_capacity();
  request.expected_generation = expected_generation;

  auto state = std::make_shared<FanoutState>(n);
  for (size_t i = 0; i < n; ++i) {
    ShardBackend* backend = shards_[i];
    Status submitted = pool_.TrySubmit(
        [state, i, backend, request] {
          ShardOutcome outcome;
          outcome.kind = ShardOutcomeKind::kOk;
          outcome.response = backend->Evaluate(request);
          state->Deliver(i, std::move(outcome));
        },
        deadline,
        /*on_expired=*/[state, i] {
          state->Deliver(i, ShardOutcome{ShardOutcomeKind::kTimeout, {}});
        });
    if (!submitted.ok()) {
      ShardOutcome outcome;
      outcome.kind = ShardOutcomeKind::kError;
      outcome.response.status = submitted;
      state->Deliver(i, std::move(outcome));
    }
  }

  std::vector<ShardOutcome> outcomes;
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait_until(lock, deadline, [&] { return state->pending == 0; });
    // Legs still running past the deadline become timeouts; if they later
    // deliver, Deliver() sees arrived[i] and discards the late answer.
    for (size_t i = 0; i < n; ++i) {
      if (!state->arrived[i]) {
        state->outcomes[i] = ShardOutcome{ShardOutcomeKind::kTimeout, {}};
        state->arrived[i] = true;
        --state->pending;
      }
    }
    outcomes = state->outcomes;
  }
  return Merge(*stats_, xclean_, options_, expected_generation, outcomes);
}

CoordinatorResult Coordinator::Merge(const delta::MergedStats& stats,
                                     const XCleanOptions& xclean,
                                     const CoordinatorOptions& options,
                                     uint64_t expected_generation,
                                     const std::vector<ShardOutcome>& outcomes) {
  CoordinatorResult result;
  result.generation = expected_generation;

  // Unbounded table: the coordinator merges already-pruned per-shard
  // lists; re-pruning here would discard exact mass for no memory win.
  AccumulatorTable accumulators(/*gamma=*/0);
  CandidateMap<uint32_t> lca_totals;
  CandidateMap<PathId> result_types;

  // Wire hardening: with a real RPC transport behind ShardBackend, a
  // response is untrusted bytes until proven otherwise. The frame and
  // payload checksums catch random corruption, but a buggy or hostile
  // shard can still emit structurally valid nonsense — non-finite or
  // negative probability masses would poison every merged score, and an
  // out-of-range shard id means the response cannot be the shard it
  // claims. Such responses are dropped wholesale (a partial that lies
  // once is not trusted twice), counted as failed legs.
  const auto malformed = [&outcomes](const ShardResponse& response) {
    if (response.shard_id >= outcomes.size()) return true;
    for (const PartialCandidate& partial : response.partials) {
      if (partial.tokens.empty()) return true;
      if (!std::isfinite(partial.error_weight) || partial.error_weight < 0.0 ||
          !std::isfinite(partial.sum) || partial.sum < 0.0) {
        return true;
      }
    }
    return false;
  };

  for (const ShardOutcome& outcome : outcomes) {
    if (outcome.kind != ShardOutcomeKind::kOk ||
        !outcome.response.status.ok() || malformed(outcome.response)) {
      ++result.shards_failed;
      result.truncated = true;
      continue;
    }
    const ShardResponse& response = outcome.response;
    // Generation gate: merging a stale shard would blend two corpus
    // versions into one ranking — the one inconsistency no degradation
    // policy may admit. Stale partials are dropped wholesale.
    if (response.generation != expected_generation) {
      ++result.shards_stale;
      result.truncated = true;
      continue;
    }
    for (const PartialCandidate& partial : response.partials) {
      accumulators.MergePartial(partial.tokens.data(), partial.tokens.size(),
                                partial.error_weight, partial.sum,
                                partial.entity_count);
      if (xclean.semantics == Semantics::kNodeType) {
        *result_types.GetOrCreate(partial.tokens.data(),
                                  partial.tokens.size()) = partial.result_type;
      } else {
        bool created = false;
        uint32_t* total = lca_totals.GetOrCreate(
            partial.tokens.data(), partial.tokens.size(), &created);
        if (created) *total = 0;
        *total += partial.lca_total;
      }
    }
    if (response.truncated) {
      ++result.shards_truncated;
      result.truncated = true;
    } else {
      ++result.shards_ok;
    }
  }

  const size_t healthy = result.shards_ok + result.shards_truncated;
  if (healthy < options.min_healthy_shards) {
    result.status = Status::Unavailable(
        std::to_string(healthy) + " of " + std::to_string(outcomes.size()) +
        " shards healthy (need " + std::to_string(options.min_healthy_shards) +
        ")");
    return result;
  }

  // Final scoring (Eq. 10) over the merged accumulators — the same
  // routine as the unsharded evaluation, against the global normalizers.
  std::vector<RankedCandidate> finals;
  finals.reserve(accumulators.size());
  RankCandidates(
      accumulators, stats.collection(), options.top_k,
      [&](const TokenId* key, size_t key_len, PathId* result_type) {
        if (xclean.semantics == Semantics::kNodeType) {
          const PathId* type = result_types.Find(key, key_len);
          XCLEAN_CHECK(type != nullptr);
          *result_type = *type;
          return static_cast<double>(stats.path_node_count(*type));
        }
        const uint32_t* total = lca_totals.Find(key, key_len);
        XCLEAN_CHECK(total != nullptr);
        return static_cast<double>(*total);
      },
      finals, &result.suggestions);
  return result;
}

}  // namespace xclean::shard
