#include "shard/shard_server.h"

#include <chrono>
#include <utility>

#include "common/check.h"
#include "common/clock.h"
#include "common/fault_injection.h"

namespace xclean::shard {

namespace {

/// Funnels the two injection points through a Status-returning frame (the
/// XCLEAN_FAULT_STATUS macro returns from its enclosing function).
Status HitEvaluatePoints(const char* per_shard_point) {
  XCLEAN_FAULT_STATUS("shard.evaluate");
  XCLEAN_FAULT_STATUS(per_shard_point);
  return Status::Ok();
}

}  // namespace

ShardServer::ShardServer(uint32_t shard_id,
                         std::shared_ptr<const XClean> engine,
                         uint64_t generation,
                         OverloadControllerOptions overload)
    : shard_id_(shard_id),
      fault_point_("shard.evaluate." + std::to_string(shard_id)),
      engine_(std::move(engine)),
      generation_(generation),
      overload_(overload) {
  XCLEAN_CHECK(shard_id_ < engine_->layer_count());
}

std::unique_ptr<QueryScratch> ShardServer::AcquireScratch() {
  std::lock_guard<std::mutex> lock(scratch_mu_);
  if (scratch_pool_.empty()) return std::make_unique<QueryScratch>();
  std::unique_ptr<QueryScratch> scratch = std::move(scratch_pool_.back());
  scratch_pool_.pop_back();
  return scratch;
}

void ShardServer::ReleaseScratch(std::unique_ptr<QueryScratch> scratch) {
  std::lock_guard<std::mutex> lock(scratch_mu_);
  scratch_pool_.push_back(std::move(scratch));
}

ShardResponse ShardServer::Evaluate(const ShardRequest& request) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  ShardResponse response;
  response.shard_id = shard_id_;

  // Injection points first: an armed delay here models a slow shard, an
  // armed status a crashed/unreachable one, an armed callback a snapshot
  // swap racing the admission below.
  response.status = HitEvaluatePoints(fault_point_.c_str());
  response.generation = generation_.load(std::memory_order_acquire);
  if (!response.status.ok()) return response;

  // Expired-on-arrival: don't start work the coordinator has already given
  // up on. (Mid-flight expiry is handled cooperatively by the CancelToken
  // below, but its amortized clock checks — every kClockCheckStride work
  // units — can let a small shard run to completion; a completed answer is
  // simply correct. An answer we never started is not, so it must carry
  // the truncated flag.) Counted as `refused`, not `truncated`: the caller
  // distinguishes "shard was too slow" from "request arrived dead".
  const Clock& clock = overload_.clock();
  if (request.deadline <= clock.Now()) {
    refused_.fetch_add(1, std::memory_order_relaxed);
    response.truncated = true;
    response.cancel_cause = CancelCause::kDeadline;
    return response;
  }

  response.tier =
      overload_.Evaluate(request.queue_depth, request.queue_capacity);
  if (response.tier == ServiceTier::kCacheOnly ||
      response.tier == ServiceTier::kShed) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    response.status =
        Status::Unavailable(std::string("shard overloaded (tier ") +
                            TierName(response.tier) + ")");
    return response;
  }

  QueryBudget budget;
  budget.deadline = request.deadline;
  budget.external_cancel = request.external_cancel;
  CancelToken cancel(budget);
  const QueryTuning* tuning = response.tier == ServiceTier::kReduced
                                  ? &overload_.options().reduced_tuning
                                  : nullptr;

  const auto start = clock.Now();
  std::unique_ptr<QueryScratch> scratch = AcquireScratch();
  engine_->CollectLayerPartials(request.query, shard_id_, *scratch,
                                &response.partials, &response.run_stats,
                                &cancel, tuning);
  ReleaseScratch(std::move(scratch));
  overload_.RecordLatency(
      std::chrono::duration<double, std::milli>(clock.Now() - start).count());

  response.truncated =
      response.run_stats.truncated || response.tier == ServiceTier::kReduced;
  response.cancel_cause = response.run_stats.cancel_cause;

  // Generation re-read: if a swap landed between admission and here, the
  // evaluation may span two snapshots. Report the new generation and
  // truncated — against the coordinator's expectation the response is
  // either stale (expectation = old) or partial (expectation = new), and
  // in both cases it is barred from contributing as a clean, full answer.
  const uint64_t now_gen = generation_.load(std::memory_order_acquire);
  if (now_gen != response.generation) {
    stale_risk_.fetch_add(1, std::memory_order_relaxed);
    response.generation = now_gen;
    response.truncated = true;
  }
  if (response.truncated) {
    truncated_.fetch_add(1, std::memory_order_relaxed);
  }
  return response;
}

ShardServerStats ShardServer::stats() const {
  ShardServerStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.refused = refused_.load(std::memory_order_relaxed);
  s.truncated = truncated_.load(std::memory_order_relaxed);
  s.stale_risk = stale_risk_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace xclean::shard
