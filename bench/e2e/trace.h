#ifndef XCLEAN_BENCH_E2E_TRACE_H_
#define XCLEAN_BENCH_E2E_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/query.h"
#include "shard/shard_server.h"

namespace xclean::e2e {

/// Nanoseconds on the steady clock since the first call in the process.
int64_t NowNs();

/// Layer boundaries the benchmark times. Every span is recorded by
/// benchmark code around a call into the layer's public API.
enum class SpanName : uint8_t {
  kRequest,         ///< due time -> answer delivered (one per request)
  kServeSubmit,     ///< ServingEngine::SubmitSuggest call
  kServeQueue,      ///< engine queue wait (ServeResult latency - compute)
  kServeCompute,    ///< ServeResult::compute_ms of a cache miss
  kServeHit,        ///< ServeResult::latency_ms of a cache hit
  kHandlerWait,     ///< sharded: due time -> a handler thread picks it up
  kCoordinator,     ///< Coordinator::Suggest call
  kShardLeg,        ///< Coordinator -> ReplicaSet::Evaluate
  kReplicaAttempt,  ///< ReplicaSet -> RpcShardBackend::Evaluate
  kShardEvaluate,   ///< RpcShardServer -> ShardServer::Evaluate
  kWrite,           ///< dblp-live write: due time -> call returned
  kDeltaAdd,        ///< ServingEngine::AddDocument call
  kDeltaDelete,     ///< ServingEngine::DeleteDocument call
  kDeltaCompact,    ///< CompactLiveInBackground -> compacting() false
};

const char* SpanNameString(SpanName name);

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Request id: the query hash for reads (pool queries are distinct, so
  /// it identifies the request within a traced phase), the op index for
  /// writes.
  uint64_t request = 0;
  SpanName name = SpanName::kRequest;
  int8_t shard = -1;
  int8_t replica = -1;
};

/// Stable 64-bit id of a query.
uint64_t QueryId(const Query& query);

/// Preallocated, thread-safe span sink. Record() claims a slot with one
/// atomic add and never allocates; spans past capacity are counted and
/// dropped. Recording is off until Enable(true).
class SpanRecorder {
 public:
  explicit SpanRecorder(size_t capacity) : spans_(capacity) {}

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  void Enable(bool on) { enabled_.store(on, std::memory_order_seq_cst); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void Record(const Span& span);

  /// Disables recording, waits out writers still inside Record(), and
  /// returns the spans recorded so far (the recorder is then empty).
  std::vector<Span> Drain();

  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

 private:
  std::vector<Span> spans_;
  std::atomic<size_t> next_{0};
  std::atomic<uint32_t> writers_{0};
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> dropped_{0};
};

/// ShardBackend decorator that records one span per Evaluate() around the
/// wrapped backend, when the recorder is enabled.
class TracingBackend final : public shard::ShardBackend {
 public:
  TracingBackend(shard::ShardBackend* inner, SpanName name, int shard,
                 int replica, SpanRecorder* recorder)
      : inner_(inner),
        name_(name),
        shard_(static_cast<int8_t>(shard)),
        replica_(static_cast<int8_t>(replica)),
        recorder_(recorder) {}

  shard::ShardResponse Evaluate(const shard::ShardRequest& request) override;

 private:
  shard::ShardBackend* const inner_;
  const SpanName name_;
  const int8_t shard_;
  const int8_t replica_;
  SpanRecorder* const recorder_;
};

/// A span with its place in the request tree.
struct LinkedSpan {
  Span span;
  /// Index of the parent span in the same vector, -1 for roots.
  int64_t parent = -1;
  /// Duration minus the part of [start, end] its children cover.
  int64_t self_ns = 0;
};

/// Links spans into request trees by (request id, shard, replica):
/// request <- {serve.*, handler wait, coordinator} <- shard.leg <-
/// replica.attempt <- shard.evaluate, and write <- delta.add/delete. An
/// evaluation is matched to the attempt on the same replica whose interval
/// contains its start. Then computes every span's self time.
std::vector<LinkedSpan> LinkSpans(std::vector<Span> spans);

/// One JSON object per line: name, request id, start/end (us from the
/// first span), parent index, self time, shard, replica.
bool WriteTraceJsonl(const std::string& path,
                     const std::vector<LinkedSpan>& spans);

}  // namespace xclean::e2e

#endif  // XCLEAN_BENCH_E2E_TRACE_H_
