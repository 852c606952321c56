#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <thread>
#include <tuple>

#include "common/durable_file.h"

namespace xclean::e2e {

namespace {

using Key = std::tuple<uint64_t, int, int, int>;

Key KeyOf(uint64_t request, SpanName name, int shard, int replica) {
  return {request, static_cast<int>(name), shard, replica};
}

/// Length of the union of `intervals` clipped to [lo, hi].
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                  int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cursor = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, cursor);
    end = std::min(end, hi);
    if (end > start) {
      covered += end - start;
      cursor = end;
    }
  }
  return covered;
}

}  // namespace

int64_t NowNs() {
  static const auto kEpoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kEpoch)
      .count();
}

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kRequest:
      return "request";
    case SpanName::kServeSubmit:
      return "serve.submit";
    case SpanName::kServeQueue:
      return "serve.queue";
    case SpanName::kServeCompute:
      return "serve.compute";
    case SpanName::kServeHit:
      return "serve.hit";
    case SpanName::kHandlerWait:
      return "handler.wait";
    case SpanName::kCoordinator:
      return "coordinator";
    case SpanName::kShardLeg:
      return "shard.leg";
    case SpanName::kReplicaAttempt:
      return "replica.attempt";
    case SpanName::kShardEvaluate:
      return "shard.evaluate";
    case SpanName::kWrite:
      return "write";
    case SpanName::kDeltaAdd:
      return "delta.add";
    case SpanName::kDeltaDelete:
      return "delta.delete";
    case SpanName::kDeltaCompact:
      return "delta.compact";
  }
  return "unknown";
}

uint64_t QueryId(const Query& query) {
  uint64_t hash = kFnvOffsetBasis;
  for (const std::string& keyword : query.keywords) {
    hash = Fnv1a(keyword.data(), keyword.size(), hash);
    hash = Fnv1a("\x1f", 1, hash);  // keyword separator
  }
  return hash;
}

void SpanRecorder::Record(const Span& span) {
  // Dekker-style handshake with Drain(): either this writer sees the
  // recorder disabled, or Drain() sees it in writers_ and waits.
  writers_.fetch_add(1, std::memory_order_seq_cst);
  if (enabled_.load(std::memory_order_seq_cst)) {
    const size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
    if (slot < spans_.size()) {
      spans_[slot] = span;
    } else {
      dropped_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  writers_.fetch_sub(1, std::memory_order_release);
}

std::vector<Span> SpanRecorder::Drain() {
  enabled_.store(false, std::memory_order_seq_cst);
  while (writers_.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  const size_t n =
      std::min(next_.exchange(0, std::memory_order_relaxed), spans_.size());
  return std::vector<Span>(spans_.begin(),
                           spans_.begin() + static_cast<std::ptrdiff_t>(n));
}

shard::ShardResponse TracingBackend::Evaluate(
    const shard::ShardRequest& request) {
  if (!recorder_->enabled()) return inner_->Evaluate(request);
  const int64_t start = NowNs();
  shard::ShardResponse response = inner_->Evaluate(request);
  recorder_->Record(
      {start, NowNs(), QueryId(request.query), name_, shard_, replica_});
  return response;
}

std::vector<LinkedSpan> LinkSpans(std::vector<Span> spans) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return std::tie(a.request, a.name, a.shard, a.replica, a.start_ns) <
           std::tie(b.request, b.name, b.shard, b.replica, b.start_ns);
  });
  std::map<Key, std::vector<size_t>> by_key;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    by_key[KeyOf(s.request, s.name, s.shard, s.replica)].push_back(i);
  }
  // The parent of `s` is the latest-starting span under `key` that began
  // no later than `s` (hedged attempts and retries reuse a key).
  auto parent_under = [&](const Span& s, const Key& key) -> int64_t {
    auto it = by_key.find(key);
    if (it == by_key.end()) return -1;
    int64_t best = -1;
    for (size_t candidate : it->second) {
      if (spans[candidate].start_ns <= s.start_ns) {
        best = static_cast<int64_t>(candidate);
      }
    }
    return best >= 0 ? best : static_cast<int64_t>(it->second.front());
  };

  std::vector<LinkedSpan> out(spans.size());
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    int64_t parent = -1;
    switch (s.name) {
      case SpanName::kRequest:
      case SpanName::kWrite:
      case SpanName::kDeltaCompact:
        break;
      case SpanName::kServeSubmit:
      case SpanName::kServeQueue:
      case SpanName::kServeCompute:
      case SpanName::kServeHit:
      case SpanName::kHandlerWait:
      case SpanName::kCoordinator:
        parent = parent_under(s, KeyOf(s.request, SpanName::kRequest, -1, -1));
        break;
      case SpanName::kShardLeg:
        parent =
            parent_under(s, KeyOf(s.request, SpanName::kCoordinator, -1, -1));
        break;
      case SpanName::kReplicaAttempt:
        parent =
            parent_under(s, KeyOf(s.request, SpanName::kShardLeg, s.shard, -1));
        break;
      case SpanName::kShardEvaluate:
        parent = parent_under(s, KeyOf(s.request, SpanName::kReplicaAttempt,
                                       s.shard, s.replica));
        break;
      case SpanName::kDeltaAdd:
      case SpanName::kDeltaDelete:
        parent = parent_under(s, KeyOf(s.request, SpanName::kWrite, -1, -1));
        break;
    }
    out[i].span = s;
    out[i].parent = parent;
    if (parent >= 0) children[static_cast<size_t>(parent)].push_back(i);
  }
  for (size_t i = 0; i < out.size(); ++i) {
    const Span& s = out[i].span;
    std::vector<std::pair<int64_t, int64_t>> covered;
    covered.reserve(children[i].size());
    for (size_t c : children[i]) {
      covered.emplace_back(spans[c].start_ns, spans[c].end_ns);
    }
    out[i].self_ns =
        (s.end_ns - s.start_ns) - CoveredNs(covered, s.start_ns, s.end_ns);
  }
  return out;
}

bool WriteTraceJsonl(const std::string& path,
                     const std::vector<LinkedSpan>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t base = 0;
  if (!spans.empty()) {
    base = spans.front().span.start_ns;
    for (const LinkedSpan& l : spans) base = std::min(base, l.span.start_ns);
  }
  for (const LinkedSpan& l : spans) {
    const Span& s = l.span;
    std::fprintf(f,
                 "{\"name\":\"%s\",\"req\":\"%016llx\",\"start_us\":%.3f,"
                 "\"end_us\":%.3f,\"parent\":%lld,\"self_us\":%.3f,"
                 "\"shard\":%d,\"replica\":%d}\n",
                 SpanNameString(s.name),
                 static_cast<unsigned long long>(s.request),
                 static_cast<double>(s.start_ns - base) / 1e3,
                 static_cast<double>(s.end_ns - base) / 1e3,
                 static_cast<long long>(l.parent),
                 static_cast<double>(l.self_ns) / 1e3, s.shard, s.replica);
  }
  return std::fclose(f) == 0;
}

}  // namespace xclean::e2e
