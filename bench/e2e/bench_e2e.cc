// End-to-end benchmark of the suggestion-serving stack. One process drives
// one workload open loop through the public API and prints one JSON result
// line on stdout (progress goes to stderr):
//
//   bench_e2e --workload <name> --seed <n> [--seconds <s>] [--traced]
//             [--smoke]
//
// Phases: set-up (timed, repeated), warm-up (discarded), a fixed-rate
// phase at the workload's frozen nominal rate, then a binary search for
// the highest rate on the ladder 250 * 1.05^i that meets the SLO. With
// --traced the fixed-rate phase runs twice, untraced then traced, and a
// replay pass times single layers. README.md in this directory describes
// the workloads, the metrics and the checks.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <sys/resource.h>
#include <time.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/status.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/suggester.h"
#include "core/variant_gen.h"
#include "core/xclean.h"
#include "delta/layer.h"
#include "eval/metrics.h"
#include "rpc/rpc_client.h"
#include "rpc/rpc_shard_server.h"
#include "rpc/wire.h"
#include "serve/engine.h"
#include "shard/coordinator.h"
#include "shard/replica_set.h"
#include "shard/shard_server.h"
#include "shard/sharded_corpus.h"
#include "trace.h"
#include "workload.h"

namespace xclean::e2e {
namespace {

constexpr uint64_t kGeneration = 1;
constexpr size_t kShards = 2;
constexpr size_t kReplicas = 2;

// SLO a ladder probe must meet.
constexpr double kSloP99Ms = 5.0;
constexpr double kSloBadFraction = 0.005;  // failed + degraded
constexpr double kSloInflightSeconds = 0.005;
// Run validity: the generator must send on time.
constexpr double kMaxLagP99Us = 1000.0;
constexpr double kLadderBase = 250.0;
constexpr double kLadderStep = 1.05;
// The SLO search bisects 64 rungs, from 16 below the nominal rung (0.46x)
// to 47 above it (9.9x); 6 probes resolve them.
constexpr int kLadderSpan = 64;
constexpr int kLadderBelow = 16;
constexpr int kProbes = 6;
// p99 and in-flight are medians over windows of a phase: 1 s in the
// fixed-rate phase, a fifth of a probe in the SLO search.
constexpr double kWindowSeconds = 1.0;
constexpr int kProbeWindows = 5;

constexpr int kSetupReps = 5;
constexpr size_t kOracleSample = 2000;
constexpr size_t kLiveOracleSample = 200;
constexpr size_t kReplayQueries = 2000;
constexpr double kReplayBudgetSeconds = 2.0;
constexpr double kScoreTolerance = 1e-9;

/// Per-layer metrics every traced run emits (0 where the workload has no
/// such layer). BENCHMARK.json lists the same names with their units.
constexpr const char* kPerLayerMetrics[] = {
    "serve.queue_wait_us.p50",
    "serve.queue_wait_us.p99",
    "serve.compute_us.p50",
    "serve.submit_us.p50",
    "serve.hit_us.p50",
    "serve.cache_hit_ratio",
    "serve.rejected",
    "serve.shed",
    "serve.deadline",
    "serve.tier_requests.full",
    "serve.tier_requests.reduced",
    "serve.tier_requests.cache_only",
    "serve.tier_requests.shed",
    "e2e.fail_frac",
    "e2e.degraded_frac",
    "core.suggest_us.p50",
    "core.suggest_us.p99",
    "core.variant_gen_us_per_query",
    "core.variants_per_keyword",
    "core.subtrees",
    "core.occurrences",
    "core.candidates",
    "core.entities_scored",
    "core.result_type_computations",
    "core.accumulator_evictions",
    "core.accumulators_final",
    "core.eviction_ratio",
    "delta.add_us.p50",
    "delta.add_us.p99",
    "delta.delete_us.p50",
    "delta.write_p50_ms",
    "delta.write_p99_ms",
    "delta.layered_suggest_us.p50",
    "delta.layers_mean",
    "delta.compact_ms",
    "shard.handler_wait_us.p50",
    "shard.coordinator_us.p50",
    "shard.coordinator_us.p99",
    "shard.coordinator_self_us.p50",
    "shard.leg_us.p50",
    "shard.leg_us.p99",
    "shard.evaluate_us.p50",
    "shard.leg_skew",
    "shard.merge_us.p50",
    "shard.partials_per_response",
    "replica.hedges",
    "replica.hedge_wins",
    "replica.hedge_win_ratio",
    "replica.retries",
    "replica.failovers",
    "rpc.wire_us.p50",
    "rpc.request_bytes",
    "rpc.response_bytes",
    "rpc.encode_us",
    "rpc.decode_us",
    "rpc.dials",
    "rpc.pooled_reuses",
    "index.build_s",
    "gen.lag_us.p99",
    "trace.overhead_pct",
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool traced = false;
  bool smoke = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    }
    auto take_value = [&]() -> bool {
      if (eq != std::string::npos) return true;
      if (i + 1 >= argc) return false;
      value = argv[++i];
      return true;
    };
    if (arg == "--traced") {
      args->traced = true;
    } else if (arg == "--smoke") {
      args->smoke = true;
    } else if (arg == "--workload" && take_value()) {
      args->workload = value;
    } else if (arg == "--seed" && take_value()) {
      char* end = nullptr;
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
      have_seed = true;
    } else if (arg == "--seconds" && take_value()) {
      char* end = nullptr;
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->seconds > 0.0) ||
          args->seconds > 600.0) {
        return false;
      }
    } else {
      return false;
    }
  }
  return have_seed && FindWorkload(args->workload) != nullptr;
}

/// Nearest-rank percentile (p in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Waits until NowNs() >= due_ns: sleeps while far, spins the last
/// millisecond. A sleeping generator can wake late by a scheduler slice
/// when another thread holds its CPU, which would be charged to the
/// system as latency.
void SleepUntil(int64_t due_ns) {
  for (;;) {
    const int64_t left = due_ns - NowNs();
    if (left <= 0) return;
    if (left > 1000000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 800000));
    }
  }
}

double ReadRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

/// CPU time of the whole process, and of the calling thread.
double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double ThreadCpuSeconds() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) / 1e9;
}

/// Returns freed heap to the OS so VmRSS reflects live data, not what the
/// repeated set-ups left in the allocator.
void TrimHeap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

// ---------------------------------------------------------------------------
// Request log
// ---------------------------------------------------------------------------

enum class Outcome : uint8_t { kPending, kOk, kFailed, kRefused };

/// One request of a phase. The generator writes due/sent/submitted before
/// or after Send(); the completion path writes the rest and publishes them
/// through PhaseLog::completed.
struct Record {
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t submitted_ns = 0;  ///< SubmitSuggest returned (engine)
  int64_t picked_ns = 0;     ///< a handler thread took it (sharded)
  int64_t done_ns = 0;
  float latency_us = 0.0f;  ///< ServeResult::latency_ms
  float compute_us = 0.0f;  ///< ServeResult::compute_ms
  uint32_t query = 0;
  Outcome outcome = Outcome::kPending;
  bool degraded = false;
  bool cache_hit = false;
  uint8_t rank = 0;  ///< 1-based rank of the ground truth; 0 = absent
};

/// Preallocated records of one phase; no allocation on the request path
/// beyond what the system under test does itself.
struct PhaseLog {
  PhaseLog(const std::vector<Arrival>& arrivals, double seconds)
      : records(arrivals.size()),
        start_ns(NowNs() + 2000000),
        end_ns(start_ns + static_cast<int64_t>(seconds * 1e9)) {
    for (size_t i = 0; i < arrivals.size(); ++i) {
      records[i].due_ns = start_ns + arrivals[i].due_ns;
      records[i].query = arrivals[i].query;
    }
  }

  std::vector<Record> records;
  const int64_t start_ns;
  const int64_t end_ns;
  std::atomic<size_t> completed{0};
};

/// The first full-quality answer served for each sampled pool query (the
/// first distinct queries of the fixed-rate schedule), for the oracle.
class AnswerSample {
 public:
  AnswerSample(size_t pool_size, const std::vector<Arrival>& schedule,
               size_t limit)
      : slot_of_(pool_size, -1) {
    for (const Arrival& a : schedule) {
      if (queries_.size() == limit) break;
      if (slot_of_[a.query] < 0) {
        slot_of_[a.query] = static_cast<int32_t>(queries_.size());
        queries_.push_back(a.query);
      }
    }
    answers_.resize(queries_.size());
    state_ = std::make_unique<std::atomic<uint8_t>[]>(queries_.size());
  }

  /// Thread-safe; the first offer per query wins.
  void Offer(uint32_t query, const std::vector<Suggestion>& suggestions) {
    const int32_t slot = slot_of_[query];
    if (slot < 0) return;
    uint8_t expected = 0;
    if (!state_[slot].compare_exchange_strong(expected, 1,
                                              std::memory_order_acq_rel)) {
      return;
    }
    answers_[slot] = suggestions;
    state_[slot].store(2, std::memory_order_release);
  }

  size_t size() const { return queries_.size(); }
  uint32_t query(size_t i) const { return queries_[i]; }
  bool has(size_t i) const {
    return state_[i].load(std::memory_order_acquire) == 2;
  }
  const std::vector<Suggestion>& answer(size_t i) const { return answers_[i]; }

 private:
  std::vector<int32_t> slot_of_;
  std::vector<uint32_t> queries_;
  std::vector<std::vector<Suggestion>> answers_;
  std::unique_ptr<std::atomic<uint8_t>[]> state_;
};

/// Same words, entity counts and result types in the same order, scores
/// within a relative kScoreTolerance.
bool SameSuggestions(const std::vector<Suggestion>& got,
                     const std::vector<Suggestion>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].words != want[i].words ||
        got[i].entity_count != want[i].entity_count ||
        got[i].result_type != want[i].result_type ||
        std::abs(got[i].score - want[i].score) >
            kScoreTolerance * std::abs(want[i].score)) {
      return false;
    }
  }
  return true;
}

/// What every completion path shares: MRR rank, oracle capture, outcome.
struct Completion {
  const std::vector<PoolQuery>* pool = nullptr;
  AnswerSample* sample = nullptr;

  /// Must be the last write to the record: it publishes it.
  void Finish(PhaseLog& log, size_t slot, bool ok,
              const std::vector<Suggestion>& suggestions) const {
    Record& r = log.records[slot];
    if (ok) {
      const size_t rank = RankOfTruth(suggestions, (*pool)[r.query].truth);
      r.rank = static_cast<uint8_t>(std::min<size_t>(255, rank));
      if (!r.degraded && sample != nullptr) sample->Offer(r.query, suggestions);
    }
    r.outcome = ok ? Outcome::kOk : Outcome::kFailed;
    log.completed.fetch_add(1, std::memory_order_release);
  }
};

// ---------------------------------------------------------------------------
// Systems under test
// ---------------------------------------------------------------------------

class System {
 public:
  virtual ~System() = default;
  /// Sends request `slot`; its completion calls Completion::Finish. False
  /// when the system refused it at submission (never completes).
  virtual bool Send(PhaseLog& log, size_t slot) = 0;
};

serve::EngineOptions BenchEngineOptions() {
  serve::EngineOptions options;
  options.pool.num_threads = 2;
  options.pool.queue_capacity = 1024;
  options.cache.capacity = 16384;
  return options;
}

XCleanOptions BenchXCleanOptions(const WorkloadSpec& spec) {
  XCleanOptions options;  // paper defaults: max_ed 2, beta 5, top-k 10
  options.gamma = spec.gamma;
  return options;
}

class EngineSystem final : public System {
 public:
  EngineSystem(serve::ServingEngine* engine, const Completion* completion)
      : engine_(engine), completion_(completion) {}

  bool Send(PhaseLog& log, size_t slot) override {
    const PoolQuery& q = (*completion_->pool)[log.records[slot].query];
    const Status submitted = engine_->SubmitSuggest(
        q.text, [this, &log, slot](serve::ServeResult result) {
          Record& r = log.records[slot];
          r.done_ns = NowNs();
          r.latency_us = static_cast<float>(result.latency_ms * 1e3);
          r.compute_us = static_cast<float>(result.compute_ms * 1e3);
          r.cache_hit = result.cache_hit;
          r.degraded = result.truncated || result.tier != ServiceTier::kFull;
          completion_->Finish(log, slot, result.status.ok(),
                              result.suggestions);
        });
    return submitted.ok();
  }

 private:
  serve::ServingEngine* const engine_;
  const Completion* const completion_;
};

/// Coordinator::Suggest is synchronous, so handler threads drain the
/// generator's bounded queue and call it; a full queue refuses the request
/// (as the engine's bounded queue does).
class ShardedSystem final : public System {
 public:
  ShardedSystem(shard::Coordinator* coordinator, const Completion* completion,
                size_t handlers, size_t queue_capacity)
      : coordinator_(coordinator),
        completion_(completion),
        ring_(queue_capacity) {
    for (size_t i = 0; i < handlers; ++i) {
      threads_.emplace_back([this] { HandlerLoop(); });
    }
  }

  ~ShardedSystem() override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  ShardedSystem(const ShardedSystem&) = delete;
  ShardedSystem& operator=(const ShardedSystem&) = delete;

  bool Send(PhaseLog& log, size_t slot) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (size_ == ring_.size()) return false;
      ring_[(head_ + size_) % ring_.size()] = {&log, slot};
      ++size_;
    }
    cv_.notify_one();
    return true;
  }

 private:
  struct Item {
    PhaseLog* log = nullptr;
    size_t slot = 0;
  };

  void HandlerLoop() {
    for (;;) {
      Item item;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return closed_ || size_ > 0; });
        if (size_ == 0) return;  // closed and drained
        item = ring_[head_];
        head_ = (head_ + 1) % ring_.size();
        --size_;
      }
      Record& r = item.log->records[item.slot];
      r.picked_ns = NowNs();
      shard::CoordinatorResult result = coordinator_->Suggest(
          (*completion_->pool)[r.query].query, kGeneration);
      r.done_ns = NowNs();
      r.degraded = result.truncated;
      completion_->Finish(*item.log, item.slot, result.status.ok(),
                          result.suggestions);
    }
  }

  shard::Coordinator* const coordinator_;
  const Completion* const completion_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Item> ring_;  ///< guarded by mu_
  size_t head_ = 0;         ///< guarded by mu_
  size_t size_ = 0;         ///< guarded by mu_
  bool closed_ = false;     ///< guarded by mu_
  std::vector<std::thread> threads_;
};

/// The sharded serving stack over loopback sockets. Member order is
/// destruction order in reverse: everything is destroyed before what it
/// borrows.
struct Fleet {
  shard::ShardedCorpus corpus;
  std::unique_ptr<ThreadPool> hedge_pool;
  /// Indexed shard * kReplicas + replica.
  std::vector<std::unique_ptr<shard::ShardServer>> shard_servers;
  std::vector<std::unique_ptr<TracingBackend>> evaluate_spans;
  std::vector<std::unique_ptr<rpc::RpcShardServer>> rpc_servers;
  std::vector<std::unique_ptr<rpc::RpcShardBackend>> clients;
  std::vector<std::unique_ptr<TracingBackend>> attempt_spans;
  std::vector<std::unique_ptr<shard::ReplicaSet>> replica_sets;
  std::vector<std::unique_ptr<TracingBackend>> leg_spans;
  std::unique_ptr<shard::Coordinator> coordinator;
};

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "bench_e2e: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

/// Builds the fleet; with a recorder, bench-owned decorators wrap the
/// three boundaries (coordinator->ReplicaSet, ReplicaSet->client,
/// RpcShardServer->ShardServer). `build_s` receives the index-build share.
std::unique_ptr<Fleet> BuildFleet(const WorkloadSpec& spec,
                                  const XmlTree& corpus,
                                  SpanRecorder* recorder, double* build_s) {
  auto fleet = std::make_unique<Fleet>();
  const XCleanOptions xclean = BenchXCleanOptions(spec);
  Stopwatch build_watch;
  shard::ShardedCorpusOptions options;
  options.num_shards = kShards;
  options.xclean = xclean;
  Result<shard::ShardedCorpus> built =
      shard::BuildShardedCorpus(corpus, options, kGeneration);
  if (!built.ok()) Die("BuildShardedCorpus", built.status());
  fleet->corpus = std::move(built).value();
  *build_s = build_watch.ElapsedSeconds();

  auto wrap = [&](shard::ShardBackend* inner, SpanName name, size_t shard,
                  int replica,
                  std::vector<std::unique_ptr<TracingBackend>>& owner)
      -> shard::ShardBackend* {
    if (recorder == nullptr) return inner;
    owner.push_back(std::make_unique<TracingBackend>(
        inner, name, static_cast<int>(shard), replica, recorder));
    return owner.back().get();
  };

  ThreadPoolOptions pool_options;
  pool_options.num_threads = kShards;
  fleet->hedge_pool = std::make_unique<ThreadPool>(pool_options);
  std::vector<shard::ShardBackend*> legs;
  for (size_t s = 0; s < kShards; ++s) {
    std::vector<shard::ShardBackend*> replicas;
    for (size_t r = 0; r < kReplicas; ++r) {
      fleet->shard_servers.push_back(std::make_unique<shard::ShardServer>(
          static_cast<uint32_t>(s), fleet->corpus.engine, kGeneration));
      shard::ShardBackend* served =
          wrap(fleet->shard_servers.back().get(), SpanName::kShardEvaluate, s,
               static_cast<int>(r), fleet->evaluate_spans);
      rpc::RpcServerOptions server_options;
      server_options.shard_id = static_cast<uint32_t>(s);
      server_options.eval_threads = 1;
      fleet->rpc_servers.push_back(
          std::make_unique<rpc::RpcShardServer>(served, server_options));
      const Status started = fleet->rpc_servers.back()->Start();
      if (!started.ok()) Die("RpcShardServer::Start", started);
      fleet->clients.push_back(std::make_unique<rpc::RpcShardBackend>(
          fleet->rpc_servers.back()->port(), static_cast<uint32_t>(s)));
      replicas.push_back(wrap(fleet->clients.back().get(),
                              SpanName::kReplicaAttempt, s,
                              static_cast<int>(r), fleet->attempt_spans));
    }
    shard::ReplicaSetOptions replica_options;  // hedging at its defaults
    replica_options.hedge_pool = fleet->hedge_pool.get();
    fleet->replica_sets.push_back(std::make_unique<shard::ReplicaSet>(
        static_cast<uint32_t>(s), replicas, replica_options));
    legs.push_back(wrap(fleet->replica_sets.back().get(), SpanName::kShardLeg,
                        s, -1, fleet->leg_spans));
  }
  fleet->coordinator = std::make_unique<shard::Coordinator>(
      legs, fleet->corpus.stats, xclean, shard::CoordinatorOptions());

  // First dial: every client opens its pooled connection.
  shard::ShardRequest hello;
  hello.query.keywords = {"query"};
  for (const auto& client : fleet->clients) {
    const shard::ShardResponse response = client->Evaluate(hello);
    if (!response.status.ok()) Die("first dial", response.status);
  }
  return fleet;
}

/// Everything one set-up builds.
struct Stack {
  std::shared_ptr<const XCleanSuggester> suggester;
  std::unique_ptr<serve::ServingEngine> engine;
  std::unique_ptr<Fleet> fleet;
};

std::unique_ptr<Stack> BuildStack(const WorkloadSpec& spec, XmlTree corpus,
                                  SpanRecorder* recorder, double* build_s) {
  auto stack = std::make_unique<Stack>();
  if (spec.topology == Topology::kShardedRpc) {
    stack->fleet = BuildFleet(spec, corpus, recorder, build_s);
    return stack;
  }
  Stopwatch build_watch;
  SuggesterOptions options;
  options.xclean = BenchXCleanOptions(spec);
  stack->suggester = std::make_shared<const XCleanSuggester>(
      XCleanSuggester::FromTree(std::move(corpus), options));
  *build_s = build_watch.ElapsedSeconds();
  stack->engine = std::make_unique<serve::ServingEngine>(stack->suggester,
                                                         BenchEngineOptions());
  if (spec.topology == Topology::kLive) {
    const Status enabled = stack->engine->EnableLiveUpdates();
    if (!enabled.ok()) Die("EnableLiveUpdates", enabled);
  }
  return stack;
}

// ---------------------------------------------------------------------------
// dblp-live writer
// ---------------------------------------------------------------------------

/// Open-loop writer thread: adds and deletes on the WriteSource schedule,
/// a background compaction after every kCompactEveryAdds adds.
class LiveWriter {
 public:
  struct Op {
    int64_t due_ns = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    uint64_t pick = 0;  ///< deletes: picks the added document to delete
    bool is_delete = false;
    bool ok = false;
    bool skipped = false;  ///< a delete with nothing added yet to delete
    uint32_t layers = 0;   ///< layer count after the op
  };
  struct Compaction {
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  LiveWriter(serve::ServingEngine* engine, std::vector<std::string> documents,
             const std::vector<WriteOp>& schedule, int64_t start_ns)
      : engine_(engine), documents_(std::move(documents)) {
    ops_.resize(schedule.size());
    for (size_t i = 0; i < schedule.size(); ++i) {
      ops_[i].due_ns = start_ns + schedule[i].due_ns;
      ops_[i].pick = schedule[i].pick;
      ops_[i].is_delete = schedule[i].is_delete;
    }
    thread_ = std::thread([this] { Loop(); });
  }

  ~LiveWriter() { Stop(); }

  LiveWriter(const LiveWriter&) = delete;
  LiveWriter& operator=(const LiveWriter&) = delete;

  /// Stops issuing writes, joins, and waits out a running compaction.
  void Stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }

  /// Valid after Stop().
  const std::vector<Op>& ops() const { return ops_; }
  size_t ops_done() const { return ops_done_; }
  const std::vector<Compaction>& compactions() const { return compactions_; }

 private:
  void Loop() {
    std::shared_ptr<delta::LiveIndex> live = engine_->live_index();
    std::vector<delta::DocId> added;
    uint64_t adds = 0;
    size_t next_document = 0;
    bool compacting = false;
    int64_t compact_start = 0;
    auto poll_compaction = [&] {
      if (compacting && !live->compacting()) {
        compactions_.push_back({compact_start, NowNs()});
        compacting = false;
      }
    };
    for (size_t i = 0; i < ops_.size(); ++i) {
      Op& op = ops_[i];
      // Wake at least every millisecond while a compaction runs, so its
      // end is timed to that granularity.
      for (;;) {
        if (stop_.load(std::memory_order_relaxed)) break;
        poll_compaction();
        const int64_t left = op.due_ns - NowNs();
        if (left <= 0) break;
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            std::min<int64_t>(left, compacting ? 1000000 : 20000000)));
      }
      if (stop_.load(std::memory_order_relaxed)) break;
      op.start_ns = NowNs();
      if (op.is_delete) {
        if (added.empty()) {
          op.skipped = true;
        } else {
          const size_t victim = op.pick % added.size();
          const delta::DocId id = added[victim];
          added[victim] = added.back();
          added.pop_back();
          op.ok = engine_->DeleteDocument(id).ok();
        }
      } else {
        Result<delta::DocId> id = engine_->AddDocument(
            documents_[next_document++ % documents_.size()]);
        op.ok = id.ok();
        if (op.ok) added.push_back(id.value());
        if (++adds % WriteSource::kCompactEveryAdds == 0 && !compacting &&
            engine_->CompactLiveInBackground().ok()) {
          compacting = true;
          compact_start = NowNs();
        }
      }
      op.end_ns = NowNs();
      op.layers = static_cast<uint32_t>(live->counters().layer_count);
      ops_done_ = i + 1;
    }
    if (compacting) {
      engine_->WaitForLiveCompaction();
      compactions_.push_back({compact_start, NowNs()});
    }
  }

  serve::ServingEngine* const engine_;
  const std::vector<std::string> documents_;
  std::vector<Op> ops_;
  size_t ops_done_ = 0;
  std::vector<Compaction> compactions_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  ///< last: joined before the members it uses die
};

// ---------------------------------------------------------------------------
// Open-loop phases
// ---------------------------------------------------------------------------

struct PhaseStats {
  double rate = 0.0;
  size_t requests = 0;
  size_t ok = 0;
  size_t failed = 0;  ///< refused at submission or answered with an error
  size_t degraded = 0;
  double inflight = 0.0;  ///< median over window ends
  double p50_ms = 0.0;
  double p99_ms = 0.0;  ///< median over windows of the window's p99
  double lag_p99_us = 0.0;  ///< median over windows, like p99_ms
  double goodput_qps = 0.0;
  /// CPU time of every thread but the generator (its spin-waits are not
  /// the system's work), from the first send until the last answer, per
  /// request.
  double cpu_us_per_request = 0.0;
  bool slo_pass = false;
};

/// Sends every arrival of `log` when it is due, then waits for all
/// accepted requests to complete. Latency counts from the due time, so a
/// stall is charged to every request it delays. The phase is cut into
/// windows of `window_s`; p99 and generator lag are medians of the
/// windows' p99 and the latency half of the SLO verdict a majority vote of
/// the windows, so one scheduling stall of the host moves one window, not
/// the run's number.
PhaseStats RunPhase(System& system, PhaseLog& log, double rate,
                    double seconds, double window_s) {
  const size_t windows = std::max<size_t>(
      1, static_cast<size_t>(std::lround(seconds / window_s)));
  const int64_t window_ns =
      (log.end_ns - log.start_ns) / static_cast<int64_t>(windows);
  std::vector<double> inflight(windows, 0.0);
  size_t sampled = 0;
  size_t accepted = 0;
  const double process_cpu_start = ProcessCpuSeconds();
  const double generator_cpu_start = ThreadCpuSeconds();
  auto sample_inflight = [&](int64_t now_ns) {
    while (sampled < windows &&
           now_ns >= log.start_ns +
                         static_cast<int64_t>(sampled + 1) * window_ns) {
      inflight[sampled++] = static_cast<double>(
          accepted - log.completed.load(std::memory_order_acquire));
    }
  };
  for (size_t i = 0; i < log.records.size(); ++i) {
    Record& r = log.records[i];
    SleepUntil(r.due_ns);
    sample_inflight(r.due_ns);
    r.sent_ns = NowNs();
    if (system.Send(log, i)) {
      r.submitted_ns = NowNs();
      ++accepted;
    } else {
      r.outcome = Outcome::kRefused;
    }
  }
  SleepUntil(log.end_ns);
  sample_inflight(log.end_ns);
  while (log.completed.load(std::memory_order_acquire) < accepted) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const double system_cpu_s =
      (ProcessCpuSeconds() - process_cpu_start) -
      (ThreadCpuSeconds() - generator_cpu_start);

  PhaseStats stats;
  stats.rate = rate;
  stats.requests = log.records.size();
  struct Window {
    std::vector<double> ms;
    std::vector<double> lag_us;
    size_t bad = 0;
  };
  std::vector<double> latency_ms;
  std::vector<Window> window(windows);
  latency_ms.reserve(log.records.size());
  for (const Record& r : log.records) {
    double ms = INFINITY;  // a failed or refused request misses every limit
    bool bad = true;
    if (r.outcome == Outcome::kOk) {
      ++stats.ok;
      if (r.degraded) ++stats.degraded;
      ms = static_cast<double>(r.done_ns - r.due_ns) / 1e6;
      bad = r.degraded;
    } else {
      ++stats.failed;
    }
    latency_ms.push_back(ms);
    Window& w = window[std::min(
        windows - 1,
        static_cast<size_t>((r.due_ns - log.start_ns) / window_ns))];
    w.ms.push_back(ms);
    w.lag_us.push_back(static_cast<double>(r.sent_ns - r.due_ns) / 1e3);
    w.bad += bad ? 1 : 0;
  }
  // A window meets the latency SLO when its p99 and the in-flight count at
  // its end are within limits; the phase needs most windows to, and its
  // failed-or-degraded share over the whole phase within limits: an answer
  // degraded to stay fast is not out-voted by the windows that stayed full.
  std::vector<double> window_p99;
  std::vector<double> window_lag_p99;
  size_t passing = 0;
  size_t bad = 0;
  for (size_t i = 0; i < windows; ++i) {
    bad += window[i].bad;
    if (window[i].ms.empty()) continue;
    const double p99 = Percentile(window[i].ms, 0.99);
    window_p99.push_back(p99);
    window_lag_p99.push_back(Percentile(window[i].lag_us, 0.99));
    if (p99 <= kSloP99Ms && inflight[i] <= rate * kSloInflightSeconds) {
      ++passing;
    }
  }
  stats.inflight = Median(inflight);
  stats.p50_ms = Percentile(latency_ms, 0.50);
  stats.p99_ms = Median(window_p99);
  stats.lag_p99_us = Median(window_lag_p99);
  stats.goodput_qps = static_cast<double>(stats.ok) / seconds;
  stats.cpu_us_per_request =
      Ratio(system_cpu_s * 1e6, static_cast<double>(stats.requests));
  stats.slo_pass = 2 * passing > windows &&
                   static_cast<double>(bad) <=
                       kSloBadFraction * static_cast<double>(stats.requests) &&
                   stats.lag_p99_us < kMaxLagP99Us;
  return stats;
}

void PrintPhase(const char* name, const PhaseStats& s) {
  std::fprintf(stderr,
               "  %-10s rate=%8.1f n=%7zu ok=%7zu failed=%zu degraded=%zu "
               "p50=%.3fms p99=%.3fms lag_p99=%.1fus inflight=%.0f "
               "goodput=%.1f cpu/req=%.1fus slo=%s\n",
               name, s.rate, s.requests, s.ok, s.failed, s.degraded,
               s.p50_ms, s.p99_ms, s.lag_p99_us, s.inflight,
               s.goodput_qps, s.cpu_us_per_request,
               s.slo_pass ? "pass" : "fail");
}

double LadderRate(int rung) {
  return kLadderBase * std::pow(kLadderStep, rung);
}

/// Binary search over kLadderSpan ladder rungs around the frozen nominal
/// rate, independent of how the fixed-rate phase went. Returns the goodput
/// of the highest passing probe, or of the lowest probe when none passes.
double SearchMaxQps(System& system, ArrivalSource& arrivals, double nominal,
                    double probe_s, double cooldown_s) {
  const int nominal_rung = static_cast<int>(
      std::floor(std::log(nominal / kLadderBase) / std::log(kLadderStep)));
  int lo = nominal_rung - kLadderBelow;
  int hi = lo + kLadderSpan;
  double best = 0.0;
  double lowest = 0.0;
  for (int p = 0; p < kProbes && hi - lo > 1; ++p) {
    const int mid = lo + (hi - lo) / 2;
    const double rate = LadderRate(mid);
    const std::vector<Arrival> schedule = arrivals.Schedule(rate, probe_s);
    PhaseLog log(schedule, probe_s);
    const PhaseStats stats =
        RunPhase(system, log, rate, probe_s, probe_s / kProbeWindows);
    PrintPhase("probe", stats);
    lowest = stats.goodput_qps;
    if (stats.slo_pass) {
      lo = mid;
      best = stats.goodput_qps;
    } else {
      hi = mid;
    }
    // Let the overload ladder step back down before the next probe.
    std::this_thread::sleep_for(std::chrono::duration<double>(cooldown_s));
  }
  return best > 0.0 ? best : lowest;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

class Metrics {
 public:
  /// Traced runs emit exactly kPerLayerMetrics, starting at 0; untraced
  /// runs emit what they set.
  void InitPerLayer() {
    for (const char* name : kPerLayerMetrics) values_[name] = 0.0;
    per_layer_ = true;
  }
  void Set(const std::string& name, double value) {
    if (per_layer_ && values_.count(name) == 0) {
      std::fprintf(stderr, "bench_e2e: %s is not a per-layer metric\n",
                   name.c_str());
      std::exit(1);
    }
    values_[name] = std::isfinite(value) ? value : 0.0;
  }
  const std::map<std::string, double>& values() const { return values_; }

 private:
  std::map<std::string, double> values_;
  bool per_layer_ = false;
};

std::vector<double> DurationsUs(const std::vector<LinkedSpan>& spans,
                                SpanName name) {
  std::vector<double> out;
  for (const LinkedSpan& l : spans) {
    if (l.span.name == name) {
      out.push_back(static_cast<double>(l.span.end_ns - l.span.start_ns) /
                    1e3);
    }
  }
  return out;
}

constexpr uint64_t kWriteIdTag = 1ull << 63;
constexpr uint64_t kCompactIdTag = 1ull << 62;

/// Spans derived from a phase's records: engine spans from the
/// ServeResult timings, sharded spans from the handler's timestamps.
void AppendRequestSpans(const WorkloadSpec& spec, const PhaseLog& log,
                        const std::vector<PoolQuery>& pool,
                        std::vector<Span>& spans) {
  for (size_t i = 0; i < log.records.size(); ++i) {
    const Record& r = log.records[i];
    if (r.outcome == Outcome::kRefused) continue;
    if (spec.topology == Topology::kShardedRpc) {
      const uint64_t id = QueryId(pool[r.query].query);
      spans.push_back({r.due_ns, r.done_ns, id, SpanName::kRequest});
      spans.push_back({r.due_ns, r.picked_ns, id, SpanName::kHandlerWait});
      spans.push_back({r.picked_ns, r.done_ns, id, SpanName::kCoordinator});
      continue;
    }
    const uint64_t id = i;
    spans.push_back({r.due_ns, r.done_ns, id, SpanName::kRequest});
    spans.push_back({r.sent_ns, r.submitted_ns, id, SpanName::kServeSubmit});
    if (r.outcome != Outcome::kOk) continue;
    // The engine timestamps from its own enqueue; the send time is the
    // closest bench-side instant to it.
    const int64_t served_ns =
        r.sent_ns + static_cast<int64_t>(r.latency_us * 1e3f);
    if (r.cache_hit) {
      spans.push_back({r.sent_ns, served_ns, id, SpanName::kServeHit});
    } else {
      const int64_t compute_start =
          served_ns - static_cast<int64_t>(r.compute_us * 1e3f);
      spans.push_back({r.sent_ns, compute_start, id, SpanName::kServeQueue});
      spans.push_back({compute_start, served_ns, id, SpanName::kServeCompute});
    }
  }
}

void AppendWriteSpans(const LiveWriter& writer, int64_t from_ns, int64_t to_ns,
                      std::vector<Span>& spans) {
  for (size_t i = 0; i < writer.ops_done(); ++i) {
    const LiveWriter::Op& op = writer.ops()[i];
    if (op.skipped || op.due_ns < from_ns || op.due_ns >= to_ns) continue;
    const uint64_t id = kWriteIdTag | i;
    spans.push_back({op.due_ns, op.end_ns, id, SpanName::kWrite});
    spans.push_back({op.start_ns, op.end_ns, id,
                     op.is_delete ? SpanName::kDeltaDelete
                                  : SpanName::kDeltaAdd});
  }
  for (size_t k = 0; k < writer.compactions().size(); ++k) {
    const LiveWriter::Compaction& c = writer.compactions()[k];
    spans.push_back(
        {c.start_ns, c.end_ns, kCompactIdTag | k, SpanName::kDeltaCompact});
  }
}

void SetSpanMetrics(const std::vector<LinkedSpan>& spans, Metrics& m) {
  const std::vector<double> queue = DurationsUs(spans, SpanName::kServeQueue);
  m.Set("serve.queue_wait_us.p50", Percentile(queue, 0.50));
  m.Set("serve.queue_wait_us.p99", Percentile(queue, 0.99));
  m.Set("serve.compute_us.p50",
        Median(DurationsUs(spans, SpanName::kServeCompute)));
  m.Set("serve.submit_us.p50",
        Median(DurationsUs(spans, SpanName::kServeSubmit)));
  m.Set("serve.hit_us.p50", Median(DurationsUs(spans, SpanName::kServeHit)));

  const std::vector<double> add = DurationsUs(spans, SpanName::kDeltaAdd);
  m.Set("delta.add_us.p50", Percentile(add, 0.50));
  m.Set("delta.add_us.p99", Percentile(add, 0.99));
  m.Set("delta.delete_us.p50",
        Median(DurationsUs(spans, SpanName::kDeltaDelete)));
  const std::vector<double> write = DurationsUs(spans, SpanName::kWrite);
  m.Set("delta.write_p50_ms", Percentile(write, 0.50) / 1e3);
  m.Set("delta.write_p99_ms", Percentile(write, 0.99) / 1e3);
  m.Set("delta.compact_ms",
        Mean(DurationsUs(spans, SpanName::kDeltaCompact)) / 1e3);

  m.Set("shard.handler_wait_us.p50",
        Median(DurationsUs(spans, SpanName::kHandlerWait)));
  const std::vector<double> coordinator =
      DurationsUs(spans, SpanName::kCoordinator);
  m.Set("shard.coordinator_us.p50", Percentile(coordinator, 0.50));
  m.Set("shard.coordinator_us.p99", Percentile(coordinator, 0.99));
  const std::vector<double> leg = DurationsUs(spans, SpanName::kShardLeg);
  m.Set("shard.leg_us.p50", Percentile(leg, 0.50));
  m.Set("shard.leg_us.p99", Percentile(leg, 0.99));
  m.Set("shard.evaluate_us.p50",
        Median(DurationsUs(spans, SpanName::kShardEvaluate)));

  std::vector<double> coordinator_self;
  std::vector<double> wire;
  std::map<int64_t, std::vector<double>> legs_of;
  for (const LinkedSpan& l : spans) {
    const double us =
        static_cast<double>(l.span.end_ns - l.span.start_ns) / 1e3;
    if (l.span.name == SpanName::kCoordinator) {
      coordinator_self.push_back(static_cast<double>(l.self_ns) / 1e3);
    } else if (l.span.name == SpanName::kShardLeg && l.parent >= 0) {
      legs_of[l.parent].push_back(us);
    } else if (l.span.name == SpanName::kShardEvaluate && l.parent >= 0) {
      const Span& attempt = spans[static_cast<size_t>(l.parent)].span;
      wire.push_back(static_cast<double>(attempt.end_ns - attempt.start_ns) /
                         1e3 -
                     us);
    }
  }
  // Slowest leg over the lower-median leg, per request.
  std::vector<double> skew;
  for (auto& [parent, legs] : legs_of) {
    std::sort(legs.begin(), legs.end());
    const double median = legs[(legs.size() - 1) / 2];
    if (median > 0.0) skew.push_back(legs.back() / median);
  }
  m.Set("shard.coordinator_self_us.p50", Median(coordinator_self));
  m.Set("shard.leg_skew", Median(skew));
  m.Set("rpc.wire_us.p50", Median(wire));
}

/// Times single layers on the served stream, outside the load.
struct Replay {
  const XClean* algorithm = nullptr;
  const XmlIndex* index = nullptr;
  const delta::LiveSnapshot* live = nullptr;
  const Fleet* fleet = nullptr;
  XCleanOptions xclean;
};

void RunReplay(const Replay& replay, const std::vector<const Query*>& queries,
               Metrics& m) {
  const Stopwatch budget;
  std::vector<double> suggest_us;
  std::vector<double> variant_us;
  double keywords = 0.0;
  double variants = 0.0;
  double subtrees = 0.0, occurrences = 0.0, candidates = 0.0, entities = 0.0,
         result_types = 0.0, evictions = 0.0, finals = 0.0;
  QueryScratch scratch;
  std::vector<Suggestion> out;
  const VariantGenerator generator(
      *replay.index, VariantGenOptions{replay.xclean.max_ed, false});
  for (const Query* query : queries) {
    if (budget.ElapsedSeconds() > kReplayBudgetSeconds) break;
    XCleanRunStats stats;
    Stopwatch watch;
    replay.algorithm->SuggestWithScratch(*query, scratch, &out, &stats);
    suggest_us.push_back(watch.ElapsedSeconds() * 1e6);
    subtrees += static_cast<double>(stats.subtrees_processed);
    occurrences += static_cast<double>(stats.occurrences_collected);
    candidates += static_cast<double>(stats.candidates_enumerated);
    entities += static_cast<double>(stats.entities_scored);
    result_types += static_cast<double>(stats.result_type_computations);
    evictions += static_cast<double>(stats.accumulator_evictions);
    finals += static_cast<double>(stats.accumulators_final);
    watch.Restart();
    for (const std::string& keyword : query->keywords) {
      variants += static_cast<double>(generator.Generate(keyword).size());
    }
    variant_us.push_back(watch.ElapsedSeconds() * 1e6);
    keywords += static_cast<double>(query->keywords.size());
  }
  const double n = static_cast<double>(suggest_us.size());
  m.Set("core.suggest_us.p50", Percentile(suggest_us, 0.50));
  m.Set("core.suggest_us.p99", Percentile(suggest_us, 0.99));
  m.Set("core.variant_gen_us_per_query", Mean(variant_us));
  m.Set("core.variants_per_keyword", Ratio(variants, keywords));
  m.Set("core.subtrees", Ratio(subtrees, n));
  m.Set("core.occurrences", Ratio(occurrences, n));
  m.Set("core.candidates", Ratio(candidates, n));
  m.Set("core.entities_scored", Ratio(entities, n));
  m.Set("core.result_type_computations", Ratio(result_types, n));
  m.Set("core.accumulator_evictions", Ratio(evictions, n));
  m.Set("core.accumulators_final", Ratio(finals, n));
  m.Set("core.eviction_ratio", Ratio(evictions, candidates));

  if (replay.live != nullptr) {
    std::vector<double> layered_us;
    QueryScratch live_scratch;
    for (size_t i = 0; i < suggest_us.size(); ++i) {
      Stopwatch watch;
      replay.live->Suggest(*queries[i], &live_scratch);
      layered_us.push_back(watch.ElapsedSeconds() * 1e6);
    }
    m.Set("delta.layered_suggest_us.p50", Median(layered_us));
  }

  if (replay.fleet != nullptr) {
    const Fleet& fleet = *replay.fleet;
    std::vector<double> merge_us, encode_us, decode_us;
    double partials = 0.0, responses = 0.0, response_bytes = 0.0,
           request_bytes = 0.0;
    for (size_t i = 0; i < suggest_us.size(); ++i) {
      shard::ShardRequest request;
      request.query = *queries[i];
      std::string request_wire;
      rpc::EncodeShardRequest(request, std::chrono::steady_clock::now(),
                              request_wire);
      request_bytes += static_cast<double>(request_wire.size());
      std::vector<shard::ShardOutcome> outcomes(kShards);
      for (size_t s = 0; s < kShards; ++s) {
        outcomes[s] = {shard::ShardOutcomeKind::kOk,
                       fleet.shard_servers[s * kReplicas]->Evaluate(request)};
        const shard::ShardResponse& response = outcomes[s].response;
        partials += static_cast<double>(response.partials.size());
        responses += 1.0;
        std::string wire;
        Stopwatch watch;
        rpc::EncodeShardResponse(response, wire);
        encode_us.push_back(watch.ElapsedSeconds() * 1e6);
        response_bytes += static_cast<double>(wire.size());
        shard::ShardResponse decoded;
        watch.Restart();
        const Status status = rpc::DecodeShardResponse(wire, &decoded);
        decode_us.push_back(watch.ElapsedSeconds() * 1e6);
        if (!status.ok()) Die("DecodeShardResponse", status);
      }
      Stopwatch watch;
      const shard::CoordinatorResult merged = shard::Coordinator::Merge(
          *fleet.corpus.stats, replay.xclean, fleet.coordinator->options(),
          kGeneration, outcomes);
      merge_us.push_back(watch.ElapsedSeconds() * 1e6);
      if (!merged.status.ok()) Die("Coordinator::Merge", merged.status);
    }
    m.Set("shard.merge_us.p50", Median(merge_us));
    m.Set("shard.partials_per_response", Ratio(partials, responses));
    m.Set("rpc.encode_us", Median(encode_us));
    m.Set("rpc.decode_us", Median(decode_us));
    m.Set("rpc.response_bytes", Ratio(response_bytes, responses));
    m.Set("rpc.request_bytes",
          Ratio(request_bytes, static_cast<double>(merge_us.size())));
  }
}

/// Serving counters whose change over the traced phase is reported.
struct Counters {
  serve::MetricsSnapshot engine;
  serve::SuggestionCache::Stats cache;
  uint64_t hedges = 0, hedge_wins = 0, retries = 0, failovers = 0;
  uint64_t dials = 0, pooled_reuses = 0;
};

Counters ReadCounters(const Stack& stack) {
  Counters c;
  if (stack.engine != nullptr) {
    c.engine = stack.engine->Metrics();
    c.cache = stack.engine->CacheStats();
  }
  if (stack.fleet != nullptr) {
    for (const auto& set : stack.fleet->replica_sets) {
      const shard::ReplicaSetStats s = set->stats();
      c.hedges += s.hedges;
      c.hedge_wins += s.hedge_wins;
      c.retries += s.retries;
      c.failovers += s.failovers;
    }
    for (const auto& client : stack.fleet->clients) {
      const rpc::RpcClientStats s = client->stats();
      c.dials += s.dials;
      c.pooled_reuses += s.pooled_reuses;
    }
  }
  return c;
}

void SetCounterMetrics(const Counters& a, const Counters& b, Metrics& m) {
  auto d = [](uint64_t before, uint64_t after) {
    return static_cast<double>(after - before);
  };
  const double hits = d(a.cache.hits, b.cache.hits);
  const double misses = d(a.cache.misses, b.cache.misses);
  m.Set("serve.cache_hit_ratio", Ratio(hits, hits + misses));
  m.Set("serve.rejected", d(a.engine.rejected, b.engine.rejected));
  m.Set("serve.shed", d(a.engine.shed_overload, b.engine.shed_overload));
  m.Set("serve.deadline",
        d(a.engine.deadline_exceeded, b.engine.deadline_exceeded));
  const char* tiers[] = {"full", "reduced", "cache_only", "shed"};
  for (size_t t = 0; t < 4; ++t) {
    m.Set(std::string("serve.tier_requests.") + tiers[t],
          d(a.engine.tier_requests[t], b.engine.tier_requests[t]));
  }
  m.Set("replica.hedges", d(a.hedges, b.hedges));
  m.Set("replica.hedge_wins", d(a.hedge_wins, b.hedge_wins));
  m.Set("replica.hedge_win_ratio",
        Ratio(d(a.hedge_wins, b.hedge_wins), d(a.hedges, b.hedges)));
  m.Set("replica.retries", d(a.retries, b.retries));
  m.Set("replica.failovers", d(a.failovers, b.failovers));
  m.Set("rpc.dials", d(a.dials, b.dials));
  m.Set("rpc.pooled_reuses", d(a.pooled_reuses, b.pooled_reuses));
}

// ---------------------------------------------------------------------------
// Run
// ---------------------------------------------------------------------------

struct RunResult {
  bool correct = true;
  size_t attempted = 0;
  size_t failed = 0;
  uint64_t workload_hash = 0;
  size_t oracle_checked = 0;
  size_t oracle_mismatches = 0;
  double lag_p99_us = 0.0;
  Metrics metrics;
};

/// Compares the sampled served answers with a reference evaluation.
void CheckSample(const AnswerSample& sample, const std::vector<PoolQuery>& pool,
                 const XClean& reference, RunResult& result) {
  for (size_t i = 0; i < sample.size(); ++i) {
    if (!sample.has(i)) continue;
    const Query& query = pool[sample.query(i)].query;
    ++result.oracle_checked;
    if (!SameSuggestions(sample.answer(i),
                         reference.SuggestWithStats(query, nullptr))) {
      ++result.oracle_mismatches;
      if (result.oracle_mismatches <= 5) {
        std::fprintf(stderr, "  oracle mismatch: \"%s\"\n",
                     query.ToString().c_str());
      }
    }
  }
}

/// dblp-live: the final layered snapshot against an index rebuilt from
/// scratch over the surviving documents.
void CheckLiveRebuild(const serve::ServingEngine& engine,
                      const std::vector<Arrival>& nominal,
                      const std::vector<PoolQuery>& pool,
                      const XCleanOptions& xclean, RunResult& result) {
  const std::shared_ptr<const delta::LiveSnapshot> snap =
      engine.live_index()->snapshot();
  Result<XmlTree> joined = delta::JoinLiveTree(snap->layers());
  if (!joined.ok()) Die("JoinLiveTree", joined.status());
  const std::unique_ptr<XmlIndex> rebuilt = XmlIndex::Build(
      std::move(joined).value(), engine.snapshot()->index().options());
  const XClean oracle(*rebuilt, xclean);
  QueryScratch scratch;
  std::unordered_set<uint32_t> seen;
  for (const Arrival& a : nominal) {
    if (seen.size() == kLiveOracleSample) break;
    if (!seen.insert(a.query).second) continue;
    const Query& query = pool[a.query].query;
    ++result.oracle_checked;
    if (!SameSuggestions(snap->Suggest(query, &scratch),
                         oracle.SuggestWithStats(query, nullptr))) {
      ++result.oracle_mismatches;
      if (result.oracle_mismatches <= 5) {
        std::fprintf(stderr, "  live rebuild mismatch: \"%s\"\n",
                     query.ToString().c_str());
      }
    }
  }
}

/// MRR over the distinct queries a phase answered at full quality, each
/// counted once: a property of the suggestions, not of how many answers
/// the overload ladder degraded (e2e.degraded_frac reports those).
double PhaseMrr(const PhaseLog& log, size_t pool_size) {
  std::vector<bool> counted(pool_size, false);
  MetricsAccumulator mrr;
  for (const Record& r : log.records) {
    if (r.outcome != Outcome::kOk || r.degraded || counted[r.query]) continue;
    counted[r.query] = true;
    mrr.Add(r.rank);
  }
  return mrr.Mrr();
}

RunResult Run(const Args& args) {
  const WorkloadSpec spec = args.smoke ? SmokeSpec(*FindWorkload(args.workload))
                                       : *FindWorkload(args.workload);
  const double rate = spec.nominal_qps;
  const double warm_s = 0.1 * args.seconds;
  const double nominal_s = (args.traced ? 0.45 : 0.5) * args.seconds;
  const double slot_s = 0.4 * args.seconds / kProbes;
  const double cooldown_s = std::min(0.3, 0.2 * slot_s);
  const double probe_s = slot_s - cooldown_s;
  RunResult result;
  Metrics& m = result.metrics;
  if (args.traced) m.InitPerLayer();

  // Traced runs hold the spans of one fixed-rate phase in memory.
  const size_t span_capacity =
      args.traced ? static_cast<size_t>(rate * nominal_s * 12.0) + 4096 : 1;
  SpanRecorder recorder(span_capacity);

  // 1. Set-up, repeated; corpus generation is not timed.
  std::fprintf(stderr, "%s seed=%llu: set-up x%d\n", spec.name,
               static_cast<unsigned long long>(args.seed), kSetupReps);
  std::vector<double> setup_s;
  std::vector<double> build_s;
  std::unique_ptr<Stack> stack;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    XmlTree corpus = GenerateCorpus(spec);
    stack.reset();
    TrimHeap();
    double build = 0.0;
    Stopwatch watch;
    stack = BuildStack(spec, std::move(corpus),
                       args.traced ? &recorder : nullptr, &build);
    setup_s.push_back(watch.ElapsedSeconds());
    build_s.push_back(build);
  }

  // 2. Inputs, from the seed. The sharded fleet has no unsharded index to
  // sample from, so a reference index is built for the pool and dropped.
  std::vector<PoolQuery> pool;
  uint64_t hash = 0;
  std::vector<std::string> live_documents;
  if (spec.topology == Topology::kLive) {
    live_documents = GenerateLiveDocuments(args.seed);
  }
  {
    std::unique_ptr<XmlIndex> reference;
    const XmlIndex* index = nullptr;
    if (stack->suggester != nullptr) {
      index = &stack->suggester->index();
    } else {
      reference = XmlIndex::Build(GenerateCorpus(spec));
      index = reference.get();
    }
    pool = BuildPool(spec, *index, args.seed);
    hash = WorkloadHash(spec, *index, pool, args.seed, live_documents);
  }
  result.workload_hash = hash;
  TrimHeap();

  ArrivalSource arrivals(spec, pool.size(), args.seed);
  const std::vector<Arrival> warm_schedule = arrivals.Schedule(rate, warm_s);
  const std::vector<Arrival> nominal_schedule =
      arrivals.Schedule(rate, nominal_s);
  AnswerSample sample(pool.size(), nominal_schedule,
                      spec.topology == Topology::kLive ? 0 : kOracleSample);
  const Completion completion{&pool, &sample};

  std::unique_ptr<System> system;
  if (stack->fleet != nullptr) {
    system = std::make_unique<ShardedSystem>(stack->fleet->coordinator.get(),
                                             &completion, 2, 1024);
  } else {
    system = std::make_unique<EngineSystem>(stack->engine.get(), &completion);
  }
  std::unique_ptr<LiveWriter> writer;
  if (spec.topology == Topology::kLive) {
    WriteSource writes(args.seed);
    writer = std::make_unique<LiveWriter>(
        stack->engine.get(), std::move(live_documents),
        writes.Schedule(args.seconds * 1.5 + 5.0), NowNs());
  }

  // 3. Warm-up, discarded.
  {
    PhaseLog log(warm_schedule, warm_s);
    PrintPhase("warm-up", RunPhase(*system, log, rate, warm_s, warm_s));
  }
  const double rss_mb = ReadRssMb();

  // 4. Fixed rate (untraced).
  PhaseLog nominal_log(nominal_schedule, nominal_s);
  const PhaseStats nominal =
      RunPhase(*system, nominal_log, rate, nominal_s, kWindowSeconds);
  PrintPhase("nominal", nominal);
  result.attempted += nominal.requests;
  result.failed += nominal.failed;
  result.lag_p99_us = nominal.lag_p99_us;
  int64_t window_from = nominal_log.start_ns;
  int64_t window_to = nominal_log.end_ns;

  double max_qps = 0.0;
  std::vector<const Query*> replay_queries;
  std::vector<Span> spans;
  Counters before;
  Counters after;
  if (!args.traced) {
    // 5. SLO search.
    max_qps = SearchMaxQps(*system, arrivals, rate, probe_s, cooldown_s);
  } else {
    // 5'. The same rate again with tracing on.
    const std::vector<Arrival> traced_schedule =
        arrivals.Schedule(rate, nominal_s);
    before = ReadCounters(*stack);
    recorder.Enable(true);
    PhaseLog traced_log(traced_schedule, nominal_s);
    const PhaseStats traced =
        RunPhase(*system, traced_log, rate, nominal_s, kWindowSeconds);
    spans = recorder.Drain();
    after = ReadCounters(*stack);
    PrintPhase("traced", traced);
    result.attempted += traced.requests;
    result.failed += traced.failed;
    result.lag_p99_us = std::max(result.lag_p99_us, traced.lag_p99_us);
    window_from = traced_log.start_ns;
    window_to = traced_log.end_ns;
    AppendRequestSpans(spec, traced_log, pool, spans);
    m.Set("trace.overhead_pct",
          Ratio(traced.p50_ms - nominal.p50_ms, nominal.p50_ms) * 100.0);
    m.Set("gen.lag_us.p99", result.lag_p99_us);
    m.Set("e2e.fail_frac", Ratio(static_cast<double>(traced.failed),
                                 static_cast<double>(traced.requests)));
    m.Set("e2e.degraded_frac", Ratio(static_cast<double>(traced.degraded),
                                     static_cast<double>(traced.requests)));
    std::unordered_set<uint32_t> seen;
    for (const Record& r : traced_log.records) {
      if (replay_queries.size() == kReplayQueries) break;
      if (r.outcome != Outcome::kOk || r.cache_hit) continue;
      if (seen.insert(r.query).second) {
        replay_queries.push_back(&pool[r.query].query);
      }
    }
  }

  if (writer != nullptr) {
    writer->Stop();
    size_t writes = 0;
    size_t write_failures = 0;
    for (size_t i = 0; i < writer->ops_done(); ++i) {
      const LiveWriter::Op& op = writer->ops()[i];
      if (op.skipped || op.due_ns < window_from || op.due_ns >= window_to) {
        continue;
      }
      ++writes;
      if (!op.ok) ++write_failures;
    }
    result.attempted += writes;
    result.failed += write_failures;
    std::fprintf(stderr, "  writer: %zu ops, %zu compactions\n",
                 writer->ops_done(), writer->compactions().size());
  }

  // 6. Correctness against the reference for the workload.
  const XCleanOptions xclean = BenchXCleanOptions(spec);
  std::unique_ptr<XmlIndex> unsharded;
  std::unique_ptr<XClean> sharded_reference;
  if (spec.topology == Topology::kLive) {
    CheckLiveRebuild(*stack->engine, nominal_schedule, pool, xclean, result);
  } else if (spec.topology == Topology::kShardedRpc) {
    unsharded = XmlIndex::Build(GenerateCorpus(spec));
    sharded_reference = std::make_unique<XClean>(*unsharded, xclean);
    CheckSample(sample, pool, *sharded_reference, result);
  } else {
    const XClean reference(stack->suggester->index(), xclean);
    CheckSample(sample, pool, reference, result);
  }
  // Smoke phases are too short for a p99 to ride out one scheduling stall
  // of the generator, so only measurement runs judge the generator.
  result.correct = result.oracle_checked > 0 &&
                   result.oracle_mismatches == 0 &&
                   (args.smoke || result.lag_p99_us < kMaxLagP99Us);
  std::fprintf(stderr,
               "  checks: oracle %zu/%zu match, gen lag p99 %.1fus -> %s\n",
               result.oracle_checked - result.oracle_mismatches,
               result.oracle_checked, result.lag_p99_us,
               result.correct ? "ok" : "FAILED");

  // 7. Metrics.
  if (!args.traced) {
    m.Set("setup_s", Median(setup_s));
    m.Set("rss_mb", rss_mb);
    m.Set("p50_ms", nominal.p50_ms);
    m.Set("p99_ms", nominal.p99_ms);
    m.Set("cpu_us_per_req", nominal.cpu_us_per_request);
    m.Set("max_qps", max_qps);
    m.Set("mrr", PhaseMrr(nominal_log, pool.size()));
    return result;
  }
  if (writer != nullptr) {
    AppendWriteSpans(*writer, window_from, window_to, spans);
    double layers = 0.0;
    double ops = 0.0;
    for (size_t i = 0; i < writer->ops_done(); ++i) {
      const LiveWriter::Op& op = writer->ops()[i];
      if (op.due_ns < window_from || op.due_ns >= window_to) continue;
      layers += op.layers;
      ops += 1.0;
    }
    m.Set("delta.layers_mean", Ratio(layers, ops));
  }
  const std::vector<LinkedSpan> linked = LinkSpans(std::move(spans));
  SetSpanMetrics(linked, m);
  SetCounterMetrics(before, after, m);
  m.Set("index.build_s", Median(build_s));

  Replay replay;
  replay.xclean = xclean;
  std::shared_ptr<const delta::LiveSnapshot> live_snapshot;
  if (spec.topology == Topology::kShardedRpc) {
    replay.algorithm = sharded_reference.get();
    replay.index = unsharded.get();
    replay.fleet = stack->fleet.get();
  } else {
    replay.algorithm = &stack->suggester->algorithm();
    replay.index = &stack->suggester->index();
    if (spec.topology == Topology::kLive) {
      live_snapshot = stack->engine->live_index()->snapshot();
      replay.live = live_snapshot.get();
    }
  }
  RunReplay(replay, replay_queries, m);

  const std::string trace_path = std::string("trace-") + spec.name + ".jsonl";
  if (!WriteTraceJsonl(trace_path, linked)) {
    std::fprintf(stderr, "bench_e2e: cannot write %s\n", trace_path.c_str());
    std::exit(1);
  }
  std::fprintf(stderr, "  trace: %zu spans (%llu dropped) -> %s\n",
               linked.size(),
               static_cast<unsigned long long>(recorder.dropped()),
               trace_path.c_str());
  return result;
}

void PrintResult(const Args& args, const RunResult& result) {
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.17g, "
      "\"traced\": %s, \"smoke\": %s, \"num_cpus\": %u, "
      "\"workload_hash\": \"%016llx\", \"correct\": %s, "
      "\"checks\": {\"oracle_checked\": %zu, \"oracle_mismatches\": %zu, "
      "\"gen_lag_p99_us\": %.17g}, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": {",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.traced ? "true" : "false",
      args.smoke ? "true" : "false", std::thread::hardware_concurrency(),
      static_cast<unsigned long long>(result.workload_hash),
      result.correct ? "true" : "false", result.oracle_checked,
      result.oracle_mismatches, result.lag_p99_us, result.attempted,
      result.failed);
  bool first = true;
  for (const auto& [name, value] : result.metrics.values()) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace
}  // namespace xclean::e2e

int main(int argc, char** argv) {
  using namespace xclean::e2e;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload <name> --seed <n> "
                 "[--seconds <s>] [--traced] [--smoke]\nworkloads:");
    for (const WorkloadSpec& spec : Workloads()) {
      std::fprintf(stderr, " %s", spec.name);
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  const RunResult result = Run(args);
  PrintResult(args, result);
  return 0;
}
