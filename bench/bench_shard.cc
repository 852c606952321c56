// Scatter-gather overhead benchmark: coordinator fan-out over N in-process
// shards vs the unsharded single-index evaluation, on the same DBLP-like
// corpus and the same misspelled queries.
//
//   $ ./bench_shard              # full scale (~20k publications)
//   $ XCLEAN_BENCH_SMALL=1 ./bench_shard
//
// Three numbers per shard count N:
//
//   scatter: end-to-end Coordinator::Suggest latency — threaded fan-out,
//            gather, merge. The headline serving-topology cost.
//   serial:  sum of the N ShardServer::Evaluate calls run back to back on
//            one thread. N times the per-shard work minus all concurrency;
//            scatter below serial is the fan-out's parallel win.
//   merge:   Coordinator::Merge alone on pre-computed healthy outcomes —
//            the pure coordination tax (accumulator fold + renormalise +
//            rank), the part that cannot be parallelised away.
//
// gamma = 0 (unbounded accumulators) so every configuration computes the
// same exact scores as the unsharded oracle and the comparison is work for
// work; each run cross-checks the top suggestion against the oracle's.
//
// Two wire sections follow the in-process table: the same scatter-gather
// with every shard behind a real loopback socket (RpcShardServer +
// RpcShardBackend) prices serialization + framing + syscalls against the
// in-process fan-out, and the straggler-tail comparison is repeated with
// both replicas of every shard behind sockets, so the hedged p99 is
// measured over the wire — cancel frames and all. XCLEAN_BENCH_JSON dumps
// all three sections.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/xclean.h"
#include "data/dblp_gen.h"
#include "data/workload.h"
#include "index/xml_index.h"
#include "rpc/rpc_client.h"
#include "rpc/rpc_shard_server.h"
#include "shard/coordinator.h"
#include "shard/replica_set.h"
#include "shard/shard_server.h"
#include "shard/sharded_corpus.h"

namespace xclean::shard {
namespace {

constexpr uint64_t kSeed = 20110411;
constexpr uint64_t kGeneration = 1;

XCleanOptions BenchOptions() {
  XCleanOptions options;
  options.gamma = 0;  // exactness precondition; see header comment
  return options;
}

std::vector<Query> MakeQueries(const XmlIndex& index, uint32_t count) {
  WorkloadOptions wl;
  wl.num_queries = count;
  wl.seed = kSeed;
  std::vector<Query> initial = SampleInitialQueries(index, wl);
  Rng rng(kSeed);
  std::vector<Query> out;
  out.reserve(initial.size());
  for (const Query& q : initial) {
    out.push_back(PerturbRand(q, index, wl, rng));
  }
  return out;
}

struct ShardFleet {
  ShardedCorpus corpus;
  std::vector<std::unique_ptr<ShardServer>> servers;
  std::vector<ShardBackend*> backends;
  std::unique_ptr<Coordinator> coordinator;
};

ShardFleet MakeFleet(const XmlTree& corpus, size_t num_shards) {
  ShardedCorpusOptions options;
  options.num_shards = num_shards;
  options.xclean = BenchOptions();
  Result<ShardedCorpus> built =
      BuildShardedCorpus(corpus, options, kGeneration);
  if (!built.ok()) {
    std::fprintf(stderr, "BuildShardedCorpus(%zu): %s\n", num_shards,
                 built.status().ToString().c_str());
    std::exit(1);
  }
  ShardFleet fleet;
  fleet.corpus = std::move(built).value();
  for (uint32_t s = 0; s < fleet.corpus.num_shards(); ++s) {
    fleet.servers.push_back(
        std::make_unique<ShardServer>(s, fleet.corpus.engine, kGeneration));
    fleet.backends.push_back(fleet.servers.back().get());
  }
  CoordinatorOptions copts;
  copts.fanout_timeout = std::chrono::milliseconds(5000);
  fleet.coordinator = std::make_unique<Coordinator>(
      fleet.backends, fleet.corpus.stats, BenchOptions(), copts);
  return fleet;
}

double MeanMs(double total_ms, size_t count) {
  return count == 0 ? 0.0 : total_ms / static_cast<double>(count);
}

/// The same fleet with every shard behind a real loopback socket: a
/// ShardServer per shard fronted by an RpcShardServer, an RpcShardBackend
/// dialing it, and the coordinator fanning out over the clients. The delta
/// against the in-process scatter is the whole wire tax — exact request/
/// response serialization, frame checksums, and loopback syscalls.
struct RpcFleet {
  std::vector<std::unique_ptr<ShardServer>> backends;
  std::vector<std::unique_ptr<rpc::RpcShardServer>> servers;
  std::vector<std::unique_ptr<rpc::RpcShardBackend>> clients;
  std::vector<ShardBackend*> backend_ptrs;
  std::unique_ptr<Coordinator> coordinator;
};

RpcFleet MakeRpcFleet(const ShardedCorpus& sharded) {
  RpcFleet fleet;
  for (uint32_t s = 0; s < sharded.num_shards(); ++s) {
    fleet.backends.push_back(
        std::make_unique<ShardServer>(s, sharded.engine, kGeneration));
    rpc::RpcServerOptions sopts;
    sopts.shard_id = s;
    fleet.servers.push_back(std::make_unique<rpc::RpcShardServer>(
        fleet.backends.back().get(), sopts));
    const Status started = fleet.servers.back()->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "RpcShardServer(%u): %s\n", s,
                   started.ToString().c_str());
      std::exit(1);
    }
    fleet.clients.push_back(std::make_unique<rpc::RpcShardBackend>(
        fleet.servers.back()->port(), s));
    fleet.backend_ptrs.push_back(fleet.clients.back().get());
  }
  CoordinatorOptions copts;
  copts.fanout_timeout = std::chrono::milliseconds(5000);
  fleet.coordinator = std::make_unique<Coordinator>(
      fleet.backend_ptrs, sharded.stats, BenchOptions(), copts);
  return fleet;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[std::min(idx, samples.size() - 1)];
}

/// A replica whose transport occasionally stalls: every `period`-th call
/// sleeps `delay` (watching the hedged-loser kill switch) before
/// delegating — the deterministic stand-in for the straggling machine
/// hedging exists to route around.
class StragglerBackend : public ShardBackend {
 public:
  StragglerBackend(uint32_t shard_id,
                   std::shared_ptr<const XClean> engine,
                   std::chrono::milliseconds delay, uint32_t period)
      : delay_(delay), period_(period), server_(shard_id, engine, kGeneration) {}

  ShardResponse Evaluate(const ShardRequest& request) override {
    if (++calls_ % period_ == 0) {
      const auto step = std::chrono::milliseconds(1);
      for (auto waited = std::chrono::milliseconds(0); waited < delay_;
           waited += step) {
        if (request.external_cancel != nullptr &&
            request.external_cancel->load(std::memory_order_acquire)) {
          break;  // hedge already won; stop stalling and answer cheap
        }
        std::this_thread::sleep_for(step);
      }
    }
    return server_.Evaluate(request);
  }

 private:
  const std::chrono::milliseconds delay_;
  const uint32_t period_;
  uint32_t calls_ = 0;
  ShardServer server_;
};

/// Latency distribution of the coordinator over straggler-primary replica
/// sets, hedged vs unhedged. Same backends, same queries; the only
/// difference is whether the ReplicaSets get a hedge pool.
struct HedgeResult {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  uint64_t hedges = 0;
  uint64_t hedge_wins = 0;
};

HedgeResult RunHedgeLeg(const ShardedCorpus& sharded,
                        const std::vector<Query>& queries, int rounds,
                        bool hedged) {
  ThreadPoolOptions popts;
  popts.num_threads = 2 * sharded.num_shards();
  ThreadPool hedge_pool(popts);

  std::vector<std::unique_ptr<StragglerBackend>> primaries;
  std::vector<std::unique_ptr<ShardServer>> siblings;
  std::vector<std::unique_ptr<ReplicaSet>> sets;
  std::vector<ShardBackend*> backends;
  for (uint32_t s = 0; s < sharded.num_shards(); ++s) {
    primaries.push_back(std::make_unique<StragglerBackend>(
        s, sharded.engine, std::chrono::milliseconds(25), /*period=*/13));
    siblings.push_back(
        std::make_unique<ShardServer>(s, sharded.engine, kGeneration));
    ReplicaSetOptions ropts;
    if (hedged) {
      ropts.hedge_pool = &hedge_pool;
      ropts.hedge_rate_cap = 1.0;  // price the mechanism, not the budget
      ropts.hedge_delay_floor = std::chrono::milliseconds(2);
      ropts.hedge_delay_cap = std::chrono::milliseconds(10);
    }
    sets.push_back(std::make_unique<ReplicaSet>(
        s,
        std::vector<ShardBackend*>{primaries.back().get(),
                                   siblings.back().get()},
        ropts));
    backends.push_back(sets.back().get());
  }
  CoordinatorOptions copts;
  copts.fanout_timeout = std::chrono::milliseconds(5000);
  Coordinator coordinator(backends, sharded.stats, BenchOptions(), copts);

  std::vector<double> samples;
  samples.reserve(queries.size() * static_cast<size_t>(rounds));
  for (int r = 0; r < rounds; ++r) {
    for (const Query& query : queries) {
      Stopwatch watch;
      CoordinatorResult result = coordinator.Suggest(query, kGeneration);
      samples.push_back(watch.ElapsedSeconds() * 1000.0);
      if (!result.status.ok()) {
        std::fprintf(stderr, "hedge leg failed: %s\n",
                     result.status.ToString().c_str());
        std::exit(1);
      }
    }
  }
  HedgeResult out;
  out.p50_ms = Percentile(samples, 0.50);
  out.p99_ms = Percentile(samples, 0.99);
  for (const auto& set : sets) {
    const ReplicaSetStats stats = set->stats();
    out.hedges += stats.hedges;
    out.hedge_wins += stats.hedge_wins;
  }
  return out;
}

/// The straggler-tail experiment over the wire: both replicas of every
/// shard sit behind a real RpcShardServer socket and the ReplicaSet races
/// RpcShardBackend clients. A hedge win now exercises the full cancel
/// path — the loser's client sends a cancel frame, the server raises the
/// evaluation's external-cancel flag, the straggler stops stalling and
/// flushes its truncated response, and the connection stays pooled.
HedgeResult RunWireHedgeLeg(const ShardedCorpus& sharded,
                            const std::vector<Query>& queries, int rounds,
                            bool hedged) {
  ThreadPoolOptions popts;
  popts.num_threads = 2 * sharded.num_shards();
  ThreadPool hedge_pool(popts);

  std::vector<std::unique_ptr<StragglerBackend>> primaries;
  std::vector<std::unique_ptr<ShardServer>> siblings;
  std::vector<std::unique_ptr<rpc::RpcShardServer>> wire_servers;
  std::vector<std::unique_ptr<rpc::RpcShardBackend>> wire_clients;
  std::vector<std::unique_ptr<ReplicaSet>> sets;
  std::vector<ShardBackend*> backends;
  for (uint32_t s = 0; s < sharded.num_shards(); ++s) {
    primaries.push_back(std::make_unique<StragglerBackend>(
        s, sharded.engine, std::chrono::milliseconds(25), /*period=*/13));
    siblings.push_back(
        std::make_unique<ShardServer>(s, sharded.engine, kGeneration));
    std::vector<ShardBackend*> replicas;
    for (ShardBackend* local :
         {static_cast<ShardBackend*>(primaries.back().get()),
          static_cast<ShardBackend*>(siblings.back().get())}) {
      rpc::RpcServerOptions sopts;
      sopts.shard_id = s;
      wire_servers.push_back(
          std::make_unique<rpc::RpcShardServer>(local, sopts));
      const Status started = wire_servers.back()->Start();
      if (!started.ok()) {
        std::fprintf(stderr, "wire hedge RpcShardServer(%u): %s\n", s,
                     started.ToString().c_str());
        std::exit(1);
      }
      wire_clients.push_back(std::make_unique<rpc::RpcShardBackend>(
          wire_servers.back()->port(), s));
      replicas.push_back(wire_clients.back().get());
    }
    ReplicaSetOptions ropts;
    if (hedged) {
      ropts.hedge_pool = &hedge_pool;
      ropts.hedge_rate_cap = 1.0;  // price the mechanism, not the budget
      ropts.hedge_delay_floor = std::chrono::milliseconds(2);
      ropts.hedge_delay_cap = std::chrono::milliseconds(10);
    }
    sets.push_back(std::make_unique<ReplicaSet>(s, replicas, ropts));
    backends.push_back(sets.back().get());
  }
  CoordinatorOptions copts;
  copts.fanout_timeout = std::chrono::milliseconds(5000);
  Coordinator coordinator(backends, sharded.stats, BenchOptions(), copts);

  std::vector<double> samples;
  samples.reserve(queries.size() * static_cast<size_t>(rounds));
  for (int r = 0; r < rounds; ++r) {
    for (const Query& query : queries) {
      Stopwatch watch;
      CoordinatorResult result = coordinator.Suggest(query, kGeneration);
      samples.push_back(watch.ElapsedSeconds() * 1000.0);
      if (!result.status.ok()) {
        std::fprintf(stderr, "wire hedge leg failed: %s\n",
                     result.status.ToString().c_str());
        std::exit(1);
      }
    }
  }
  HedgeResult out;
  out.p50_ms = Percentile(samples, 0.50);
  out.p99_ms = Percentile(samples, 0.99);
  for (const auto& set : sets) {
    const ReplicaSetStats stats = set->stats();
    out.hedges += stats.hedges;
    out.hedge_wins += stats.hedge_wins;
  }
  return out;
}

}  // namespace
}  // namespace xclean::shard

int main() {
  using namespace xclean;
  using namespace xclean::shard;

  const bool small = std::getenv("XCLEAN_BENCH_SMALL") != nullptr;
  DblpGenOptions gen;
  gen.num_publications = small ? 3000 : 20000;
  const int rounds = small ? 3 : 10;

  std::printf("building DBLP-like corpus (%u publications)...\n",
              gen.num_publications);
  Stopwatch build_watch;
  const XmlTree corpus = GenerateDblp(gen);
  std::unique_ptr<XmlIndex> oracle_index =
      XmlIndex::Build(GenerateDblp(gen), IndexOptions());
  XClean oracle(*oracle_index, BenchOptions());
  const std::vector<Query> queries = MakeQueries(*oracle_index, 64);
  std::printf("built in %.1fs; %zu misspelled queries, %d rounds each\n\n",
              build_watch.ElapsedSeconds(), queries.size(), rounds);

  // Unsharded baseline: the single-index evaluation every topology is
  // measured against.
  std::vector<std::vector<Suggestion>> oracle_answers;
  oracle_answers.reserve(queries.size());
  double oracle_ms = 0.0;
  for (int r = 0; r < rounds; ++r) {
    for (size_t i = 0; i < queries.size(); ++i) {
      Stopwatch watch;
      std::vector<Suggestion> got = oracle.Suggest(queries[i]);
      oracle_ms += watch.ElapsedSeconds() * 1000.0;
      if (r == 0) oracle_answers.push_back(std::move(got));
    }
  }
  const double oracle_mean = MeanMs(oracle_ms, queries.size() * rounds);
  std::printf("%7s %12s %12s %12s %10s\n", "shards", "scatter-ms", "serial-ms",
              "merge-ms", "vs-oracle");
  std::printf("%7s %12.3f %12s %12s %10s\n", "1 (un)", oracle_mean, "-", "-",
              "1.00x");

  for (size_t num_shards : {2, 4, 8}) {
    ShardFleet fleet = MakeFleet(corpus, num_shards);

    // End-to-end threaded fan-out, with a top-1 cross-check per query.
    double scatter_ms = 0.0;
    size_t mismatches = 0;
    for (int r = 0; r < rounds; ++r) {
      for (size_t i = 0; i < queries.size(); ++i) {
        Stopwatch watch;
        CoordinatorResult result =
            fleet.coordinator->Suggest(queries[i], kGeneration);
        scatter_ms += watch.ElapsedSeconds() * 1000.0;
        const std::vector<Suggestion>& want = oracle_answers[i];
        const bool top_matches =
            result.suggestions.empty()
                ? want.empty()
                : !want.empty() &&
                      result.suggestions[0].words == want[0].words;
        if (!result.status.ok() || result.truncated || !top_matches) {
          ++mismatches;
        }
      }
    }

    // The same legs, serially on this thread, then the merge alone.
    double serial_ms = 0.0;
    double merge_ms = 0.0;
    for (int r = 0; r < rounds; ++r) {
      for (const Query& query : queries) {
        std::vector<ShardOutcome> outcomes(num_shards);
        Stopwatch serial_watch;
        for (size_t s = 0; s < num_shards; ++s) {
          ShardRequest request;
          request.query = query;
          outcomes[s] = {ShardOutcomeKind::kOk,
                         fleet.backends[s]->Evaluate(request)};
        }
        serial_ms += serial_watch.ElapsedSeconds() * 1000.0;
        Stopwatch merge_watch;
        CoordinatorResult merged = Coordinator::Merge(
            *fleet.corpus.stats, BenchOptions(),
            fleet.coordinator->options(), kGeneration, outcomes);
        merge_ms += merge_watch.ElapsedSeconds() * 1000.0;
        if (!merged.status.ok()) ++mismatches;
      }
    }

    const double scatter_mean = MeanMs(scatter_ms, queries.size() * rounds);
    std::printf("%7zu %12.3f %12.3f %12.3f %9.2fx%s\n", num_shards,
                scatter_mean, MeanMs(serial_ms, queries.size() * rounds),
                MeanMs(merge_ms, queries.size() * rounds),
                oracle_mean > 0 ? scatter_mean / oracle_mean : 0.0,
                mismatches ? "  [MISMATCH]" : "");
    if (mismatches) {
      std::fprintf(stderr,
                   "%zu of %zu scatter-gather answers disagreed with the "
                   "unsharded oracle's top suggestion\n",
                   mismatches, queries.size() * static_cast<size_t>(rounds));
      return 1;
    }
  }

  std::printf(
      "\nscatter = threaded fan-out end to end; serial = the N per-shard\n"
      "evaluations back to back on one thread; merge = accumulator fold +\n"
      "renormalise + rank only. scatter/serial gap is the parallel win,\n"
      "merge is the coordination tax.\n");

  const size_t num_shards = 4;
  ShardFleet fleet = MakeFleet(corpus, num_shards);  // reuses the build

  // Wire tax: the identical scatter-gather, but every per-shard leg now
  // crosses a real loopback socket — exact request/response serialization,
  // checksummed frames, connect/read/write syscalls. Each shard's
  // connection is dialed once and then pooled, so the steady-state delta
  // vs the in-process fan-out is pure per-request wire cost.
  double inproc_mean = 0.0, inproc_p50 = 0.0, inproc_p99 = 0.0;
  double wire_mean = 0.0, wire_p50 = 0.0, wire_p99 = 0.0;
  unsigned long long wire_dials = 0, wire_reuses = 0;
  {
    RpcFleet rpc_fleet = MakeRpcFleet(fleet.corpus);
    std::vector<double> inproc_samples, wire_samples;
    inproc_samples.reserve(queries.size() * static_cast<size_t>(rounds));
    wire_samples.reserve(queries.size() * static_cast<size_t>(rounds));
    size_t mismatches = 0;
    for (int r = 0; r < rounds; ++r) {
      for (size_t i = 0; i < queries.size(); ++i) {
        Stopwatch inproc_watch;
        CoordinatorResult local =
            fleet.coordinator->Suggest(queries[i], kGeneration);
        inproc_samples.push_back(inproc_watch.ElapsedSeconds() * 1000.0);
        Stopwatch wire_watch;
        CoordinatorResult wired =
            rpc_fleet.coordinator->Suggest(queries[i], kGeneration);
        wire_samples.push_back(wire_watch.ElapsedSeconds() * 1000.0);
        const std::vector<Suggestion>& want = oracle_answers[i];
        for (const CoordinatorResult* result : {&local, &wired}) {
          const bool top_matches =
              result->suggestions.empty()
                  ? want.empty()
                  : !want.empty() &&
                        result->suggestions[0].words == want[0].words;
          if (!result->status.ok() || result->truncated || !top_matches) {
            ++mismatches;
          }
        }
      }
    }
    inproc_mean = MeanMs(
        std::accumulate(inproc_samples.begin(), inproc_samples.end(), 0.0),
        inproc_samples.size());
    inproc_p50 = Percentile(inproc_samples, 0.50);
    inproc_p99 = Percentile(inproc_samples, 0.99);
    wire_mean = MeanMs(
        std::accumulate(wire_samples.begin(), wire_samples.end(), 0.0),
        wire_samples.size());
    wire_p50 = Percentile(wire_samples, 0.50);
    wire_p99 = Percentile(wire_samples, 0.99);
    for (const auto& client : rpc_fleet.clients) {
      const rpc::RpcClientStats stats = client->stats();
      wire_dials += stats.dials;
      wire_reuses += stats.pooled_reuses;
    }
    std::printf("\nwire tax (%zu shards, loopback RPC vs in-process):\n",
                num_shards);
    std::printf("%11s %10s %10s %10s\n", "", "mean-ms", "p50-ms", "p99-ms");
    std::printf("%11s %10.3f %10.3f %10.3f\n", "in-process", inproc_mean,
                inproc_p50, inproc_p99);
    std::printf("%11s %10.3f %10.3f %10.3f   (dials=%llu reuses=%llu)%s\n",
                "loopback", wire_mean, wire_p50, wire_p99, wire_dials,
                wire_reuses, mismatches ? "  [MISMATCH]" : "");
    if (mismatches) {
      std::fprintf(stderr,
                   "%zu wire-tax answers disagreed with the unsharded "
                   "oracle's top suggestion\n", mismatches);
      return 1;
    }
  }

  // Tail latency with a straggling primary on every shard (1 in 13 calls
  // stalls 25ms): hedging fires a sibling attempt after a small delay and
  // the first usable answer wins, so the p99 collapses toward the healthy
  // path while the p50 (no straggle, no hedge needed) stays put. The wire
  // rows repeat the experiment with both replicas behind real sockets, so
  // the hedged row prices the full cancel-frame path too.
  const HedgeResult unhedged =
      RunHedgeLeg(fleet.corpus, queries, rounds, /*hedged=*/false);
  const HedgeResult hedged =
      RunHedgeLeg(fleet.corpus, queries, rounds, /*hedged=*/true);
  const HedgeResult wire_unhedged =
      RunWireHedgeLeg(fleet.corpus, queries, rounds, /*hedged=*/false);
  const HedgeResult wire_hedged =
      RunWireHedgeLeg(fleet.corpus, queries, rounds, /*hedged=*/true);
  std::printf(
      "\nstraggler tail (%zu shards, 2 replicas each, 1/13 legs stall "
      "25ms):\n", num_shards);
  std::printf("%15s %10s %10s %10s %12s\n", "", "p50-ms", "p99-ms",
              "hedges", "hedge-wins");
  std::printf("%15s %10.3f %10.3f %10s %12s\n", "unhedged", unhedged.p50_ms,
              unhedged.p99_ms, "-", "-");
  std::printf("%15s %10.3f %10.3f %10llu %12llu\n", "hedged", hedged.p50_ms,
              hedged.p99_ms,
              static_cast<unsigned long long>(hedged.hedges),
              static_cast<unsigned long long>(hedged.hedge_wins));
  std::printf("%15s %10.3f %10.3f %10s %12s\n", "wire unhedged",
              wire_unhedged.p50_ms, wire_unhedged.p99_ms, "-", "-");
  std::printf("%15s %10.3f %10.3f %10llu %12llu\n", "wire hedged",
              wire_hedged.p50_ms, wire_hedged.p99_ms,
              static_cast<unsigned long long>(wire_hedged.hedges),
              static_cast<unsigned long long>(wire_hedged.hedge_wins));

  if (const char* json_path = std::getenv("XCLEAN_BENCH_JSON")) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f != nullptr) {
      std::fprintf(
          f,
          "[\n  {\"bench\": \"shard_hedge\", "
          "\"unhedged_p50_ms\": %.6f, \"unhedged_p99_ms\": %.6f, "
          "\"hedged_p50_ms\": %.6f, \"hedged_p99_ms\": %.6f, "
          "\"hedges\": %llu, \"hedge_wins\": %llu},\n",
          unhedged.p50_ms, unhedged.p99_ms, hedged.p50_ms, hedged.p99_ms,
          static_cast<unsigned long long>(hedged.hedges),
          static_cast<unsigned long long>(hedged.hedge_wins));
      std::fprintf(
          f,
          "  {\"bench\": \"rpc_wire_tax\", "
          "\"inproc_mean_ms\": %.6f, \"inproc_p50_ms\": %.6f, "
          "\"inproc_p99_ms\": %.6f, \"wire_mean_ms\": %.6f, "
          "\"wire_p50_ms\": %.6f, \"wire_p99_ms\": %.6f, "
          "\"dials\": %llu, \"pooled_reuses\": %llu},\n",
          inproc_mean, inproc_p50, inproc_p99, wire_mean, wire_p50,
          wire_p99, wire_dials, wire_reuses);
      std::fprintf(
          f,
          "  {\"bench\": \"rpc_wire_hedge\", "
          "\"unhedged_p50_ms\": %.6f, \"unhedged_p99_ms\": %.6f, "
          "\"hedged_p50_ms\": %.6f, \"hedged_p99_ms\": %.6f, "
          "\"hedges\": %llu, \"hedge_wins\": %llu}\n]\n",
          wire_unhedged.p50_ms, wire_unhedged.p99_ms, wire_hedged.p50_ms,
          wire_hedged.p99_ms,
          static_cast<unsigned long long>(wire_hedged.hedges),
          static_cast<unsigned long long>(wire_hedged.hedge_wins));
      std::fclose(f);
      std::printf("wrote JSON results to %s\n", json_path);
    } else {
      std::fprintf(stderr, "XCLEAN_BENCH_JSON: cannot open %s\n",
                   json_path);
    }
  }
  return 0;
}
