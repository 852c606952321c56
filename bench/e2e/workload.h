#ifndef XCLEAN_BENCH_E2E_WORKLOAD_H_
#define XCLEAN_BENCH_E2E_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "core/query.h"
#include "index/xml_index.h"
#include "xml/tree.h"

namespace xclean::e2e {

/// Which serving stack a workload drives.
enum class Topology {
  /// ServingEngine over one index.
  kEngine,
  /// Coordinator -> ReplicaSet -> RpcShardBackend -> loopback ->
  /// RpcShardServer -> ShardServer, 2 shards x 2 replicas.
  kShardedRpc,
  /// ServingEngine with EnableLiveUpdates and a concurrent writer.
  kLive,
};

/// One benchmark workload. The numbers are part of the benchmark's
/// definition: changing any of them changes what every recorded baseline
/// measured.
struct WorkloadSpec {
  const char* name;
  Topology topology;
  /// INEX-like corpus when set, DBLP-like otherwise.
  bool inex;
  /// Articles (INEX) or publications (DBLP) in the corpus.
  uint32_t corpus_docs;
  /// Accumulator bound gamma of every evaluation (0 = exact).
  size_t gamma;
  /// Distinct misspelled queries generated for the workload.
  size_t pool_size;
  /// When non-zero, the first `head_size` pool entries are a Zipf(s=1)
  /// head that takes `head_share` of the requests; the rest of the pool is
  /// a tail of fresh queries taken in order. Zero: the whole pool is
  /// replayed in one shuffled order.
  size_t head_size;
  double head_share;
  /// Offered load of the fixed-rate phase: about 40% of the max_qps the
  /// baseline measured (a quarter for dblp-zipf), then frozen.
  double nominal_qps;
};

/// The four workloads, in the order the runner executes them.
const std::vector<WorkloadSpec>& Workloads();

/// Null when no workload has that name.
const WorkloadSpec* FindWorkload(std::string_view name);

/// The same workload at smoke scale: a tiny corpus and pool and a low
/// rate, so all four run in seconds.
WorkloadSpec SmokeSpec(const WorkloadSpec& spec);

/// The workload's corpus. The corpus seed is fixed (it stands for the
/// paper's fixed DBLP/INEX dumps); --seed only varies queries and timing.
XmlTree GenerateCorpus(const WorkloadSpec& spec);

/// The 2000 publications the dblp-live writer adds (in order, wrapping),
/// each serialized as one compact XML document, generated from `seed`.
std::vector<std::string> GenerateLiveDocuments(uint64_t seed);

/// One pool entry.
struct PoolQuery {
  /// Normalized query text as submitted; ParseQuery maps it to `query`.
  std::string text;
  Query query;
  /// The clean query the misspelling was made from (MRR ground truth).
  Query truth;
};

/// `spec.pool_size` distinct misspelled queries sampled from `index`,
/// alternating RAND and RULE perturbations (50/50). Only queries whose
/// every keyword survives the index tokenizer are kept, so `text`,
/// `query` and `truth` line up keyword for keyword. Deterministic in
/// (index, seed) regardless of how many threads sample.
std::vector<PoolQuery> BuildPool(const WorkloadSpec& spec,
                                 const XmlIndex& index, uint64_t seed);

/// Endless deterministic sequence of pool indices: a shuffled replay of
/// the pool, or Zipf head draws mixed with fresh tail queries.
class QueryStream {
 public:
  QueryStream(const WorkloadSpec& spec, size_t pool_size, uint64_t seed);

  uint32_t Next();

 private:
  Rng rng_;
  size_t pool_size_;
  size_t head_size_;
  double head_share_;
  ZipfDistribution head_zipf_;
  /// Unique pools: the replay order. Zipf: head rank -> pool index.
  std::vector<uint32_t> order_;
  size_t cursor_ = 0;
};

/// One request of an open-loop schedule: when it is due, relative to the
/// start of its phase, and which pool entry it sends.
struct Arrival {
  int64_t due_ns;
  uint32_t query;
};

/// Arrival generator: Poisson arrivals (independent users) over a
/// QueryStream. Successive calls continue both the query stream and the
/// inter-arrival stream, so a run's phases see one deterministic sequence.
class ArrivalSource {
 public:
  ArrivalSource(const WorkloadSpec& spec, size_t pool_size, uint64_t seed);

  /// Arrivals at `qps` for `seconds`.
  std::vector<Arrival> Schedule(double qps, double seconds);

  /// Unit-rate exponential gap; divide by the rate for seconds.
  double NextUnitGap();
  uint32_t NextQuery() { return stream_.Next(); }

 private:
  QueryStream stream_;
  Rng gaps_;
};

/// One dblp-live write: an AddDocument of the next generated document, or
/// a DeleteDocument of the live added document `pick` selects.
struct WriteOp {
  int64_t due_ns;
  bool is_delete;
  uint64_t pick;
};

/// The writer's open-loop stream: 20 adds/s and 4 deletes/s. Every
/// mutation rebuilds the merged statistics (~10-20 ms), so this keeps the
/// writer about half busy; a rate the writer cannot sustain would grow its
/// backlog, and with it the write latency, for as long as the run lasts.
class WriteSource {
 public:
  static constexpr double kAddsPerSecond = 20.0;
  static constexpr double kDeletesPerSecond = 4.0;
  /// CompactLiveInBackground is started after every this many adds.
  static constexpr uint64_t kCompactEveryAdds = 100;

  explicit WriteSource(uint64_t seed);

  /// Writes due in [0, seconds) of one phase.
  std::vector<WriteOp> Schedule(double seconds);

 private:
  Rng rng_;
};

/// Fingerprint of everything the seed determines: the corpus shape, every
/// pool entry and ground truth, the first 65536 arrivals (query index and
/// unit gap) and, for dblp-live, the first 4096 writes and the documents.
/// Independent of --seconds and of the rates, so one recorded value per
/// (workload, seed) pins the inputs.
uint64_t WorkloadHash(const WorkloadSpec& spec, const XmlIndex& index,
                      const std::vector<PoolQuery>& pool, uint64_t seed,
                      const std::vector<std::string>& live_documents);

}  // namespace xclean::e2e

#endif  // XCLEAN_BENCH_E2E_WORKLOAD_H_
