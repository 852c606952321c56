#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>
#include <unordered_set>

#include "common/durable_file.h"
#include "data/dblp_gen.h"
#include "data/inex_gen.h"
#include "data/workload.h"
#include "xml/writer.h"

namespace xclean::e2e {

namespace {

constexpr uint64_t kCorpusSeed = 20110411;  // ICDE 2011 opening day

// Sub-stream ids of --seed.
constexpr uint64_t kStreamQueries = 1;
constexpr uint64_t kStreamGaps = 2;
constexpr uint64_t kStreamWrites = 3;
constexpr uint64_t kStreamDocuments = 4;
constexpr uint64_t kStreamPoolChunk = 1000;

// Pool sampling runs in this many independently seeded chunks, one thread
// each; the pool depends on the chunk count, never on scheduling.
constexpr size_t kPoolChunks = 4;

/// FNV-1a over a sequence of fields.
class Hasher {
 public:
  void U64(uint64_t v) { hash_ = Fnv1a(&v, sizeof v, hash_); }
  void F64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    U64(bits);
  }
  void Str(std::string_view s) {
    U64(s.size());
    hash_ = Fnv1a(s.data(), s.size(), hash_);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = kFnvOffsetBasis;
};

/// Seed of an independent sub-stream of `seed` (splitmix64 finalizer).
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xD1B54A32D192ED03ull +
               0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// `count` misspelled queries from one independently seeded chunk.
std::vector<PoolQuery> SampleChunk(const XmlIndex& index, uint64_t seed,
                                   uint32_t count) {
  WorkloadOptions options;
  options.seed = seed;
  options.num_queries = count;
  const std::vector<Query> clean = SampleInitialQueries(index, options);
  Rng rng(SubSeed(seed, kStreamQueries));
  std::vector<PoolQuery> out;
  out.reserve(clean.size());
  for (size_t i = 0; i < clean.size(); ++i) {
    const Query dirty = i % 2 == 0 ? PerturbRand(clean[i], index, options, rng)
                                   : PerturbRule(clean[i], index, options, rng);
    PoolQuery entry;
    entry.text = dirty.ToString();
    entry.query = ParseQuery(entry.text, index.tokenizer());
    // A misspelling the tokenizer rewrites or drops (too short, a
    // stopword) would no longer line up with its ground truth.
    if (entry.query != dirty) continue;
    entry.truth = clean[i];
    out.push_back(std::move(entry));
  }
  return out;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      // Algorithm 1 does nearly all the work: deep document-centric
      // entities, and a pool more than 3x the cache and 7x the variant memo
      // so neither helps.
      {"inex-unique", Topology::kEngine, true, 4000, 1000, 60000, 0, 0.0,
       6500.0},
      // ~80% cache hits: per-request fixed cost dominates. A quarter of
      // max_qps: at half, a 13 ms host stall half-fills the engine queue
      // and the overload ladder starts degrading answers.
      {"dblp-zipf", Topology::kEngine, false, 20000, 1000, 105000, 5000, 0.8,
       20000.0},
      // Fan-out, hedging, wire encode/decode and merge on the blocking
      // path; gamma = 0 so the unsharded oracle is exact.
      {"dblp-sharded-rpc", Topology::kShardedRpc, false, 20000, 0, 60000, 0,
       0.0, 2200.0},
      // Reads next to writes and compaction on the layered path.
      {"dblp-live", Topology::kLive, false, 18000, 0, 60000, 0, 0.0, 7000.0},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

WorkloadSpec SmokeSpec(const WorkloadSpec& spec) {
  WorkloadSpec smoke = spec;
  smoke.corpus_docs = spec.inex ? 150 : 600;
  smoke.pool_size = 1500;
  if (smoke.head_size > 0) smoke.head_size = 300;
  // High enough that 1% of a one-second phase is more requests than a
  // few-millisecond stall of the generator delays.
  smoke.nominal_qps = 3000.0;
  return smoke;
}

XmlTree GenerateCorpus(const WorkloadSpec& spec) {
  if (spec.inex) {
    InexGenOptions options;
    options.seed = kCorpusSeed;
    options.num_articles = spec.corpus_docs;
    return GenerateInex(options);
  }
  DblpGenOptions options;
  options.seed = kCorpusSeed;
  options.num_publications = spec.corpus_docs;
  return GenerateDblp(options);
}

std::vector<std::string> GenerateLiveDocuments(uint64_t seed) {
  DblpGenOptions options;
  options.seed = SubSeed(seed, kStreamDocuments);
  options.num_publications = 2000;
  const XmlTree tree = GenerateDblp(options);
  WriteOptions compact;
  compact.indent = false;
  std::vector<std::string> docs;
  docs.reserve(options.num_publications);
  for (NodeId doc = tree.FirstChild(tree.root()); doc != kInvalidNode;
       doc = tree.NextSibling(doc)) {
    docs.push_back(WriteXml(tree, doc, compact));
  }
  return docs;
}

std::vector<PoolQuery> BuildPool(const WorkloadSpec& spec,
                                 const XmlIndex& index, uint64_t seed) {
  std::vector<PoolQuery> pool;
  pool.reserve(spec.pool_size);
  std::unordered_set<std::string> seen;
  uint64_t next_chunk = 0;
  while (pool.size() < spec.pool_size) {
    // ~10% slack covers misspellings that collide or fail to tokenize.
    const size_t need = spec.pool_size - pool.size();
    const auto per_chunk =
        static_cast<uint32_t>((need + need / 10) / kPoolChunks + 16);
    std::vector<std::vector<PoolQuery>> chunks(kPoolChunks);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kPoolChunks; ++c) {
      const uint64_t chunk_seed =
          SubSeed(seed, kStreamPoolChunk + next_chunk + c);
      threads.emplace_back([&index, &chunks, c, chunk_seed, per_chunk] {
        chunks[c] = SampleChunk(index, chunk_seed, per_chunk);
      });
    }
    for (std::thread& t : threads) t.join();
    next_chunk += kPoolChunks;
    for (std::vector<PoolQuery>& chunk : chunks) {
      for (PoolQuery& entry : chunk) {
        if (pool.size() == spec.pool_size) break;
        if (seen.insert(entry.text).second) pool.push_back(std::move(entry));
      }
    }
  }
  return pool;
}

QueryStream::QueryStream(const WorkloadSpec& spec, size_t pool_size,
                         uint64_t seed)
    : rng_(SubSeed(seed, kStreamQueries)),
      pool_size_(pool_size),
      head_size_(std::min(spec.head_size, pool_size)),
      head_share_(spec.head_share),
      head_zipf_(std::max<size_t>(head_size_, 1), 1.0) {
  // Shuffled replay order (unique pools) or rank -> pool index (Zipf
  // head), so the most popular query is a random pool entry.
  order_.resize(head_size_ > 0 ? head_size_ : pool_size_);
  for (size_t i = 0; i < order_.size(); ++i) {
    order_[i] = static_cast<uint32_t>(i);
  }
  for (size_t i = order_.size(); i > 1; --i) {
    std::swap(order_[i - 1], order_[rng_.Uniform(i)]);
  }
}

uint32_t QueryStream::Next() {
  if (head_size_ == 0) return order_[cursor_++ % pool_size_];
  if (head_size_ == pool_size_ || rng_.Bernoulli(head_share_)) {
    return order_[head_zipf_.Sample(rng_)];
  }
  // Fresh tail queries in pool order; the tail wraps only after every
  // tail entry has been sent, by which time the cache has long evicted it.
  const size_t tail = pool_size_ - head_size_;
  return static_cast<uint32_t>(head_size_ + cursor_++ % tail);
}

ArrivalSource::ArrivalSource(const WorkloadSpec& spec, size_t pool_size,
                             uint64_t seed)
    : stream_(spec, pool_size, seed), gaps_(SubSeed(seed, kStreamGaps)) {}

double ArrivalSource::NextUnitGap() {
  return -std::log1p(-gaps_.UniformDouble());
}

std::vector<Arrival> ArrivalSource::Schedule(double qps, double seconds) {
  std::vector<Arrival> out;
  out.reserve(static_cast<size_t>(qps * seconds * 1.1) + 16);
  double t = 0.0;
  for (;;) {
    t += NextUnitGap() / qps;
    if (t >= seconds) break;
    out.push_back({static_cast<int64_t>(t * 1e9), stream_.Next()});
  }
  return out;
}

WriteSource::WriteSource(uint64_t seed) : rng_(SubSeed(seed, kStreamWrites)) {}

std::vector<WriteOp> WriteSource::Schedule(double seconds) {
  constexpr double kRate = kAddsPerSecond + kDeletesPerSecond;
  std::vector<WriteOp> out;
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-rng_.UniformDouble()) / kRate;
    if (t >= seconds) break;
    const bool is_delete = rng_.Bernoulli(kDeletesPerSecond / kRate);
    out.push_back({static_cast<int64_t>(t * 1e9), is_delete, rng_.Next64()});
  }
  return out;
}

uint64_t WorkloadHash(const WorkloadSpec& spec, const XmlIndex& index,
                      const std::vector<PoolQuery>& pool, uint64_t seed,
                      const std::vector<std::string>& live_documents) {
  Hasher h;
  h.Str(spec.name);
  h.U64(index.tree().size());
  h.U64(index.total_tokens());
  h.U64(pool.size());
  for (const PoolQuery& entry : pool) {
    h.Str(entry.text);
    h.Str(entry.truth.ToString());
  }
  ArrivalSource arrivals(spec, pool.size(), seed);
  for (int i = 0; i < 65536; ++i) {
    h.U64(arrivals.NextQuery());
    h.F64(arrivals.NextUnitGap());
  }
  if (spec.topology == Topology::kLive) {
    WriteSource writes(seed);
    const double seconds =
        4096.0 / (WriteSource::kAddsPerSecond + WriteSource::kDeletesPerSecond);
    for (const WriteOp& op : writes.Schedule(seconds)) {
      h.U64(static_cast<uint64_t>(op.due_ns));
      h.U64(op.is_delete);
      h.U64(op.pick);
    }
    for (const std::string& doc : live_documents) h.Str(doc);
  }
  return h.value();
}

}  // namespace xclean::e2e
