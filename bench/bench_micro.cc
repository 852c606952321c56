// Micro benchmarks (google-benchmark) for the performance-critical
// substrate pieces behind Sec. V's claims: FastSS variant generation, the
// banded edit distance verifier, MergedList skipping, posting-cursor
// galloping, SLCA computation, tokenization, parsing and index build.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/simd.h"
#include "common/varint.h"
#include "core/slca.h"
#include "core/xclean.h"
#include "data/dblp_gen.h"
#include "data/misspell.h"
#include "index/merged_list.h"
#include "index/xml_index.h"
#include "text/edit_distance.h"
#include "text/fastss.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace {

using namespace xclean;

/// Kernel benches take a trailing "simd" argument: 0 pins the scalar tier,
/// 1 runs the best tier the CPU supports. The pair makes the scalar-vs-
/// vector ratio a first-class number in BENCH_micro.json instead of
/// something to eyeball across machines.
simd::Level LevelForArg(int64_t arg) {
  return arg == 0 ? simd::Level::kScalar : simd::DetectedLevel();
}

std::vector<std::string> RandomWords(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> words;
  words.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    std::string w;
    size_t len = 4 + rng.Uniform(8);
    for (size_t j = 0; j < len; ++j) {
      w.push_back(static_cast<char>('a' + rng.Uniform(12)));
    }
    words.push_back(std::move(w));
  }
  return words;
}

const XmlIndex& SharedDblpIndex() {
  static const XmlIndex* index = [] {
    DblpGenOptions gen;
    gen.num_publications = 5000;
    return XmlIndex::Build(GenerateDblp(gen)).release();
  }();
  return *index;
}

void BM_EditDistanceFull(benchmark::State& state) {
  simd::ScopedLevel scoped(LevelForArg(state.range(0)));
  std::vector<std::string> words = RandomWords(256, 1);
  size_t i = 0;
  int64_t bytes = 0;
  int64_t cells = 0;
  for (auto _ : state) {
    const std::string& a = words[i % words.size()];
    const std::string& b = words[(i + 7) % words.size()];
    benchmark::DoNotOptimize(EditDistance(a, b));
    bytes += static_cast<int64_t>(a.size() + b.size());
    cells += static_cast<int64_t>(a.size() * b.size());
    ++i;
  }
  // bytes/s: input characters consumed; comparisons/s: DP cells the scalar
  // algorithm would evaluate — the bit-parallel tier's advantage shows up
  // as a higher cell rate at identical outputs.
  state.SetBytesProcessed(bytes);
  state.counters["comparisons"] =
      benchmark::Counter(static_cast<double>(cells),
                         benchmark::Counter::kIsRate);
  state.SetLabel(simd::LevelName(simd::ActiveLevel()));
}
BENCHMARK(BM_EditDistanceFull)->ArgName("simd")->Arg(0)->Arg(1);

void BM_EditDistanceBounded(benchmark::State& state) {
  const uint32_t k = static_cast<uint32_t>(state.range(0));
  simd::ScopedLevel scoped(LevelForArg(state.range(1)));
  std::vector<std::string> words = RandomWords(256, 2);
  size_t i = 0;
  int64_t bytes = 0;
  int64_t cells = 0;
  for (auto _ : state) {
    const std::string& a = words[i % words.size()];
    const std::string& b = words[(i + 7) % words.size()];
    benchmark::DoNotOptimize(EditDistanceBounded(a, b, k));
    bytes += static_cast<int64_t>(a.size() + b.size());
    cells += static_cast<int64_t>(a.size() * b.size());
    ++i;
  }
  state.SetBytesProcessed(bytes);
  state.counters["comparisons"] =
      benchmark::Counter(static_cast<double>(cells),
                         benchmark::Counter::kIsRate);
  state.SetLabel(simd::LevelName(simd::ActiveLevel()));
}
BENCHMARK(BM_EditDistanceBounded)
    ->ArgNames({"k", "simd"})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({2, 0})
    ->Args({2, 1})
    ->Args({3, 0})
    ->Args({3, 1});

void BM_VarintGroupDecode(benchmark::State& state) {
  simd::ScopedLevel scoped(LevelForArg(state.range(0)));
  // Posting-delta-like stream: overwhelmingly one-byte varints with the
  // occasional wide value, the regime the vector group decoder targets.
  Rng rng(12);
  constexpr size_t kCount = 65536;
  std::string buf;
  for (size_t i = 0; i < kCount; ++i) {
    PutVarint32(buf, static_cast<uint32_t>(rng.Bernoulli(0.05)
                                               ? rng.Uniform(1u << 20)
                                               : rng.Uniform(120)));
  }
  std::vector<uint32_t> out(kCount);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GetVarint32Group(
        buf.data(), buf.data() + buf.size(), out.data(), kCount));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() *
                                               buf.size()));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kCount));
  state.SetLabel(simd::LevelName(simd::ActiveLevel()));
}
BENCHMARK(BM_VarintGroupDecode)->ArgName("simd")->Arg(0)->Arg(1);

void BM_FastSsBuild(benchmark::State& state) {
  simd::ScopedLevel scoped(LevelForArg(state.range(1)));
  std::vector<std::string> words =
      RandomWords(static_cast<size_t>(state.range(0)), 3);
  for (auto _ : state) {
    FastSsIndex index(FastSsIndex::Options{2, 13});
    index.Build(words);
    benchmark::DoNotOptimize(index.posting_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetLabel(simd::LevelName(simd::ActiveLevel()));
}
BENCHMARK(BM_FastSsBuild)
    ->ArgNames({"words", "simd"})
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({10000, 0})
    ->Args({10000, 1});

void BM_FastSsFind(benchmark::State& state) {
  const uint32_t ed = static_cast<uint32_t>(state.range(0));
  simd::ScopedLevel scoped(LevelForArg(state.range(1)));
  static FastSsIndex* index = [] {
    auto* idx = new FastSsIndex(FastSsIndex::Options{3, 13});
    idx->Build(RandomWords(20000, 4));
    return idx;
  }();
  std::vector<std::string> queries = RandomWords(64, 5);
  FastSsIndex::ProbeScratch scratch;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        index->Find(queries[i % queries.size()], ed, scratch).size());
    ++i;
  }
  state.SetLabel(simd::LevelName(simd::ActiveLevel()));
}
BENCHMARK(BM_FastSsFind)
    ->ArgNames({"ed", "simd"})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({2, 0})
    ->Args({2, 1})
    ->Args({3, 0})
    ->Args({3, 1});

/// Probes one rule misspelling of every vocabulary word of the shared DBLP
/// index, in vocabulary order (shuffled:0) and through a shuffled array of
/// references to the same queries (shuffled:1), after the shuffled-refs
/// harness of the HAMT word benches. The gap between the two is how much
/// the probe gains from the cache when consecutive queries share buckets.
void BM_FastSsProbeOrder(benchmark::State& state) {
  const XmlIndex& index = SharedDblpIndex();
  static const std::vector<std::string>* queries = [&index] {
    auto* out = new std::vector<std::string>();
    Rng rng(6);
    for (const std::string& word : index.vocabulary().tokens()) {
      out->push_back(RuleMisspell(word, 1, rng));
    }
    return out;
  }();
  std::vector<const std::string*> refs;
  refs.reserve(queries->size());
  for (const std::string& q : *queries) refs.push_back(&q);
  if (state.range(0) != 0) {
    Rng rng(7);
    for (size_t i = 0; i + 1 < refs.size(); ++i) {
      std::swap(refs[i], refs[rng.Uniform(i + 1)]);
    }
  }
  FastSsIndex::ProbeScratch scratch;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.fastss().Find(*refs[i], 2, scratch).size());
    if (++i == refs.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FastSsProbeOrder)->ArgName("shuffled")->Arg(0)->Arg(1);

void BM_PostingSkipTo(benchmark::State& state) {
  simd::ScopedLevel scoped(LevelForArg(state.range(0)));
  std::vector<Posting> postings;
  Rng rng(6);
  NodeId node = 0;
  for (int i = 0; i < 1000000; ++i) {
    node += 1 + static_cast<NodeId>(rng.Uniform(4));
    postings.push_back(Posting{node, 1});
  }
  PostingList list(std::move(postings));
  Rng probe_rng(7);
  for (auto _ : state) {
    PostingCursor cursor(list);
    // 100 skips of increasing targets across the list.
    NodeId target = 0;
    for (int i = 0; i < 100; ++i) {
      target += node / 100;
      cursor.SkipTo(target);
      if (cursor.AtEnd()) break;
      benchmark::DoNotOptimize(cursor.Get().node);
    }
  }
  state.SetLabel(simd::LevelName(simd::ActiveLevel()));
}
BENCHMARK(BM_PostingSkipTo)->ArgName("simd")->Arg(0)->Arg(1);

void BM_MergedListDrainVsSkip(benchmark::State& state) {
  const bool use_skip = state.range(0) != 0;
  // 8 member lists, 100k entries each.
  std::vector<PostingList> lists;
  Rng rng(8);
  for (int m = 0; m < 8; ++m) {
    std::vector<Posting> postings;
    NodeId node = static_cast<NodeId>(rng.Uniform(37));
    for (int i = 0; i < 100000; ++i) {
      node += 1 + static_cast<NodeId>(rng.Uniform(40));
      postings.push_back(Posting{node, 1});
    }
    lists.emplace_back(std::move(postings));
  }
  for (auto _ : state) {
    std::vector<MergedList::Member> members;
    for (size_t m = 0; m < lists.size(); ++m) {
      members.push_back(MergedList::Member{static_cast<TokenId>(m),
                                           PostingCursor(lists[m])});
    }
    MergedList merged(std::move(members));
    uint64_t consumed = 0;
    if (use_skip) {
      // Skip in strides (the anchor pattern): read one entry per stride.
      NodeId target = 0;
      while (merged.SkipTo(target) != nullptr) {
        MergedList::Head h = merged.Next();
        ++consumed;
        target = h.node + 20000;
      }
    } else {
      while (merged.cur_pos() != nullptr) {
        merged.Next();
        ++consumed;
      }
    }
    benchmark::DoNotOptimize(consumed);
  }
}
BENCHMARK(BM_MergedListDrainVsSkip)->Arg(0)->Arg(1);

/// Tunes MergedList::SkipTo's lazy-vs-rebuild crossover (the lazy_limit in
/// merged_list.cc): sweeps the anchor stride — short strides move one or
/// two members per skip (lazy path wins), long strides leave most members
/// behind the target (wholesale rebuild wins) — and reports the SkipStats
/// counters alongside wall time, so a crossover change shows up as a shift
/// in lazy_advances/rebuilds per skip, not just as noise in ns/op.
void BM_MergedListSkipTuning(benchmark::State& state) {
  const NodeId stride = static_cast<NodeId>(state.range(0));
  // 32 member lists (a RULE-like variant fanout), 20k entries each.
  std::vector<PostingList> lists;
  Rng rng(32);
  for (int m = 0; m < 32; ++m) {
    std::vector<Posting> postings;
    NodeId node = static_cast<NodeId>(rng.Uniform(37));
    for (int i = 0; i < 20000; ++i) {
      node += 1 + static_cast<NodeId>(rng.Uniform(40));
      postings.push_back(Posting{node, 1});
    }
    lists.emplace_back(std::move(postings));
  }
  uint64_t moving_calls = 0, lazy_advances = 0, rebuilds = 0;
  for (auto _ : state) {
    MergedList merged;
    merged.Reset();
    for (size_t m = 0; m < lists.size(); ++m) {
      merged.AddMember(static_cast<TokenId>(m), PostingCursor(lists[m]));
    }
    merged.Finish();
    uint64_t consumed = 0;
    NodeId target = 0;
    while (merged.SkipTo(target) != nullptr) {
      MergedList::Head h = merged.Next();
      ++consumed;
      target = h.node + stride;
    }
    benchmark::DoNotOptimize(consumed);
    const MergedList::SkipStats& stats = merged.skip_stats();
    moving_calls += stats.moving_calls;
    lazy_advances += stats.lazy_advances;
    rebuilds += stats.rebuilds;
  }
  const double iters = static_cast<double>(state.iterations());
  state.counters["moving_calls"] = moving_calls / iters;
  state.counters["lazy_advances"] = lazy_advances / iters;
  state.counters["rebuilds"] = rebuilds / iters;
}
BENCHMARK(BM_MergedListSkipTuning)
    ->Arg(1)
    ->Arg(64)
    ->Arg(1024)
    ->Arg(16384);

void BM_Slca(benchmark::State& state) {
  const XmlIndex& index = SharedDblpIndex();
  const XmlTree& tree = index.tree();
  Rng rng(9);
  std::vector<std::vector<NodeId>> lists(3);
  for (auto& list : lists) {
    for (int i = 0; i < 200; ++i) {
      list.push_back(static_cast<NodeId>(rng.Uniform(tree.size())));
    }
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeSlcas(tree, lists));
  }
}
BENCHMARK(BM_Slca);

void BM_Tokenize(benchmark::State& state) {
  Tokenizer tokenizer;
  std::string text;
  Rng rng(10);
  auto words = RandomWords(1000, 11);
  for (const auto& w : words) {
    text += w;
    text += rng.Bernoulli(0.2) ? ", " : " ";
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(tokenizer.Tokenize(text));
  }
  state.SetBytesProcessed(state.iterations() * text.size());
}
BENCHMARK(BM_Tokenize);

void BM_ParseXml(benchmark::State& state) {
  DblpGenOptions gen;
  gen.num_publications = 1000;
  std::string xml = WriteXml(GenerateDblp(gen));
  for (auto _ : state) {
    Result<XmlTree> tree = ParseXmlString(xml);
    benchmark::DoNotOptimize(tree.ok());
  }
  state.SetBytesProcessed(state.iterations() * xml.size());
}
BENCHMARK(BM_ParseXml);

void BM_IndexBuild(benchmark::State& state) {
  DblpGenOptions gen;
  gen.num_publications = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    XmlTree tree = GenerateDblp(gen);
    state.ResumeTiming();
    auto index = XmlIndex::Build(std::move(tree));
    benchmark::DoNotOptimize(index->total_tokens());
  }
}
BENCHMARK(BM_IndexBuild)->Arg(1000)->Arg(5000)->Unit(benchmark::kMillisecond);

void BM_XCleanSuggest(benchmark::State& state) {
  simd::ScopedLevel scoped(LevelForArg(state.range(0)));
  const XmlIndex& index = SharedDblpIndex();
  XCleanOptions options;
  options.gamma = 1000;
  XClean cleaner(index, options);
  Query query;
  query.keywords = {"algorithm", "databse"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(cleaner.Suggest(query));
  }
  state.SetLabel(simd::LevelName(simd::ActiveLevel()));
}
BENCHMARK(BM_XCleanSuggest)->ArgName("simd")->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
