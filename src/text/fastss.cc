#include "text/fastss.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/parallel_for.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "text/edit_distance.h"

namespace xclean {

namespace {

/// Seed shared by every variant hash of one tag: FNV offset with the tag
/// byte folded in. Hash(tag, s) == fold s's bytes into TagSeed(tag).
uint64_t TagSeed(uint8_t tag) {
  return (14695981039346656037ULL ^ tag) * 1099511628211ULL;
}

/// Enumerates deletion variants without materializing them: FNV-1a is
/// prefix-incremental, so a keep/delete branch per character folds each
/// surviving byte into the running hash. Appends the hash of every variant
/// with at most `remaining` deletions, once per choice of deleted
/// positions; repeated characters yield duplicate hashes (deleting either
/// "a" of "aab" gives "ab"), which the caller dedupes.
void EnumerateDeletionHashes(std::string_view s, size_t pos,
                             uint32_t remaining, uint64_t hash,
                             std::vector<uint64_t>& out) {
  if (pos == s.size()) {
    out.push_back(hash);
    return;
  }
  EnumerateDeletionHashes(
      s, pos + 1, remaining,
      (hash ^ static_cast<uint8_t>(s[pos])) * 1099511628211ULL, out);
  if (remaining > 0) {
    EnumerateDeletionHashes(s, pos + 1, remaining - 1, hash, out);
  }
}

}  // namespace

FastSsIndex::FastSsIndex() : FastSsIndex(Options()) {}

FastSsIndex::FastSsIndex(Options options) : options_(options) {}

uint64_t FastSsIndex::HashVariant(Tag tag, std::string_view variant) {
  uint64_t h = TagSeed(static_cast<uint8_t>(tag));
  for (char c : variant) {
    h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ULL;
  }
  return h;
}

void FastSsIndex::DeletionHashes(Tag tag, std::string_view piece,
                                 uint32_t max_deletions,
                                 std::vector<uint64_t>& out) {
  out.clear();
  EnumerateDeletionHashes(piece, 0, max_deletions,
                          TagSeed(static_cast<uint8_t>(tag)), out);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

bool FastSsIndex::EmitWord(uint32_t word_id, std::vector<uint64_t>& hashes,
                           std::vector<Posting>& out) const {
  const uint32_t k = options_.max_ed;
  const std::string_view w = words_[word_id];
  auto emit = [&](Tag tag, std::string_view piece, uint32_t deletions) {
    DeletionHashes(tag, piece, deletions, hashes);
    for (uint64_t hash : hashes) out.push_back(Posting{hash, word_id});
  };
  if (k > 0 && w.size() >= options_.partition_min_length) {
    // Partitioned representation: floor(k/2)-deletion neighborhoods of
    // the two halves (left half gets the ceiling of the length split).
    const size_t h = (w.size() + 1) / 2;
    emit(Tag::kLeft, w.substr(0, h), k / 2);
    emit(Tag::kRight, w.substr(h), k / 2);
    return true;
  }
  emit(Tag::kWhole, w, k);
  return false;
}

void FastSsIndex::Build(const std::vector<std::string>& words) {
  Build(words, nullptr);
}

void FastSsIndex::Build(const std::vector<std::string>& words,
                        ThreadPool* pool) {
  XCLEAN_CHECK(!built_);
  built_ = true;
  words_ = words;
  const size_t word_count = words_.size();
  if (word_count == 0) {
    FinalizeBuckets();
    return;
  }

  // Shard the vocabulary into contiguous word-id ranges; each shard emits
  // its neighborhoods into a private run, in word-id order.
  const size_t participants =
      pool != nullptr ? pool->num_threads() + 1 : 1;
  const size_t num_shards = std::min(word_count, participants * 4);
  const size_t shard_size = (word_count + num_shards - 1) / num_shards;
  std::vector<std::vector<Posting>> runs(num_shards);
  std::vector<uint8_t> shard_partitioned(num_shards, 0);
  ParallelFor(
      pool, num_shards,
      [&](size_t begin, size_t end) {
        std::vector<uint64_t> hashes;
        for (size_t shard = begin; shard < end; ++shard) {
          const size_t lo = shard * shard_size;
          const size_t hi = std::min(word_count, lo + shard_size);
          for (size_t id = lo; id < hi; ++id) {
            if (EmitWord(static_cast<uint32_t>(id), hashes, runs[shard])) {
              shard_partitioned[shard] = 1;
            }
          }
        }
      },
      ParallelForOptions{.min_chunk = 1, .chunks_per_thread = 2});
  for (uint8_t flag : shard_partitioned) {
    if (flag != 0) has_partitioned_ = true;
  }

  // Counting sort on the bucket bits: the bucket directory doubles as the
  // scatter offsets, and the runs are scattered in shard (= word-id)
  // order. Each bucket is then sorted by (hash, word_id) — a total order
  // whose only ties are bit-identical postings — so the array is
  // byte-identical for every thread count, the serial build included.
  CountBuckets(runs);
  std::vector<uint32_t> next(bucket_start_.begin(), bucket_start_.end() - 1);
  postings_.resize(bucket_start_.back());
  for (std::vector<Posting>& run : runs) {
    for (const Posting& p : run) postings_[next[BucketOf(p.hash)]++] = p;
    run = {};
  }
  ParallelFor(
      pool, kNumBuckets,
      [&](size_t begin, size_t end) {
        for (size_t b = begin; b < end; ++b) {
          std::sort(postings_.begin() + bucket_start_[b],
                    postings_.begin() + bucket_start_[b + 1],
                    [](const Posting& x, const Posting& y) {
                      return x.hash < y.hash ||
                             (x.hash == y.hash && x.word_id < y.word_id);
                    });
        }
      },
      ParallelForOptions{.min_chunk = 4096});
}

void FastSsIndex::FinalizeBuckets() { CountBuckets({&postings_, 1}); }

void FastSsIndex::CountBuckets(std::span<const std::vector<Posting>> runs) {
  size_t total = 0;
  for (const std::vector<Posting>& run : runs) total += run.size();
  XCLEAN_CHECK(total <= UINT32_MAX);
  bucket_start_.assign(kNumBuckets + 1, 0);
  for (const std::vector<Posting>& run : runs) {
    for (const Posting& p : run) ++bucket_start_[BucketOf(p.hash) + 1];
  }
  for (size_t b = 1; b <= kNumBuckets; ++b) {
    bucket_start_[b] += bucket_start_[b - 1];
  }
}

uint64_t FastSsIndex::ApproxMemoryBytes() const {
  uint64_t bytes = postings_.capacity() * sizeof(Posting);
  for (const std::string& w : words_) bytes += sizeof(std::string) + w.size();
  return bytes;
}

void FastSsIndex::ProbeHash(uint64_t hash,
                            std::vector<uint32_t>& candidates) const {
  static_assert(sizeof(Posting) == 16,
                "Posting must be a 16-byte (hash, word_id) record");
  const size_t bucket = BucketOf(hash);
  const Posting* begin = postings_.data() + bucket_start_[bucket];
  const Posting* end = postings_.data() + bucket_start_[bucket + 1];
  const size_t size = static_cast<size_t>(end - begin);
  const simd::Level level = simd::ActiveLevel();
  const Posting* it;
  // Buckets are short (postings spread over 2^16 buckets), so the vector
  // lower bound usually finishes in its final window scan; degenerate
  // buckets stay logarithmic via the kernel's internal binary narrowing.
  // Both paths land on the identical lower-bound position.
  if (level != simd::Level::kScalar) {
    it = begin + simd::LowerBoundKey64Stride16(level, begin, size, hash);
  } else {
    it = std::lower_bound(
        begin, end, hash,
        [](const Posting& p, uint64_t h) { return p.hash < h; });
  }
  for (; it != end && it->hash == hash; ++it) {
    candidates.push_back(it->word_id);
  }
}

void FastSsIndex::ProbeNeighborhood(Tag tag, std::string_view piece,
                                    uint32_t max_deletions,
                                    std::vector<uint32_t>& candidates) const {
  std::vector<uint64_t> hashes;
  DeletionHashes(tag, piece, max_deletions, hashes);
  for (uint64_t hash : hashes) {
    ProbeHash(hash, candidates);
  }
}

std::vector<FastSsIndex::Match> FastSsIndex::Find(std::string_view query,
                                                  uint32_t max_ed) const {
  XCLEAN_CHECK(built_);
  XCLEAN_CHECK(max_ed <= options_.max_ed);

  std::vector<uint32_t> candidates;
  // Whole-word probes cover words indexed unpartitioned.
  ProbeNeighborhood(Tag::kWhole, query, max_ed, candidates);

  if (has_partitioned_ && max_ed > 0) {
    // Split probes cover partitioned words: for the split induced by the
    // optimal alignment, one half pair has edit distance <= floor(max_ed/2)
    // (pigeonhole over the two halves). We try every plausible split point
    // of the query around its middle.
    const uint32_t half_k = options_.max_ed / 2;
    size_t mid = (query.size() + 1) / 2;
    size_t lo = mid > max_ed + 1 ? mid - max_ed - 1 : 0;
    size_t hi = std::min(query.size(), mid + max_ed + 1);
    for (size_t g = lo; g <= hi; ++g) {
      ProbeNeighborhood(Tag::kLeft, query.substr(0, g), half_k, candidates);
      ProbeNeighborhood(Tag::kRight, query.substr(g), half_k, candidates);
    }
  }

  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  std::vector<Match> matches;
  for (uint32_t id : candidates) {
    uint32_t d = EditDistanceBounded(query, words_[id], max_ed);
    if (d <= max_ed) matches.push_back(Match{id, d});
  }
  return matches;
}

}  // namespace xclean
