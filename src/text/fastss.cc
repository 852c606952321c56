#include "text/fastss.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/parallel_for.h"
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

/// Hints the cache to fetch `p`; a no-op where the builtin is missing.
inline void Prefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p);
#else
  (void)p;
#endif
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

void FastSsIndex::AppendDeletionHashes(Tag tag, std::string_view piece,
                                       uint32_t max_deletions,
                                       std::vector<uint64_t>& out) {
  EnumerateDeletionHashes(piece, 0, max_deletions,
                          TagSeed(static_cast<uint8_t>(tag)), out);
}

void FastSsIndex::DeletionHashes(Tag tag, std::string_view piece,
                                 uint32_t max_deletions,
                                 std::vector<uint64_t>& out) {
  out.clear();
  AppendDeletionHashes(tag, piece, max_deletions, out);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

bool FastSsIndex::EmitWord(uint32_t word_id, std::vector<uint64_t>& hashes,
                           std::vector<HashPosting>& out) const {
  const uint32_t k = options_.max_ed;
  const std::string_view w = words_[word_id];
  auto emit = [&](Tag tag, std::string_view piece, uint32_t deletions) {
    DeletionHashes(tag, piece, deletions, hashes);
    for (uint64_t hash : hashes) out.push_back(HashPosting{hash, word_id});
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
  Runs runs = EmitRuns(pool, has_partitioned_);
  AssignPostings(runs, pool);
}

FastSsIndex::Runs FastSsIndex::EmitRuns(ThreadPool* pool,
                                        bool& partitioned) const {
  partitioned = false;
  const size_t word_count = words_.size();
  if (word_count == 0) return {};
  const size_t participants =
      pool != nullptr ? pool->num_threads() + 1 : 1;
  const size_t num_shards = std::min(word_count, participants * 4);
  const size_t shard_size = (word_count + num_shards - 1) / num_shards;
  Runs runs(num_shards);
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
    if (flag != 0) partitioned = true;
  }
  return runs;
}

template <typename Out, typename Project>
void FastSsIndex::BucketSort(Runs& runs, ThreadPool* pool, Project project,
                             std::vector<uint32_t>& directory,
                             std::vector<Out>& out) {
  // Counting sort: the directory doubles as the scatter offsets.
  size_t total = 0;
  for (const std::vector<HashPosting>& run : runs) total += run.size();
  XCLEAN_CHECK(total <= UINT32_MAX);
  directory.assign(kNumBuckets + 1, 0);
  for (const std::vector<HashPosting>& run : runs) {
    for (const HashPosting& p : run) ++directory[BucketOf(p.hash) + 1];
  }
  for (size_t b = 1; b <= kNumBuckets; ++b) directory[b] += directory[b - 1];
  std::vector<uint32_t> next(directory.begin(), directory.end() - 1);
  out.resize(total);
  for (std::vector<HashPosting>& run : runs) {
    for (const HashPosting& p : run) out[next[BucketOf(p.hash)]++] = project(p);
    run = {};
  }
  ParallelFor(
      pool, kNumBuckets,
      [&](size_t begin, size_t end) {
        for (size_t b = begin; b < end; ++b) {
          std::sort(out.begin() + directory[b],
                    out.begin() + directory[b + 1]);
        }
      },
      ParallelForOptions{.min_chunk = 4096});
}

void FastSsIndex::AssignPostings(Runs& runs, ThreadPool* pool) {
  BucketSort(
      runs, pool,
      [](const HashPosting& p) {
        return Posting{FingerprintOf(p.hash), p.word_id};
      },
      bucket_start_, postings_);
}

bool FastSsIndex::SerializedPostings(std::vector<HashPosting>& stream) const {
  bool partitioned = false;
  Runs runs = EmitRuns(nullptr, partitioned);
  std::vector<uint32_t> directory;
  BucketSort(
      runs, nullptr, [](const HashPosting& p) { return p; }, directory,
      stream);
  if (partitioned != has_partitioned_ || directory != bucket_start_) {
    return false;
  }
  // Within a bucket the stream is ordered by (fp, low bits, word_id), the
  // postings by (fp, word_id). The two orders differ only where postings
  // share an fp but not the low bits; sort such a bucket before comparing.
  std::vector<Posting> bucket;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    bucket.clear();
    for (uint32_t i = directory[b]; i < directory[b + 1]; ++i) {
      bucket.push_back(Posting{FingerprintOf(stream[i].hash),
                               stream[i].word_id});
    }
    const auto stored = postings_.begin() + directory[b];
    if (std::equal(bucket.begin(), bucket.end(), stored)) continue;
    std::sort(bucket.begin(), bucket.end());
    if (!std::equal(bucket.begin(), bucket.end(), stored)) return false;
  }
  return true;
}

uint64_t FastSsIndex::ApproxMemoryBytes() const {
  uint64_t bytes = postings_.size() * sizeof(Posting) +
                   bucket_start_.size() * sizeof(uint32_t);
  for (const std::string& w : words_) bytes += sizeof(std::string) + w.size();
  return bytes;
}

std::span<const FastSsIndex::Match> FastSsIndex::Find(
    std::string_view query, uint32_t max_ed, ProbeScratch& scratch) const {
  XCLEAN_CHECK(built_);
  XCLEAN_CHECK(max_ed <= options_.max_ed);
  static_assert(sizeof(Posting) == 8, "Posting must be an 8-byte record");

  // 1. Every probe hash of the query. Whole-word probes cover words
  // indexed unpartitioned.
  std::vector<uint64_t>& hashes = scratch.hashes_;
  hashes.clear();
  AppendDeletionHashes(Tag::kWhole, query, max_ed, hashes);
  if (has_partitioned_ && max_ed > 0) {
    // Split probes cover partitioned words: for the split induced by the
    // optimal alignment, one half pair has edit distance <= floor(max_ed/2)
    // (pigeonhole over the two halves). We try every plausible split point
    // of the query around its middle.
    const uint32_t half_k = options_.max_ed / 2;
    const size_t mid = (query.size() + 1) / 2;
    const size_t lo = mid > max_ed + 1 ? mid - max_ed - 1 : 0;
    const size_t hi = std::min(query.size(), mid + max_ed + 1);
    for (size_t g = lo; g <= hi; ++g) {
      AppendDeletionHashes(Tag::kLeft, query.substr(0, g), half_k, hashes);
      AppendDeletionHashes(Tag::kRight, query.substr(g), half_k, hashes);
    }
  }
  // Not deduplicated: a repeated hash rescans a bucket already in cache,
  // which costs less than sorting the ~130 hashes of a keyword, and the
  // candidates are deduplicated below anyway.

  // 2. Prefetch every directory entry, then every bucket's head, so the
  // misses of one query overlap instead of queueing behind each other.
  const uint32_t* directory = bucket_start_.data();
  const Posting* postings = postings_.data();
  for (uint64_t hash : hashes) Prefetch(directory + BucketOf(hash));
  for (uint64_t hash : hashes) {
    Prefetch(postings + directory[BucketOf(hash)]);
  }

  // 3. Scan: buckets hold about a dozen postings sorted by (fp, word_id).
  std::vector<uint32_t>& candidates = scratch.candidates_;
  candidates.clear();
  for (uint64_t hash : hashes) {
    const size_t bucket = BucketOf(hash);
    const uint32_t fp = FingerprintOf(hash);
    const Posting* it = postings + directory[bucket];
    const Posting* end = postings + directory[bucket + 1];
    while (it != end && it->fp < fp) ++it;
    for (; it != end && it->fp == fp; ++it) {
      candidates.push_back(it->word_id);
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  // 4. Verify: fingerprint and hash collisions drop out here.
  std::vector<Match>& matches = scratch.matches_;
  matches.clear();
  for (uint32_t id : candidates) {
    const uint32_t d = EditDistanceBounded(query, words_[id], max_ed);
    if (d <= max_ed) matches.push_back(Match{id, d});
  }
  return matches;
}

std::vector<FastSsIndex::Match> FastSsIndex::Find(std::string_view query,
                                                  uint32_t max_ed) const {
  ProbeScratch scratch;
  std::span<const Match> matches = Find(query, max_ed, scratch);
  return {matches.begin(), matches.end()};
}

}  // namespace xclean
