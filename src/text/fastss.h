#ifndef XCLEAN_TEXT_FASTSS_H_
#define XCLEAN_TEXT_FASTSS_H_

#include <compare>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace xclean {

class ThreadPool;

/// Partitioned FastSS index for approximate string matching under an edit
/// distance constraint (Sec. V-A of the paper, citing the FastSS family).
///
/// Principle: if ed(s, t) <= k then deleting at most k characters from each
/// yields a common string, so the k-deletion neighborhoods of s and t
/// intersect. We index every vocabulary token's deletion neighborhood and,
/// at query time, probe with the query's neighborhood; survivors are
/// verified with a banded edit distance computation.
///
/// Partitioning: the deletion neighborhood grows as O(l^k), so for long
/// tokens the index instead stores the floor(k/2)-deletion neighborhoods of
/// the token's two halves. If ed(q, w) <= k, the optimal alignment splits q
/// so that one half pair has edit distance <= floor(k/2) (pigeonhole), hence
/// probing all plausible splits of q against the half indexes is complete.
/// This gives the paper's O(min(l^eps, eps^2 * l_p) * |V|) space behaviour.
///
/// Implementation notes (database-engine idioms):
///  - neighborhood variants are hashed to 64 bits and never materialized.
///    A 65,536-entry directory over the top 16 hash bits splits the
///    postings into buckets of about a dozen; each posting keeps only the
///    next 32 hash bits and the word id (8 bytes), sorted by that pair
///    within its bucket. A probe scans its bucket linearly; a collision on
///    the kept bits only costs one more verified candidate,
///  - Find enumerates every probe hash of a query first, prefetches their
///    directory entries and then the head of each bucket, and only then
///    scans, so the ~100 random reads of one keyword overlap in memory,
///  - the index is built once and frozen (Build), matching the offline
///    index construction in the paper.
class FastSsIndex {
 public:
  struct Options {
    /// Maximum edit distance the index can answer ("eps" in the paper).
    uint32_t max_ed = 2;
    /// Tokens at least this long use the partitioned representation.
    size_t partition_min_length = 13;
  };

  struct Match {
    uint32_t word_id;
    uint32_t distance;
  };

  /// Caller-owned buffers of the allocation-free Find. They keep their
  /// capacity, so once warmed a probe allocates nothing. One scratch
  /// serves one thread at a time.
  class ProbeScratch {
   private:
    friend class FastSsIndex;
    std::vector<uint64_t> hashes_;
    std::vector<uint32_t> candidates_;
    std::vector<Match> matches_;
  };

  FastSsIndex();
  explicit FastSsIndex(Options options);

  /// Indexes all words; words get dense ids [0, words.size()) in order.
  /// Must be called exactly once.
  void Build(const std::vector<std::string>& words);

  /// Same, generating deletion neighborhoods in parallel over contiguous
  /// vocabulary shards on `pool` (nullptr = serial). The shard outputs are
  /// bucketed in word-id order and each bucket is sorted with a total
  /// order whose ties are bit-identical entries, so the resulting index —
  /// and its serialized form — is byte-identical for every thread count.
  void Build(const std::vector<std::string>& words, ThreadPool* pool);

  /// All indexed words within edit distance max_ed of `query`, ascending
  /// by word id. Requires max_ed <= options().max_ed and Build() to have
  /// run. The span points into `scratch` and stays valid until its next
  /// use.
  std::span<const Match> Find(std::string_view query, uint32_t max_ed,
                              ProbeScratch& scratch) const;

  /// Same, into a fresh vector (allocates; for callers off the hot path).
  std::vector<Match> Find(std::string_view query, uint32_t max_ed) const;

  const std::string& word(uint32_t id) const { return words_[id]; }
  size_t size() const { return words_.size(); }
  const Options& options() const { return options_; }

  /// Number of (variant, word) postings — exposed for space accounting in
  /// the micro benchmarks.
  size_t posting_count() const { return postings_.size(); }

  /// Approximate resident bytes: the posting array, the bucket directory
  /// and the word copies.
  uint64_t ApproxMemoryBytes() const;

  /// Variant-hash namespaces: whole words, and the left and right halves of
  /// partitioned words.
  enum class Tag : uint8_t { kWhole = 0, kLeft = 1, kRight = 2 };

  /// Hash of one deletion variant: FNV-1a over the tag byte and the
  /// variant bytes. Collisions only cost a wasted verification.
  static uint64_t HashVariant(Tag tag, std::string_view variant);

  /// Replaces `out` with the sorted, distinct HashVariant(tag, v) of every
  /// string v obtainable from `piece` by deleting at most max_deletions
  /// characters (`piece` itself included). The variants are never
  /// materialized. The build enumerates through this, the probe through
  /// its unsorted form, AppendDeletionHashes.
  static void DeletionHashes(Tag tag, std::string_view piece,
                             uint32_t max_deletions,
                             std::vector<uint64_t>& out);

 private:
  friend struct SerializationAccess;  // index/index_io.cc
  friend struct FastSsIndexPeer;      // tests/fastss_test.cc

  /// One in-memory posting: hash bits 47..16 of a deletion variant and
  /// the word it came from. Bits 63..48 are the bucket, implied by the
  /// posting's place; bits 15..0 are dropped. Ordered by (fp, word_id).
  struct Posting {
    uint32_t fp;
    uint32_t word_id;

    auto operator<=>(const Posting&) const = default;
  };
  /// The full (hash, word_id) pair: what the build enumerates and what the
  /// snapshot's FastSS section carries. Ordered by (hash, word_id).
  struct HashPosting {
    uint64_t hash;
    uint32_t word_id;

    auto operator<=>(const HashPosting&) const = default;
  };
  using Runs = std::vector<std::vector<HashPosting>>;

  /// Appends the (possibly partitioned) neighborhood of one word to `out`,
  /// using `hashes` as scratch; returns true when the word used the
  /// partitioned layout.
  bool EmitWord(uint32_t word_id, std::vector<uint64_t>& hashes,
                std::vector<HashPosting>& out) const;
  /// DeletionHashes without the clear, sort and dedupe: appends one hash
  /// per choice of deleted positions.
  static void AppendDeletionHashes(Tag tag, std::string_view piece,
                                   uint32_t max_deletions,
                                   std::vector<uint64_t>& out);
  /// Every word's neighborhood in per-shard runs of contiguous word ids,
  /// generated in parallel on `pool` (nullptr = serial); sets
  /// `partitioned` when any word used the partitioned layout.
  Runs EmitRuns(ThreadPool* pool, bool& partitioned) const;
  /// Counting-sorts `runs` on the bucket bits into `out`, each posting
  /// through `project`, in run order; sets `directory` to the bucket
  /// offsets and sorts each bucket by Out's order. That is a total order
  /// whose only ties are identical postings, so the result does not depend
  /// on how the stream was split into runs. Releases each run once it is
  /// scattered.
  template <typename Out, typename Project>
  static void BucketSort(Runs& runs, ThreadPool* pool, Project project,
                         std::vector<uint32_t>& directory,
                         std::vector<Out>& out);
  /// BucketSort into this index's postings and directory.
  void AssignPostings(Runs& runs, ThreadPool* pool);

  /// The snapshot's (hash, word_id) stream, sorted by (hash, word_id),
  /// rebuilt from the words: the postings keep only 48 of the 64 hash
  /// bits. Returns false when that stream does not project to exactly this
  /// index's postings — possible only for a loaded snapshot this code
  /// would not have written.
  bool SerializedPostings(std::vector<HashPosting>& stream) const;

  static constexpr uint32_t kBucketBits = 16;
  static constexpr size_t kNumBuckets = size_t{1} << kBucketBits;
  static size_t BucketOf(uint64_t hash) { return hash >> (64 - kBucketBits); }
  static uint32_t FingerprintOf(uint64_t hash) {
    return static_cast<uint32_t>(hash >> (32 - kBucketBits));
  }

  Options options_;
  std::vector<std::string> words_;
  std::vector<Posting> postings_;
  /// bucket_start_[b] = first posting of bucket b; size kNumBuckets + 1
  /// once built. Not serialized: loading recounts it.
  std::vector<uint32_t> bucket_start_;
  bool built_ = false;
  bool has_partitioned_ = false;
};

}  // namespace xclean

#endif  // XCLEAN_TEXT_FASTSS_H_
