#ifndef XCLEAN_TEXT_FASTSS_H_
#define XCLEAN_TEXT_FASTSS_H_

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
///  - neighborhood variants are stored as 64-bit hashes in one sorted flat
///    array of (hash, word_id) pairs: ~12 bytes per posting, binary-searched
///    at query time; hash collisions only cost a wasted verification,
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

  /// All indexed words within edit distance max_ed of `query`, unordered.
  /// Requires max_ed <= options().max_ed and Build() to have run.
  std::vector<Match> Find(std::string_view query, uint32_t max_ed) const;

  const std::string& word(uint32_t id) const { return words_[id]; }
  size_t size() const { return words_.size(); }
  const Options& options() const { return options_; }

  /// Number of (hash, id) postings — exposed for space accounting in the
  /// micro benchmarks.
  size_t posting_count() const { return postings_.size(); }

  /// Approximate resident bytes (posting array + word copies).
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
  /// materialized. Both the build and the probe side enumerate through
  /// this.
  static void DeletionHashes(Tag tag, std::string_view piece,
                             uint32_t max_deletions,
                             std::vector<uint64_t>& out);

 private:
  friend struct SerializationAccess;  // index/index_io.cc

  struct Posting {
    uint64_t hash;
    uint32_t word_id;
  };

  /// Emits the (possibly partitioned) neighborhood of one word into `out`,
  /// using `hashes` as scratch; returns true when the word used the
  /// partitioned layout.
  bool EmitWord(uint32_t word_id, std::vector<uint64_t>& hashes,
                std::vector<Posting>& out) const;
  void ProbeNeighborhood(Tag tag, std::string_view piece,
                         uint32_t max_deletions,
                         std::vector<uint32_t>& candidates) const;
  void ProbeHash(uint64_t hash, std::vector<uint32_t>& candidates) const;

  /// Bucket directory over the top kBucketBits hash bits: probes binary-
  /// search one bucket instead of the whole posting array. Not serialized;
  /// deserialization recounts it from postings_ here.
  void FinalizeBuckets();
  /// Sets the bucket directory to that of the postings in `runs`. Build()
  /// counts its unsorted runs, so the directory doubles as the offsets of
  /// its counting sort.
  void CountBuckets(std::span<const std::vector<Posting>> runs);

  static constexpr uint32_t kBucketBits = 16;
  static constexpr size_t kNumBuckets = size_t{1} << kBucketBits;
  static size_t BucketOf(uint64_t hash) { return hash >> (64 - kBucketBits); }

  Options options_;
  std::vector<std::string> words_;
  std::vector<Posting> postings_;
  /// bucket_start_[b] = first posting whose hash's top bits are >= b;
  /// size kNumBuckets + 1 (empty until FinalizeBuckets runs).
  std::vector<uint32_t> bucket_start_;
  bool built_ = false;
  bool has_partitioned_ = false;
};

}  // namespace xclean

#endif  // XCLEAN_TEXT_FASTSS_H_
