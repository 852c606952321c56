#include "index/index_builder.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/parallel_for.h"
#include "common/thread_pool.h"

namespace xclean {

namespace {

/// One deduplicated (node, token) occurrence. The flat occurrence table is
/// what the postings shards scan; keeping the node inline avoids a second
/// per-node offset table.
struct Occurrence {
  TokenId token;
  NodeId node;
  uint32_t tf;
};

/// Where a token occurred last during the fused pass: its text node and
/// that node's slot in the occurrence table. A repeat inside the same node
/// bumps the slot's tf instead of adding an occurrence.
struct LastOccurrence {
  NodeId node = kInvalidNode;
  size_t slot = 0;
};

/// Builds the type lists of tokens [begin, end): for each label path, the
/// number of *distinct* nodes of that path whose subtree contains the
/// token (f_w^p of Eq. 7).
///
/// Every posting walks up its ancestor chain and stops at the first node
/// already stamped for the current token: that node's ancestors were
/// stamped by the same earlier walk, so each containing node is counted
/// exactly once. Tokens are distinct, so the token id itself is the stamp
/// and `seen` never needs clearing. `freq` is a flat per-path counter;
/// `touched` remembers its non-zero entries, which are emitted in PathId
/// order and reset.
void BuildTypeLists(const XmlTree& tree,
                    const std::vector<PostingList>& inverted_lists,
                    size_t begin, size_t end,
                    std::vector<std::vector<PathFreq>>& lists) {
  std::vector<TokenId> seen(tree.size(), kInvalidToken);
  std::vector<uint32_t> freq(tree.path_count(), 0);
  std::vector<PathId> touched;
  for (size_t token = begin; token < end; ++token) {
    const auto stamp = static_cast<TokenId>(token);
    for (const Posting& p : inverted_lists[token]) {
      for (NodeId a = p.node; a != kInvalidNode && seen[a] != stamp;
           a = tree.parent(a)) {
        seen[a] = stamp;
        const PathId path = tree.path_id(a);
        if (freq[path]++ == 0) touched.push_back(path);
      }
    }
    std::sort(touched.begin(), touched.end());
    std::vector<PathFreq>& out = lists[token];
    out.reserve(touched.size());
    for (PathId path : touched) {
      out.push_back(PathFreq{path, freq[path]});
      freq[path] = 0;
    }
    touched.clear();
  }
}

}  // namespace

std::unique_ptr<XmlIndex> IndexBuilder::Build(XmlTree tree,
                                              IndexOptions options) {
  std::unique_ptr<XmlIndex> index(new XmlIndex(std::move(tree), options));
  const XmlTree& t = index->tree_;
  const NodeId n = t.size();

  size_t threads = options.build_threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  // The calling thread participates in every ParallelFor, so the pool holds
  // threads-1 helpers; threads == 1 runs the same pipeline serially.
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) {
    ThreadPoolOptions pool_options;
    pool_options.num_threads = threads - 1;
    pool_options.queue_capacity = threads * 8;
    pool = std::make_unique<ThreadPool>(pool_options);
  }

  index->node_tokens_.assign(n, 0);
  index->subtree_tokens_.assign(n, 0);

  // Phase 1 (serial): tokenize every text-bearing node straight into the
  // vocabulary, in node order — id assignment must match a serial build
  // byte for byte — and record each node's distinct (token, tf) pairs in
  // one occurrence table in node order. Tokens arrive as views
  // (Tokenizer::ForEachToken), so the pass allocates only when the
  // vocabulary or the tables grow.
  Vocabulary& vocabulary = index->vocabulary_;
  std::vector<Occurrence> occurrences;
  std::vector<LastOccurrence> last;
  std::string buf;
  for (NodeId node = 0; node < n; ++node) {
    if (!t.has_text(node)) continue;
    uint32_t count = 0;
    index->tokenizer_.ForEachToken(
        t.text(node), buf, [&](std::string_view token) {
          const TokenId id = vocabulary.Intern(token);
          if (id == last.size()) {
            last.emplace_back();
            index->cf_.push_back(0);
            index->df_.push_back(0);
          }
          ++count;
          ++index->cf_[id];
          LastOccurrence& prev = last[id];
          if (prev.node == node) {
            ++occurrences[prev.slot].tf;
            return;
          }
          prev = LastOccurrence{node, occurrences.size()};
          occurrences.push_back(Occurrence{id, node, 1});
          ++index->df_[id];
        });
    if (count == 0) continue;
    ++index->text_node_count_;
    index->node_tokens_[node] = count;
    index->total_tokens_ += count;
  }
  last = {};

  // Phase 2: sharded postings accumulation. Each shard owns a contiguous
  // token range and scans the occurrence table once, appending postings
  // only for its own tokens; within a token, postings arrive in node order
  // because the table is in node order. df gives exact reserve sizes.
  const size_t vocab_size = index->vocabulary_.size();
  std::vector<std::vector<Posting>> lists(vocab_size);
  ParallelFor(
      pool.get(), vocab_size,
      [&](size_t begin, size_t end) {
        for (size_t token = begin; token < end; ++token) {
          lists[token].reserve(index->df_[token]);
        }
        for (const Occurrence& occ : occurrences) {
          if (occ.token >= begin && occ.token < end) {
            lists[occ.token].push_back(Posting{occ.node, occ.tf});
          }
        }
      },
      // One chunk per participant: every extra chunk costs a full scan of
      // the occurrence table.
      ParallelForOptions{.min_chunk = 1, .chunks_per_thread = 1});
  occurrences.clear();
  occurrences.shrink_to_fit();

  index->inverted_lists_.reserve(vocab_size);
  for (std::vector<Posting>& list : lists) {
    for (size_t i = 1; i < list.size(); ++i) {
      XCLEAN_CHECK(list[i - 1].node < list[i].node);
    }
    index->inverted_lists_.emplace_back(std::move(list));
  }

  // Phase 3 (serial): subtree token counts by reverse-preorder
  // accumulation; inherently sequential but O(n) additions.
  for (NodeId node = n; node-- > 0;) {
    index->subtree_tokens_[node] += index->node_tokens_[node];
    if (node != t.root()) {
      index->subtree_tokens_[t.parent(node)] += index->subtree_tokens_[node];
    }
  }

  // Phase 4: type lists, parallel over token ranges (each list is a pure
  // function of that token's posting list). Every chunk owns its own stamp
  // and counter arrays.
  index->type_index_.lists_.resize(vocab_size);
  ParallelFor(
      pool.get(), vocab_size,
      [&](size_t begin, size_t end) {
        BuildTypeLists(t, index->inverted_lists_, begin, end,
                       index->type_index_.lists_);
      },
      ParallelForOptions{.min_chunk = 64});

  // Phase 5: FastSS variant index, parallel neighborhood generation per
  // vocabulary shard with a deterministic merge (text/fastss.cc).
  FastSsIndex::Options fs_options;
  fs_options.max_ed = options.fastss_max_ed;
  fs_options.partition_min_length = options.fastss_partition_min_length;
  FastSsIndex fs(fs_options);
  fs.Build(index->vocabulary_.tokens(), pool.get());
  index->fastss_ = std::move(fs);

  return index;
}

}  // namespace xclean
