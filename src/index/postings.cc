#include "index/postings.h"

#include <algorithm>
#include <cstddef>

namespace xclean {

// Snapshot format v1 writes posting lists as raw 8-byte (node, tf) pairs
// (index/index_io.cc); pin the layout those bytes assume.
static_assert(sizeof(Posting) == 8, "Posting must be a packed 8-byte record");
static_assert(offsetof(Posting, node) == 0, "node must lead the record");

void PostingCursor::SkipTo(NodeId target) {
  if (AtEnd() || cur_->node >= target) return;
  // Galloping: double the step until we overshoot. Keeps short skips O(1)
  // and long skips logarithmic.
  size_t step = 1;
  const Posting* probe = cur_;
  while (probe + step < end_ && (probe + step)->node < target) {
    probe += step;
    step <<= 1;
  }
  const Posting* lo = probe;  // lo->node < target
  const Posting* hi = std::min(probe + step, end_);
  // Finish the gallop bracket with a plain binary search on every tier. A
  // SIMD window finish (binary-narrow to 16 postings, then a vector count
  // of the keys below the target) measured ~3x slower here: cursor skip
  // sequences repeat, so the branchy search predicts near-perfectly while
  // the branchless/vector finish pays its serial load-latency chain every
  // time. That kernel had no other caller and was removed.
  cur_ = std::lower_bound(
      lo, hi, target,
      [](const Posting& p, NodeId t) { return p.node < t; });
}

}  // namespace xclean
