#include "lm/result_type.h"

#include <cmath>

#include "common/check.h"

namespace xclean {

double ResultTypeScorer::Utility(const std::vector<TokenId>& candidate,
                                 PathId path) const {
  double product = 1.0;
  for (TokenId token : candidate) {
    uint32_t f = 0;
    for (const PathFreq& pf : lists_.list(token)) {
      if (pf.path == path) {
        f = pf.freq;
        break;
      }
    }
    if (f == 0) return 0.0;
    product *= static_cast<double>(f);
  }
  return std::log1p(product) * std::pow(reduction_, path_depths_[path]);
}

ResultTypeScorer::Choice ResultTypeScorer::FindResultType(
    std::span<const TokenId> candidate, uint32_t min_depth,
    Buffers& buffers) const {
  XCLEAN_CHECK(!candidate.empty());
  const size_t l = candidate.size();
  auto& lists = buffers.lists;
  auto& pos = buffers.pos;
  lists.resize(l);
  pos.assign(l, 0);
  for (size_t i = 0; i < l; ++i) {
    lists[i] = lists_.list(candidate[i]);
    if (lists[i].empty()) return Choice{};
  }

  Choice best;
  // Multi-way sorted intersection driven by the first list.
  for (;;) {
    if (pos[0] >= lists[0].size()) break;
    PathId path = lists[0][pos[0]].path;
    double product = static_cast<double>(lists[0][pos[0]].freq);
    bool all = true;
    for (size_t i = 1; i < l; ++i) {
      // Advance list i to the first entry >= path.
      while (pos[i] < lists[i].size() && lists[i][pos[i]].path < path) {
        ++pos[i];
      }
      if (pos[i] >= lists[i].size()) return best;  // list exhausted
      if (lists[i][pos[i]].path != path) {
        all = false;
        break;
      }
      product *= static_cast<double>(lists[i][pos[i]].freq);
    }
    if (all && path_depths_[path] >= min_depth) {
      double utility =
          std::log1p(product) * std::pow(reduction_, path_depths_[path]);
      // freqs are >= 1, so utility > 0; iteration is ascending by PathId,
      // so strict '>' realizes the smaller-path tie break.
      if (utility > best.utility) best = Choice{path, utility, product};
    }
    ++pos[0];
  }
  return best;
}

}  // namespace xclean
