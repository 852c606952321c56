#include "core/variant_gen.h"

#include <algorithm>

#include "common/check.h"
#include "text/soundex.h"

namespace xclean {

VariantGenerator::VariantGenerator(const XmlIndex& index,
                                   VariantGenOptions options)
    : index_(&index), options_(options) {
  XCLEAN_CHECK(options_.max_ed <= index.fastss().options().max_ed);
  if (options_.include_soundex) {
    const Vocabulary& vocab = index.vocabulary();
    for (TokenId id = 0; id < vocab.size(); ++id) {
      std::string code = Soundex(vocab.token(id));
      if (!code.empty()) soundex_buckets_[code].push_back(id);
    }
  }
}

void VariantGenerator::Generate(const std::string& keyword,
                                FastSsIndex::ProbeScratch& probe,
                                std::vector<Variant>& out) const {
  out.clear();
  for (const FastSsIndex::Match& m :
       index_->fastss().Find(keyword, options_.max_ed, probe)) {
    out.push_back(Variant{m.word_id, m.distance});
  }
  if (options_.include_soundex) {
    std::string code = Soundex(keyword);
    auto it = soundex_buckets_.find(code);
    if (it != soundex_buckets_.end()) {
      for (TokenId id : it->second) {
        bool already = false;
        for (const Variant& v : out) {
          if (v.token == id) {
            already = true;
            break;
          }
        }
        if (!already) out.push_back(Variant{id, options_.max_ed});
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const Variant& a, const Variant& b) {
    return a.distance < b.distance ||
           (a.distance == b.distance && a.token < b.token);
  });
}

std::vector<Variant> VariantGenerator::Generate(
    const std::string& keyword) const {
  FastSsIndex::ProbeScratch probe;
  std::vector<Variant> out;
  Generate(keyword, probe, out);
  return out;
}

}  // namespace xclean
