#include "index/index_io.h"

#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <new>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/durable_file.h"
#include "common/fault_injection.h"
#include "common/string_util.h"
#include "common/varint.h"
#include "text/fastss.h"
#include "xml/tree.h"

namespace xclean {

namespace {

constexpr char kMagic[6] = {'X', 'C', 'L', 'I', 'D', 'X'};
constexpr uint64_t kFnvOffset = 14695981039346656037ULL;

uint64_t Fnv1a(const char* data, size_t size, uint64_t h) {
  for (size_t i = 0; i < size; ++i) {
    h = (h ^ static_cast<uint8_t>(data[i])) * 1099511628211ULL;
  }
  return h;
}

/// The v2 sections, in file order. Each is length-prefixed and carries its
/// own checksum, so a corrupted snapshot reports *which* structure broke.
enum class Section : uint8_t {
  kTree = 1,
  kOptions = 2,
  kVocabulary = 3,
  kPostings = 4,
  kTypeLists = 5,
  kStats = 6,
  kFastSs = 7,
};

const char* SectionName(Section s) {
  switch (s) {
    case Section::kTree:
      return "tree";
    case Section::kOptions:
      return "options";
    case Section::kVocabulary:
      return "vocabulary";
    case Section::kPostings:
      return "postings";
    case Section::kTypeLists:
      return "type-lists";
    case Section::kStats:
      return "statistics";
    case Section::kFastSs:
      return "fastss";
  }
  return "unknown";
}

Status SectionError(Section s, const char* what) {
  return Status::ParseError(
      StrFormat("index file section '%s': %s", SectionName(s), what));
}

/// Buffered little-endian writer accumulating a payload so a trailing
/// checksum can cover all of it. Var* methods are the v2 codec; the
/// fixed-width methods are shared with the v1 writer.
class Writer {
 public:
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  void Bool(bool v) { U32(v ? 1 : 0); }

  void Var32(uint32_t v) { PutVarint32(buffer_, v); }
  void Var64(uint64_t v) { PutVarint64(buffer_, v); }
  void VarSigned(int64_t v) { PutVarint64(buffer_, ZigZagEncode(v)); }

  void Str(const std::string& s) {
    U64(s.size());
    Raw(s.data(), s.size());
  }

  void VarStr(const std::string& s) {
    Var64(s.size());
    Raw(s.data(), s.size());
  }

  void StrVec(const std::vector<std::string>& v) {
    U64(v.size());
    for (const std::string& s : v) Str(s);
  }

  void VarStrVec(const std::vector<std::string>& v) {
    Var64(v.size());
    for (const std::string& s : v) VarStr(s);
  }

  template <typename T>
  void PodVec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    U64(v.size());
    Raw(v.data(), v.size() * sizeof(T));
  }

  /// Count-prefixed varint stream (one varint per element).
  template <typename T>
  void VarVec(const std::vector<T>& v) {
    Var64(v.size());
    for (T x : v) Var64(x);
  }

  void Raw(const void* data, size_t size) {
    buffer_.append(static_cast<const char*>(data), size);
  }

  const std::string& buffer() const { return buffer_; }

 private:
  std::string buffer_;
};

/// Bounds-checked reader over one loaded payload.
class Reader {
 public:
  explicit Reader(std::string payload) : payload_(std::move(payload)) {}

  Status U32(uint32_t& v) { return Raw(&v, sizeof(v)); }
  Status U64(uint64_t& v) { return Raw(&v, sizeof(v)); }
  Status F64(double& v) { return Raw(&v, sizeof(v)); }
  Status Bool(bool& v) {
    uint32_t raw = 0;
    Status s = U32(raw);
    v = raw != 0;
    return s;
  }

  Status Var32(uint32_t& v) {
    const char* p =
        GetVarint32(payload_.data() + pos_, payload_.data() + payload_.size(),
                    &v);
    if (p == nullptr) return Truncated();
    pos_ = static_cast<size_t>(p - payload_.data());
    return Status::Ok();
  }

  Status Var64(uint64_t& v) {
    const char* p =
        GetVarint64(payload_.data() + pos_, payload_.data() + payload_.size(),
                    &v);
    if (p == nullptr) return Truncated();
    pos_ = static_cast<size_t>(p - payload_.data());
    return Status::Ok();
  }

  Status VarSigned(int64_t& v) {
    uint64_t raw = 0;
    Status s = Var64(raw);
    v = ZigZagDecode(raw);
    return s;
  }

  /// Block-decodes `count` varint32 values via the SIMD-dispatched group
  /// codec (runs of one-byte varints widen 8/16 at a time — the common
  /// case for the delta+tf posting streams).
  Status Var32Group(uint32_t* out, size_t count) {
    const char* p =
        GetVarint32Group(payload_.data() + pos_,
                         payload_.data() + payload_.size(), out, count);
    if (p == nullptr) return Truncated();
    pos_ = static_cast<size_t>(p - payload_.data());
    return Status::Ok();
  }

  Status Str(std::string& s) {
    uint64_t size = 0;
    Status st = U64(size);
    if (!st.ok()) return st;
    return StrBody(size, s);
  }

  Status VarStr(std::string& s) {
    uint64_t size = 0;
    Status st = Var64(size);
    if (!st.ok()) return st;
    return StrBody(size, s);
  }

  Status StrVec(std::vector<std::string>& v) {
    uint64_t count = 0;
    Status st = U64(count);
    if (!st.ok()) return st;
    // Each entry needs at least its 8-byte length.
    if (count > remaining() / 8) return Truncated();
    v.resize(count);
    for (uint64_t i = 0; i < count; ++i) {
      st = Str(v[i]);
      if (!st.ok()) return st;
    }
    return Status::Ok();
  }

  Status VarStrVec(std::vector<std::string>& v) {
    uint64_t count = 0;
    Status st = Var64(count);
    if (!st.ok()) return st;
    // Each entry needs at least one length byte.
    if (count > remaining()) return Truncated();
    v.resize(count);
    for (uint64_t i = 0; i < count; ++i) {
      st = VarStr(v[i]);
      if (!st.ok()) return st;
    }
    return Status::Ok();
  }

  template <typename T>
  Status PodVec(std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t count = 0;
    Status st = U64(count);
    if (!st.ok()) return st;
    if (count > remaining() / sizeof(T)) return Truncated();
    v.resize(count);
    return Raw(v.data(), count * sizeof(T));
  }

  template <typename T>
  Status VarVec(std::vector<T>& v) {
    uint64_t count = 0;
    Status st = Var64(count);
    if (!st.ok()) return st;
    // Each element needs at least one byte.
    if (count > remaining()) return Truncated();
    v.resize(count);
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t x = 0;
      st = Var64(x);
      if (!st.ok()) return st;
      if (x > std::numeric_limits<T>::max()) return Truncated();
      v[i] = static_cast<T>(x);
    }
    return Status::Ok();
  }

  Status Raw(void* out, size_t size) {
    if (size > remaining()) return Truncated();
    std::memcpy(out, payload_.data() + pos_, size);
    pos_ += size;
    return Status::Ok();
  }

  size_t remaining() const { return payload_.size() - pos_; }

 private:
  Status StrBody(uint64_t size, std::string& s) {
    if (size > remaining()) return Truncated();
    s.assign(payload_.data() + pos_, size);
    pos_ += size;
    return Status::Ok();
  }

  static Status Truncated() {
    return Status::ParseError("index file truncated or corrupted");
  }

  std::string payload_;
  size_t pos_ = 0;
};

/// Reads `size` bytes from `in` into `payload` in bounded chunks, so a
/// corrupted length field cannot demand one absurd upfront allocation —
/// the stream runs dry first and the lie is reported as truncation.
Status ReadPayload(std::istream& in, uint64_t size, std::string& payload) {
  constexpr uint64_t kChunk = 4 << 20;
  payload.clear();
  while (payload.size() < size) {
    const size_t want =
        static_cast<size_t>(std::min(kChunk, size - payload.size()));
    const size_t old = payload.size();
    try {
      payload.resize(old + want);
    } catch (const std::exception&) {
      return Status::ParseError("index file: implausible payload size");
    }
    in.read(payload.data() + old, static_cast<std::streamsize>(want));
    if (static_cast<size_t>(in.gcount()) != want) {
      return Status::ParseError("index file truncated (payload)");
    }
  }
  return Status::Ok();
}

}  // namespace

/// Private-member access hook (friended by XmlTree, XmlIndex, TypeIndex
/// and FastSsIndex).
struct SerializationAccess {
  /// The FastSS section's (hash, word_id) records.
  using FastSsStream = std::vector<FastSsIndex::HashPosting>;

  // --- shared validation --------------------------------------------------

  static Status ValidateTree(const XmlTree& tree) {
    // Structural sanity: node/dewey/path table cross references.
    for (const XmlTree::Node& node : tree.nodes_) {
      if (node.label_id >= tree.labels_.size() ||
          node.path_id >= tree.path_depths_.size() ||
          node.subtree_end >= tree.nodes_.size() ||
          static_cast<uint64_t>(node.dewey_offset) + node.depth >
              tree.dewey_pool_.size() ||
          (node.text_id != XmlTree::kNoText &&
           node.text_id >= tree.texts_.size())) {
        return Status::ParseError("index file: inconsistent tree tables");
      }
    }
    return Status::Ok();
  }

  // --- format v1 (legacy, monolithic payload) -----------------------------

  static void WriteTreeV1(const XmlTree& tree, Writer& w) {
    w.PodVec(tree.nodes_);
    w.PodVec(tree.dewey_pool_);
    w.StrVec(tree.texts_);
    w.StrVec(tree.labels_);
    w.PodVec(tree.path_parents_);
    w.PodVec(tree.path_labels_);
    w.PodVec(tree.path_depths_);
    w.PodVec(tree.path_node_counts_);
    w.U32(tree.max_depth_);
    w.U64(tree.depth_sum_);
  }

  static Status ReadTreeV1(Reader& r, XmlTree& tree) {
    Status s;
    if (!(s = r.PodVec(tree.nodes_)).ok()) return s;
    if (!(s = r.PodVec(tree.dewey_pool_)).ok()) return s;
    if (!(s = r.StrVec(tree.texts_)).ok()) return s;
    if (!(s = r.StrVec(tree.labels_)).ok()) return s;
    if (!(s = r.PodVec(tree.path_parents_)).ok()) return s;
    if (!(s = r.PodVec(tree.path_labels_)).ok()) return s;
    if (!(s = r.PodVec(tree.path_depths_)).ok()) return s;
    if (!(s = r.PodVec(tree.path_node_counts_)).ok()) return s;
    if (!(s = r.U32(tree.max_depth_)).ok()) return s;
    if (!(s = r.U64(tree.depth_sum_)).ok()) return s;
    return ValidateTree(tree);
  }

  static void WriteIndexV1(const XmlIndex& index, const FastSsStream& fastss,
                           Writer& w) {
    WriteTreeV1(index.tree_, w);
    // Options.
    const IndexOptions& o = index.options_;
    w.Bool(o.tokenizer.lowercase);
    w.U64(o.tokenizer.min_token_length);
    w.Bool(o.tokenizer.drop_numbers);
    w.Bool(o.tokenizer.drop_stopwords);
    w.U32(o.fastss_max_ed);
    w.U64(o.fastss_partition_min_length);
    // Vocabulary.
    w.StrVec(index.vocabulary_.tokens());
    // Inverted lists.
    w.U64(index.inverted_lists_.size());
    for (const PostingList& list : index.inverted_lists_) {
      w.U64(list.size());
      w.Raw(list.data(), list.size() * sizeof(Posting));
    }
    // Type lists.
    w.U64(index.type_index_.lists_.size());
    for (const auto& list : index.type_index_.lists_) w.PodVec(list);
    // Statistics.
    w.PodVec(index.cf_);
    w.PodVec(index.df_);
    w.PodVec(index.node_tokens_);
    w.PodVec(index.subtree_tokens_);
    w.U64(index.total_tokens_);
    w.U32(index.text_node_count_);
    w.U64(index.source_bytes_);
    // FastSS postings (words are the vocabulary, not re-stored), as 16-byte
    // (hash, word_id, zero pad) records — the layout PodVec reads back.
    // The pad is written as explicit zeros so saved bytes never depend on
    // heap garbage and equal-index saves are byte-identical (the
    // determinism tests compare snapshots of parallel vs serial builds).
    static_assert(sizeof(FastSsIndex::HashPosting) == 16);
    w.U64(fastss.size());
    for (const FastSsIndex::HashPosting& p : fastss) {
      w.U64(p.hash);
      w.U32(p.word_id);
      w.U32(0);
    }
    w.Bool(index.fastss_.has_partitioned_);
  }

  /// The FastSS section's (hash, word_id) stream, rebuilt from the
  /// vocabulary: the in-memory postings keep only 48 hash bits. Refuses
  /// when the rebuilt stream does not project to the loaded postings, so a
  /// save never writes bytes other than the index it was given.
  static Status RebuildFastSsStream(const XmlIndex& index,
                                    FastSsStream& stream) {
    if (!index.fastss_.SerializedPostings(stream)) {
      return Status::InvalidArgument(
          "index FastSS postings differ from its vocabulary's neighborhoods; "
          "refusing to save");
    }
    return Status::Ok();
  }

  /// Validates a loaded (hash, word_id) stream and installs its 8-byte
  /// projection.
  static Status InstallFastSs(FastSsStream stream, bool has_partitioned,
                              FastSsIndex& fs) {
    const uint64_t word_count = fs.words_.size();
    for (const FastSsIndex::HashPosting& p : stream) {
      if (p.word_id >= word_count) {
        return SectionError(Section::kFastSs, "posting out of range");
      }
    }
    FastSsIndex::Runs runs;
    runs.push_back(std::move(stream));
    fs.AssignPostings(runs, nullptr);
    fs.has_partitioned_ = has_partitioned;
    fs.built_ = true;
    return Status::Ok();
  }

  static Result<std::unique_ptr<XmlIndex>> ReadIndexV1(Reader& r) {
    XmlTree tree;
    Status s = ReadTreeV1(r, tree);
    if (!s.ok()) return s;

    IndexOptions options;
    uint64_t min_token_length = 0, partition_min_length = 0;
    if (!(s = r.Bool(options.tokenizer.lowercase)).ok()) return s;
    if (!(s = r.U64(min_token_length)).ok()) return s;
    if (!(s = r.Bool(options.tokenizer.drop_numbers)).ok()) return s;
    if (!(s = r.Bool(options.tokenizer.drop_stopwords)).ok()) return s;
    if (!(s = r.U32(options.fastss_max_ed)).ok()) return s;
    if (!(s = r.U64(partition_min_length)).ok()) return s;
    options.tokenizer.min_token_length = min_token_length;
    options.fastss_partition_min_length = partition_min_length;

    std::unique_ptr<XmlIndex> index(new XmlIndex(std::move(tree), options));

    std::vector<std::string> tokens;
    if (!(s = r.StrVec(tokens)).ok()) return s;
    for (const std::string& token : tokens) {
      index->vocabulary_.Intern(token);
    }
    if (index->vocabulary_.size() != tokens.size()) {
      return Status::ParseError("index file: duplicate vocabulary tokens");
    }

    uint64_t list_count = 0;
    if (!(s = r.U64(list_count)).ok()) return s;
    if (list_count != tokens.size()) {
      return Status::ParseError("index file: posting/vocabulary mismatch");
    }
    index->inverted_lists_.reserve(list_count);
    for (uint64_t i = 0; i < list_count; ++i) {
      std::vector<Posting> postings;
      if (!(s = r.PodVec(postings)).ok()) return s;
      for (const Posting& p : postings) {
        if (p.node >= index->tree_.size()) {
          return Status::ParseError("index file: posting node out of range");
        }
      }
      index->inverted_lists_.emplace_back(std::move(postings));
    }

    uint64_t type_count = 0;
    if (!(s = r.U64(type_count)).ok()) return s;
    if (type_count != tokens.size()) {
      return Status::ParseError("index file: type-list count mismatch");
    }
    index->type_index_.lists_.resize(type_count);
    for (uint64_t i = 0; i < type_count; ++i) {
      if (!(s = r.PodVec(index->type_index_.lists_[i])).ok()) return s;
    }

    if (!(s = r.PodVec(index->cf_)).ok()) return s;
    if (!(s = r.PodVec(index->df_)).ok()) return s;
    if (!(s = r.PodVec(index->node_tokens_)).ok()) return s;
    if (!(s = r.PodVec(index->subtree_tokens_)).ok()) return s;
    if (!(s = r.U64(index->total_tokens_)).ok()) return s;
    if (!(s = r.U32(index->text_node_count_)).ok()) return s;
    if (!(s = r.U64(index->source_bytes_)).ok()) return s;
    if (index->cf_.size() != tokens.size() ||
        index->df_.size() != tokens.size() ||
        index->node_tokens_.size() != index->tree_.size() ||
        index->subtree_tokens_.size() != index->tree_.size()) {
      return Status::ParseError("index file: statistics size mismatch");
    }

    FastSsIndex::Options fs_options;
    fs_options.max_ed = options.fastss_max_ed;
    fs_options.partition_min_length = options.fastss_partition_min_length;
    FastSsIndex fs(fs_options);
    fs.words_ = tokens;
    FastSsStream stream;
    bool has_partitioned = false;
    if (!(s = r.PodVec(stream)).ok()) return s;
    if (!(s = r.Bool(has_partitioned)).ok()) return s;
    if (!(s = InstallFastSs(std::move(stream), has_partitioned, fs)).ok()) {
      return s;
    }
    index->fastss_ = std::move(fs);

    if (r.remaining() != 0) {
      return Status::ParseError("index file: trailing bytes");
    }
    return index;
  }

  // --- format v2 (sectioned, varint + delta) ------------------------------

  static void WriteTreeV2(const XmlTree& tree, Writer& w) {
    const size_t n = tree.nodes_.size();
    w.Var64(n);
    // Columnar, so each stream's delta state stays coherent. Parent and
    // subtree_end are stored relative to the node id (small in practice),
    // dewey_offset relative to its predecessor (it grows by ~depth per
    // node), text ids as deltas over the text-bearing subsequence.
    for (size_t i = 0; i < n; ++i) {
      const XmlTree::Node& node = tree.nodes_[i];
      if (i == 0) {
        w.Var32(0);  // root parent is implicit (kInvalidNode)
      } else {
        w.VarSigned(static_cast<int64_t>(i) - node.parent);
      }
    }
    for (const XmlTree::Node& node : tree.nodes_) w.Var32(node.label_id);
    for (const XmlTree::Node& node : tree.nodes_) w.Var32(node.path_id);
    for (const XmlTree::Node& node : tree.nodes_) w.Var32(node.depth);
    for (size_t i = 0; i < n; ++i) {
      w.VarSigned(static_cast<int64_t>(tree.nodes_[i].subtree_end) -
                  static_cast<int64_t>(i));
    }
    uint64_t prev_dewey = 0;
    for (const XmlTree::Node& node : tree.nodes_) {
      w.VarSigned(static_cast<int64_t>(node.dewey_offset) -
                  static_cast<int64_t>(prev_dewey));
      prev_dewey = node.dewey_offset;
    }
    uint64_t prev_text = 0;
    for (const XmlTree::Node& node : tree.nodes_) {
      if (node.text_id == XmlTree::kNoText) {
        w.Var64(0);
      } else {
        int64_t delta = static_cast<int64_t>(node.text_id) -
                        static_cast<int64_t>(prev_text);
        w.Var64((ZigZagEncode(delta) << 1) | 1);
        prev_text = node.text_id;
      }
    }
    w.VarVec(tree.dewey_pool_);
    w.VarStrVec(tree.texts_);
    w.VarStrVec(tree.labels_);
    w.VarVec(tree.path_parents_);
    w.VarVec(tree.path_labels_);
    w.VarVec(tree.path_depths_);
    w.VarVec(tree.path_node_counts_);
    w.Var32(tree.max_depth_);
    w.Var64(tree.depth_sum_);
  }

  static Status ReadTreeV2(Reader& r, XmlTree& tree) {
    Status s;
    uint64_t n = 0;
    if (!(s = r.Var64(n)).ok()) return s;
    // A node costs at least 7 stream bytes; reject sizes the payload
    // cannot possibly hold before allocating.
    if (n > r.remaining()) return SectionError(Section::kTree, "truncated");
    tree.nodes_.resize(n);
    for (uint64_t i = 0; i < n; ++i) {
      int64_t delta = 0;
      if (i == 0) {
        uint32_t zero = 0;
        if (!(s = r.Var32(zero)).ok()) return s;
        tree.nodes_[0].parent = kInvalidNode;
        continue;
      }
      if (!(s = r.VarSigned(delta)).ok()) return s;
      int64_t parent = static_cast<int64_t>(i) - delta;
      if (parent < 0 || parent >= static_cast<int64_t>(i)) {
        return SectionError(Section::kTree, "parent out of range");
      }
      tree.nodes_[i].parent = static_cast<NodeId>(parent);
    }
    for (uint64_t i = 0; i < n; ++i) {
      if (!(s = r.Var32(tree.nodes_[i].label_id)).ok()) return s;
    }
    for (uint64_t i = 0; i < n; ++i) {
      if (!(s = r.Var32(tree.nodes_[i].path_id)).ok()) return s;
    }
    for (uint64_t i = 0; i < n; ++i) {
      if (!(s = r.Var32(tree.nodes_[i].depth)).ok()) return s;
    }
    for (uint64_t i = 0; i < n; ++i) {
      int64_t delta = 0;
      if (!(s = r.VarSigned(delta)).ok()) return s;
      int64_t end = static_cast<int64_t>(i) + delta;
      if (end < static_cast<int64_t>(i) || end >= static_cast<int64_t>(n)) {
        return SectionError(Section::kTree, "subtree end out of range");
      }
      tree.nodes_[i].subtree_end = static_cast<NodeId>(end);
    }
    int64_t prev_dewey = 0;
    for (uint64_t i = 0; i < n; ++i) {
      int64_t delta = 0;
      if (!(s = r.VarSigned(delta)).ok()) return s;
      int64_t offset = prev_dewey + delta;
      if (offset < 0 || offset > 0xFFFFFFFFll) {
        return SectionError(Section::kTree, "dewey offset out of range");
      }
      tree.nodes_[i].dewey_offset = static_cast<uint32_t>(offset);
      prev_dewey = offset;
    }
    int64_t prev_text = 0;
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t v = 0;
      if (!(s = r.Var64(v)).ok()) return s;
      if (v == 0) {
        tree.nodes_[i].text_id = XmlTree::kNoText;
        continue;
      }
      if ((v & 1) == 0) {
        return SectionError(Section::kTree, "bad text-id flag");
      }
      int64_t text = prev_text + ZigZagDecode(v >> 1);
      if (text < 0 || text >= 0xFFFFFFFFll) {
        return SectionError(Section::kTree, "text id out of range");
      }
      tree.nodes_[i].text_id = static_cast<uint32_t>(text);
      prev_text = text;
    }
    if (!(s = r.VarVec(tree.dewey_pool_)).ok()) return s;
    if (!(s = r.VarStrVec(tree.texts_)).ok()) return s;
    if (!(s = r.VarStrVec(tree.labels_)).ok()) return s;
    if (!(s = r.VarVec(tree.path_parents_)).ok()) return s;
    if (!(s = r.VarVec(tree.path_labels_)).ok()) return s;
    if (!(s = r.VarVec(tree.path_depths_)).ok()) return s;
    if (!(s = r.VarVec(tree.path_node_counts_)).ok()) return s;
    if (!(s = r.Var32(tree.max_depth_)).ok()) return s;
    if (!(s = r.Var64(tree.depth_sum_)).ok()) return s;
    return ValidateTree(tree);
  }

  static void WriteOptionsV2(const XmlIndex& index, Writer& w) {
    // build_threads is deliberately not persisted: it is a build-latency
    // knob with no effect on index contents, and persisting it would break
    // the "any thread count serializes identically" invariant.
    const IndexOptions& o = index.options_;
    w.Var32(o.tokenizer.lowercase ? 1 : 0);
    w.Var64(o.tokenizer.min_token_length);
    w.Var32(o.tokenizer.drop_numbers ? 1 : 0);
    w.Var32(o.tokenizer.drop_stopwords ? 1 : 0);
    w.Var32(o.fastss_max_ed);
    w.Var64(o.fastss_partition_min_length);
  }

  static Status ReadOptionsV2(Reader& r, IndexOptions& options) {
    Status s;
    uint32_t lowercase = 0, drop_numbers = 0, drop_stopwords = 0;
    uint64_t min_token_length = 0, partition_min_length = 0;
    if (!(s = r.Var32(lowercase)).ok()) return s;
    if (!(s = r.Var64(min_token_length)).ok()) return s;
    if (!(s = r.Var32(drop_numbers)).ok()) return s;
    if (!(s = r.Var32(drop_stopwords)).ok()) return s;
    if (!(s = r.Var32(options.fastss_max_ed)).ok()) return s;
    if (!(s = r.Var64(partition_min_length)).ok()) return s;
    options.tokenizer.lowercase = lowercase != 0;
    options.tokenizer.min_token_length = min_token_length;
    options.tokenizer.drop_numbers = drop_numbers != 0;
    options.tokenizer.drop_stopwords = drop_stopwords != 0;
    options.fastss_partition_min_length = partition_min_length;
    return Status::Ok();
  }

  static void WritePostingsV2(const XmlIndex& index, Writer& w) {
    w.Var64(index.inverted_lists_.size());
    for (const PostingList& list : index.inverted_lists_) {
      w.Var64(list.size());
      NodeId prev = 0;
      for (const Posting& p : list) {
        // Lists are strictly increasing in node id; the first entry stores
        // its absolute id (delta against 0).
        w.Var32(p.node - prev);
        w.Var32(p.tf);
        prev = p.node;
      }
    }
  }

  static Status ReadPostingsV2(Reader& r, XmlIndex& index) {
    Status s;
    uint64_t list_count = 0;
    if (!(s = r.Var64(list_count)).ok()) return s;
    if (list_count != index.vocabulary_.size()) {
      return Status::ParseError("index file: posting/vocabulary mismatch");
    }
    index.inverted_lists_.reserve(list_count);
    // Interleaved (delta, tf) varint pairs block-decoded per list; the
    // scratch buffer is reused across lists.
    std::vector<uint32_t> decoded;
    for (uint64_t i = 0; i < list_count; ++i) {
      uint64_t size = 0;
      if (!(s = r.Var64(size)).ok()) return s;
      // Each posting needs at least two stream bytes.
      if (size > r.remaining()) {
        return SectionError(Section::kPostings, "truncated");
      }
      decoded.resize(size * 2);
      if (!(s = r.Var32Group(decoded.data(), size * 2)).ok()) return s;
      std::vector<Posting> postings;
      postings.reserve(size);
      uint64_t node = 0;
      for (uint64_t j = 0; j < size; ++j) {
        const uint32_t delta = decoded[2 * j];
        const uint32_t tf = decoded[2 * j + 1];
        if (j > 0 && delta == 0) {
          return SectionError(Section::kPostings, "non-increasing node ids");
        }
        node += delta;
        if (node >= index.tree_.size()) {
          return SectionError(Section::kPostings, "node out of range");
        }
        postings.push_back(
            Posting{static_cast<NodeId>(node), tf});
      }
      index.inverted_lists_.emplace_back(std::move(postings));
    }
    return Status::Ok();
  }

  static void WriteTypeListsV2(const XmlIndex& index, Writer& w) {
    w.Var64(index.type_index_.lists_.size());
    for (const std::vector<PathFreq>& list : index.type_index_.lists_) {
      w.Var64(list.size());
      PathId prev = 0;
      for (const PathFreq& pf : list) {
        w.Var32(pf.path - prev);
        w.Var32(pf.freq);
        prev = pf.path;
      }
    }
  }

  static Status ReadTypeListsV2(Reader& r, XmlIndex& index) {
    Status s;
    uint64_t type_count = 0;
    if (!(s = r.Var64(type_count)).ok()) return s;
    if (type_count != index.vocabulary_.size()) {
      return Status::ParseError("index file: type-list count mismatch");
    }
    index.type_index_.lists_.resize(type_count);
    const uint64_t path_count = index.tree_.path_count();
    std::vector<uint32_t> decoded;
    for (uint64_t i = 0; i < type_count; ++i) {
      uint64_t size = 0;
      if (!(s = r.Var64(size)).ok()) return s;
      if (size > r.remaining()) {
        return SectionError(Section::kTypeLists, "truncated");
      }
      std::vector<PathFreq>& list = index.type_index_.lists_[i];
      list.reserve(size);
      decoded.resize(size * 2);
      if (!(s = r.Var32Group(decoded.data(), size * 2)).ok()) return s;
      uint64_t path = 0;
      for (uint64_t j = 0; j < size; ++j) {
        const uint32_t delta = decoded[2 * j];
        const uint32_t freq = decoded[2 * j + 1];
        if (j > 0 && delta == 0) {
          return SectionError(Section::kTypeLists, "non-increasing paths");
        }
        path += delta;
        if (path >= path_count) {
          return SectionError(Section::kTypeLists, "path out of range");
        }
        list.push_back(PathFreq{static_cast<PathId>(path), freq});
      }
    }
    return Status::Ok();
  }

  static void WriteStatsV2(const XmlIndex& index, Writer& w) {
    w.VarVec(index.cf_);
    w.VarVec(index.df_);
    w.VarVec(index.node_tokens_);
    w.VarVec(index.subtree_tokens_);
    w.Var64(index.total_tokens_);
    w.Var32(index.text_node_count_);
    w.Var64(index.source_bytes_);
  }

  static Status ReadStatsV2(Reader& r, XmlIndex& index) {
    Status s;
    if (!(s = r.VarVec(index.cf_)).ok()) return s;
    if (!(s = r.VarVec(index.df_)).ok()) return s;
    if (!(s = r.VarVec(index.node_tokens_)).ok()) return s;
    if (!(s = r.VarVec(index.subtree_tokens_)).ok()) return s;
    if (!(s = r.Var64(index.total_tokens_)).ok()) return s;
    if (!(s = r.Var32(index.text_node_count_)).ok()) return s;
    if (!(s = r.Var64(index.source_bytes_)).ok()) return s;
    if (index.cf_.size() != index.vocabulary_.size() ||
        index.df_.size() != index.vocabulary_.size() ||
        index.node_tokens_.size() != index.tree_.size() ||
        index.subtree_tokens_.size() != index.tree_.size()) {
      return Status::ParseError("index file: statistics size mismatch");
    }
    return Status::Ok();
  }

  static void WriteFastSsV2(const XmlIndex& index, const FastSsStream& fastss,
                            Writer& w) {
    // Postings are sorted by (hash, word_id); hashes delta-encode to a few
    // bytes instead of eight. Words are the vocabulary, not re-stored.
    w.Var64(fastss.size());
    uint64_t prev_hash = 0;
    for (const FastSsIndex::HashPosting& p : fastss) {
      w.Var64(p.hash - prev_hash);
      w.Var32(p.word_id);
      prev_hash = p.hash;
    }
    w.Var32(index.fastss_.has_partitioned_ ? 1 : 0);
  }

  static Status ReadFastSsV2(Reader& r, XmlIndex& index,
                             const IndexOptions& options) {
    Status s;
    FastSsIndex::Options fs_options;
    fs_options.max_ed = options.fastss_max_ed;
    fs_options.partition_min_length = options.fastss_partition_min_length;
    FastSsIndex fs(fs_options);
    fs.words_ = index.vocabulary_.tokens();

    uint64_t count = 0;
    if (!(s = r.Var64(count)).ok()) return s;
    if (count > r.remaining()) {
      return SectionError(Section::kFastSs, "truncated");
    }
    FastSsStream stream;
    stream.reserve(count);
    uint64_t hash = 0;
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t delta = 0;
      uint32_t word_id = 0;
      if (!(s = r.Var64(delta)).ok()) return s;
      if (!(s = r.Var32(word_id)).ok()) return s;
      hash += delta;
      stream.push_back(FastSsIndex::HashPosting{hash, word_id});
    }
    uint32_t has_partitioned = 0;
    if (!(s = r.Var32(has_partitioned)).ok()) return s;
    if (!(s = InstallFastSs(std::move(stream), has_partitioned != 0, fs))
             .ok()) {
      return s;
    }
    index.fastss_ = std::move(fs);
    return Status::Ok();
  }

  static void WriteVocabularyV2(const XmlIndex& index, Writer& w) {
    w.VarStrVec(index.vocabulary_.tokens());
  }

  static Result<std::unique_ptr<XmlIndex>> ReadIndexV2(std::istream& in);

  static std::unique_ptr<XmlIndex> NewIndex(XmlTree tree,
                                            IndexOptions options) {
    return std::unique_ptr<XmlIndex>(
        new XmlIndex(std::move(tree), options));
  }
};

namespace {

void EmitSection(std::ostream& out, Section tag, const Writer& w) {
  const std::string& payload = w.buffer();
  uint8_t t = static_cast<uint8_t>(tag);
  out.write(reinterpret_cast<const char*>(&t), 1);
  uint64_t size = payload.size();
  out.write(reinterpret_cast<const char*>(&size), sizeof(size));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  uint64_t checksum = Fnv1a(payload.data(), payload.size(), kFnvOffset);
  out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
}

Status ReadSection(std::istream& in, Section expected, std::string& payload) {
  uint8_t tag = 0;
  in.read(reinterpret_cast<char*>(&tag), 1);
  if (!in) return SectionError(expected, "truncated (missing section)");
  if (tag != static_cast<uint8_t>(expected)) {
    return SectionError(expected, "unexpected section tag");
  }
  uint64_t size = 0;
  in.read(reinterpret_cast<char*>(&size), sizeof(size));
  if (!in) return SectionError(expected, "truncated (no size)");
  Status s = ReadPayload(in, size, payload);
  if (!s.ok()) return SectionError(expected, "truncated (payload)");
  uint64_t stored_checksum = 0;
  in.read(reinterpret_cast<char*>(&stored_checksum), sizeof(stored_checksum));
  if (!in) return SectionError(expected, "truncated (checksum)");
  if (Fnv1a(payload.data(), payload.size(), kFnvOffset) != stored_checksum) {
    return SectionError(expected, "checksum mismatch");
  }
  return Status::Ok();
}

/// Parses one section with `parse`, requiring it to consume every payload
/// byte.
template <typename ParseFn>
Status ParseSection(std::istream& in, Section tag, const ParseFn& parse) {
  std::string payload;
  Status s = ReadSection(in, tag, payload);
  if (!s.ok()) return s;
  Reader reader(std::move(payload));
  s = parse(reader);
  if (!s.ok()) return s;
  if (reader.remaining() != 0) {
    return SectionError(tag, "trailing bytes");
  }
  return Status::Ok();
}

}  // namespace

Result<std::unique_ptr<XmlIndex>> SerializationAccess::ReadIndexV2(
    std::istream& in) {
  XmlTree tree;
  IndexOptions options;
  Status s = ParseSection(in, Section::kTree, [&](Reader& r) {
    return ReadTreeV2(r, tree);
  });
  if (!s.ok()) return s;
  s = ParseSection(in, Section::kOptions, [&](Reader& r) {
    return ReadOptionsV2(r, options);
  });
  if (!s.ok()) return s;

  std::unique_ptr<XmlIndex> index = NewIndex(std::move(tree), options);

  s = ParseSection(in, Section::kVocabulary, [&](Reader& r) {
    std::vector<std::string> tokens;
    Status st = r.VarStrVec(tokens);
    if (!st.ok()) return st;
    for (const std::string& token : tokens) {
      index->vocabulary_.Intern(token);
    }
    if (index->vocabulary_.size() != tokens.size()) {
      return Status::ParseError("index file: duplicate vocabulary tokens");
    }
    return Status::Ok();
  });
  if (!s.ok()) return s;

  s = ParseSection(in, Section::kPostings, [&](Reader& r) {
    return ReadPostingsV2(r, *index);
  });
  if (!s.ok()) return s;
  s = ParseSection(in, Section::kTypeLists, [&](Reader& r) {
    return ReadTypeListsV2(r, *index);
  });
  if (!s.ok()) return s;
  s = ParseSection(in, Section::kStats, [&](Reader& r) {
    return ReadStatsV2(r, *index);
  });
  if (!s.ok()) return s;
  s = ParseSection(in, Section::kFastSs, [&](Reader& r) {
    return ReadFastSsV2(r, *index, index->options_);
  });
  if (!s.ok()) return s;
  return index;
}

Status SaveIndex(const XmlIndex& index, std::ostream& out,
                 IndexSaveOptions options) {
  if (options.format_version != kIndexFormatV1 &&
      options.format_version != kIndexFormatLatest) {
    return Status::InvalidArgument(
        StrFormat("cannot write index format version %u",
                  options.format_version));
  }
  // Rebuilt before the first byte goes out, so a refusal writes nothing.
  SerializationAccess::FastSsStream fastss;
  Status s = SerializationAccess::RebuildFastSsStream(index, fastss);
  if (!s.ok()) return s;
  out.write(kMagic, sizeof(kMagic));
  uint32_t version = options.format_version;
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));

  if (version == kIndexFormatV1) {
    Writer writer;
    SerializationAccess::WriteIndexV1(index, fastss, writer);
    const std::string& payload = writer.buffer();
    uint64_t size = payload.size();
    out.write(reinterpret_cast<const char*>(&size), sizeof(size));
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    uint64_t checksum = Fnv1a(payload.data(), payload.size(), kFnvOffset);
    out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  } else {
    {
      Writer w;
      SerializationAccess::WriteTreeV2(index.tree(), w);
      EmitSection(out, Section::kTree, w);
    }
    {
      Writer w;
      SerializationAccess::WriteOptionsV2(index, w);
      EmitSection(out, Section::kOptions, w);
    }
    {
      Writer w;
      SerializationAccess::WriteVocabularyV2(index, w);
      EmitSection(out, Section::kVocabulary, w);
    }
    {
      Writer w;
      SerializationAccess::WritePostingsV2(index, w);
      EmitSection(out, Section::kPostings, w);
    }
    {
      Writer w;
      SerializationAccess::WriteTypeListsV2(index, w);
      EmitSection(out, Section::kTypeLists, w);
    }
    {
      Writer w;
      SerializationAccess::WriteStatsV2(index, w);
      EmitSection(out, Section::kStats, w);
    }
    {
      Writer w;
      SerializationAccess::WriteFastSsV2(index, fastss, w);
      EmitSection(out, Section::kFastSs, w);
    }
  }
  if (!out) return Status::Internal("index write failed");
  return Status::Ok();
}

Status SaveIndex(const XmlIndex& index, const std::string& path,
                 IndexSaveOptions options) {
  // Never truncate the live path in place: a crash or full disk mid-write
  // must not destroy the only copy a server can reload. Serialize fully,
  // then publish atomically (temp + rename, common/durable_file.h).
  std::ostringstream out;
  Status s = SaveIndex(index, out, options);
  if (!s.ok()) return s;
  DurableWriteOptions durable;
  durable.sync = options.sync;
  return AtomicWriteFile(path, out.str(), durable);
}

Result<std::unique_ptr<XmlIndex>> LoadIndex(std::istream& in) {
  char magic[sizeof(kMagic)];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::ParseError("not an XClean index file (bad magic)");
  }
  uint32_t version = 0;
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  if (!in ||
      (version != kIndexFormatV1 && version != kIndexFormatLatest)) {
    return Status::ParseError(
        StrFormat("unsupported index format version %u", version));
  }

  if (version == kIndexFormatV1) {
    uint64_t size = 0;
    in.read(reinterpret_cast<char*>(&size), sizeof(size));
    if (!in) return Status::ParseError("index file truncated (no size)");
    std::string payload;
    Status s = ReadPayload(in, size, payload);
    if (!s.ok()) return s;
    uint64_t stored_checksum = 0;
    in.read(reinterpret_cast<char*>(&stored_checksum),
            sizeof(stored_checksum));
    if (!in) return Status::ParseError("index file truncated (checksum)");
    if (Fnv1a(payload.data(), payload.size(), kFnvOffset) !=
        stored_checksum) {
      return Status::ParseError("index file checksum mismatch");
    }
    Reader reader(std::move(payload));
    return SerializationAccess::ReadIndexV1(reader);
  }

  return SerializationAccess::ReadIndexV2(in);
}

Result<std::unique_ptr<XmlIndex>> LoadIndex(const std::string& path) {
  XCLEAN_FAULT_STATUS("index_io.load");
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open index file: " + path);
  return LoadIndex(in);
}

}  // namespace xclean
