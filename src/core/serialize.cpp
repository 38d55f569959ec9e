// The LabelStore container blob codecs (label_store.hpp): byte-aligned
// fixed-layout records for all three backends, where the scheme
// parameters are stored once per container and every decode is validated
// against them (mismatch -> StoreError, never UB). The dp21 builders'
// in-place edge blob writers sit next to the decoders, so this file is
// the one place that knows those layouts.
#include <iterator>

#include "core/ftc_labels.hpp"
#include "core/label_store.hpp"
#include "core/sharded_store.hpp"

namespace ftc::core {

namespace store {

namespace {

// Caps on decoded parameters, so a corrupt params blob (with checksum
// verification disabled) cannot demand absurd allocations. Generous:
// far above anything the builders produce.
constexpr std::uint32_t kMaxCoordBits = 32;
constexpr std::uint32_t kMaxSketchDim = 1u << 24;

// Edge blob layouts. core-ftc and dp21-agm: upper and lower endpoint
// records, then the payload words. dp21-cycle: a flags byte (bit 0:
// tree edge) and three zero bytes, the two endpoint records, then the
// cycle-space vector words.
constexpr std::size_t kEndpointBytes = 2 * kVertexRecordBytes;
constexpr std::size_t kCycleHeaderBytes = 4 + kEndpointBytes;

// Writes LE words at an arbitrary (not necessarily aligned) byte offset.
void write_words_at(std::uint8_t* p, std::span<const std::uint64_t> words) {
  for (const std::uint64_t word : words) {
    util::write_u64_le(p, word);
    p += 8;
  }
}

void check(bool ok, const char* what) {
  if (!ok) throw StoreError(what);
}

// Forward iterator over the LE words of a byte range. Filling a vector
// through assign(first, last) sizes it once and copies each word in
// place, without zeroing the buffer first.
class LeWordIterator {
 public:
  using iterator_category = std::forward_iterator_tag;
  using value_type = std::uint64_t;
  using difference_type = std::ptrdiff_t;
  using pointer = const std::uint64_t*;
  using reference = std::uint64_t;

  LeWordIterator() = default;
  explicit LeWordIterator(const std::uint8_t* p) : p_(p) {}
  std::uint64_t operator*() const { return util::read_u64_le(p_); }
  LeWordIterator& operator++() {
    p_ += 8;
    return *this;
  }
  LeWordIterator operator++(int) {
    const LeWordIterator old = *this;
    p_ += 8;
    return old;
  }
  friend bool operator==(LeWordIterator, LeWordIterator) = default;

 private:
  const std::uint8_t* p_ = nullptr;
};

// Reads `count` LE words with ONE bounds-checked take: a truncated
// payload throws before any word is read, and the copy itself is plain
// word loads.
void read_words(ByteReader& r, std::size_t count,
                std::vector<std::uint64_t>& out) {
  const std::uint8_t* p = r.take(8 * count).data();
  out.assign(LeWordIterator(p), LeWordIterator(p + 8 * count));
}

}  // namespace

void encode_core_params(const LabelParams& p,
                        std::span<const std::uint32_t> level_bounds,
                        ByteWriter& w) {
  w.u8(p.field_bits);
  w.u8(p.kind);
  w.u8(0);
  w.u8(0);
  w.u32(p.n_aux);
  w.u32(p.k);
  w.u32(p.num_levels);
  // v2 trailer: per-level sketch population bounds. Count is 0 (no
  // bounds, e.g. a re-saved v1 store) or exactly num_levels.
  FTC_REQUIRE(level_bounds.empty() || level_bounds.size() == p.num_levels,
              "level bounds inconsistent with the label hierarchy");
  w.u32(static_cast<std::uint32_t>(level_bounds.size()));
  for (const std::uint32_t b : level_bounds) {
    FTC_REQUIRE(b <= p.k, "level bound exceeds sketch capacity");
    w.u32(b);
  }
}

LabelParams decode_core_params(ByteReader& r, std::uint32_t format_version,
                               std::vector<std::uint32_t>* bounds_out) {
  LabelParams p;
  p.field_bits = r.u8();
  p.kind = r.u8();
  r.u8();
  r.u8();
  p.n_aux = r.u32();
  p.k = r.u32();
  p.num_levels = r.u32();
  check(p.field_bits == 64 || p.field_bits == 128,
        "corrupt core-ftc params: bad field width");
  check(p.k <= kMaxSketchDim && p.num_levels <= kMaxSketchDim,
        "corrupt core-ftc params: implausible sketch dimensions");
  if (bounds_out != nullptr) bounds_out->clear();
  if (format_version >= 2) {
    const std::uint32_t count = r.u32();
    check(count == 0 || count == p.num_levels,
          "corrupt core-ftc params: bad level-bound count");
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint32_t b = r.u32();
      check(b <= p.k, "corrupt core-ftc params: level bound exceeds k");
      if (bounds_out != nullptr) bounds_out->push_back(b);
    }
  }
  return p;
}

std::vector<std::uint8_t> upgrade_params(BackendKind backend,
                                         std::vector<std::uint8_t> params,
                                         std::uint32_t version) {
  // The core params layout last changed in v2 (v3 changed only the
  // payload digest), so v2 and later blobs are already current.
  if (backend != BackendKind::kCoreFtc || version >= 2) return params;
  ByteReader r(params);
  std::vector<std::uint32_t> bounds;
  const LabelParams p = decode_core_params(r, version, &bounds);
  ByteWriter w;
  encode_core_params(p, bounds, w);
  return w.take();
}

void encode_cycle_params(const CycleParams& p, ByteWriter& w) {
  w.u32(p.coord_bits);
  w.u32(p.vector_bits);
}

CycleParams decode_cycle_params(ByteReader& r) {
  CycleParams p;
  p.coord_bits = r.u32();
  p.vector_bits = r.u32();
  check(p.coord_bits >= 1 && p.coord_bits <= kMaxCoordBits,
        "corrupt dp21-cycle params: bad coordinate width");
  check(p.vector_bits >= 1 && p.vector_bits <= kMaxSketchDim,
        "corrupt dp21-cycle params: bad vector width");
  return p;
}

void encode_agm_params(const AgmParams& p, ByteWriter& w) {
  w.u32(p.coord_bits);
  w.u32(p.levels);
  w.u32(p.reps);
  w.u32(0);
  w.u64(p.seed);
}

AgmParams decode_agm_params(ByteReader& r) {
  AgmParams p;
  p.coord_bits = r.u32();
  p.levels = r.u32();
  p.reps = r.u32();
  r.u32();
  p.seed = r.u64();
  check(p.coord_bits >= 1 && p.coord_bits <= kMaxCoordBits,
        "corrupt dp21-agm params: bad coordinate width");
  check(p.levels >= 1 && p.levels <= kMaxSketchDim && p.reps >= 1 &&
            p.reps <= kMaxSketchDim,
        "corrupt dp21-agm params: bad sketch dimensions");
  return p;
}

EdgeLabel decode_core_edge(ByteReader& r, const LabelParams& params) {
  EdgeLabel label;
  label.params = params;
  label.upper.tin = r.u32();
  label.upper.tout = r.u32();
  label.lower.tin = r.u32();
  label.lower.tout = r.u32();
  const std::size_t expect = static_cast<std::size_t>(params.num_levels) *
                             params.k * params.words_per_elem();
  read_words(r, expect, label.sketch_words);
  return label;
}

std::size_t core_edge_blob_bytes(const LabelParams& params) {
  return kEndpointBytes + 8 * static_cast<std::size_t>(params.num_levels) *
                              params.k * params.words_per_elem();
}

void write_cycle_edge_at(std::uint8_t* blob, const CycleParams& params,
                         bool is_tree, const graph::AncestryLabel& a,
                         const graph::AncestryLabel& b,
                         std::span<const std::uint64_t> vec) {
  FTC_CHECK(vec.size() == params.vector_words(),
            "cycle-space vector width inconsistent with parameters");
  blob[0] = is_tree ? 1 : 0;
  blob[1] = 0;
  blob[2] = 0;
  blob[3] = 0;
  write_vertex_record_at(blob + 4, a);
  write_vertex_record_at(blob + 4 + kVertexRecordBytes, b);
  write_words_at(blob + kCycleHeaderBytes, vec);
}

dp21::CsEdgeLabel decode_cycle_edge(ByteReader& r, const CycleParams& params) {
  dp21::CsEdgeLabel label;
  const std::uint8_t flags = r.u8();
  check(flags <= 1, "corrupt dp21-cycle edge blob: bad flags");
  label.is_tree = flags != 0;
  r.u8();
  r.u8();
  r.u8();
  label.a.tin = r.u32();
  label.a.tout = r.u32();
  label.b.tin = r.u32();
  label.b.tout = r.u32();
  read_words(r, params.vector_words(), label.vec);
  return label;
}

std::size_t cycle_edge_blob_bytes(const CycleParams& params) {
  return kCycleHeaderBytes + 8 * params.vector_words();
}

void write_agm_edge_at(std::uint8_t* blob, const AgmParams& params,
                       const graph::AncestryLabel& upper,
                       const graph::AncestryLabel& lower,
                       std::span<const std::uint64_t> sketch_words) {
  FTC_CHECK(sketch_words.size() == params.sketch_words(),
            "AGM sketch word count inconsistent with parameters");
  write_vertex_record_at(blob, upper);
  write_vertex_record_at(blob + kVertexRecordBytes, lower);
  write_words_at(blob + kEndpointBytes, sketch_words);
}

dp21::AgmEdgeLabel decode_agm_edge(ByteReader& r, const AgmParams& params) {
  dp21::AgmEdgeLabel label;
  label.upper.tin = r.u32();
  label.upper.tout = r.u32();
  label.lower.tin = r.u32();
  label.lower.tout = r.u32();
  std::vector<std::uint64_t> words;
  read_words(r, params.sketch_words(), words);
  label.sketch = sketch::AgmSketch::from_words(params.levels, params.reps,
                                               params.seed, words);
  return label;
}

std::size_t agm_edge_blob_bytes(const AgmParams& params) {
  return kEndpointBytes + 8 * params.sketch_words();
}

// ------------------------------------------------------------------
// Sharded-manifest shard-table records (sharded_store.hpp). Fixed
// 48-byte range/digest prefix, u32 name length, name bytes, zero pad to
// an 8-byte record boundary — records always start 8-aligned in the
// manifest, so ByteWriter::pad_to(8) lands on the record boundary.

void encode_shard_record(const ShardRecord& rec, ByteWriter& w) {
  FTC_REQUIRE(w.size() % 8 == 0, "shard record must start 8-aligned");
  FTC_REQUIRE(!rec.name.empty() && rec.name.size() <= kMaxShardNameBytes,
              "shard name length out of range");
  w.u64(rec.vertex_begin);
  w.u64(rec.vertex_end);
  w.u64(rec.edge_begin);
  w.u64(rec.edge_end);
  w.u64(rec.file_bytes);
  w.u64(rec.payload_digest);
  w.u32(static_cast<std::uint32_t>(rec.name.size()));
  w.bytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(rec.name.data()),
      rec.name.size()));
  w.pad_to(8);
}

ShardRecord decode_shard_record(ByteReader& r) {
  ShardRecord rec;
  rec.vertex_begin = r.u64();
  rec.vertex_end = r.u64();
  rec.edge_begin = r.u64();
  rec.edge_end = r.u64();
  rec.file_bytes = r.u64();
  rec.payload_digest = r.u64();
  const std::uint32_t len = r.u32();
  if (len == 0 || len > kMaxShardNameBytes) {
    throw StoreError("corrupt manifest (shard name length out of range)");
  }
  const auto name = r.take(len);
  rec.name.assign(name.begin(), name.end());
  for (const std::uint8_t b : r.take((8 - ((4 + len) % 8)) % 8)) {
    if (b != 0) throw StoreError("corrupt manifest (shard record padding)");
  }
  return rec;
}

}  // namespace store

}  // namespace ftc::core
