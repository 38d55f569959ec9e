// The LabelStore container blob codecs (label_store.hpp): byte-aligned
// fixed-layout records for all three backends, where the scheme
// parameters are stored once per container and every read is validated
// against them (mismatch -> StoreError, never UB). The core edge blob
// layout (core_edge_layout), every builder's in-place edge blob writers
// and the fault-set builders' in-place blob readers sit here, so this
// file is the one place that knows those layouts.
#include <algorithm>
#include <bit>
#include <cstring>

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
// The first container format whose core edge blobs store per-level
// widths instead of k syndromes on every level (CoreEdgeLayout).
constexpr std::uint32_t kFirstLevelWidthVersion = 4;
constexpr std::size_t kCycleHeaderBytes = 4 + kEndpointBytes;

void check(bool ok, const char* what) {
  if (!ok) throw StoreError(what);
}

// Copies `count` LE words at an arbitrary byte offset into host-order
// words: a plain memcpy on little-endian hosts.
void copy_le_words(std::uint64_t* out, const std::uint8_t* p,
                   std::size_t count) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, p, 8 * count);
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = util::read_u64_le(p + 8 * i);
    }
  }
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
  // payload digest, v4 only the edge blob widths), so v2 and later blobs
  // are already current.
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

CoreEdgeLayout core_edge_layout(const LabelParams& params,
                                std::span<const std::uint32_t> level_bounds,
                                std::uint32_t format_version) {
  FTC_REQUIRE(level_bounds.empty() || level_bounds.size() == params.num_levels,
              "level bounds inconsistent with the label hierarchy");
  CoreEdgeLayout layout;
  layout.num_levels = params.num_levels;
  layout.k = params.k;
  layout.elem_words = params.words_per_elem();
  if (format_version < kFirstLevelWidthVersion || level_bounds.empty()) {
    layout.payload_words = static_cast<std::size_t>(params.num_levels) *
                           params.k * layout.elem_words;
    return layout;
  }
  layout.widths.reserve(params.num_levels);
  layout.offsets.reserve(params.num_levels);
  for (const std::uint32_t bound : level_bounds) {
    const std::uint32_t width = std::min(params.k, bound);
    layout.widths.push_back(width);
    layout.offsets.push_back(layout.payload_words);
    layout.payload_words += static_cast<std::size_t>(width) * layout.elem_words;
  }
  return layout;
}

EdgeLabel decode_core_edge(ByteReader& r, const LabelParams& params,
                           const CoreEdgeLayout& layout) {
  EdgeLabel label;
  label.params = params;
  label.level_widths = layout.widths;
  label.upper.tin = r.u32();
  label.upper.tout = r.u32();
  label.lower.tin = r.u32();
  label.lower.tout = r.u32();
  // One bounds-checked take: a truncated payload throws before any word
  // is read.
  const std::uint8_t* words = r.take(8 * layout.payload_words).data();
  label.sketch_words.resize(layout.payload_words);
  // An all-empty-level label has no words, and an empty vector's data()
  // may be null, which memcpy must not see.
  if (layout.payload_words != 0) {
    copy_le_words(label.sketch_words.data(), words, layout.payload_words);
  }
  return label;
}

void write_edge_endpoints_at(std::uint8_t* blob,
                             const graph::AncestryLabel& upper,
                             const graph::AncestryLabel& lower) {
  write_vertex_record_at(blob, upper);
  write_vertex_record_at(blob + kVertexRecordBytes, lower);
}

std::uint8_t* core_edge_level_words(std::uint8_t* blob,
                                    const CoreEdgeLayout& layout,
                                    unsigned lev) {
  return blob + kEndpointBytes + 8 * layout.offset(lev);
}

void copy_core_edge_prefixes(std::span<const std::uint8_t> blob,
                             const CoreEdgeLayout& stored,
                             PreparedFaults::Builder& builder) {
  check(blob.size() == stored.blob_bytes(),
        "core-ftc edge blob has the wrong size");
  std::uint64_t* row =
      builder.add(decode_vertex_record_at(blob.data() + kVertexRecordBytes));
  const std::uint8_t* payload = blob.data() + kEndpointBytes;
  for (unsigned lev = 0; lev < stored.num_levels; ++lev) {
    copy_le_words(row + builder.level_offset(lev),
                  payload + 8 * stored.offset(lev),
                  builder.level_width(lev) * stored.elem_words);
  }
}

void restride_core_edge(const std::uint8_t* src, const CoreEdgeLayout& from,
                        const CoreEdgeLayout& to, std::uint8_t* dst) {
  std::memcpy(dst, src, kEndpointBytes);
  for (unsigned lev = 0; lev < to.num_levels; ++lev) {
    std::memcpy(dst + kEndpointBytes + 8 * to.offset(lev),
                src + kEndpointBytes + 8 * from.offset(lev),
                8 * static_cast<std::size_t>(to.width(lev)) * to.elem_words);
  }
}

void write_cycle_edge_at(std::uint8_t* blob, bool is_tree,
                         const graph::AncestryLabel& a,
                         const graph::AncestryLabel& b) {
  blob[0] = is_tree ? 1 : 0;
  blob[1] = 0;
  blob[2] = 0;
  blob[3] = 0;
  write_vertex_record_at(blob + 4, a);
  write_vertex_record_at(blob + 4 + kVertexRecordBytes, b);
}

std::uint8_t* cycle_edge_vector_words(std::uint8_t* blob) {
  return blob + kCycleHeaderBytes;
}

bool read_cycle_edge_at(const std::uint8_t* blob, std::size_t words,
                        graph::AncestryLabel& a, graph::AncestryLabel& b,
                        std::uint64_t* vec) {
  check(blob[0] <= 1, "corrupt dp21-cycle edge blob: bad flags");
  a = decode_vertex_record_at(blob + 4);
  b = decode_vertex_record_at(blob + 4 + kVertexRecordBytes);
  copy_le_words(vec, blob + kCycleHeaderBytes, words);
  return blob[0] != 0;
}

std::size_t cycle_edge_blob_bytes(const CycleParams& params) {
  return kCycleHeaderBytes + 8 * params.vector_words();
}

std::uint8_t* agm_edge_sketch_words(std::uint8_t* blob) {
  return blob + kEndpointBytes;
}

graph::AncestryLabel read_agm_edge_at(const std::uint8_t* blob,
                                      std::size_t words,
                                      std::uint64_t* sketch) {
  copy_le_words(sketch, blob + kEndpointBytes, words);
  return decode_vertex_record_at(blob + kVertexRecordBytes);
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

std::size_t EdgeLabel::size_bits() const {
  return 4 * params.coord_bits() +
         64 * store::core_edge_layout(params, level_widths).payload_words;
}

}  // namespace ftc::core
