// LabelStore: a durable, versioned on-disk container for a whole
// labeling scheme, and the zero-copy read path that serves queries
// straight from the file.
//
// The labeling-scheme model (Section 1.1) makes labels *artifacts*: they
// are computed once from the graph, after which every query is answered
// from the labels alone. This subsystem takes that seriously as a
// deployment story — labels are built offline, written as one
// self-describing binary file, and served by mmap without ever
// materializing per-label std::vector copies on the query path (only the
// <= f fault-edge labels of a session are decoded, once per fault set).
//
// Container format, version 3 (all integers little-endian):
//
//   header (64 bytes)
//     0   u64  magic "FTCSTORE"
//     8   u32  format version (3)
//     12  u8   BackendKind
//     13  u8   flags (bit 0: adjacency section present), u8[2] reserved
//     16  u64  num_vertices
//     24  u64  num_edges
//     32  u64  params blob size in bytes
//     40  u64  payload checksum over bytes [64, file end): CRC-64/XZ
//              in v3, FNV-1a in v1 and v2 (store::payload_digest)
//     48  u64  adjacency section size in bytes (0 when absent)
//     56  u64  header checksum: FNV-1a over bytes [0, 56)
//   params blob          backend-specific scheme parameters; for the core
//                        backend v2 appends per-level sketch population
//                        bounds (u32 count + count u32 values) so loaded
//                        schemes shrink their decode windows like built
//                        ones do
//   (pad to 8)
//   vertex section       num_vertices fixed 8-byte records (tin, tout)
//   (pad to 8)
//   edge offset index    (num_edges + 1) u64, byte offsets into the blob
//                        section; blob e spans [index[e], index[e+1])
//   edge blob section    concatenated per-edge label blobs
//   (pad to 8)
//   adjacency section    optional incidence side-table in CSR layout:
//                        (num_vertices + 1) u64 entry offsets, then the
//                        concatenated incidence lists as u32 edge IDs
//                        (2 * num_edges entries total). Carrying it is
//                        what lets store-served schemes answer vertex-
//                        and mixed-fault queries (the vertex -> incident-
//                        edges reduction needs incidence).
//
// Version 1 files (no flags byte semantics, no adjacency, core params
// without bounds) still load read-compatibly: edge-fault queries behave
// exactly as they always did, and vertex-fault queries raise the typed
// CapabilityError because the container carries no adjacency.
//
// Version 3 has the v2 layout byte for byte; only the payload checksum
// changed, from byte-serial FNV-1a to CRC-64/XZ (util/digest.hpp), which
// the carry-less multiply folds 64 bytes at a time. v2 files keep
// verifying with FNV-1a.
//
// Versioning policy: the format version is bumped on any layout or
// digest change; readers accept versions [1, 3] and reject anything
// else (no silent best-effort parsing). Every structural property —
// magic, both checksums, section bounds, index monotonicity, blob sizes
// implied by the params, adjacency offset monotonicity and edge-ID
// ranges — is validated at open, and every read is bounds-checked, so
// corrupt or adversarial files throw StoreError and never invoke UB.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/connectivity_scheme.hpp"
#include "util/digest.hpp"
#include "util/sigbus_guard.hpp"

namespace ftc::core {

// Typed error for every container failure mode: I/O errors, truncated
// files, bad magic, unsupported versions, checksum mismatches, malformed
// indices. Distinct from std::invalid_argument (API misuse) so servers
// can map "bad artifact" separately from "bad request".
class StoreError : public std::runtime_error {
 public:
  explicit StoreError(const std::string& what) : std::runtime_error(what) {}
};

// Environmental I/O failure: a syscall failing on the open/map/write
// path (including injected failpoint errnos) or a SIGBUS translated
// from a mapping whose backing file was truncated or replaced. Distinct
// from structural StoreError (bad magic, checksum mismatch, malformed
// index — re-reading won't help) because the sharded view's retry
// layer treats only THIS subclass as transient and retryable.
class StoreIoError : public StoreError {
 public:
  explicit StoreIoError(const std::string& what) : StoreError(what) {}
};

namespace store {

// Written format version; readers accept [kMinFormatVersion, kFormatVersion].
inline constexpr std::uint64_t kFormatVersion = 3;
inline constexpr std::uint64_t kMinFormatVersion = 1;
inline constexpr std::size_t kHeaderBytes = 64;
// "FTCSTORE" read as a little-endian u64.
inline constexpr std::uint64_t kMagic = 0x45524F5453435446ULL;
// Header flags byte (offset 13).
inline constexpr std::uint8_t kFlagHasAdjacency = 0x01;

// FNV-1a over a byte range (seedable so checksums can be streamed).
// The implementation lives in util/digest.hpp — one digest shared by
// container headers, manifests, journals and the remote shard cache.
using util::fnv1a;
using util::kFnvBasis;

// The container payload checksum (header offset 40) of `format_version`:
// FNV-1a for v1 and v2, CRC-64/XZ from v3 on. The one place that picks
// between them — writers, the open-time verify pass and the remote
// cache's fetch check all call it. `prev` is the digest of the payload
// bytes before these; a stream starts from the digest of no bytes,
// payload_digest(format_version, {}).
inline bool payload_uses_crc64(std::uint32_t format_version) {
  return format_version >= 3;
}
inline std::uint64_t payload_digest(std::uint32_t format_version,
                                    std::span<const std::uint8_t> bytes,
                                    std::uint64_t prev) {
  return payload_uses_crc64(format_version) ? util::crc64(bytes, prev)
                                            : util::fnv1a(bytes, prev);
}
inline std::uint64_t payload_digest(std::uint32_t format_version,
                                    std::span<const std::uint8_t> bytes) {
  return payload_uses_crc64(format_version) ? util::crc64(bytes)
                                            : util::fnv1a(bytes);
}
// Name of that digest, for inspection tools.
inline const char* payload_digest_name(std::uint32_t format_version) {
  return payload_uses_crc64(format_version) ? "crc64" : "fnv1a";
}

// Little-endian byte sink used by the container writer and the
// per-backend label blob encoders.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u32(std::uint32_t v) { util::write_u32_le(grow(4), v); }
  void u64(std::uint64_t v) { util::write_u64_le(grow(8), v); }
  void bytes(std::span<const std::uint8_t> b) {
    bytes_.insert(bytes_.end(), b.begin(), b.end());
  }
  void pad_to(std::size_t alignment) {
    while (bytes_.size() % alignment != 0) bytes_.push_back(0);
  }
  // Overwrite a previously written u64 (header checksum back-patching).
  void patch_u64(std::size_t offset, std::uint64_t v) {
    FTC_CHECK(offset + 8 <= bytes_.size(), "patch out of range");
    util::write_u64_le(bytes_.data() + offset, v);
  }

  std::size_t size() const { return bytes_.size(); }
  std::span<const std::uint8_t> view() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }
  // Empties the buffer but keeps its capacity (per-label scratch reuse).
  void clear() { bytes_.clear(); }

 private:
  std::uint8_t* grow(std::size_t n) {
    bytes_.resize(bytes_.size() + n);
    return bytes_.data() + bytes_.size() - n;
  }

  std::vector<std::uint8_t> bytes_;
};

// Bounds-checked little-endian reader over a mapped (or in-memory) byte
// range. Out-of-range reads throw StoreError — this is the only way the
// decoders touch file bytes, so truncation can never read past the map.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8() { return take(1)[0]; }
  // Little-endian like ByteWriter: the container format is LE regardless
  // of host byte order.
  std::uint32_t u32() { return util::read_u32_le(take(4).data()); }
  std::uint64_t u64() { return util::read_u64_le(take(8).data()); }
  std::span<const std::uint8_t> take(std::size_t n) {
    if (n > bytes_.size() - pos_) {
      throw StoreError("label store blob truncated");
    }
    const auto out = bytes_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------
// Per-backend blob codecs (serialize.cpp, the one file that knows the
// blob layouts). Each backend has a params blob stored once per
// container plus fixed-size vertex/edge blobs; decode validates against
// the params and throws StoreError on any inconsistency. Builders write
// blobs in place, straight into a ResidentLabels buffer.

struct CycleParams {
  std::uint32_t coord_bits = 0;
  std::uint32_t vector_bits = 0;
  std::size_t vector_words() const { return (vector_bits + 63) / 64; }
};

struct AgmParams {
  std::uint32_t coord_bits = 0;
  std::uint32_t levels = 0;
  std::uint32_t reps = 0;
  std::uint64_t seed = 0;
  std::size_t sketch_words() const {
    return static_cast<std::size_t>(levels) * reps * 3;
  }
};

// Core params carry the optional per-level sketch population bounds in
// format v2 (u32 count — 0 or num_levels — then the values); v1 blobs
// have no bounds fields at all, so decode needs the container version.
// bounds_out may be null when the caller only needs the fixed params.
void encode_core_params(const LabelParams& p,
                        std::span<const std::uint32_t> level_bounds,
                        ByteWriter& w);
LabelParams decode_core_params(ByteReader& r, std::uint32_t format_version,
                               std::vector<std::uint32_t>* bounds_out = nullptr);
void encode_cycle_params(const CycleParams& p, ByteWriter& w);
CycleParams decode_cycle_params(ByteReader& r);
void encode_agm_params(const AgmParams& p, ByteWriter& w);
AgmParams decode_agm_params(ByteReader& r);

// A params blob read from a container of format `version`, in the layout
// the current format writes: a v1 core-ftc blob gains the v2 trailer (an
// empty level-bounds list); every other blob is already current and is
// returned unchanged. Throws StoreError on a malformed v1 core blob.
std::vector<std::uint8_t> upgrade_params(BackendKind backend,
                                         std::vector<std::uint8_t> params,
                                         std::uint32_t version);

// Vertex records are the same for all backends: one ancestry label.
inline constexpr std::size_t kVertexRecordBytes = 8;
// Zero-copy decode of one fixed 8-byte vertex record (LE tin, tout)
// straight from a resolved route pointer — the per-query hot path.
inline graph::AncestryLabel decode_vertex_record_at(const std::uint8_t* p) {
  return {util::read_u32_le(p), util::read_u32_le(p + 4)};
}
// The in-place counterpart, for builders that write labels straight into
// a container-layout buffer. Core and AGM edge blobs open with two such
// records (upper, lower endpoint).
inline void write_vertex_record_at(std::uint8_t* p,
                                   const graph::AncestryLabel& anc) {
  util::write_u32_le(p, anc.tin);
  util::write_u32_le(p + 4, anc.tout);
}

EdgeLabel decode_core_edge(ByteReader& r, const LabelParams& params);
dp21::CsEdgeLabel decode_cycle_edge(ByteReader& r, const CycleParams& params);
dp21::AgmEdgeLabel decode_agm_edge(ByteReader& r, const AgmParams& params);

// In-place edge blob writers for the dp21 builders: each fills the
// *_edge_blob_bytes(params) bytes at `blob` (one edge's slot of a
// ResidentLabels edge section), byte-identical to what the decoders
// above read back. The word span must hold exactly the params' vector /
// sketch word count.
void write_cycle_edge_at(std::uint8_t* blob, const CycleParams& params,
                         bool is_tree, const graph::AncestryLabel& a,
                         const graph::AncestryLabel& b,
                         std::span<const std::uint64_t> vec);
void write_agm_edge_at(std::uint8_t* blob, const AgmParams& params,
                       const graph::AncestryLabel& upper,
                       const graph::AncestryLabel& lower,
                       std::span<const std::uint64_t> sketch_words);

// Fixed per-edge blob size implied by a backend's params (every edge
// label of one scheme serializes to the same number of bytes).
std::size_t core_edge_blob_bytes(const LabelParams& params);
std::size_t cycle_edge_blob_bytes(const CycleParams& params);
std::size_t agm_edge_blob_bytes(const AgmParams& params);

// Decodes the params blob just far enough to answer "how many bytes is
// one edge blob" / "how many bits is one label" for any backend; both
// throw StoreError when the blob is inconsistent with the backend. Used
// by the container reader to cross-check the offset index and by the
// sharded-manifest reader (sharded_store.hpp), which carries the params
// blob itself.
std::size_t expected_edge_blob_bytes(BackendKind backend,
                                     std::span<const std::uint8_t> params,
                                     std::uint32_t version);
struct StoreLabelBits {
  std::size_t vertex_label_bits = 0;
  std::size_t edge_label_bits = 0;
};
StoreLabelBits derive_label_bits(BackendKind backend,
                                 std::span<const std::uint8_t> params,
                                 std::uint32_t version);

// Generation-resolved flat route table: where every vertex record and
// edge blob sits in the (already open and validated) backing. Resolving
// routing ONCE — at open for a single container or a resident view, or
// when the last shard of a sharded store is mapped — replaces the
// per-query virtual dispatch + binary-search + lazy-open check with
// arithmetic or a single array deref, so a K-shard store serves at
// flat-container speed. Pointers stay valid for the lifetime of the
// StoreView that published the table.
struct FlatRoutes {
  graph::VertexId num_vertices = 0;
  graph::EdgeId num_edges = 0;
  std::size_t edge_blob_bytes = 0;  // fixed width implied by the params
  // Contiguous sections (a single container or a resident view): record
  // v at vertex_base + 8v, blob e at edge_base + e * edge_blob_bytes; the
  // pointer tables stay empty.
  const std::uint8_t* vertex_base = nullptr;
  const std::uint8_t* edge_base = nullptr;
  // Otherwise (a sharded store) one pointer per ID, 16 bytes per ID.
  std::vector<const std::uint8_t*> vertex_ptr;  // [n] 8-byte records
  std::vector<const std::uint8_t*> edge_ptr;    // [m] label blobs

  // Unchecked: callers bound v < num_vertices / e < num_edges.
  const std::uint8_t* vertex(graph::VertexId v) const {
    return vertex_base != nullptr
               ? vertex_base + static_cast<std::size_t>(v) * kVertexRecordBytes
               : vertex_ptr[v];
  }
  const std::uint8_t* edge(graph::EdgeId e) const {
    return edge_base != nullptr
               ? edge_base + static_cast<std::size_t>(e) * edge_blob_bytes
               : edge_ptr[e];
  }
};

// What one prefetch() call did: thread fan-out, wall time, and the
// per-shard map+digest cost (empty for single-container views; 0 for a
// shard that was already mapped when the call claimed it).
struct PrefetchStats {
  unsigned threads = 1;
  double total_us = 0.0;
  std::size_t shards_opened = 0;  // newly mapped by this call
  // Shards this view ADOPTED from a previous-generation view at open()
  // instead of mapping — byte-identical shards of a delta push
  // (open_store_view's reuse_from parameter). Constant per view, reported
  // by every prefetch() call on it; such shards never count in
  // shards_opened.
  std::size_t shards_adopted = 0;
  std::vector<double> shard_us;  // per shard, manifest order
};

// The CSR adjacency side-table layout shared by container v2 and the
// sharded-store manifest: (n + 1) u64 entry offsets followed by 2m u32
// edge IDs. validate() enforces the full structural contract (exact
// size, offsets monotone and covering exactly 2m entries, every edge ID
// in range) and throws StoreError; degree()/append() are only legal
// after a successful validate().
struct CsrAdjacency {
  const std::uint8_t* base = nullptr;  // file mapping
  std::size_t off = 0;                 // section start within the mapping
  std::size_t bytes = 0;               // recorded section size
  graph::VertexId n = 0;
  graph::EdgeId m = 0;

  void validate(const std::string& path) const;
  std::size_t degree(graph::VertexId v) const;
  void append(graph::VertexId v, std::vector<graph::EdgeId>& out) const;
};

// The params blob and the adjacency section a save writes for `view`,
// copied out of its bytes under its SIGBUS guard: the params upgraded to
// the current format (upgrade_params), the adjacency empty when the view
// carries none. Shared by the container writer below and the manifest
// writer (sharded_store.cpp).
std::vector<std::uint8_t> saved_params(const StoreView& view);
std::vector<std::uint8_t> saved_adjacency(const StoreView& view);

// Identity of one serialized container: enough to decide delta-push
// shard reuse (sharded_store.cpp) without writing — or even fully
// materializing — the container.
struct ContainerDigest {
  std::uint64_t file_bytes = 0;
  // store::payload_digest of the current format (CRC-64/XZ) over bytes
  // [kHeaderBytes, file end), as stored at header offset 40.
  std::uint64_t payload_checksum = 0;
};

// Streams one container holding the scheme's labels restricted to the
// given vertex/edge ranges — the whole scheme for save(), one shard for
// save_sharded() (sharded_store.hpp) — straight from its store_view() to
// `path`: records are copied in bounded chunks and written as they are
// produced, so peak writer memory is O(chunk), not O(container).
// include_adjacency emits the CSR side-table when the view carries one
// and requires the full ranges (the lists name global edge IDs); shard
// containers pass false — the manifest carries the adjacency instead.
// Writes through the same atomic protocol and store.write.* failpoints
// as write_file_atomic. Returns the written container's digest. Throws
// StoreIoError on I/O failure, with the temp file removed, and
// StoreIoError (DegradedError for a sharded view) when a mapped read
// faults because the backing file was truncated or replaced.
ContainerDigest write_container_streamed(const ConnectivityScheme& scheme,
                                         const std::string& path,
                                         graph::VertexId v_begin,
                                         graph::VertexId v_end,
                                         graph::EdgeId e_begin,
                                         graph::EdgeId e_end,
                                         bool include_adjacency);

// The digest write_container_streamed would produce, with no file I/O:
// one copy pass folded directly into the checksum, with the same
// SIGBUS behavior. Used by delta pushes to detect byte-identical shards
// before writing anything.
ContainerDigest digest_container(const ConnectivityScheme& scheme,
                                 graph::VertexId v_begin,
                                 graph::VertexId v_end,
                                 graph::EdgeId e_begin, graph::EdgeId e_end,
                                 bool include_adjacency);

// Durable atomic write of a whole buffer (manifests, journals, cached
// shards): unique temp file (per process and per call) + fsync + rename
// into place + best-effort directory fsync, so a crashed, failed or
// racing write never leaves a half-written artifact under the target
// name. The streamed container writer above runs the same protocol
// through the same code. Throws StoreIoError on I/O failure.
void write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> bytes);

// Read-only mmap of a regular file, shared by the container and
// manifest readers. Throws StoreIoError when the file cannot be opened,
// stat'ed or mapped, StoreError when it is not regular or smaller than
// min_bytes (`kind` names the artifact in messages). The mapping's
// range is registered with the process-wide SIGBUS translator
// (util/sigbus_guard.hpp); the caller owns the mapping and releases it
// with unmap_file().
struct MappedFile {
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
};
MappedFile map_readonly(const std::string& path, std::size_t min_bytes,
                        const char* kind);

// munmap + SIGBUS-range unregistration for a map_readonly() mapping.
void unmap_file(const MappedFile& file);

// Runs `fn` — a read-only scan over a registered mapping — under a
// SIGBUS guard: a fault inside the scan (backing file truncated or
// replaced behind the mmap) surfaces as StoreIoError instead of killing
// the process. `fn` should hold no resources while touching mapped
// bytes (siglongjmp skips destructors of frames between the guard and
// the fault); the validation scans this wraps are plain loops.
template <typename Fn>
void with_sigbus_guard(const std::string& path, const char* what, Fn&& fn) {
  util::SigbusGuard guard;
  if (sigsetjmp(guard.jump(), 0) == 0) {
    guard.arm();
    fn();
    return;
  }
  throw StoreIoError(std::string(what) +
                     " read faulted (file truncated or replaced behind the "
                     "mapping): " +
                     path);
}

}  // namespace store

// Parsed header + section accounting of an open store, for inspection
// tooling and sanity assertions.
struct StoreInfo {
  std::uint32_t format_version = 0;
  BackendKind backend = BackendKind::kCoreFtc;
  graph::VertexId num_vertices = 0;
  graph::EdgeId num_edges = 0;
  std::uint64_t payload_checksum = 0;
  std::size_t file_bytes = 0;
  std::size_t params_bytes = 0;
  std::size_t vertex_section_bytes = 0;
  std::size_t edge_index_bytes = 0;
  std::size_t edge_blob_bytes = 0;
  // Format v2: optional adjacency side-table (vertex-fault capability).
  bool has_adjacency = false;
  std::size_t adjacency_bytes = 0;
  // Sharded manifests (sharded_store.hpp): number of shard containers
  // behind this view; 0 for a plain single-container store. When
  // nonzero, file_bytes covers the manifest plus every shard.
  std::uint32_t num_shards = 0;
  // Manifest lineage (format v2 manifests; see sharded_store.hpp).
  // Epoch 1 with parent_digest 0 for full saves and v1 manifests; a
  // delta push writes parent epoch + 1 and the parent manifest's payload
  // checksum. Both 0 for single-container stores.
  std::uint64_t manifest_epoch = 0;
  std::uint64_t parent_digest = 0;
  // Derived from the params blob; match the builder scheme's accounting.
  std::size_t vertex_label_bits = 0;
  std::size_t edge_label_bits = 0;
};

// The read interface every serving path programs against: a validated,
// immutable view of one scheme's labels. Three implementations:
// LabelStoreView (one mmapped container file, below), ShardedStoreView
// (a manifest routing over K shard containers, sharded_store.hpp), and
// the resident view make_scheme() builds over freshly built labels
// (open_resident_view, below). load_scheme() and everything downstream —
// the per-backend scheme classes and BatchQueryEngine sessions — only
// ever see this interface, so built, single-file and sharded labels
// serve queries through identical code. Implementations are safe to
// share across threads after a successful open.
class StoreView {
 public:
  virtual ~StoreView() = default;
  StoreView(const StoreView&) = delete;
  StoreView& operator=(const StoreView&) = delete;

  const StoreInfo& info() const { return info_; }
  virtual std::span<const std::uint8_t> params_blob() const = 0;
  virtual std::span<const std::uint8_t> vertex_blob(
      graph::VertexId v) const = 0;
  virtual std::span<const std::uint8_t> edge_blob(graph::EdgeId e) const = 0;

  // Adjacency side-table reads (valid only when info().has_adjacency;
  // the section was validated at open).
  std::size_t adjacency_degree(graph::VertexId v) const {
    return adj_.degree(v);
  }
  void adjacency_append(graph::VertexId v,
                        std::vector<graph::EdgeId>& out) const {
    adj_.append(v, out);
  }
  // The whole CSR side-table section in container layout (empty when the
  // view carries none) — what a save writes, byte for byte.
  std::span<const std::uint8_t> adjacency_section() const {
    if (adj_.base == nullptr) return {};
    return {adj_.base + adj_.off, adj_.bytes};
  }

  // Whether the label bytes live in file mappings that can fault (a file
  // truncated or replaced behind the mmap). Only such views pay for the
  // SIGBUS guard and the guarded blob copy on the query path; resident
  // views are read in place.
  virtual bool file_backed() const { return true; }

  // Maps and digest-verifies any lazily-opened backing (every shard of a
  // sharded view) so nothing cold remains on the query path, and
  // publishes the flat route table. threads = 0 picks min(shards,
  // hardware concurrency); work is stolen over shard indices. Idempotent
  // and safe to call concurrently with queries and with lazy first-touch
  // opens; a corrupt shard throws the same typed StoreError the lazy
  // open would. Single-container and resident views are fully validated
  // and routed at open, so the base implementation is a no-op.
  virtual store::PrefetchStats prefetch(unsigned threads = 0) const {
    (void)threads;
    return {};
  }

  // The resolved flat route table, or nullptr while part of the backing
  // is still unmapped (a sharded view before prefetch() or before every
  // shard has been lazily touched). Never reverts to nullptr once
  // published; the table lives as long as this view.
  virtual const store::FlatRoutes* routes() const { return nullptr; }

  // Translates a SIGBUS caught inside this view's registered mappings:
  // guarded reads (query-path ancestry reads, prepare-time blob copies,
  // the writers' chunk copies) land here with the faulting address. A sharded view attributes the
  // fault to the owning shard, quarantines it, and throws DegradedError
  // naming the unservable ranges; the base and single-container views
  // throw StoreIoError.
  [[noreturn]] virtual void on_mapped_fault(const void* addr) const;

 protected:
  StoreView() = default;
  StoreInfo info_;
  store::CsrAdjacency adj_;  // base == nullptr when no adjacency section
};

// Read-only mmap view of a single container file. open() validates the
// complete structure up front (see the format comment); accessors after
// a successful open are zero-copy spans into the mapping and cannot go
// out of bounds. Immutable and safe to share across threads.
class LabelStoreView final : public StoreView {
 public:
  // Maps the file and validates it. verify_checksum=false skips only the
  // full-payload digest pass (an O(file) read) — every structural check
  // and all per-read bounds checks stay on unconditionally.
  static std::shared_ptr<const LabelStoreView> open(
      const std::string& path, bool verify_checksum = true);

  ~LabelStoreView() override;

  std::span<const std::uint8_t> params_blob() const override;
  std::span<const std::uint8_t> vertex_blob(graph::VertexId v) const override;
  std::span<const std::uint8_t> edge_blob(graph::EdgeId e) const override;

  // A single container is mapped, validated and route-resolved entirely
  // at open(): prefetch has nothing left to do and routes() is always
  // available.
  const store::FlatRoutes* routes() const override { return &routes_; }

  [[noreturn]] void on_mapped_fault(const void* addr) const override;

  const std::string& path() const { return path_; }

  // Whether addr falls inside this view's mapping — how a sharded view
  // attributes a translated SIGBUS to the owning shard.
  bool contains(const void* addr) const;

 private:
  LabelStoreView() = default;

  std::string path_;
  const std::uint8_t* map_ = nullptr;  // whole file
  std::size_t map_bytes_ = 0;
  std::size_t params_off_ = 0;
  std::size_t vertex_off_ = 0;
  std::size_t index_off_ = 0;
  std::size_t blob_off_ = 0;
  store::FlatRoutes routes_;  // built at open (the index walk is O(m) anyway)
};

struct LoadOptions {
  bool verify_checksum = true;
  // When a "<path>.jrnl" deletion-journal sidecar exists next to the
  // store (journal.hpp), fold its journaled deletions into every query's
  // fault set. Off = serve the store as written, ignoring the sidecar.
  bool replay_journal = true;
};

// Opens a store behind the common StoreView interface, dispatching on
// the file magic: a single-container file yields a LabelStoreView, a
// sharded-store manifest (sharded_store.hpp) yields a ShardedStoreView.
// Implemented in sharded_store.cpp.
std::shared_ptr<const StoreView> open_store_view(const std::string& path,
                                                 bool verify_checksum = true);

// Same, threading a previous-generation view through as a reuse source:
// when both the opened artifact and reuse_from are sharded stores of the
// same backend, shards whose manifests record identical payload digests
// (and sizes and ID extents) are ADOPTED — the new view shares the old
// view's already-open shard mapping instead of re-mapping the file. This
// is the in-process half of a delta push (sharded_store.hpp): after
// save_sharded_delta rewrites 1 of K shards, opening the new manifest
// against the serving view maps exactly 1 shard. reuse_from == nullptr,
// a single-container artifact, or a non-sharded reuse_from all degrade
// to the plain open above.
std::shared_ptr<const StoreView> open_store_view(
    const std::string& path, bool verify_checksum,
    const std::shared_ptr<const StoreView>& reuse_from);

// Reconstructs a ConnectivityScheme from a container file or a sharded
// manifest (dispatching on the magic). The returned scheme answers
// queries through the backend's universal decoder — identical results to
// the scheme that wrote the store — and supports save() (re-emitting a
// single container, even from a sharded source) but, by design, never
// needs the graph. Throws StoreError on any malformed input.
std::unique_ptr<ConnectivityScheme> load_scheme(const std::string& path,
                                                const LoadOptions& options = {});

// Same, over an already-open view (shares the mapping; several schemes
// and threads may serve from one view). This is the only way a scheme is
// made, and it yields the one scheme class per backend: freshly built
// labels (make_scheme), single containers and sharded stores are all
// served through it.
std::unique_ptr<ConnectivityScheme> load_scheme(
    std::shared_ptr<const StoreView> view);

namespace store {

// A freshly built scheme's labels, already in container layout: the
// params blob, n fixed 8-byte vertex records, and m uniform-width edge
// blobs back to back — exactly the bytes a container's vertex and edge
// blob sections hold. Every builder fills these buffers in place
// (FtcScheme::release_labels hands over its own; the dp21 builders
// return one), so handing them to a resident view never copies a label.
struct ResidentLabels {
  BackendKind backend = BackendKind::kCoreFtc;
  std::vector<std::uint8_t> params;
  std::vector<std::uint8_t> vertex_records;  // n * kVertexRecordBytes
  // The m * edge_blob_bytes blob bytes, held in whole words (the last one
  // zero-padded) so a builder whose blobs are word-aligned can store its
  // sketch words as words.
  std::vector<std::uint64_t> edge_words;
  std::size_t edge_blob_bytes = 0;

  static std::size_t words_for(std::size_t bytes) { return (bytes + 7) / 8; }
  std::uint8_t* edge_blobs() {
    return reinterpret_cast<std::uint8_t*>(edge_words.data());
  }
  const std::uint8_t* edge_blobs() const {
    return reinterpret_cast<const std::uint8_t*>(edge_words.data());
  }

  // Sizes the edge section for m zeroed blobs of blob_bytes each.
  void assign_edge_blobs(std::size_t m, std::size_t blob_bytes) {
    edge_blob_bytes = blob_bytes;
    edge_words.assign(words_for(m * blob_bytes), 0);
  }
  std::uint8_t* edge_blob(std::size_t e) {
    return edge_blobs() + e * edge_blob_bytes;
  }
  // Sizes the vertex section for vertices [0, n) and writes record v =
  // anc.label(v) (an auxiliary-tree labeling covers more than n).
  void write_vertex_records(const graph::AncestryLabeling& anc,
                            graph::VertexId n) {
    vertex_records.resize(static_cast<std::size_t>(n) * kVertexRecordBytes);
    std::uint8_t* p = vertex_records.data();
    for (graph::VertexId v = 0; v < n; ++v, p += kVertexRecordBytes) {
      write_vertex_record_at(p, anc.label(v));
    }
  }
};

}  // namespace store

// A resident, heap-backed StoreView over built labels plus g's incidence
// lists as the CSR adjacency section (in Graph::incident_edges order, the
// order a save() writes). Not file-backed: reads need no SIGBUS guard and
// fault-edge blobs decode in place. info() reports what a save would
// record, minus the file: file_bytes and payload_checksum stay 0.
std::shared_ptr<const StoreView> open_resident_view(
    store::ResidentLabels labels, const graph::Graph& g);

}  // namespace ftc::core
