// LabelStore implementation: container writer (ConnectivityScheme::save),
// validating mmap reader (LabelStoreView), the resident view over freshly
// built labels, and the one scheme class per backend behind
// load_scheme().
//
// A scheme is the labeling-scheme model made literal: it holds no graph
// and no construction state, only the label blobs of a StoreView, and
// answers queries through the backends' universal decoders. The
// per-query cost is two 8-byte vertex-record reads — no std::vector is
// materialized on the query path; only the <= f fault-edge labels of a
// session are decoded, once, inside prepare_faults(). The core backend
// queries through PreparedFaults + the copy-on-write DecoderWorkspace of
// core/ftc_query.cpp, and all fragment/sketch merges (core RS sums, AGM
// cells, cycle-space vectors) go through the word-XOR kernels in
// util/xor_kernel.hpp.
#include "core/label_store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "core/ftc_query.hpp"
#include "core/journal.hpp"
#include "util/failpoint.hpp"
#include "util/scoped_fd.hpp"

namespace ftc::core {

namespace {

using graph::EdgeId;
using graph::VertexId;

std::size_t align8(std::size_t x) { return (x + 7) & ~std::size_t{7}; }

// Little-endian on disk, independent of host byte order (util/digest.hpp).
std::uint64_t read_u64_at(const std::uint8_t* base, std::size_t offset) {
  return util::read_u64_le(base + offset);
}

std::uint32_t read_u32_at(const std::uint8_t* base, std::size_t offset) {
  return util::read_u32_le(base + offset);
}

// Flat route table over a contiguous vertex section and blob section —
// the layout of a single container and of a resident view alike.
store::FlatRoutes contiguous_routes(const std::uint8_t* vertex_records,
                                    VertexId n, const std::uint8_t* blobs,
                                    EdgeId m, std::size_t blob_bytes) {
  store::FlatRoutes routes;
  routes.num_vertices = n;
  routes.num_edges = m;
  routes.edge_blob_bytes = blob_bytes;
  routes.vertex_base = vertex_records;
  routes.edge_base = blobs;
  return routes;
}

}  // namespace

namespace store {

// Fixed per-edge blob size implied by the params blob, used to
// cross-check the offset index at open.
std::size_t expected_edge_blob_bytes(BackendKind backend,
                                     std::span<const std::uint8_t> params,
                                     std::uint32_t version) {
  store::ByteReader r(params);
  std::size_t expect = 0;
  switch (backend) {
    case BackendKind::kCoreFtc:
      expect =
          store::core_edge_blob_bytes(store::decode_core_params(r, version));
      break;
    case BackendKind::kDp21CycleSpace:
      expect = store::cycle_edge_blob_bytes(store::decode_cycle_params(r));
      break;
    case BackendKind::kDp21Agm:
      expect = store::agm_edge_blob_bytes(store::decode_agm_params(r));
      break;
  }
  if (r.remaining() != 0) {
    throw StoreError("params blob size inconsistent with backend");
  }
  return expect;
}

StoreLabelBits derive_label_bits(BackendKind backend,
                                 std::span<const std::uint8_t> params,
                                 std::uint32_t version) {
  store::ByteReader r(params);
  StoreLabelBits bits;
  switch (backend) {
    case BackendKind::kCoreFtc: {
      // The core label types carry their own size accounting.
      EdgeLabel edge;
      edge.params = store::decode_core_params(r, version);
      bits.vertex_label_bits = VertexLabel{edge.params, {}}.size_bits();
      bits.edge_label_bits = edge.size_bits();
      break;
    }
    case BackendKind::kDp21CycleSpace: {
      const store::CycleParams p = store::decode_cycle_params(r);
      bits.vertex_label_bits = 2 * p.coord_bits;
      bits.edge_label_bits = 4 * p.coord_bits + p.vector_bits + 1;
      break;
    }
    case BackendKind::kDp21Agm: {
      const store::AgmParams p = store::decode_agm_params(r);
      bits.vertex_label_bits = 2 * p.coord_bits;
      bits.edge_label_bits = 4 * p.coord_bits + p.sketch_words() * 64;
      break;
    }
  }
  return bits;
}

void CsrAdjacency::validate(const std::string& path) const {
  // Exact CSR accounting: (n + 1) u64 offsets + 2m u32 edge IDs.
  const std::size_t expected =
      8 * (static_cast<std::size_t>(n) + 1) +
      8 * static_cast<std::size_t>(m);
  if (bytes != expected) {
    throw StoreError("corrupt adjacency section (size mismatch): " + path);
  }
  const std::size_t entries = 2 * static_cast<std::size_t>(m);
  const std::size_t lists_off = off + 8 * (static_cast<std::size_t>(n) + 1);
  std::uint64_t prev_off = read_u64_at(base, off);
  if (prev_off != 0) {
    throw StoreError("corrupt adjacency offsets (must start at 0): " + path);
  }
  for (VertexId v = 0; v < n; ++v) {
    const std::uint64_t next_off =
        read_u64_at(base, off + 8 * (static_cast<std::size_t>(v) + 1));
    if (next_off < prev_off || next_off > entries) {
      throw StoreError("corrupt adjacency offsets (not monotone): " + path);
    }
    prev_off = next_off;
  }
  if (prev_off != entries) {
    throw StoreError("corrupt adjacency offsets (entry count): " + path);
  }
  for (std::size_t i = 0; i < entries; ++i) {
    if (read_u32_at(base, lists_off + 4 * i) >= m) {
      throw StoreError("corrupt adjacency list (edge ID out of range): " +
                       path);
    }
  }
}

std::size_t CsrAdjacency::degree(VertexId v) const {
  FTC_REQUIRE(base != nullptr, "store carries no adjacency section");
  FTC_REQUIRE(v < n, "vertex out of range");
  const std::uint64_t begin =
      read_u64_at(base, off + 8 * static_cast<std::size_t>(v));
  const std::uint64_t end =
      read_u64_at(base, off + 8 * (static_cast<std::size_t>(v) + 1));
  return static_cast<std::size_t>(end - begin);
}

void CsrAdjacency::append(VertexId v, std::vector<graph::EdgeId>& out) const {
  FTC_REQUIRE(base != nullptr, "store carries no adjacency section");
  FTC_REQUIRE(v < n, "vertex out of range");
  const std::uint64_t begin =
      read_u64_at(base, off + 8 * static_cast<std::size_t>(v));
  const std::uint64_t end =
      read_u64_at(base, off + 8 * (static_cast<std::size_t>(v) + 1));
  const std::size_t lists_off = off + 8 * (static_cast<std::size_t>(n) + 1);
  for (std::uint64_t i = begin; i < end; ++i) {
    out.push_back(
        read_u32_at(base, lists_off + 4 * static_cast<std::size_t>(i)));
  }
}

}  // namespace store

// ------------------------------------------------------------------
// Writer.

namespace store {

namespace {

// The CSR adjacency section for n vertices over m edges whose incidence
// lists `incident(v, out)` appends, in vertex order: (n + 1) u64 entry
// offsets, then the 2m u32 edge IDs.
template <typename Incident>
std::vector<std::uint8_t> csr_adjacency_section(VertexId n, EdgeId m,
                                                Incident&& incident) {
  std::vector<EdgeId> lists;
  lists.reserve(2 * static_cast<std::size_t>(m));
  store::ByteWriter section;
  section.u64(0);
  for (VertexId v = 0; v < n; ++v) {
    incident(v, lists);
    section.u64(lists.size());
  }
  // The invariant open() enforces: every edge appears in exactly two
  // incidence lists.
  FTC_CHECK(lists.size() == 2 * static_cast<std::size_t>(m),
            "incidence lists do not cover every edge twice");
  for (const EdgeId e : lists) section.u32(e);
  return section.take();
}

}  // namespace

std::vector<std::uint8_t> build_adjacency_section(
    const ConnectivityScheme& scheme) {
  const AdjacencyProvider* adj = scheme.adjacency();
  if (adj == nullptr) return {};
  FTC_CHECK(adj->num_vertices() == scheme.num_vertices(),
            "adjacency provider inconsistent with the scheme");
  return csr_adjacency_section(
      scheme.num_vertices(), scheme.num_edges(),
      [adj](VertexId v, std::vector<EdgeId>& out) {
        adj->append_incident(v, out);
      });
}

namespace {

// Serial shared by every temp-file writer (write_file_atomic and the
// streaming FileSink), so concurrent saves of the same path from one
// process can never collide on a temp name.
unsigned next_save_serial() {
  static std::atomic<unsigned> save_counter{0};
  return save_counter.fetch_add(1);
}

// Flush granularity of the streaming emitter: label records are
// serialized into a scratch ByteWriter and handed to the sink whenever
// it crosses this size, so writer memory is O(chunk) regardless of the
// container size.
constexpr std::size_t kStreamChunkBytes = std::size_t{1} << 20;

// One emitter, three sinks. emit_container produces the container byte
// stream for a sink exposing
//     void write(std::span<const std::uint8_t>);
//     std::uint64_t offset() const;   // bytes written so far
// The header is emitted FIRST with both checksum fields zero; each sink
// finalizes the checksums its own way (MemorySink patches its buffer,
// FileSink rewrites the 64-byte header in place, DigestSink never needs
// them — the payload checksum is definitionally over bytes past the
// header). Routing build_container_bytes, write_container_streamed and
// digest_container through this one function is what guarantees the
// in-memory, streamed and digest-only outputs can never drift apart.
template <typename Sink>
void emit_container(const ConnectivityScheme& scheme, VertexId v_begin,
                    VertexId v_end, EdgeId e_begin, EdgeId e_end,
                    bool include_adjacency, Sink& sink) {
  FTC_REQUIRE(v_begin <= v_end && v_end <= scheme.num_vertices(),
              "vertex range out of order or out of range");
  FTC_REQUIRE(e_begin <= e_end && e_end <= scheme.num_edges(),
              "edge range out of order or out of range");
  const auto n = static_cast<VertexId>(v_end - v_begin);
  const auto m = static_cast<EdgeId>(e_end - e_begin);

  store::ByteWriter params;
  scheme.serialize_params(params);

  // The offset index precedes the blobs in the file, but blobs of one
  // scheme are uniform-width (the reader enforces this at open), so the
  // index is arithmetic: probe one blob for the width instead of
  // buffering the whole section to learn its offsets.
  std::uint64_t blob_bytes = 0;
  if (m > 0) {
    store::ByteWriter probe;
    scheme.serialize_edge_label(e_begin, probe);
    blob_bytes = probe.size();
  }

  // Adjacency side-table (format v2): present iff the scheme can name
  // its incidence lists, so saved schemes keep vertex-fault capability.
  // Only meaningful for a full-range container (the lists name global
  // edge IDs); shard containers carry none — the manifest does instead.
  std::vector<std::uint8_t> adj_section;
  if (include_adjacency && scheme.adjacency() != nullptr) {
    FTC_CHECK(v_begin == 0 && v_end == scheme.num_vertices() &&
                  e_begin == 0 && e_end == scheme.num_edges(),
              "adjacency requires the full vertex/edge ranges");
    adj_section = build_adjacency_section(scheme);
  }

  const auto pad8 = [&sink] {
    static constexpr std::uint8_t zeros[8] = {};
    const std::size_t rem = static_cast<std::size_t>(sink.offset()) % 8;
    if (rem != 0) {
      sink.write(std::span<const std::uint8_t>(zeros, 8 - rem));
    }
  };
  store::ByteWriter chunk;
  const auto flush = [&sink, &chunk](std::size_t watermark) {
    if (chunk.size() < watermark) return;
    sink.write(chunk.view());
    chunk = store::ByteWriter{};
  };

  store::ByteWriter header;
  header.u64(store::kMagic);
  header.u32(static_cast<std::uint32_t>(store::kFormatVersion));
  header.u8(static_cast<std::uint8_t>(scheme.backend()));
  header.u8(!adj_section.empty() ? store::kFlagHasAdjacency : 0);  // flags
  header.u8(0);
  header.u8(0);
  header.u64(n);
  header.u64(m);
  header.u64(params.size());
  header.u64(0);  // payload checksum, finalized by the sink
  header.u64(adj_section.size());  // adjacency section size (0 when absent)
  header.u64(0);  // header checksum, finalized by the sink
  FTC_CHECK(header.size() == store::kHeaderBytes,
            "store header layout drifted");
  sink.write(header.view());

  sink.write(params.view());
  pad8();
  for (VertexId v = v_begin; v < v_end; ++v) {
    const std::size_t before = chunk.size();
    scheme.serialize_vertex_label(v, chunk);
    FTC_CHECK(chunk.size() - before == store::kVertexRecordBytes,
              "vertex record must be fixed-size");
    flush(kStreamChunkBytes);
  }
  flush(1);
  pad8();
  for (EdgeId e = 0; e <= m; ++e) {
    chunk.u64(static_cast<std::uint64_t>(e) * blob_bytes);
    flush(kStreamChunkBytes);
  }
  for (EdgeId e = e_begin; e < e_end; ++e) {
    const std::size_t before = chunk.size();
    scheme.serialize_edge_label(e, chunk);
    // The arithmetic index above is only valid for uniform blobs; a
    // scheme violating that must fail the save, not corrupt the index.
    FTC_CHECK(chunk.size() - before == blob_bytes,
              "edge blobs must be uniform-width");
    flush(kStreamChunkBytes);
  }
  flush(1);
  if (!adj_section.empty()) {
    pad8();
    sink.write(adj_section);
  }
}

// Sink 1: buffer everything, then patch the checksums — the historical
// build_container_bytes behavior.
class MemorySink {
 public:
  void write(std::span<const std::uint8_t> b) {
    buf_.insert(buf_.end(), b.begin(), b.end());
  }
  std::uint64_t offset() const { return buf_.size(); }

  std::vector<std::uint8_t> finish() {
    FTC_CHECK(buf_.size() >= store::kHeaderBytes, "container without header");
    const std::span<const std::uint8_t> file(buf_);
    util::write_u64_le(buf_.data() + 40,
                 store::fnv1a(file.subspan(store::kHeaderBytes)));
    util::write_u64_le(buf_.data() + 56, store::fnv1a(file.first(56)));
    return std::move(buf_);
  }

 private:
  std::vector<std::uint8_t> buf_;
};

// Sink 2: fold the stream straight into the payload digest — the
// no-I/O pass delta pushes use to detect unchanged shards.
class DigestSink {
 public:
  void write(std::span<const std::uint8_t> b) {
    const std::uint64_t off = offset_;
    offset_ += b.size();
    if (off + b.size() <= store::kHeaderBytes) return;  // header bytes
    if (off < store::kHeaderBytes) {
      b = b.subspan(static_cast<std::size_t>(store::kHeaderBytes - off));
    }
    digest_ = store::fnv1a(b, digest_);
  }
  std::uint64_t offset() const { return offset_; }

  ContainerDigest finish() const { return {offset_, digest_}; }

 private:
  std::uint64_t offset_ = 0;
  std::uint64_t digest_ = store::kFnvBasis;
};

}  // namespace

std::vector<std::uint8_t> build_container_bytes(
    const ConnectivityScheme& scheme, VertexId v_begin, VertexId v_end,
    EdgeId e_begin, EdgeId e_end, bool include_adjacency) {
  MemorySink sink;
  emit_container(scheme, v_begin, v_end, e_begin, e_end, include_adjacency,
                 sink);
  return sink.finish();
}

MappedFile map_readonly(const std::string& path, std::size_t min_bytes,
                        const char* kind) {
  // O_NONBLOCK so opening a FIFO with no writer fails fast instead of
  // blocking; harmless for regular files (the only kind accepted below).
  util::ScopedFd fd;
  if (const int fe = FTC_FAILPOINT("store.map.open")) {
    errno = fe;
  } else {
    fd.reset(::open(path.c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK));
  }
  if (!fd) {
    throw StoreIoError(std::string("cannot open ") + kind + ": " + path +
                       " (" + std::strerror(errno) + ")");
  }
  struct stat st{};
  int rc;
  if (const int fe = FTC_FAILPOINT("store.map.fstat")) {
    errno = fe;
    rc = -1;
  } else {
    rc = ::fstat(fd.get(), &st);
  }
  if (rc != 0) {
    throw StoreIoError("cannot stat " + path + " (" + std::strerror(errno) +
                       ")");
  }
  if (!S_ISREG(st.st_mode)) {
    throw StoreError("not a regular file: " + path);
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  if (size < min_bytes) {
    throw StoreError(std::string(kind) + " truncated (no header): " + path);
  }
  void* map = MAP_FAILED;
  if (const int fe = FTC_FAILPOINT("store.map.mmap")) {
    errno = fe;
  } else {
    map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd.get(), 0);
  }
  if (map == MAP_FAILED) {
    throw StoreIoError("mmap failed: " + path + " (" + std::strerror(errno) +
                       ")");
  }
  // Register with the SIGBUS translator so a file mutated behind this
  // mapping surfaces as a typed error at the guarded read, not a crash.
  util::register_mapped_range(map, size);
  return {static_cast<const std::uint8_t*>(map), size};
}

void unmap_file(const MappedFile& file) {
  if (file.data == nullptr) return;
  util::unregister_mapped_range(file.data);
  ::munmap(const_cast<std::uint8_t*>(file.data), file.size);
}

void write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> file) {
  // Write to a unique temp file (per process AND per call, for
  // concurrent saves from one process), fsync it, rename into place and
  // fsync the directory — so a crashed, failed or racing save never
  // leaves a half-written store under the target name, even across
  // power loss on writeback filesystems.
  const std::string tmp = path + ".tmp." +
                          std::to_string(static_cast<long>(::getpid())) +
                          "." + std::to_string(next_save_serial());
  util::ScopedFd fd;
  if (const int fe = FTC_FAILPOINT("store.write.open")) {
    errno = fe;
  } else {
    fd.reset(
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644));
  }
  if (!fd) throw StoreIoError("cannot open for writing: " + tmp);
  const auto fail_write = [&](const std::string& what) -> StoreIoError {
    fd.reset();
    std::remove(tmp.c_str());
    return StoreIoError(what + ": " + tmp);
  };
  std::size_t written = 0;
  while (written < file.size()) {
    ::ssize_t n;
    if (const int fe = FTC_FAILPOINT("store.write.write")) {
      errno = fe;
      n = -1;
    } else {
      n = ::write(fd.get(), file.data() + written, file.size() - written);
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      throw fail_write("write failed");
    }
    written += static_cast<std::size_t>(n);
  }
  int rc;
  if (const int fe = FTC_FAILPOINT("store.write.fsync")) {
    errno = fe;
    rc = -1;
  } else {
    rc = ::fsync(fd.get());
  }
  if (rc != 0) throw fail_write("fsync failed");
  if (const int fe = FTC_FAILPOINT("store.write.close")) {
    errno = fe;
    fd.reset();  // still close the real fd; the injected error wins
    rc = -1;
  } else {
    rc = fd.close_now();
  }
  if (rc != 0) {
    std::remove(tmp.c_str());
    throw StoreIoError("close failed: " + tmp);
  }
  if (const int fe = FTC_FAILPOINT("store.write.rename")) {
    errno = fe;
    rc = -1;
  } else {
    rc = std::rename(tmp.c_str(), path.c_str());
  }
  if (rc != 0) {
    std::remove(tmp.c_str());
    throw StoreIoError("cannot rename " + tmp + " -> " + path);
  }
  // Persist the rename itself (best-effort: the data is already synced,
  // and some filesystems reject directory fsync). The failpoint only
  // counts the boundary — a skipped directory sync never fails a save.
  if (FTC_FAILPOINT("store.write.dirsync") == 0) {
    const std::size_t slash = path.find_last_of('/');
    const std::string dir = slash == std::string::npos
                                ? std::string(".")
                                : path.substr(0, slash + 1);
    const util::ScopedFd dir_fd(
        ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC));
    if (dir_fd) ::fsync(dir_fd.get());
  }
}

namespace {

// Sink 3: stream straight to disk with write_file_atomic's exact crash
// story and failpoint surface (store.write.{open,write,fsync,close,
// rename,dirsync}), without ever materializing the container: the only
// buffered state is the 64-byte header copy (its checksum fields are
// patched with one pwrite at finish) and the emitter's flush chunk.
class FileSink {
 public:
  explicit FileSink(std::string path)
      : path_(std::move(path)),
        tmp_(path_ + ".tmp." + std::to_string(static_cast<long>(::getpid())) +
             "." + std::to_string(next_save_serial())) {
    if (const int fe = FTC_FAILPOINT("store.write.open")) {
      errno = fe;
    } else {
      fd_.reset(
          ::open(tmp_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644));
    }
    if (!fd_) throw StoreIoError("cannot open for writing: " + tmp_);
  }

  ~FileSink() {
    // Abandoned before finish() (the emitter threw): never leave the
    // partial temp file behind.
    if (!finished_) {
      fd_.reset();
      std::remove(tmp_.c_str());
    }
  }

  FileSink(const FileSink&) = delete;
  FileSink& operator=(const FileSink&) = delete;

  void write(std::span<const std::uint8_t> b) {
    // Keep a copy of the header bytes (they stream out with zeroed
    // checksum fields) and fold everything after them into the payload
    // checksum as it passes through.
    if (offset_ < store::kHeaderBytes) {
      const std::size_t take = static_cast<std::size_t>(
          std::min<std::uint64_t>(b.size(), store::kHeaderBytes - offset_));
      std::copy_n(b.data(), take,
                  header_ + static_cast<std::size_t>(offset_));
      if (take < b.size()) digest_ = store::fnv1a(b.subspan(take), digest_);
    } else {
      digest_ = store::fnv1a(b, digest_);
    }
    offset_ += b.size();
    std::size_t written = 0;
    while (written < b.size()) {
      ::ssize_t n;
      if (const int fe = FTC_FAILPOINT("store.write.write")) {
        errno = fe;
        n = -1;
      } else {
        n = ::write(fd_.get(), b.data() + written, b.size() - written);
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        throw fail("write failed");
      }
      written += static_cast<std::size_t>(n);
    }
  }

  std::uint64_t offset() const { return offset_; }

  // Patches the header checksums in place, then fsync + rename exactly
  // like write_file_atomic. After this returns the container is durably
  // at path_.
  ContainerDigest finish() {
    FTC_CHECK(offset_ >= store::kHeaderBytes, "container without header");
    util::write_u64_le(header_ + 40, digest_);
    util::write_u64_le(header_ + 56,
                 store::fnv1a(std::span<const std::uint8_t>(header_, 56)));
    std::size_t written = 0;
    while (written < store::kHeaderBytes) {
      ::ssize_t n;
      if (const int fe = FTC_FAILPOINT("store.write.write")) {
        errno = fe;
        n = -1;
      } else {
        n = ::pwrite(fd_.get(), header_ + written,
                     store::kHeaderBytes - written,
                     static_cast<::off_t>(written));
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        throw fail("write failed");
      }
      written += static_cast<std::size_t>(n);
    }
    int rc;
    if (const int fe = FTC_FAILPOINT("store.write.fsync")) {
      errno = fe;
      rc = -1;
    } else {
      rc = ::fsync(fd_.get());
    }
    if (rc != 0) throw fail("fsync failed");
    if (const int fe = FTC_FAILPOINT("store.write.close")) {
      errno = fe;
      fd_.reset();  // still close the real fd; the injected error wins
      rc = -1;
    } else {
      rc = fd_.close_now();
    }
    if (rc != 0) {
      std::remove(tmp_.c_str());
      finished_ = true;
      throw StoreIoError("close failed: " + tmp_);
    }
    if (const int fe = FTC_FAILPOINT("store.write.rename")) {
      errno = fe;
      rc = -1;
    } else {
      rc = std::rename(tmp_.c_str(), path_.c_str());
    }
    if (rc != 0) {
      std::remove(tmp_.c_str());
      finished_ = true;
      throw StoreIoError("cannot rename " + tmp_ + " -> " + path_);
    }
    finished_ = true;
    if (FTC_FAILPOINT("store.write.dirsync") == 0) {
      const std::size_t slash = path_.find_last_of('/');
      const std::string dir = slash == std::string::npos
                                  ? std::string(".")
                                  : path_.substr(0, slash + 1);
      const util::ScopedFd dir_fd(
          ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC));
      if (dir_fd) ::fsync(dir_fd.get());
    }
    return {offset_, digest_};
  }

 private:
  StoreIoError fail(const std::string& what) {
    fd_.reset();
    std::remove(tmp_.c_str());
    finished_ = true;
    return StoreIoError(what + ": " + tmp_);
  }

  const std::string path_;
  const std::string tmp_;
  util::ScopedFd fd_;
  std::uint8_t header_[store::kHeaderBytes] = {};
  std::uint64_t offset_ = 0;
  std::uint64_t digest_ = store::kFnvBasis;
  bool finished_ = false;
};

}  // namespace

ContainerDigest write_container_streamed(const ConnectivityScheme& scheme,
                                         const std::string& path,
                                         VertexId v_begin, VertexId v_end,
                                         EdgeId e_begin, EdgeId e_end,
                                         bool include_adjacency) {
  FileSink sink(path);
  emit_container(scheme, v_begin, v_end, e_begin, e_end, include_adjacency,
                 sink);
  return sink.finish();
}

ContainerDigest digest_container(const ConnectivityScheme& scheme,
                                 VertexId v_begin, VertexId v_end,
                                 EdgeId e_begin, EdgeId e_end,
                                 bool include_adjacency) {
  DigestSink sink;
  emit_container(scheme, v_begin, v_end, e_begin, e_end, include_adjacency,
                 sink);
  return sink.finish();
}

}  // namespace store

void ConnectivityScheme::save(const std::string& path) const {
  // Streamed: labels serialize straight to disk in O(chunk) memory, so
  // saving never doubles the resident footprint of a large scheme.
  store::write_container_streamed(*this, path, 0, num_vertices(), 0,
                                  num_edges(), /*include_adjacency=*/true);
}

// ------------------------------------------------------------------
// Mmap view.

LabelStoreView::~LabelStoreView() {
  store::unmap_file({map_, map_bytes_});
}

bool LabelStoreView::contains(const void* addr) const {
  const auto* p = static_cast<const std::uint8_t*>(addr);
  return p >= map_ && p < map_ + map_bytes_;
}

void LabelStoreView::on_mapped_fault(const void* addr) const {
  (void)addr;
  throw StoreIoError(
      "mapped read faulted (store file truncated or replaced behind the "
      "live mapping): " +
      path_);
}

void StoreView::on_mapped_fault(const void* addr) const {
  (void)addr;
  throw StoreIoError(
      "mapped label store read faulted (backing file truncated or replaced)");
}

std::shared_ptr<const LabelStoreView> LabelStoreView::open(
    const std::string& path, bool verify_checksum) {
  const store::MappedFile mapped =
      store::map_readonly(path, store::kHeaderBytes, "label store");
  const std::size_t size = mapped.size;

  std::shared_ptr<LabelStoreView> view(new LabelStoreView());
  view->path_ = path;
  view->map_ = mapped.data;
  view->map_bytes_ = size;

  const std::span<const std::uint8_t> bytes(view->map_, size);
  // Parse the header from a stack copy taken under a SIGBUS guard, so
  // even the first page disappearing under the mapping is a typed error.
  std::uint8_t header_copy[store::kHeaderBytes];
  store::with_sigbus_guard(path, "label store header", [&] {
    std::memcpy(header_copy, view->map_, store::kHeaderBytes);
  });
  const std::span<const std::uint8_t> header_bytes(header_copy,
                                                   store::kHeaderBytes);
  store::ByteReader h(header_bytes);
  if (h.u64() != store::kMagic) {
    throw StoreError("bad magic (not a label store file): " + path);
  }
  StoreInfo& info = view->info_;
  info.file_bytes = size;
  info.format_version = h.u32();
  const std::uint8_t backend_byte = h.u8();
  const std::uint8_t flags = h.u8();
  h.u8();
  h.u8();
  const std::uint64_t n64 = h.u64();
  const std::uint64_t m64 = h.u64();
  const std::uint64_t params_size = h.u64();
  info.payload_checksum = h.u64();
  const std::uint64_t adj_size = h.u64();  // reserved (zero) in v1
  const std::size_t header_checksum_off = h.pos();
  const std::uint64_t header_checksum = h.u64();
  if (store::fnv1a(header_bytes.first(header_checksum_off)) !=
      header_checksum) {
    throw StoreError("corrupt header (checksum mismatch): " + path);
  }
  if (info.format_version < store::kMinFormatVersion ||
      info.format_version > store::kFormatVersion) {
    throw StoreError("unsupported label store format version " +
                     std::to_string(info.format_version) + ": " + path);
  }
  if (info.format_version < 2 && (flags != 0 || adj_size != 0)) {
    throw StoreError("corrupt v1 header (reserved fields nonzero): " + path);
  }
  if ((flags & ~store::kFlagHasAdjacency) != 0) {
    throw StoreError("unknown header flags in label store: " + path);
  }
  info.has_adjacency = (flags & store::kFlagHasAdjacency) != 0;
  if (info.has_adjacency != (adj_size != 0)) {
    throw StoreError(
        "corrupt header (adjacency flag/size disagree): " + path);
  }
  if (backend_byte > static_cast<std::uint8_t>(BackendKind::kDp21Agm)) {
    throw StoreError("unknown backend kind in label store: " + path);
  }
  info.backend = static_cast<BackendKind>(backend_byte);
  if (n64 >= graph::kNoVertex || m64 >= graph::kNoEdge) {
    throw StoreError("label store dimensions out of range: " + path);
  }
  info.num_vertices = static_cast<VertexId>(n64);
  info.num_edges = static_cast<EdgeId>(m64);

  // Section layout, with every bound checked against the mapped size.
  const auto fail_bounds = [&]() -> StoreError {
    return StoreError("label store truncated (sections exceed file): " +
                      path);
  };
  if (params_size > size - store::kHeaderBytes) throw fail_bounds();
  view->params_off_ = store::kHeaderBytes;
  info.params_bytes = static_cast<std::size_t>(params_size);
  view->vertex_off_ = align8(view->params_off_ + info.params_bytes);
  if (view->vertex_off_ > size) throw fail_bounds();
  info.vertex_section_bytes =
      static_cast<std::size_t>(info.num_vertices) * store::kVertexRecordBytes;
  if (info.vertex_section_bytes > size - view->vertex_off_) {
    throw fail_bounds();
  }
  view->index_off_ = view->vertex_off_ + info.vertex_section_bytes;
  info.edge_index_bytes = (static_cast<std::size_t>(info.num_edges) + 1) * 8;
  if (info.edge_index_bytes > size - view->index_off_) throw fail_bounds();
  view->blob_off_ = view->index_off_ + info.edge_index_bytes;

  // The blob section runs to the (8-aligned) adjacency section when one
  // is present (format v2), otherwise to the end of the file.
  info.adjacency_bytes = static_cast<std::size_t>(adj_size);
  std::size_t blob_region = size - view->blob_off_;
  std::size_t adj_off = 0;
  if (info.has_adjacency) {
    // Placement only; CsrAdjacency::validate() (below) enforces the
    // exact CSR size and every structural property of the section.
    if (info.adjacency_bytes > blob_region) throw fail_bounds();
    adj_off = size - info.adjacency_bytes;
    if (adj_off % 8 != 0) {
      throw StoreError("corrupt adjacency section (misaligned): " + path);
    }
    blob_region = adj_off - view->blob_off_;
  }

  // Offset index: starts at 0, non-decreasing, ends exactly at the blob
  // section end (up to the pre-adjacency alignment pad), and (the blobs
  // being fixed-size per scheme) every spacing must match the width
  // implied by the params blob.
  std::size_t expected_blob = 0;
  store::with_sigbus_guard(path, "label store params", [&] {
    expected_blob = store::expected_edge_blob_bytes(
        info.backend, view->params_blob(), info.format_version);
  });
  store::with_sigbus_guard(path, "label store edge index", [&] {
    std::uint64_t prev = read_u64_at(view->map_, view->index_off_);
    if (prev != 0) {
      throw StoreError("corrupt edge index (must start at 0): " + path);
    }
    for (EdgeId e = 0; e < info.num_edges; ++e) {
      const std::uint64_t next = read_u64_at(
          view->map_,
          view->index_off_ + 8 * (static_cast<std::size_t>(e) + 1));
      if (next < prev || next > blob_region) {
        throw StoreError("corrupt edge index (offsets not monotone): " + path);
      }
      if (next - prev != expected_blob) {
        throw StoreError("corrupt edge index (blob size mismatch): " + path);
      }
      prev = next;
    }
    info.edge_blob_bytes = static_cast<std::size_t>(prev);
  });
  const bool blob_end_ok =
      info.has_adjacency
          ? align8(info.edge_blob_bytes) == blob_region
          : info.edge_blob_bytes == blob_region;
  if (!blob_end_ok) {
    throw StoreError("corrupt edge index (trailing bytes): " + path);
  }

  // Adjacency CSR validation: monotone offsets covering exactly 2m
  // entries, every entry a valid edge ID (shared with the sharded
  // manifest, which carries the same section layout).
  if (info.has_adjacency) {
    view->adj_ = store::CsrAdjacency{view->map_, adj_off, info.adjacency_bytes,
                                     info.num_vertices, info.num_edges};
    store::with_sigbus_guard(path, "label store adjacency",
                             [&] { view->adj_.validate(path); });
  }

  store::StoreLabelBits bits;
  store::with_sigbus_guard(path, "label store params", [&] {
    bits = store::derive_label_bits(info.backend, view->params_blob(),
                                    info.format_version);
  });
  info.vertex_label_bits = bits.vertex_label_bits;
  info.edge_label_bits = bits.edge_label_bits;

  if (verify_checksum) {
    // The O(file) scan — by far the widest SIGBUS window at open.
    std::uint64_t payload_fnv = 0;
    store::with_sigbus_guard(path, "label store payload", [&] {
      payload_fnv = store::fnv1a(bytes.subspan(store::kHeaderBytes));
    });
    if (payload_fnv != info.payload_checksum) {
      throw StoreError("payload checksum mismatch (corrupt label store): " +
                       path);
    }
  }

  // Flat route table: the container is one contiguous mapping with
  // fixed-width records (the index walk above proved it), so routing is
  // base + stride arithmetic. Sharded views splice these per-shard
  // tables into their global one (sharded_store.cpp).
  view->routes_ = contiguous_routes(view->map_ + view->vertex_off_,
                                    info.num_vertices,
                                    view->map_ + view->blob_off_,
                                    info.num_edges, expected_blob);
  return view;
}

std::span<const std::uint8_t> LabelStoreView::params_blob() const {
  return {map_ + params_off_, info_.params_bytes};
}

std::span<const std::uint8_t> LabelStoreView::vertex_blob(VertexId v) const {
  FTC_REQUIRE(v < info_.num_vertices, "vertex out of range");
  return {routes_.vertex(v), store::kVertexRecordBytes};
}

std::span<const std::uint8_t> LabelStoreView::edge_blob(EdgeId e) const {
  // The route table was derived from (and validated against) the offset
  // index at open — blobs are fixed-width — so this is the same span the
  // two index reads would produce, minus the two reads.
  FTC_REQUIRE(e < info_.num_edges, "edge out of range");
  return {routes_.edge(e), routes_.edge_blob_bytes};
}

std::size_t LabelStoreView::adjacency_degree(VertexId v) const {
  return adj_.degree(v);
}

void LabelStoreView::adjacency_append(VertexId v,
                                      std::vector<graph::EdgeId>& out) const {
  adj_.append(v, out);
}

// ------------------------------------------------------------------
// Resident view.

namespace {

class ResidentStoreView final : public StoreView {
 public:
  ResidentStoreView(store::ResidentLabels labels, const graph::Graph& g)
      : labels_(std::move(labels)) {
    const VertexId n = g.num_vertices();
    const EdgeId m = g.num_edges();
    const std::size_t blob_bytes = labels_.edge_blob_bytes;
    FTC_CHECK(labels_.vertex_records.size() ==
                  static_cast<std::size_t>(n) * store::kVertexRecordBytes,
              "resident vertex section inconsistent with the graph");
    const std::size_t blob_section = static_cast<std::size_t>(m) * blob_bytes;
    FTC_CHECK(labels_.edge_words.size() ==
                  store::ResidentLabels::words_for(blob_section),
              "resident edge section inconsistent with the graph");
    FTC_CHECK(store::expected_edge_blob_bytes(labels_.backend, labels_.params,
                                              store::kFormatVersion) ==
                  blob_bytes,
              "resident edge blob width inconsistent with the params");

    // The CSR adjacency section, byte for byte what a save() writes.
    adjacency_ = store::csr_adjacency_section(
        n, m, [&g](VertexId v, std::vector<EdgeId>& out) {
          const auto inc = g.incident_edges(v);
          out.insert(out.end(), inc.begin(), inc.end());
        });
    adj_ = store::CsrAdjacency{adjacency_.data(), 0, adjacency_.size(), n, m};

    StoreInfo& info = info_;
    info.format_version = static_cast<std::uint32_t>(store::kFormatVersion);
    info.backend = labels_.backend;
    info.num_vertices = n;
    info.num_edges = m;
    info.params_bytes = labels_.params.size();
    info.vertex_section_bytes = labels_.vertex_records.size();
    info.edge_index_bytes = (static_cast<std::size_t>(m) + 1) * 8;
    info.edge_blob_bytes = blob_section;
    info.has_adjacency = true;
    info.adjacency_bytes = adjacency_.size();
    const store::StoreLabelBits bits = store::derive_label_bits(
        info.backend, labels_.params, info.format_version);
    info.vertex_label_bits = bits.vertex_label_bits;
    info.edge_label_bits = bits.edge_label_bits;

    routes_ = contiguous_routes(labels_.vertex_records.data(), n,
                                labels_.edge_blobs(), m, blob_bytes);
  }

  std::span<const std::uint8_t> params_blob() const override {
    return labels_.params;
  }
  std::span<const std::uint8_t> vertex_blob(VertexId v) const override {
    FTC_REQUIRE(v < info_.num_vertices, "vertex out of range");
    return {routes_.vertex(v), store::kVertexRecordBytes};
  }
  std::span<const std::uint8_t> edge_blob(EdgeId e) const override {
    FTC_REQUIRE(e < info_.num_edges, "edge out of range");
    return {routes_.edge(e), routes_.edge_blob_bytes};
  }
  std::size_t adjacency_degree(VertexId v) const override {
    return adj_.degree(v);
  }
  void adjacency_append(VertexId v,
                        std::vector<graph::EdgeId>& out) const override {
    adj_.append(v, out);
  }
  bool file_backed() const override { return false; }
  const store::FlatRoutes* routes() const override { return &routes_; }

 private:
  store::ResidentLabels labels_;
  std::vector<std::uint8_t> adjacency_;
  store::CsrAdjacency adj_;
  store::FlatRoutes routes_;
};

}  // namespace

std::shared_ptr<const StoreView> open_resident_view(
    store::ResidentLabels labels, const graph::Graph& g) {
  return std::make_shared<ResidentStoreView>(std::move(labels), g);
}

// ------------------------------------------------------------------
// The scheme classes: one per backend, over any StoreView.

namespace {

// Caches the owning view's resolved flat route table so the per-query
// hot path pays one acquire load + direct index instead of a virtual
// call per label read. A view publishes its FlatRoutes at most once and
// never retracts it (label_store.hpp), so caching the pointer is safe:
// until publication get() keeps asking the view (a sharded store may
// resolve routes mid-serve, via prefetch() or the last lazy open).
class RouteCache {
 public:
  explicit RouteCache(const StoreView& view) : view_(&view) {}

  const store::FlatRoutes* get() const {
    const store::FlatRoutes* rt = cached_.load(std::memory_order_acquire);
    if (rt != nullptr) return rt;
    rt = view_->routes();
    if (rt != nullptr) cached_.store(rt, std::memory_order_release);
    return rt;
  }

 private:
  const StoreView* view_;
  mutable std::atomic<const store::FlatRoutes*> cached_{nullptr};
};

// Immutable fault-set adapter: the backend's prepared session state plus
// the deduplicated fault-edge count reported through num_faults().
template <typename Prepared>
class PreparedFaultSet final : public ConnectivityScheme::FaultSet {
 public:
  PreparedFaultSet(Prepared prepared, std::size_t num_faults)
      : prepared_(std::move(prepared)), num_faults_(num_faults) {}

  std::size_t num_faults() const override { return num_faults_; }
  const Prepared& prepared() const { return prepared_; }

 private:
  Prepared prepared_;
  std::size_t num_faults_ = 0;
};

// Per-thread workspace adapter over a backend's scratch type.
template <typename Inner>
class BackendWorkspace final : public ConnectivityScheme::Workspace {
 public:
  Inner& inner() { return inner_; }

 private:
  Inner inner_;
};

// Backends whose query path needs no scratch (dp21 cycle-space: the
// prepared kernel is read-only).
class EmptyWorkspace final : public ConnectivityScheme::Workspace {};

// query_edges() is the hot path: the fault-set/workspace types are fixed
// when prepare_faults()/make_workspace() hand them out, so downcast
// statically and keep the RTTI check as a debug-only guard against
// mixing backends.
template <typename T, typename U>
T& checked_cast(U& obj, const char* what) {
#ifndef NDEBUG
  FTC_REQUIRE(dynamic_cast<std::remove_reference_t<T>*>(&obj) != nullptr,
              what);
#else
  (void)what;
#endif
  return static_cast<T&>(obj);
}

using CoreFaults = PreparedFaultSet<PreparedFaults>;
using CoreWorkspace = BackendWorkspace<DecoderWorkspace>;
using CycleFaults = PreparedFaultSet<dp21::CycleSpaceFtc::Prepared>;
using AgmFaults = PreparedFaultSet<dp21::AgmFtc::Prepared>;
using AgmWorkspace = BackendWorkspace<dp21::AgmFtc::Workspace>;

// Adjacency provider over the view's CSR side-table: degrees and
// incidence lists decode on the fly, so serving vertex faults costs no
// load-time materialization.
class ViewAdjacency final : public AdjacencyProvider {
 public:
  explicit ViewAdjacency(std::shared_ptr<const StoreView> view)
      : view_(std::move(view)) {}

  VertexId num_vertices() const override {
    return view_->info().num_vertices;
  }
  std::size_t degree(VertexId v) const override {
    return view_->adjacency_degree(v);
  }
  void append_incident(VertexId v,
                       std::vector<EdgeId>& out) const override {
    view_->adjacency_append(v, out);
  }

 private:
  std::shared_ptr<const StoreView> view_;
};

// Shared plumbing: the view, header-derived sizes, the adjacency
// side-table (when the view carries one), and save() support by
// re-emitting the stored blobs (a served scheme round-trips bit-exactly).
class SchemeBase : public ConnectivityScheme {
 public:
  explicit SchemeBase(std::shared_ptr<const StoreView> view)
      : view_(std::move(view)),
        guarded_(view_->file_backed()),
        num_vertices_(view_->info().num_vertices),
        vertex_base_(view_->routes() != nullptr ? view_->routes()->vertex_base
                                                : nullptr) {
    if (view_->info().has_adjacency) {
      adjacency_ = std::make_unique<ViewAdjacency>(view_);
    }
  }

  VertexId num_vertices() const override { return num_vertices_; }
  EdgeId num_edges() const override { return view_->info().num_edges; }
  std::size_t vertex_label_bits() const override {
    return view_->info().vertex_label_bits;
  }
  std::size_t edge_label_bits() const override {
    return view_->info().edge_label_bits;
  }

  // Vertex-fault capability is exactly "the view has the side-table".
  const AdjacencyProvider* adjacency() const override {
    return adjacency_.get();
  }

  void serialize_params(store::ByteWriter& out) const override {
    out.bytes(view_->params_blob());
  }
  void serialize_vertex_label(VertexId v,
                              store::ByteWriter& out) const override {
    out.bytes(view_->vertex_blob(v));
  }
  void serialize_edge_label(EdgeId e, store::ByteWriter& out) const override {
    out.bytes(view_->edge_blob(e));
  }

  // Warm-up: map every lazily-opened shard and resolve the route table,
  // surfacing the view's typed StoreError on a corrupt backing.
  void prefetch(unsigned threads = 0) const override {
    view_->prefetch(threads);
  }

  // The backing view, so a swap can thread the serving generation's
  // mappings through open_store_view(path, verify, reuse_from) and adopt
  // unchanged shards across a delta push.
  std::shared_ptr<const StoreView> store_view() const override {
    return view_;
  }

 protected:
  // Both endpoint ancestry records — the only label reads of an
  // edge-fault query. A contiguous view's records are base + stride; a
  // sharded view's come through its resolved route table (one cached
  // pointer load and a direct index, no binary search or lazy-open
  // check). On a file-backed view both reads run under ONE SIGBUS guard,
  // so a backing file mutated behind the mapping lands in
  // on_mapped_fault (the sharded view quarantines the shard and throws
  // DegradedError) instead of killing the process.
  std::pair<graph::AncestryLabel, graph::AncestryLabel> anc_pair(
      VertexId s, VertexId t) const {
    FTC_REQUIRE(s < num_vertices_ && t < num_vertices_,
                "vertex out of range");
    const std::uint8_t* ps;
    const std::uint8_t* pt;
    if (vertex_base_ != nullptr) {
      ps = vertex_base_ + static_cast<std::size_t>(s) * store::kVertexRecordBytes;
      pt = vertex_base_ + static_cast<std::size_t>(t) * store::kVertexRecordBytes;
    } else if (const store::FlatRoutes* rt = routes_.get()) {
      ps = rt->vertex(s);
      pt = rt->vertex(t);
    } else {
      // Pre-routes path: may lazily open (and internally guard) the
      // owning shards; only the final record reads run under our guard.
      ps = view_->vertex_blob(s).data();
      pt = view_->vertex_blob(t).data();
    }
    if (!guarded_) {
      return {store::decode_vertex_record_at(ps),
              store::decode_vertex_record_at(pt)};
    }
    util::SigbusGuard guard;
    if (sigsetjmp(guard.jump(), 0) == 0) {
      guard.arm();
      const graph::AncestryLabel a = store::decode_vertex_record_at(ps);
      const graph::AncestryLabel b = store::decode_vertex_record_at(pt);
      return {a, b};
    }
    view_->on_mapped_fault(guard.fault_addr());
    __builtin_unreachable();  // noreturn through a virtual call
  }

  // Decodes the labels of a (deduplicated) fault-edge list. A resident
  // view's blobs decode in place; a file-backed view's are first copied
  // out under a SIGBUS guard, and the decoder then runs on the owned
  // copy, unguarded (it allocates). Prepare-time only (<= f blobs per
  // fault set), so the copy is off the per-query path.
  template <typename Decode>
  auto decode_edges(std::span<const EdgeId> edges, Decode&& decode) const {
    std::vector<decltype(decode(std::declval<store::ByteReader&>()))> labels;
    labels.reserve(edges.size());
    std::vector<std::uint8_t> copy;
    for (const EdgeId e : edges) {
      std::span<const std::uint8_t> blob = edge_bytes(e);
      if (guarded_) {
        copy.resize(blob.size());
        util::SigbusGuard guard;
        if (sigsetjmp(guard.jump(), 0) == 0) {
          guard.arm();
          std::memcpy(copy.data(), blob.data(), blob.size());
        } else {
          view_->on_mapped_fault(guard.fault_addr());
        }
        blob = copy;
      }
      store::ByteReader r(blob);
      labels.push_back(decode(r));
    }
    return labels;
  }

  std::shared_ptr<const StoreView> view_;

 private:
  // Edge blob bytes through the resolved-route fast path.
  std::span<const std::uint8_t> edge_bytes(EdgeId e) const {
    if (const store::FlatRoutes* rt = routes_.get()) {
      FTC_REQUIRE(e < rt->num_edges, "edge out of range");
      return {rt->edge(e), rt->edge_blob_bytes};
    }
    return view_->edge_blob(e);
  }

  const bool guarded_;
  const VertexId num_vertices_;
  // The vertex section of a contiguous view (null for a sharded one),
  // cached so the per-query reads need no route-table load.
  const std::uint8_t* const vertex_base_;
  RouteCache routes_{*view_};  // after view_: init order matters
  std::unique_ptr<AdjacencyProvider> adjacency_;  // null: v1 container
};

class CoreScheme final : public SchemeBase {
 public:
  explicit CoreScheme(std::shared_ptr<const StoreView> view)
      : SchemeBase(std::move(view)) {
    store::ByteReader pr(view_->params_blob());
    params_ = store::decode_core_params(pr, view_->info().format_version,
                                        &level_bounds_);
  }

  BackendKind backend() const override { return BackendKind::kCoreFtc; }

  std::unique_ptr<Workspace> make_workspace() const override {
    return std::make_unique<CoreWorkspace>();
  }

  // Re-encode instead of re-emitting the stored blob: a v1 container's
  // core params carry no bounds fields, and save() always writes format
  // v2 (the re-encode emits count 0 then; for v2 inputs it reproduces
  // the stored bytes exactly, keeping re-saves byte-identical).
  void serialize_params(store::ByteWriter& out) const override {
    store::encode_core_params(params_, level_bounds_, out);
  }

 protected:
  std::unique_ptr<FaultSet> prepare_edge_faults(
      std::span<const EdgeId> edge_faults) const override {
    const auto labels = decode_edges(edge_faults, [&](store::ByteReader& r) {
      return store::decode_core_edge(r, params_);
    });
    // Built labels and v2 containers carry the builder's per-level
    // population bounds, so every serving path runs the same shrunken
    // decode windows.
    auto prepared = PreparedFaults::prepare(labels, level_bounds_);
    const std::size_t nf = prepared.num_faults();
    return std::make_unique<CoreFaults>(std::move(prepared), nf);
  }

  bool query_edges(VertexId s, VertexId t, const FaultSet& faults,
                   Workspace& workspace,
                   const QueryOptions& options) const override {
    const auto& fs = checked_cast<const CoreFaults&>(
        faults, "fault set from a different backend");
    auto& ws = checked_cast<CoreWorkspace&>(
        workspace, "workspace from a different backend");
    const auto [anc_s, anc_t] = anc_pair(s, t);
    return FtcDecoder::connected(VertexLabel{params_, anc_s},
                                 VertexLabel{params_, anc_t}, fs.prepared(),
                                 ws.inner(), options);
  }

 private:
  LabelParams params_;
  std::vector<std::uint32_t> level_bounds_;  // empty for v1 containers
};

class CycleSpaceScheme final : public SchemeBase {
 public:
  explicit CycleSpaceScheme(std::shared_ptr<const StoreView> view)
      : SchemeBase(std::move(view)) {
    store::ByteReader pr(view_->params_blob());
    params_ = store::decode_cycle_params(pr);
  }

  BackendKind backend() const override {
    return BackendKind::kDp21CycleSpace;
  }

  std::unique_ptr<Workspace> make_workspace() const override {
    return std::make_unique<EmptyWorkspace>();
  }

 protected:
  std::unique_ptr<FaultSet> prepare_edge_faults(
      std::span<const EdgeId> edge_faults) const override {
    const auto labels = decode_edges(edge_faults, [&](store::ByteReader& r) {
      return store::decode_cycle_edge(r, params_);
    });
    return std::make_unique<CycleFaults>(
        dp21::CycleSpaceFtc::Prepared::prepare(labels), labels.size());
  }

  bool query_edges(VertexId s, VertexId t, const FaultSet& faults,
                   Workspace& /*workspace*/,
                   const QueryOptions& /*options*/) const override {
    const auto& fs = checked_cast<const CycleFaults&>(
        faults, "fault set from a different backend");
    const auto [anc_s, anc_t] = anc_pair(s, t);
    return dp21::CycleSpaceFtc::connected(dp21::CsVertexLabel{anc_s},
                                          dp21::CsVertexLabel{anc_t},
                                          fs.prepared());
  }

 private:
  store::CycleParams params_;
};

class AgmScheme final : public SchemeBase {
 public:
  explicit AgmScheme(std::shared_ptr<const StoreView> view)
      : SchemeBase(std::move(view)) {
    store::ByteReader pr(view_->params_blob());
    params_ = store::decode_agm_params(pr);
  }

  BackendKind backend() const override { return BackendKind::kDp21Agm; }

  std::unique_ptr<Workspace> make_workspace() const override {
    return std::make_unique<AgmWorkspace>();
  }

 protected:
  std::unique_ptr<FaultSet> prepare_edge_faults(
      std::span<const EdgeId> edge_faults) const override {
    const auto labels = decode_edges(edge_faults, [&](store::ByteReader& r) {
      return store::decode_agm_edge(r, params_);
    });
    return std::make_unique<AgmFaults>(
        dp21::AgmFtc::Prepared::prepare(labels), labels.size());
  }

  bool query_edges(VertexId s, VertexId t, const FaultSet& faults,
                   Workspace& workspace,
                   const QueryOptions& /*options*/) const override {
    const auto& fs = checked_cast<const AgmFaults&>(
        faults, "fault set from a different backend");
    auto& ws = checked_cast<AgmWorkspace&>(
        workspace, "workspace from a different backend");
    const auto [anc_s, anc_t] = anc_pair(s, t);
    return dp21::AgmFtc::connected(dp21::AgmVertexLabel{anc_s},
                                   dp21::AgmVertexLabel{anc_t},
                                   fs.prepared(), ws.inner());
  }

 private:
  store::AgmParams params_;
};

}  // namespace

std::unique_ptr<ConnectivityScheme> load_scheme(
    std::shared_ptr<const StoreView> view) {
  FTC_REQUIRE(view != nullptr, "null label store view");
  switch (view->info().backend) {
    case BackendKind::kCoreFtc:
      return std::make_unique<CoreScheme>(std::move(view));
    case BackendKind::kDp21CycleSpace:
      return std::make_unique<CycleSpaceScheme>(std::move(view));
    case BackendKind::kDp21Agm:
      return std::make_unique<AgmScheme>(std::move(view));
  }
  FTC_CHECK(false, "unknown BackendKind in validated store");
  return nullptr;  // unreachable
}

std::unique_ptr<ConnectivityScheme> load_scheme(const std::string& path,
                                                const LoadOptions& options) {
  // open_store_view dispatches on the magic: single containers and
  // sharded manifests load through the same StoreView interface.
  auto scheme = load_scheme(open_store_view(path, options.verify_checksum));
  // Fold a "<path>.jrnl" deletion-journal sidecar into the session
  // (journal.hpp): journaled deletions then behave as implicit faults in
  // every query until the store is rebuilt or compacted away.
  attach_journal_sidecar(*scheme, path, options.replay_journal);
  return scheme;
}

}  // namespace ftc::core
