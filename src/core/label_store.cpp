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

// Runs `copy` — memcpy out of the view's bytes into memory the caller
// already owns — under one SIGBUS guard when the view is file-backed, so
// a backing file truncated or replaced behind the mapping lands in
// view.on_mapped_fault (StoreIoError; DegradedError naming the shard of
// a sharded view) instead of killing the process. `copy` must not
// allocate: siglongjmp skips destructors.
template <typename Copy>
void copy_guarded(const StoreView& view, Copy&& copy) {
  if (!view.file_backed()) {
    copy();
    return;
  }
  util::SigbusGuard guard;
  if (sigsetjmp(guard.jump(), 0) == 0) {
    guard.arm();
    copy();
    return;
  }
  view.on_mapped_fault(guard.fault_addr());
}

std::vector<std::uint8_t> copy_out(const StoreView& view,
                                   std::span<const std::uint8_t> bytes) {
  std::vector<std::uint8_t> out(bytes.size());
  copy_guarded(view, [&] {
    if (!bytes.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
  });
  return out;
}

// Serial shared by every temp-file write, so concurrent saves of the
// same path from one process can never collide on a temp name.
unsigned next_save_serial() {
  static std::atomic<unsigned> save_counter{0};
  return save_counter.fetch_add(1);
}

// The one atomic-write protocol, shared by write_file_atomic and the
// streaming FileSink: write a unique temp file (per process AND per
// call), fsync it, close it, rename it into place and fsync the
// directory — so a crashed, failed or racing write never leaves a
// half-written artifact under the target name, even across power loss
// on writeback filesystems. The failpoints store.write.{open, write,
// fsync, close, rename, dirsync} sit at those boundaries, in that
// order. A file destroyed before commit() removes its temp file.
class AtomicFile {
 public:
  explicit AtomicFile(std::string path)
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

  ~AtomicFile() {
    if (!done_) {
      fd_.reset();
      std::remove(tmp_.c_str());
    }
  }

  AtomicFile(const AtomicFile&) = delete;
  AtomicFile& operator=(const AtomicFile&) = delete;

  // Writes all of `b`: appended, or at byte offset `at` when at >= 0.
  void write(std::span<const std::uint8_t> b, ::off_t at = -1) {
    std::size_t written = 0;
    while (written < b.size()) {
      ::ssize_t n;
      if (const int fe = FTC_FAILPOINT("store.write.write")) {
        errno = fe;
        n = -1;
      } else if (at < 0) {
        n = ::write(fd_.get(), b.data() + written, b.size() - written);
      } else {
        n = ::pwrite(fd_.get(), b.data() + written, b.size() - written,
                     at + static_cast<::off_t>(written));
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        throw fail("write failed");
      }
      written += static_cast<std::size_t>(n);
    }
  }

  // fsync + close + rename into place + best-effort directory fsync.
  // After this returns the file is durably at its target path.
  void commit() {
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
    if (rc != 0) throw fail("close failed");
    if (const int fe = FTC_FAILPOINT("store.write.rename")) {
      errno = fe;
      rc = -1;
    } else {
      rc = std::rename(tmp_.c_str(), path_.c_str());
    }
    if (rc != 0) {
      std::remove(tmp_.c_str());
      done_ = true;
      throw StoreIoError("cannot rename " + tmp_ + " -> " + path_);
    }
    done_ = true;
    // Persist the rename itself (best-effort: the data is already
    // synced, and some filesystems reject directory fsync). The
    // failpoint only counts the boundary — a skipped directory sync
    // never fails a write.
    if (FTC_FAILPOINT("store.write.dirsync") == 0) {
      const std::size_t slash = path_.find_last_of('/');
      const std::string dir = slash == std::string::npos
                                  ? std::string(".")
                                  : path_.substr(0, slash + 1);
      const util::ScopedFd dir_fd(
          ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC));
      if (dir_fd) ::fsync(dir_fd.get());
    }
  }

 private:
  StoreIoError fail(const std::string& what) {
    fd_.reset();
    std::remove(tmp_.c_str());
    done_ = true;
    return StoreIoError(what + ": " + tmp_);
  }

  const std::string path_;
  const std::string tmp_;
  util::ScopedFd fd_;
  bool done_ = false;
};

// Flush granularity of the streaming emitter: records are copied into a
// chunk buffer of at most this size and handed to the sink, so writer
// memory is O(chunk) regardless of the container size.
constexpr std::size_t kStreamChunkBytes = std::size_t{1} << 20;

// Streams records [first, last) of `width` bytes each, record i at
// at(i), to the sink through `chunk`. Each chunk is filled with one
// memcpy per run of adjacent records (one run for a contiguous view, one
// per shard for a sharded one), all under one SIGBUS guard.
template <typename Sink, typename At>
void copy_records(const StoreView& view, std::size_t first, std::size_t last,
                  std::size_t width, At&& at, std::vector<std::uint8_t>& chunk,
                  Sink& sink) {
  if (width == 0) return;
  const std::size_t per_chunk =
      std::max<std::size_t>(1, kStreamChunkBytes / width);
  for (std::size_t i = first; i < last;) {
    const std::size_t k = std::min(per_chunk, last - i);
    chunk.resize(k * width);
    copy_guarded(view, [&] {
      for (std::size_t j = 0; j < k;) {
        const std::uint8_t* src = at(i + j);
        std::size_t run = 1;
        while (j + run < k && at(i + j + run) == src + run * width) ++run;
        std::memcpy(chunk.data() + j * width, src, run * width);
        j += run;
      }
    });
    sink.write(chunk);
    i += k;
  }
}

// One emitter, two sinks. emit_container writes the container for the
// given ranges straight from the view's bytes to a sink exposing
//     void write(std::span<const std::uint8_t>);
//     std::uint64_t offset() const;   // bytes written so far
// The header is emitted FIRST with both checksum fields zero; FileSink
// rewrites the 64-byte header in place at the end, DigestSink never
// needs them (the payload checksum is definitionally over bytes past the
// header). Routing write_container_streamed and digest_container
// through this one function is what keeps the written bytes and the
// digest-only pass from drifting apart. The params blob is the only
// record that is not copied verbatim: a v1 core blob is upgraded to the
// current layout (upgrade_params).
template <typename Sink>
void emit_container(const StoreView& view, VertexId v_begin, VertexId v_end,
                    EdgeId e_begin, EdgeId e_end, bool include_adjacency,
                    Sink& sink) {
  const StoreInfo& info = view.info();
  FTC_REQUIRE(v_begin <= v_end && v_end <= info.num_vertices,
              "vertex range out of order or out of range");
  FTC_REQUIRE(e_begin <= e_end && e_end <= info.num_edges,
              "edge range out of order or out of range");
  const auto n = static_cast<VertexId>(v_end - v_begin);
  const auto m = static_cast<EdgeId>(e_end - e_begin);

  // Maps every shard of a sharded view, so each record below is one
  // route-table lookup away.
  view.prefetch(1);
  const FlatRoutes* routes = view.routes();
  FTC_CHECK(routes != nullptr, "view published no route table");
  const std::size_t blob_bytes = routes->edge_blob_bytes;

  const std::vector<std::uint8_t> params = saved_params(view);
  // Adjacency side-table (format v2): present iff the view carries one,
  // so saved schemes keep vertex-fault capability. Only meaningful for a
  // full-range container (the lists name global edge IDs); shard
  // containers carry none — the manifest does instead.
  std::vector<std::uint8_t> adj_section;
  if (include_adjacency && info.has_adjacency) {
    FTC_CHECK(v_begin == 0 && v_end == info.num_vertices && e_begin == 0 &&
                  e_end == info.num_edges,
              "adjacency requires the full vertex/edge ranges");
    adj_section = saved_adjacency(view);
  }

  const auto pad8 = [&sink] {
    static constexpr std::uint8_t zeros[8] = {};
    const std::size_t rem = static_cast<std::size_t>(sink.offset()) % 8;
    if (rem != 0) {
      sink.write(std::span<const std::uint8_t>(zeros, 8 - rem));
    }
  };

  store::ByteWriter header;
  header.u64(store::kMagic);
  header.u32(static_cast<std::uint32_t>(store::kFormatVersion));
  header.u8(static_cast<std::uint8_t>(info.backend));
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

  sink.write(params);
  pad8();
  std::vector<std::uint8_t> chunk;
  copy_records(
      view, v_begin, v_end, kVertexRecordBytes,
      [routes](std::size_t v) { return routes->vertex(static_cast<VertexId>(v)); },
      chunk, sink);
  pad8();
  // Blobs of one scheme are uniform-width (the reader enforces this at
  // open), so the offset index is arithmetic.
  store::ByteWriter index;
  for (EdgeId e = 0; e <= m; ++e) {
    index.u64(static_cast<std::uint64_t>(e) * blob_bytes);
    if (index.size() >= kStreamChunkBytes || e == m) {
      sink.write(index.view());
      index.clear();
    }
  }
  copy_records(
      view, e_begin, e_end, blob_bytes,
      [routes](std::size_t e) { return routes->edge(static_cast<EdgeId>(e)); },
      chunk, sink);
  if (!adj_section.empty()) {
    pad8();
    sink.write(adj_section);
  }
}

// Both sinks produce the current format, so they digest its payload
// with the current format's checksum.
constexpr auto kVersion = static_cast<std::uint32_t>(store::kFormatVersion);

// Sink 1: fold the stream straight into the payload digest — the
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
    digest_ = store::payload_digest(kVersion, b, digest_);
  }
  std::uint64_t offset() const { return offset_; }

  ContainerDigest finish() const { return {offset_, digest_}; }

 private:
  std::uint64_t offset_ = 0;
  std::uint64_t digest_ = store::payload_digest(kVersion, {});
};

// Sink 2: stream straight to disk through the atomic-write protocol,
// without ever materializing the container: the only buffered state is
// the 64-byte header copy (its checksum fields are patched with one
// pwrite at finish) and the emitter's flush chunk.
class FileSink {
 public:
  explicit FileSink(std::string path) : file_(std::move(path)) {}

  void write(std::span<const std::uint8_t> b) {
    // Keep a copy of the header bytes (they stream out with zeroed
    // checksum fields) and fold everything after them into the payload
    // checksum as it passes through.
    if (offset_ < store::kHeaderBytes) {
      const std::size_t take = static_cast<std::size_t>(
          std::min<std::uint64_t>(b.size(), store::kHeaderBytes - offset_));
      std::copy_n(b.data(), take,
                  header_ + static_cast<std::size_t>(offset_));
      if (take < b.size()) {
        digest_ = store::payload_digest(kVersion, b.subspan(take), digest_);
      }
    } else {
      digest_ = store::payload_digest(kVersion, b, digest_);
    }
    offset_ += b.size();
    file_.write(b);
  }

  std::uint64_t offset() const { return offset_; }

  // Patches the header checksums in place, then commits the file.
  ContainerDigest finish() {
    FTC_CHECK(offset_ >= store::kHeaderBytes, "container without header");
    util::write_u64_le(header_ + 40, digest_);
    util::write_u64_le(header_ + 56,
                       store::fnv1a(std::span<const std::uint8_t>(header_, 56)));
    file_.write(header_, 0);
    file_.commit();
    return {offset_, digest_};
  }

 private:
  AtomicFile file_;
  std::uint8_t header_[store::kHeaderBytes] = {};
  std::uint64_t offset_ = 0;
  std::uint64_t digest_ = store::payload_digest(kVersion, {});
};

}  // namespace

std::vector<std::uint8_t> saved_params(const StoreView& view) {
  const StoreInfo& info = view.info();
  return upgrade_params(info.backend, copy_out(view, view.params_blob()),
                        info.format_version);
}

std::vector<std::uint8_t> saved_adjacency(const StoreView& view) {
  return copy_out(view, view.adjacency_section());
}

void write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> bytes) {
  AtomicFile file(path);
  file.write(bytes);
  file.commit();
}

ContainerDigest write_container_streamed(const ConnectivityScheme& scheme,
                                         const std::string& path,
                                         VertexId v_begin, VertexId v_end,
                                         EdgeId e_begin, EdgeId e_end,
                                         bool include_adjacency) {
  FileSink sink(path);
  emit_container(*scheme.store_view(), v_begin, v_end, e_begin, e_end,
                 include_adjacency, sink);
  return sink.finish();
}

ContainerDigest digest_container(const ConnectivityScheme& scheme,
                                 VertexId v_begin, VertexId v_end,
                                 EdgeId e_begin, EdgeId e_end,
                                 bool include_adjacency) {
  DigestSink sink;
  emit_container(*scheme.store_view(), v_begin, v_end, e_begin, e_end,
                 include_adjacency, sink);
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
    std::uint64_t payload_digest = 0;
    store::with_sigbus_guard(path, "label store payload", [&] {
      payload_digest = store::payload_digest(
          info.format_version, bytes.subspan(store::kHeaderBytes));
    });
    if (payload_digest != info.payload_checksum) {
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
  bool file_backed() const override { return false; }
  const store::FlatRoutes* routes() const override { return &routes_; }

 private:
  store::ResidentLabels labels_;
  std::vector<std::uint8_t> adjacency_;
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

// Shared plumbing of the per-backend scheme classes: the two label
// reads every backend's query path makes, over the base class's view.
class SchemeBase : public ConnectivityScheme {
 public:
  explicit SchemeBase(std::shared_ptr<const StoreView> view)
      : ConnectivityScheme(std::move(view)),
        guarded_(store_view()->file_backed()),
        vertex_base_(store_view()->routes() != nullptr
                         ? store_view()->routes()->vertex_base
                         : nullptr) {}

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
    FTC_REQUIRE(s < num_vertices() && t < num_vertices(),
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
      ps = store_view()->vertex_blob(s).data();
      pt = store_view()->vertex_blob(t).data();
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
    store_view()->on_mapped_fault(guard.fault_addr());
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
          store_view()->on_mapped_fault(guard.fault_addr());
        }
        blob = copy;
      }
      store::ByteReader r(blob);
      labels.push_back(decode(r));
    }
    return labels;
  }

 private:
  // Edge blob bytes through the resolved-route fast path.
  std::span<const std::uint8_t> edge_bytes(EdgeId e) const {
    if (const store::FlatRoutes* rt = routes_.get()) {
      FTC_REQUIRE(e < rt->num_edges, "edge out of range");
      return {rt->edge(e), rt->edge_blob_bytes};
    }
    return store_view()->edge_blob(e);
  }

  const bool guarded_;
  // The vertex section of a contiguous view (null for a sharded one),
  // cached so the per-query reads need no route-table load.
  const std::uint8_t* const vertex_base_;
  RouteCache routes_{*store_view()};
};

class CoreScheme final : public SchemeBase {
 public:
  explicit CoreScheme(std::shared_ptr<const StoreView> view)
      : SchemeBase(std::move(view)) {
    store::ByteReader pr(store_view()->params_blob());
    params_ = store::decode_core_params(
        pr, store_view()->info().format_version, &level_bounds_);
  }

  std::unique_ptr<Workspace> make_workspace() const override {
    return std::make_unique<CoreWorkspace>();
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
    store::ByteReader pr(store_view()->params_blob());
    params_ = store::decode_cycle_params(pr);
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
    store::ByteReader pr(store_view()->params_blob());
    params_ = store::decode_agm_params(pr);
  }

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
