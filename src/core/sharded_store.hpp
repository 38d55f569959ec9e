// ShardedLabelStore: one labeling scheme split across K container files
// plus a checksummed manifest, served back through the same StoreView
// interface as a single container.
//
// The paper's O(f)-size polylog labels make connectivity queries
// servable from precomputed artifacts; sharding is what lets those
// artifacts outgrow one file. save_sharded() splits a scheme's labels
// across K shards by CONTIGUOUS vertex and edge ranges — shard k holds
// vertex records [vk, vk+1) and edge blobs [ek, ek+1), each shard a
// fully valid container (format v4) in its own right (inspectable and
// loadable with the ordinary tools) — and writes a manifest recording
// the ranges, the params blob, and a per-shard digest. Shards build and
// write in parallel, the first concrete step toward billion-edge stores
// whose labels are produced and distributed shard-by-shard.
//
// Manifest format, version 3 (all integers little-endian):
//
//   header (96 bytes)
//     0   u64  magic "FTCMANIF"
//     8   u32  manifest format version (3)
//     12  u8   BackendKind
//     13  u8   flags (bit 0: adjacency section present), u8[2] reserved
//     16  u64  total num_vertices
//     24  u64  total num_edges
//     32  u64  num_shards (K >= 1)
//     40  u64  params blob size in bytes
//     48  u64  params blob hash (FNV-1a over the params blob bytes;
//              every shard's params blob must match byte-for-byte)
//     56  u64  adjacency section size in bytes (0 when absent)
//     64  u64  epoch (>= 1; 1 for a full save, parent epoch + 1 for a
//              delta push)
//     72  u64  parent digest: the parent manifest's payload checksum for
//              a delta push, 0 for a full save — a verifiable lineage
//              chain across pushes
//     80  u64  payload checksum: FNV-1a over bytes [96, file end)
//     88  u64  header checksum: FNV-1a over bytes [0, 88)
//   params blob          verbatim copy of the (shared) backend params,
//                        so schemes load from the manifest alone without
//                        touching any shard
//   (pad to 8)
//   shard table          K records (see store::ShardRecord): vertex and
//                        edge ranges, expected shard file size, the
//                        shard's payload checksum as its digest (the
//                        CRC-64/XZ of a v3+ shard's payload, FNV-1a for
//                        a v1/v2 shard: store::payload_digest), and the
//                        shard's file name relative to the manifest
//   adjacency section    optional CSR incidence side-table, identical
//                        layout and validation to container v2+ — carried
//                        by the manifest (not the shards: incidence
//                        lists name global edge IDs), so sharded stores
//                        keep vertex-fault capability
//
// Version 3 has the v2 layout byte for byte. The version says which
// container layout its shards have: a v3 manifest fronts format-v4
// shards (level-width core edge blobs, label_store.hpp), a v1 or v2
// manifest fronts shards of formats 1-3 (k syndromes per level). The
// view reports that container version, and a shard whose blobs have
// another width is rejected at open.
//
// Version 1 manifests (80-byte header: no epoch/parent fields, payload
// checksum at offset 64 over [80, end), header checksum at 72 over
// [0, 72)) still load read-compatibly and report epoch 1 with parent
// digest 0.
//
// Delta pushes. Shard digests make the store content-addressed:
// save_sharded_delta() rebuilds the shard byte images but compares each
// against the parent manifest's records and REUSES byte-identical shards
// — hard-linking the parent's file under the new name (or keeping it in
// place when pushing over the same path) instead of writing it — so the
// bytes hitting the disk scale with the CHANGED shards, not the store.
// The new manifest records epoch = parent + 1 and the parent's payload
// checksum as its parent digest. On the serving side,
// open_store_view(path, verify, reuse_from) adopts the unchanged shards'
// already-open mmaps from the previous generation's view, so a
// BatchQueryEngine::swap_store over a delta push maps only the changed
// shards.
//
// Validation at open: magic, both checksums, version, backend, flags,
// dimension ranges, and the shard table — ranges must tile [0, n) and
// [0, m) exactly (no overlap, no gap), names must be relative paths
// without ".." segments, and every shard file must exist with exactly
// the recorded size. Shards themselves are mmapped LAZILY, on the first
// lookup that routes into them; at that point the shard is opened with
// the full container validation plus the manifest cross-checks
// (backend, range dimensions, byte-identical params blob, digest). Any
// mismatch throws the typed StoreError.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/label_store.hpp"

namespace ftc::core {

// A query routed into a quarantined shard: the shard failed to open
// persistently (retries exhausted), failed validation, or had a SIGBUS
// translated off its live mapping. Carries the unservable ID ranges so
// callers can degrade exactly that slice of the keyspace while every
// other shard keeps serving. Derives from StoreError so existing
// "artifact failure" handling keeps catching it.
class DegradedError : public StoreError {
 public:
  DegradedError(const std::string& what, std::size_t shard_index,
                std::uint64_t vb, std::uint64_t ve, std::uint64_t eb,
                std::uint64_t ee)
      : StoreError(what),
        shard(shard_index),
        vertex_begin(vb),
        vertex_end(ve),
        edge_begin(eb),
        edge_end(ee) {}

  std::size_t shard = 0;
  std::uint64_t vertex_begin = 0;
  std::uint64_t vertex_end = 0;
  std::uint64_t edge_begin = 0;
  std::uint64_t edge_end = 0;
};

// Retry schedule for transient (StoreIoError-class) failures on the
// shard open / prefetch / swap paths and the remote tier's fetches:
// flaky disks, fd pressure, racing publishes, a flapping origin.
// Validation failures (plain StoreError) never retry — re-reading
// corrupt bytes cannot help. The backoff doubles after each failed
// attempt (kRetryBackoffMultiplier) up to max_backoff.
struct RetryPolicy {
  unsigned max_attempts = 3;  // total attempts, >= 1
  std::chrono::microseconds initial_backoff{100};
  // Ceiling the exponential growth stops at (0 = none) — remote fetches
  // retry under the same policy as local opens, and unbounded doubling
  // against a flapping origin turns a 3-attempt budget into seconds.
  std::chrono::microseconds max_backoff{100000};

  unsigned attempts() const { return std::max(1u, max_attempts); }
};
inline constexpr int kRetryBackoffMultiplier = 2;

// Process-wide policy ShardedStoreView retries under (tests shrink it;
// not synchronized — set it before serving traffic). Seeded once, on
// first use, from the environment so operators can tune remote-fetch
// retries without a rebuild:
//   FTC_RETRY_ATTEMPTS  total attempts (>= 1)
//   FTC_RETRY_BASE_US   initial backoff in microseconds
//   FTC_RETRY_CAP_US    backoff ceiling in microseconds
RetryPolicy& default_retry_policy();

// Returns fn(), calling it up to default_retry_policy().attempts() times:
// a StoreIoError sleeps the current backoff and tries again, and the
// last attempt's StoreIoError propagates. Any other exception
// propagates at once. The one retry loop of the store layer: shard
// opens (ShardedStoreView::open_shard) and the remote tier's manifest
// and journal fetches run under it.
template <typename Fn>
auto retry_transient(Fn&& fn) -> decltype(fn()) {
  const RetryPolicy policy = default_retry_policy();
  std::chrono::microseconds backoff = policy.initial_backoff;
  for (unsigned attempt = 1;; ++attempt) {
    try {
      return fn();
    } catch (const StoreIoError&) {
      if (attempt >= policy.attempts()) throw;
    }
    std::this_thread::sleep_for(backoff);
    backoff *= kRetryBackoffMultiplier;
    if (policy.max_backoff.count() > 0 && backoff > policy.max_backoff) {
      backoff = policy.max_backoff;
    }
  }
}

// One quarantined shard: index, the ID ranges it makes unservable, and
// the failure that quarantined it.
struct QuarantineRecord {
  std::size_t shard = 0;
  std::uint64_t vertex_begin = 0;
  std::uint64_t vertex_end = 0;
  std::uint64_t edge_begin = 0;
  std::uint64_t edge_end = 0;
  std::string reason;
};

namespace store {

// Written manifest version; readers accept
// [kMinManifestFormatVersion, kManifestFormatVersion].
inline constexpr std::uint64_t kManifestFormatVersion = 3;
inline constexpr std::uint64_t kMinManifestFormatVersion = 1;
inline constexpr std::size_t kManifestHeaderBytes = 96;
inline constexpr std::size_t kManifestHeaderBytesV1 = 80;
// "FTCMANIF" read as a little-endian u64.
inline constexpr std::uint64_t kManifestMagic = 0x46494E414D435446ULL;
// Guardrails against absurd shard tables in adversarial manifests.
inline constexpr std::uint64_t kMaxShards = 1u << 20;
inline constexpr std::size_t kMaxShardNameBytes = 4096;

// The first 8 bytes of the file at `path` as a little-endian u64 (the
// sniff behind open_store_view's dispatch; kMagic or kManifestMagic
// for a store). Throws StoreIoError when the file cannot be opened or
// read, StoreError when it is shorter than 8 bytes.
std::uint64_t read_magic(const std::string& path);

// One shard-table entry. Encoded fixed-prefix + name: six u64 fields,
// u32 name length, name bytes, pad to 8 (codec in serialize.cpp).
struct ShardRecord {
  std::uint64_t vertex_begin = 0;
  std::uint64_t vertex_end = 0;
  std::uint64_t edge_begin = 0;
  std::uint64_t edge_end = 0;
  std::uint64_t file_bytes = 0;       // exact shard file size
  std::uint64_t payload_digest = 0;   // the shard's own payload checksum
  std::string name;                   // relative to the manifest directory
};

void encode_shard_record(const ShardRecord& rec, ByteWriter& w);
ShardRecord decode_shard_record(ByteReader& r);

}  // namespace store

// Writes `scheme` as num_shards containers plus a manifest at
// manifest_path. Shard files land next to the manifest, named
// "<manifest-filename>.shard<k>.ftcs"; each is written atomically, in
// parallel across worker threads, and the manifest is written last — a
// crash mid-save never leaves a manifest naming missing or stale
// shards. A failure mid-save (any shard build or write, or the manifest
// write itself) unlinks every shard file this call created before
// rethrowing, so aborted saves leave no orphan "<base>.shard<k>.ftcs"
// litter; a successful save additionally unlinks stale higher-numbered
// shard files left behind by an earlier save with a larger K under the
// same path. num_shards may exceed the vertex/edge counts (the surplus
// shards hold empty ranges). Load the result back with load_scheme() /
// open_store_view() on the manifest path. Throws StoreError on I/O
// failure.
void save_sharded(const ConnectivityScheme& scheme,
                  const std::string& manifest_path, unsigned num_shards);

// Accounting for one save_sharded_delta() call. bytes_written counts
// shard payload bytes that actually hit the disk (rebuilt shards);
// bytes_reused counts shard bytes satisfied by hard-linking or keeping
// the parent's byte-identical file. shards_written + shards_reused ==
// shards_total. The whole point of a delta push: with 1 of K shards
// changed, bytes_written is O(1 shard), not O(store).
struct DeltaPushStats {
  std::uint64_t epoch = 0;  // the new manifest's epoch (parent + 1)
  std::size_t shards_total = 0;
  std::size_t shards_written = 0;
  std::size_t shards_reused = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_reused = 0;
  std::uint64_t manifest_bytes = 0;
  // Byte-identical shards whose hard-link reuse failed with EXDEV/EPERM
  // (cross-filesystem or link-restricted mounts) and fell back to a
  // full byte copy; counted in shards_written/bytes_written.
  std::size_t shards_link_fallback = 0;
};

// Content-addressed delta push: saves `scheme` like save_sharded, but
// compares every shard's byte image against the parent manifest at
// parent_manifest_path and reuses byte-identical shards (same payload
// digest and size) via hard link instead of rewriting them — falling
// back to a full write when linking fails (e.g. across filesystems).
// The new manifest chains to the parent: epoch = parent epoch + 1,
// parent digest = the parent manifest's payload checksum. num_shards ==
// 0 inherits the parent's shard count (the common case — shard-count
// changes defeat range-aligned reuse). Pushing over the parent's own
// path is allowed: unchanged shards are kept in place untouched. Same
// failure hygiene as save_sharded. Throws StoreError on I/O failure or
// a malformed parent manifest.
DeltaPushStats save_sharded_delta(const ConnectivityScheme& scheme,
                                  const std::string& manifest_path,
                                  const std::string& parent_manifest_path,
                                  unsigned num_shards = 0);

// Manifest-routed StoreView over K lazily-opened shard containers.
// Every vertex_blob/edge_blob read binary-searches the K manifest ranges
// and reads the owning shard's contiguous section, mmapping the shard on
// first touch (thread-safe; concurrent queries may race to open the same
// shard and one open wins). Adjacency
// reads come from the manifest's own side-table. info() aggregates the
// whole store: file_bytes spans manifest plus shards, num_shards > 0.
//
// Subclassable at exactly one seam: shard_local_path() resolves shard k
// to a local file the container opener can mmap. The base class reads
// next to the manifest — the local-directory transport today's opens
// always were. RemoteStoreView overrides it to pull the shard through a
// ShardSource into the digest-verified ShardCache first; everything
// else (lazy opens, retry, quarantine, routing, adoption) is shared.
class ShardedStoreView : public StoreView {
 public:
  // Maps and validates the manifest (structure always; the manifest
  // payload FNV pass only when verify_checksum). Shard files are
  // stat-checked here (existence + exact size) but mapped lazily;
  // verify_checksum also governs the per-shard payload pass at first
  // touch. When reuse_from names a previous-generation view of the same
  // backend with a byte-identical params blob, shards whose manifest
  // records match one of the parent's (payload digest, file size, and
  // ID extents) AND are already open there are ADOPTED: the new view
  // shares the parent's shard mapping, the slot counts as open, and
  // only genuinely changed shards are left for lazy opens / prefetch —
  // the serving half of a delta push.
  static std::shared_ptr<const ShardedStoreView> open(
      const std::string& path, bool verify_checksum = true,
      const std::shared_ptr<const ShardedStoreView>& reuse_from = nullptr);

  // Like open(), but a shard file that is missing or has the wrong size
  // QUARANTINES that shard instead of failing the whole open — the fsck
  // / incident-response entry point: the manifest itself must still be
  // fully valid, but a store with damaged shard files opens and serves
  // every healthy range (queries into the dead ranges throw
  // DegradedError). Serving swaps keep using the strict open() so a
  // damaged generation never replaces a healthy one.
  static std::shared_ptr<const ShardedStoreView> open_degraded(
      const std::string& path, bool verify_checksum = true);

  ~ShardedStoreView() override;

  std::span<const std::uint8_t> params_blob() const override;

  // Maps + digest-verifies every still-unmapped shard in parallel
  // (work-stealing over shard indices on a util::WorkerPool, the same
  // fan-out as save_sharded's writers), so the first-touch cliff leaves
  // the query path entirely. Idempotent; safe concurrently with queries,
  // with lazy first-touch opens, and with other prefetch calls. A shard
  // that fails validation throws the same typed StoreError a lazy open
  // would (the first failure wins; already-published shards stay
  // served).
  store::PrefetchStats prefetch(unsigned threads = 0) const override;

  // Manifest metadata, for inspection tooling.
  std::span<const store::ShardRecord> shards() const { return records_; }
  // Number of shards actually mmapped so far (lazy-open observability).
  // Adopted shards count as open.
  std::size_t shards_open() const;
  // Shards adopted from reuse_from at open() (constant per view; also
  // reported in every PrefetchStats from this view).
  std::size_t shards_adopted() const { return adopted_count_; }

  // Degraded-serving observability: quarantined shard count and the full
  // per-shard report (ranges + reason) for health endpoints and fsck.
  std::size_t shards_quarantined() const;
  std::vector<QuarantineRecord> quarantine_report() const;

  // Opens and fully validates shard k against the manifest WITHOUT
  // retry, quarantine, or publication into the serving slots — the
  // offline fsck primitive. Throws the shard's StoreError on failure;
  // the probe mapping is discarded either way.
  void verify_shard(std::size_t k) const;

  // Attributes a translated SIGBUS to the owning shard, quarantines it,
  // and throws DegradedError naming its ranges; faults that match no
  // shard mapping throw StoreIoError for the whole store.
  [[noreturn]] void on_mapped_fault(const void* addr) const override;

 protected:
  ShardedStoreView() = default;

  // Finds the shard whose manifest range holds `id` and returns the
  // record's address in that shard's contiguous section, opening the
  // shard on first touch.
  const std::uint8_t* routed_record(Section section,
                                    std::uint64_t id) const override;

  // Resolves shard k to a local file path LabelStoreView::open can
  // mmap. Called on the lazy first-touch / prefetch / verify paths,
  // outside any lock; may block (a remote override fetches here) and
  // may throw StoreIoError (transient, retried) or StoreError
  // (structural, quarantines). Base: the file named by the manifest
  // record, next to the manifest.
  virtual std::string shard_local_path(std::size_t k) const;
  // Names shard k in quarantine reasons and fault reports WITHOUT side
  // effects — never fetches. Base: the same path shard_local_path
  // returns; remote: the origin URL.
  virtual std::string shard_display_name(std::size_t k) const;

  // Shared body of open() / open_degraded() / RemoteStoreView::open():
  // maps + validates the manifest at `path` and populates the
  // caller-allocated `view` (which may be a subclass instance).
  // tolerate_missing_shards turns shard stat failures into quarantines
  // instead of throws; stat_shards=false skips the local existence
  // check entirely (remote shards have no local file until fetched —
  // info().file_bytes then trusts the manifest's recorded sizes).
  static void open_impl(
      const std::shared_ptr<ShardedStoreView>& view, const std::string& path,
      bool verify_checksum,
      const std::shared_ptr<const ShardedStoreView>& reuse_from,
      bool tolerate_missing_shards, bool stat_shards);

  // Opens and validates shard k against the manifest (full container
  // validation + cross-checks), one attempt. Throws StoreError /
  // StoreIoError on any mismatch or I/O failure.
  std::shared_ptr<const LabelStoreView> open_shard_once(std::size_t k) const;
  // open_shard_once under default_retry_policy(): transient
  // (StoreIoError) failures retry with backoff; exhausted retries and
  // validation failures quarantine the shard and throw DegradedError.
  std::shared_ptr<const LabelStoreView> open_shard(std::size_t k) const;
  // Marks shard k unservable and remembers why (first reason wins).
  void quarantine_shard(std::size_t k, const std::string& reason) const;
  [[noreturn]] void throw_degraded(std::size_t k) const;
  // Returns shard k, opening it on first touch (open_shard runs outside
  // the slot lock; racing opens of one shard let the first win).
  const LabelStoreView& shard(std::size_t k) const;
  // Publishes an opened shard into slot k under mutex_; returns false
  // when a racing open published first.
  bool publish_shard(std::size_t k,
                     std::shared_ptr<const LabelStoreView> v) const;
  // Open-time only (exclusive access): adopt byte-identical, already-
  // open shards from a previous-generation view of the same store.
  void adopt_shards(const ShardedStoreView& parent);

  const std::uint8_t* map_ = nullptr;  // manifest file
  std::size_t map_bytes_ = 0;
  std::size_t params_off_ = 0;
  std::string dir_;          // manifest directory, for shard resolution
  std::string path_;         // manifest path, for error messages
  bool verify_checksum_ = true;
  std::vector<store::ShardRecord> records_;

  // Lazy shard slots: slot k is written exactly once under mutex_ and
  // read lock-free afterwards through an acquire load of opened_[k].
  mutable std::mutex mutex_;
  mutable std::vector<std::shared_ptr<const LabelStoreView>> shard_views_;
  mutable std::unique_ptr<std::atomic<bool>[]> opened_;
  // Quarantine state: flag read lock-free on the routing path, reasons
  // guarded by mutex_. Sticky for the life of the view — a repaired file
  // is picked up by the next generation's swap, not by un-quarantining.
  mutable std::unique_ptr<std::atomic<bool>[]> quarantined_;
  mutable std::vector<std::string> quarantine_reasons_;  // guarded by mutex_
  std::size_t adopted_count_ = 0;       // set once at open()
};

class ShardSource;  // core/shard_source.hpp
class ShardCache;   // core/shard_cache.hpp

// A sharded store served from an http:// manifest URL. The manifest is
// fetched (with retry under default_retry_policy()), verified and
// parked in the shard cache, then parsed by the ordinary manifest
// reader; shards are fetched through the cache on first touch — a warm
// cache makes a remote open byte-for-byte the local lazy-open path.
// Everything above this class (shard routing, BatchQueryEngine,
// swap_store adoption, quarantine/degraded serving, journal sidecars)
// is unchanged: open_store_view() dispatches URLs here, so callers
// never name this type.
class RemoteStoreView final : public ShardedStoreView {
 public:
  // cache == nullptr uses default_remote_cache(). reuse_from enables
  // the same delta-push shard adoption as the local open — combined
  // with content-addressed caching, a swap to a child epoch transfers
  // only the changed shards.
  static std::shared_ptr<const RemoteStoreView> open(
      const std::string& url, bool verify_checksum = true,
      const std::shared_ptr<const ShardedStoreView>& reuse_from = nullptr,
      std::shared_ptr<ShardCache> cache = nullptr);

  const std::string& url() const { return url_; }
  const std::shared_ptr<ShardCache>& cache() const { return cache_; }

 protected:
  std::string shard_local_path(std::size_t k) const override;
  std::string shard_display_name(std::size_t k) const override;

 private:
  RemoteStoreView() = default;

  std::string url_;
  std::shared_ptr<ShardCache> cache_;
  std::shared_ptr<const ShardSource> source_;
};

// Fetches the deletion-journal sidecar "<store url>.jrnl" into the
// default cache and returns its local path, or "" when the origin has
// none (journals are optional). Like the manifest, it is a HEAD and a
// GET bounded by the reported size; transient transport failures and
// size mismatches retry the pair under default_retry_policy() before
// throwing.
std::string fetch_remote_journal(const std::string& store_url);

}  // namespace ftc::core
