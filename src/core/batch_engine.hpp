// BatchQueryEngine: a query session over any ConnectivityScheme backend,
// with epoch-based zero-downtime label swapping.
//
// The engine is the serving-path counterpart of the labeling theory: a
// fault set changes rarely (a failure epoch), while (s, t) queries arrive
// in bulk. One session therefore
//   1. materializes and deduplicates the fault-edge labels ONCE
//      (ConnectivityScheme::prepare_faults) instead of per query;
//   2. keeps an arena of per-thread decoder workspaces (merge state,
//      cut bitsets, the level-row and sketch-decode scratch) that are
//      reused across queries instead of reallocated inside every
//      decode; and
//   3. fans batches across a PERSISTENT pool of condition-variable-parked
//      worker threads that pull chunks off a shared std::atomic work
//      index. The pool is created on first run_parallel() and reused
//      across run() and reset_faults() calls for the engine's lifetime,
//      so small batches stop paying thread-start cost on every call.
//
// Label generations and epochs. Everything a query reads — the scheme,
// the prepared fault set, the workspace arena — lives in one immutable
// *generation* tagged with a monotonically increasing epoch. A query or
// batch pins the current generation (one shared_ptr copy) on entry and
// runs against it to completion. swap_store() builds a NEW generation
// around a replacement scheme (typically freshly loaded labels from a
// store or sharded manifest), prepares the session's fault set against
// it off the hot path, and atomically publishes it: queries already in
// flight finish on the old generation, the next query starts on the new
// one, and the old generation — including any mmapped store behind it —
// is released when its last in-flight pin drops. No drain, no lost
// queries, no torn reads across label generations.
//
// Threading contract: queries (connected / run_sequential /
// run_parallel) and reset_faults are driven by ONE caller thread, as
// before. swap_store() — and only swap_store() — may additionally be
// called from ANY other thread, concurrently with in-flight queries.
// Results are bit-for-bit identical across the three query paths within
// one generation: workers share the immutable fault set and only write
// disjoint result slots.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/connectivity_scheme.hpp"
#include "core/label_store.hpp"
#include "core/sharded_store.hpp"

namespace ftc::util {
class WorkerPool;
}  // namespace ftc::util

namespace ftc::core {

class BatchQueryEngine {
 public:
  struct Query {
    graph::VertexId s = 0;
    graph::VertexId t = 0;
  };

  // Health snapshot of the current label generation, for serving-tier
  // observability: how much of the keyspace is mapped, adopted, or
  // quarantined. Non-sharded generations report one fully-open "shard".
  struct GenerationStats {
    std::uint64_t epoch = 0;
    std::size_t num_shards = 0;
    std::size_t shards_open = 0;
    std::size_t shards_adopted = 0;
    std::size_t shards_quarantined = 0;
    bool degraded = false;  // any shard quarantined
    std::vector<QuarantineRecord> quarantine;
  };

  // Opens a session for one fault set — any mix of edge and vertex
  // faults (vertex faults need a scheme with adjacency; CapabilityError
  // otherwise). The scheme must outlive the engine (and every generation
  // that references it — swap_store keeps the initial generation alive
  // only until in-flight queries finish). `options` applies to every
  // query of the session.
  BatchQueryEngine(const ConnectivityScheme& scheme, const FaultSpec& spec,
                   const QueryOptions& options = {});

  // Owning variant: the engine takes the scheme (typically one loaded
  // from a label store, see label_store.hpp) and keeps it alive while
  // any generation references it — a serving session spun up directly
  // from a store file:
  //   BatchQueryEngine session(load_scheme("labels.ftcs"), spec);
  BatchQueryEngine(std::unique_ptr<ConnectivityScheme> scheme,
                   const FaultSpec& spec, const QueryOptions& options = {});

  // Parks and joins the worker pool (if one was ever started).
  ~BatchQueryEngine();

  // Installs a new label generation — the zero-downtime cut-over. The
  // incoming scheme is prefetched off-lock first (a sharded store maps
  // and digest-verifies all shards in parallel, so the new epoch never
  // serves a cold lazy open; a corrupt shard throws StoreError with the
  // old generation left fully serving). The session's fault set is then prepared against the new
  // scheme (it must still name valid IDs there; std::invalid_argument
  // otherwise, again leaving the old generation serving), and the
  // generation is published under the next epoch. Safe to call from a
  // thread other than the query-driving one, concurrently with
  // in-flight queries; those finish on their pinned generation. Returns
  // the new epoch.
  std::uint64_t swap_store(std::unique_ptr<ConnectivityScheme> scheme);
  // Convenience: open the artifact at `path` and install it. When the
  // current generation serves a sharded store and the incoming manifest
  // records byte-identical shard digests (a delta push,
  // sharded_store.hpp), the matching shards' existing mmaps are ADOPTED
  // into the new generation — prefetch inside install() maps only the
  // changed shards, so swap cost scales with the delta, not the store.
  // A "<path>.jrnl" deletion-journal sidecar replays onto the new
  // generation per options.replay_journal.
  std::uint64_t swap_store(const std::string& path,
                           const LoadOptions& options = {});

  // Epoch of the currently installed generation (starts at 1; each
  // swap_store increments it). reset_faults keeps the epoch: it changes
  // the fault set, not the label generation.
  std::uint64_t epoch() const;
  // Epoch the most recent connected()/run_*() call on the query thread
  // answered from. Meaningful only on that thread.
  std::uint64_t last_run_epoch() const { return last_run_epoch_; }

  // Health of the current generation (see GenerationStats). Safe from
  // any thread; pins the generation for the duration of the call.
  GenerationStats generation_stats() const;

  // Replaces the session's fault set; cached workspaces and the worker
  // pool are kept. Query-thread only (like the query entry points).
  void reset_faults(const FaultSpec& spec);

  // Single query on the calling thread, reusing the session workspace.
  bool connected(graph::VertexId s, graph::VertexId t);

  // Batch on the calling thread (one workspace, zero thread overhead).
  std::vector<bool> run_sequential(std::span<const Query> queries);

  // Batch fanned across num_threads workers. The count is the caller's
  // to choose (>= 1, std::invalid_argument otherwise): hardware
  // concurrency overstates what a shared host delivers. Falls back to
  // the sequential path for tiny batches or one thread.
  std::vector<bool> run_parallel(std::span<const Query> queries,
                                 unsigned num_threads);

  std::size_t num_faults() const;
  // The scheme of the current generation. The reference stays valid
  // until the generation is retired: a later swap_store plus the end of
  // any in-flight queries. Callers that never swap can hold it freely.
  const ConnectivityScheme& scheme() const;

 private:
  // One immutable label generation: everything a pinned query touches.
  // The workspace arena rides along because workspaces are backend-
  // specific scratch — a swap to a different backend (or labels of a
  // different shape) must not reuse stale scratch.
  struct Generation {
    std::uint64_t epoch = 0;
    std::shared_ptr<const ConnectivityScheme> scheme;
    std::unique_ptr<ConnectivityScheme::FaultSet> faults;
    // Workspace arena: slot i belongs to worker i (slot 0 = caller).
    // Grown and used only by the query-driving thread and its workers.
    std::vector<std::unique_ptr<ConnectivityScheme::Workspace>> workspaces;
  };

  BatchQueryEngine(std::shared_ptr<const ConnectivityScheme> scheme,
                   const FaultSpec& spec, const QueryOptions& options);

  std::shared_ptr<Generation> snapshot() const;
  std::uint64_t install(std::shared_ptr<const ConnectivityScheme> scheme);
  static ConnectivityScheme::Workspace& workspace(Generation& gen,
                                                  std::size_t i);

  // Guards gen_, next_epoch_, spec_ and spec_version_. Held only for
  // pointer swaps and snapshots on the query path; swap_store prepares
  // the incoming generation outside the lock.
  mutable std::mutex mutex_;
  std::shared_ptr<Generation> gen_;
  std::uint64_t next_epoch_ = 1;
  FaultSpec spec_;
  std::uint64_t spec_version_ = 0;

  QueryOptions options_;
  std::uint64_t last_run_epoch_ = 0;  // query-thread only
  // Lazily created on the first parallel batch, then reused for the
  // engine's lifetime; idle workers park on a condition variable
  // (util::WorkerPool — the same parked pool the label builders use).
  std::unique_ptr<util::WorkerPool> pool_;
};

}  // namespace ftc::core
