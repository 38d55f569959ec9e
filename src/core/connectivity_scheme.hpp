// ConnectivityScheme: one polymorphic interface over the repo's three
// f-FTC label constructions — this paper's deterministic/randomized
// FtcScheme (core/ftc_scheme.*), the Dory-Parter cycle-space scheme and
// the Dory-Parter AGM-sketch scheme (dp21/*). Section 1.4: any f-FTC
// labeling scheme doubles as a centralized oracle; this interface is the
// shape of that oracle (connected() for one query, BatchQueryEngine in
// batch_engine.hpp for sessions), so every backend can sit behind the
// same facade and be benchmarked head-to-head.
//
// A scheme is its StoreView (label_store.hpp): the base class holds the
// view, and every accessor — dimensions, label sizes, adjacency,
// prefetch, store_view() — is a non-virtual read of it. Each backend has
// exactly one scheme class, made only by load_scheme(view); make_scheme()
// builds the labels into a resident view, and files and sharded stores
// are served the same way. Persisting a scheme copies container bytes
// straight out of its view, so the only virtuals are the three backend
// hooks: make_workspace, prepare_edge_faults and query_edges.
//
// The fault model is a first-class value type (fault_spec.hpp): a
// FaultSpec names faulty edges AND faulty vertices, canonicalized once.
// The vertex -> incident-edges reduction (label cost Delta * f — the
// reduction the paper's open-problems section wants to beat) lives HERE,
// in the base class, over the view's CSR adjacency side-table: backends
// only ever see deduplicated edge faults, and any scheme that can name
// its adjacency — built schemes and format-v2 label stores alike —
// serves vertex and mixed faults identically. Schemes without adjacency
// (format-v1 stores) throw the typed CapabilityError.
//
// The query path is split into the three stages every backend shares:
//   1. prepare_faults — reduce vertex faults to incident edges, then
//      materialize the deduplicated fault-edge labels once per fault set
//      (immutable; concurrent reads are safe);
//   2. make_workspace — per-thread decode scratch, reused across queries;
//   3. query — answer one (s, t) pair against a prepared fault set.
// connected() bundles the three for one-shot use.
//
// Backends implement the protected hooks (prepare_edge_faults /
// query_edges); the public entry points are non-virtual so fault-model
// semantics (endpoint deletion, the reduction, validation) are identical
// across every backend and every serving path.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "core/fault_spec.hpp"
#include "core/ftc_query.hpp"
#include "dp21/agm_ftc.hpp"
#include "dp21/cycle_space_ftc.hpp"
#include "graph/graph.hpp"

namespace ftc::core {

class DeletionJournal;  // journal.hpp
class StoreView;        // label_store.hpp

class ConnectivityScheme {
 public:
  // A materialized, deduplicated fault set. Immutable after creation:
  // any number of threads may query against the same FaultSet. Carries
  // the deleted vertices of its FaultSpec so query() can apply the
  // endpoint-deletion rule uniformly across backends.
  class FaultSet {
   public:
    virtual ~FaultSet() = default;
    // Deduplicated fault-edge labels materialized (vertex faults count
    // through their incident edges after the reduction).
    virtual std::size_t num_faults() const = 0;
    // The deleted vertices themselves (sorted, unique).
    std::span<const graph::VertexId> vertex_faults() const {
      return vertex_faults_;
    }

   private:
    std::vector<graph::VertexId> vertex_faults_;
    friend class ConnectivityScheme;
  };

  // Per-thread decode scratch. Not thread-safe; reuse across queries on
  // the owning thread to amortize allocation.
  class Workspace {
   public:
    virtual ~Workspace() = default;
  };

  virtual ~ConnectivityScheme() = default;

  // Backend and dimensions, cached from the view's header.
  BackendKind backend() const { return backend_; }
  std::string_view name() const { return backend_name(backend()); }

  graph::VertexId num_vertices() const { return num_vertices_; }
  graph::EdgeId num_edges() const { return num_edges_; }

  // Label-size accounting in bits, per label and for the whole scheme
  // (the centralized-oracle space bound of Section 1.4).
  std::size_t vertex_label_bits() const;
  std::size_t edge_label_bits() const;
  std::size_t total_label_bits() const {
    return static_cast<std::size_t>(num_vertices()) * vertex_label_bits() +
           static_cast<std::size_t>(num_edges()) * edge_label_bits();
  }

  // Whether the view carries the incidence lists the vertex-fault
  // reduction reads (StoreView::adjacency_append); format-v1 label stores
  // do not. Vertex-fault capability is exactly this.
  bool has_adjacency() const;

  // Warm-up hook: maps any lazily-opened label backing (the shards of a
  // sharded store), so the first query afterwards pays no cold-open
  // cliff. threads = 0 lets the backing pick its fan-out. Idempotent,
  // safe concurrently with queries. Forwards to StoreView::prefetch (a
  // no-op for resident and single-container views) and surfaces its
  // typed StoreError on a corrupt backing.
  void prefetch(unsigned threads = 0) const;

  // The view the labels are served from (label_store.hpp): the resident
  // view of a freshly built scheme, or a store's file-backed view. Never
  // null. The writers (save(), save_sharded, digest_container) copy the
  // container bytes straight out of it, and swap paths use it to adopt
  // the current generation's already-mapped shards when installing a
  // delta-pushed manifest (sharded_store.hpp).
  const std::shared_ptr<const StoreView>& store_view() const { return view_; }

  // Validates the spec's IDs against this scheme's dimensions
  // (std::invalid_argument on out-of-range), reduces vertex faults to
  // their incident edges (CapabilityError if !has_adjacency() and the
  // spec names vertices), folds in any attached deletion journal
  // (CapacityError when the merged set exceeds the journal's fault
  // budget), and materializes the deduplicated fault-edge labels once.
  std::unique_ptr<FaultSet> prepare_faults(const FaultSpec& spec) const;

  // Per-thread decode scratch for query(); a backend hook.
  virtual std::unique_ptr<Workspace> make_workspace() const = 0;

  // s-t connectivity in G - F. `faults` must come from this scheme's
  // prepare_faults and `workspace` from its make_workspace. A vertex is
  // connected to itself even when deleted; a deleted endpoint is
  // disconnected from everything else. QueryOptions drives the core-FTC
  // ablation switches; the dp21 backends have no such switches and
  // ignore it.
  bool query(graph::VertexId s, graph::VertexId t, const FaultSet& faults,
             Workspace& workspace, const QueryOptions& options = {}) const;

  // One-shot convenience: prepare + query with a throwaway workspace.
  bool connected(graph::VertexId s, graph::VertexId t, const FaultSpec& spec,
                 const QueryOptions& options = {}) const;

  // ------------------------------------------------------------- journal
  // Journaled deletions (journal.hpp): once attached, prepare_faults
  // folds the journal's edge set into every fault set it prepares — a
  // deleted edge is a permanent fault, so queries answer as if those
  // edges never existed, from the unchanged labels. Attached by the
  // load paths when a "<store>.jrnl" sidecar accompanies the artifact;
  // freshly built schemes normally carry none.
  void attach_journal(std::shared_ptr<const DeletionJournal> journal) {
    journal_ = std::move(journal);
  }
  const DeletionJournal* journal() const { return journal_.get(); }

  // ----------------------------------------------------------- persistence
  // Writes the whole scheme as one versioned container file (atomically:
  // a temp file is renamed into place), copying the labels straight out
  // of store_view(). Format v4; includes the adjacency side-table iff
  // has_adjacency(), so saved schemes keep their vertex-fault
  // capability. Implemented in label_store.cpp; load it back with
  // load_scheme(). Throws StoreError on I/O failure, and StoreIoError
  // (DegradedError for a sharded view) when the backing file was
  // truncated or replaced behind the mapping.
  void save(const std::string& path) const;

 protected:
  // Only the per-backend scheme classes behind load_scheme() construct
  // a scheme (label_store.cpp).
  explicit ConnectivityScheme(std::shared_ptr<const StoreView> view);

  // Backend hooks. `edge_faults` arrives validated, sorted and
  // deduplicated (vertex faults already reduced to incident edges);
  // `query_edges` never sees a deleted endpoint (the base class resolves
  // those) and its fault set/workspace downcasts are backend-local.
  virtual std::unique_ptr<FaultSet> prepare_edge_faults(
      std::span<const graph::EdgeId> edge_faults) const = 0;
  virtual bool query_edges(graph::VertexId s, graph::VertexId t,
                           const FaultSet& faults, Workspace& workspace,
                           const QueryOptions& options) const = 0;

 private:
  std::shared_ptr<const StoreView> view_;
  BackendKind backend_;
  graph::VertexId num_vertices_;
  graph::EdgeId num_edges_;
  // Journaled deletions folded into every prepared fault set (null when
  // no journal is attached). Shared: generations of a serving session
  // may reference the same journal.
  std::shared_ptr<const DeletionJournal> journal_;
};

// Per-backend build knobs, bundled so one config object can drive any
// backend. set_f() is the common knob: the fault budget every backend
// must support.
struct SchemeConfig {
  BackendKind backend = BackendKind::kCoreFtc;
  FtcConfig ftc;                // BackendKind::kCoreFtc
  dp21::CycleSpaceConfig cycle;  // BackendKind::kDp21CycleSpace
  dp21::AgmFtcConfig agm;       // BackendKind::kDp21Agm

  SchemeConfig() {
    // Cross-backend default: full-support variants, so all backends are
    // correct on every fault set of size <= f (the whp variants only
    // promise correctness per fixed fault set).
    cycle.full_support = true;
    agm.full_support = true;
  }

  unsigned f() const { return ftc.f; }
  SchemeConfig& set_f(unsigned f) {
    ftc.f = f;
    cycle.f = f;
    agm.f = f;
    return *this;
  }
  SchemeConfig& set_seed(std::uint64_t seed) {
    ftc.seed = seed;
    cycle.seed = seed;
    agm.seed = seed;
    return *this;
  }
  // Build worker threads for every backend, at least 1 (0 is rejected
  // at build). Purely a wall-clock knob: any value yields byte-identical
  // labels.
  unsigned build_threads() const { return ftc.build_threads; }
  SchemeConfig& set_build_threads(unsigned threads) {
    ftc.build_threads = threads;
    cycle.build_threads = threads;
    agm.build_threads = threads;
    return *this;
  }
};

// Factory: build the labeling selected by config.backend for g and serve
// it from a resident view carrying g's incidence lists as its adjacency
// side-table (label_store.hpp). Throws std::invalid_argument on
// disconnected inputs (all backends require a connected graph).
std::unique_ptr<ConnectivityScheme> make_scheme(const graph::Graph& g,
                                                const SchemeConfig& config);

// CLI helper: "core-ftc" / "dp21-cycle" / "dp21-agm" (plus the short
// aliases "ftc", "cycle", "agm") -> BackendKind. Throws on anything else.
BackendKind parse_backend(std::string_view name);

}  // namespace ftc::core
