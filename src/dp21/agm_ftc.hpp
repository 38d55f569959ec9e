// Baseline: the second Dory-Parter scheme (PODC'21) — the sketch-based
// construction the paper de-randomizes. Identical framework to the
// deterministic scheme (auxiliary graph, ancestry labels, subtree
// aggregation, fragment merging) but the outdetect engine is the
// randomized AGM l0-sampler: no sparsification hierarchy is needed since
// the sampler's internal geometric levels handle any boundary size, and
// correctness is "with high probability" (label O(log^3 n) whp; the
// full-support variant multiplies repetitions by f, giving O(f log^3 n)).
// Labels exist only as container blobs (core/label_store.hpp), written
// in place by build() and read in place by Prepared::Builder; a vertex
// label is its ancestry record.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/ancestry.hpp"
#include "graph/fragments.hpp"
#include "graph/graph.hpp"
#include "graph/union_find.hpp"

namespace ftc::core::store {
struct AgmParams;       // core/label_store.hpp
struct ResidentLabels;  // core/label_store.hpp
}  // namespace ftc::core::store

namespace ftc::dp21 {

struct AgmFtcConfig {
  unsigned f = 2;
  bool full_support = false;  // multiply repetitions by (f + 1)
  double scale = 1.0;         // multiplier on the log n repetition count
  unsigned reps_override = 0;
  std::uint64_t seed = 1;
  // Build worker threads (at least 1); byte-identical
  // labels for any value (sketch toggles/merges are XOR-commutative).
  unsigned build_threads = 1;
};

class AgmFtc {
 public:
  // Builds the labels of the connected graph g straight into container
  // layout (core/label_store.hpp): the params blob, one vertex record per
  // vertex and one edge blob per edge, written in place.
  static core::store::ResidentLabels build(const graph::Graph& g,
                                           const AgmFtcConfig& config);

  // Immutable per-fault-set session state: deduplicated faults, the
  // fragment locator of T' - sigma(F), and every fragment's initial
  // sketch as one flat word row (Proposition 4). Built once; any number
  // of threads may query against the same Prepared concurrently.
  class Prepared {
   public:
    // Assembles a fault set from up to `capacity` edge blobs: add()
    // copies the lower endpoint record (the subtree side in T') and the
    // sketch words (the subtree XOR of vertex sketches) into buffers
    // reserved up front, so it allocates nothing and may run under a
    // SIGBUS guard. A blob of the wrong size throws core::StoreError.
    // Duplicate edges are fine; finish() keeps one of each.
    class Builder {
     public:
      Builder(const core::store::AgmParams& params, std::size_t capacity);
      void add(std::span<const std::uint8_t> blob);
      Prepared finish() &&;

     private:
      std::size_t blob_bytes_ = 0;
      std::size_t words_ = 0;  // sketch words per fault
      std::uint64_t seed_ = 0;
      std::vector<std::pair<std::uint32_t, std::uint32_t>> intervals_;
      std::vector<std::uint64_t> sketch_;  // capacity * words_
    };

    bool trivial() const { return num_frag_ == 0; }  // empty fault set
    // Faults added to the builder, duplicates included.
    std::size_t num_faults() const { return num_faults_; }

   private:
    Prepared() = default;
    friend class AgmFtc;

    graph::FragmentLocator loc_{
        std::vector<std::pair<std::uint32_t, std::uint32_t>>{}};
    int num_frag_ = 0;
    std::size_t num_faults_ = 0;
    std::uint64_t seed_ = 0;
    std::size_t words_per_frag_ = 0;
    std::vector<std::uint64_t> frag_words_;  // num_frag_ * words_per_frag_
  };

  // Reusable per-thread scratch: the mutable fragment-sketch rows the
  // source-first growth merges into (seeded from Prepared at query
  // start; buffers are recycled so steady-state queries allocate
  // nothing), plus the union-find forest. NOT thread-safe; one workspace
  // per worker thread. The AGM sketches are the largest per-query state
  // of any backend, which is why this backend gains the most from
  // workspace reuse.
  class Workspace {
   private:
    friend class AgmFtc;
    std::vector<std::uint64_t> frag_words_;
    graph::UnionFind uf_{0};
  };

  // Session decoder: the batch-engine hot path; correct whp over the
  // sketch hash seeds. A sampled edge that does not have exactly one
  // endpoint in the set being grown throws core::FtcCapacityError (a
  // typed refusal, never a guess).
  static bool connected(const graph::AncestryLabel& s,
                        const graph::AncestryLabel& t,
                        const Prepared& prepared, Workspace& workspace);
};

}  // namespace ftc::dp21
