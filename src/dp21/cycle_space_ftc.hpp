// Baseline: the first Dory-Parter scheme (PODC'21), built on cycle-space
// sampling in the style of Pritchard-Thurimella — the randomized scheme
// whose label size O(f + log n) (whp) / O(f log n) (full support) the
// paper's Table 1 compares against.
//
// Every non-tree edge draws a random bit-vector lambda(e). A tree edge's
// label aggregates the lambdas of all non-tree edges whose fundamental
// cycle crosses it, so for any fragment union S the XOR of cut-edge labels
// equals the XOR of lambda over the non-tree edges leaving S. A fragment
// union is closed in G - F iff its vector is zero (whp), and the
// connected components of the fragment graph are recovered as the
// co-occurrence classes of the GF(2) kernel of the fragment-vector matrix.
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

namespace ftc::core::store {
struct CycleParams;     // core/label_store.hpp
struct ResidentLabels;  // core/label_store.hpp
}  // namespace ftc::core::store

namespace ftc::dp21 {

struct CycleSpaceConfig {
  unsigned f = 2;
  // full_support = false: b = scale * (f + log2 n) bits (whp variant);
  // true: b = scale * f * log2 n bits (full-support variant).
  bool full_support = false;
  double scale = 2.0;
  unsigned bits_override = 0;
  std::uint64_t seed = 1;
  // Build worker threads (at least 1); byte-identical
  // labels for any value (the RNG pass stays serial in edge-ID order).
  unsigned build_threads = 1;
};

class CycleSpaceFtc {
 public:
  // Builds the labels of the connected graph g straight into container
  // layout (core/label_store.hpp): the params blob, one vertex record per
  // vertex and one edge blob per edge, written in place.
  static core::store::ResidentLabels build(const graph::Graph& g,
                                           const CycleSpaceConfig& config);

  // Per-fault-set session state, built once and shared by any number of
  // queries (and threads — it is immutable after prepare). Everything
  // the decoder derives from the fault labels is (s, t)-independent
  // here: the fragment locator AND the GF(2) kernel of the
  // fragment-vector matrix, so a query is just two fragment locations
  // plus one bit comparison per kernel vector.
  class Prepared {
   public:
    // Assembles a fault set from up to `capacity` edge blobs: add()
    // copies the tree flag, both endpoint records (a tree edge's upper,
    // then lower in T) and the vector words (a tree edge's XOR of lambda
    // over the non-tree edges crossing it, a non-tree edge's own lambda)
    // into buffers reserved up front, so it allocates nothing and may
    // run under a SIGBUS guard. A blob of the wrong size or with a tree
    // flag above 1 throws core::StoreError. Duplicate edges are fine;
    // finish() keeps one of each.
    class Builder {
     public:
      Builder(const core::store::CycleParams& params, std::size_t capacity);
      void add(std::span<const std::uint8_t> blob);
      Prepared finish() &&;

     private:
      struct Row {
        bool is_tree = false;
        graph::AncestryLabel a;
        graph::AncestryLabel b;
      };
      std::size_t blob_bytes_ = 0;
      std::size_t words_ = 0;  // vector words per fault
      std::vector<Row> rows_;
      std::vector<std::uint64_t> vec_;  // capacity * words_
    };

    // True when the spanning tree survives (no tree fault): every query
    // answers "connected" without touching the locator.
    bool trivial() const { return trivial_; }
    // Faults added to the builder, duplicates included.
    std::size_t num_faults() const { return num_faults_; }

   private:
    Prepared() = default;
    friend class CycleSpaceFtc;

    bool trivial_ = true;
    std::size_t num_faults_ = 0;
    graph::FragmentLocator loc_{
        std::vector<std::pair<std::uint32_t, std::uint32_t>>{}};
    // Kernel combos over fragments: two fragments are connected in G - F
    // iff they agree on every kernel vector (whp).
    std::vector<std::vector<std::uint64_t>> kernel_;
  };

  // Session decoder: the batch-engine hot path. Correct with high
  // probability over the sampled lambdas (one-sided: "connected" answers
  // are always correct, a "disconnected" answer is wrong only on a lambda
  // collision).
  static bool connected(const graph::AncestryLabel& s,
                        const graph::AncestryLabel& t,
                        const Prepared& prepared);
};

}  // namespace ftc::dp21
