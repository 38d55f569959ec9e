// FtcScheme: builder of the deterministic / randomized f-FTC labeling
// schemes of Theorem 1 (wrap-up in Section 5):
//
//   1. fix a BFS spanning tree T of G;
//   2. build the auxiliary graph G' and tree T' (Section 3.2);
//   3. build an (S_{f,T'}, k)-good hierarchy of G' - T' edges (Lemma 5 or
//      Proposition 5);
//   4. for every level, compute Reed-Solomon k-threshold outdetect labels
//      and aggregate them into per-tree-edge subtree sums (Lemma 1);
//   5. attach ancestry labels (Lemma 7).
//
// The resulting labels are queried by the universal decoder in
// ftc_query.hpp, which never sees the graph.
#pragma once

#include <memory>
#include <span>

#include "core/config.hpp"
#include "core/ftc_labels.hpp"
#include "graph/graph.hpp"

namespace ftc::core {

namespace store {
struct ResidentLabels;  // label_store.hpp
}  // namespace store

struct BuildStats {
  unsigned k = 0;                   // sketch threshold used
  unsigned num_levels = 0;          // nonempty hierarchy levels
  unsigned field_bits = 0;
  std::uint32_t n_aux = 0;          // |V_{G'}|
  std::size_t hierarchy_edges = 0;  // sum of level sizes
  unsigned threads = 1;             // resolved build worker count
  // Wall-clock phase timings measured on the coordinating thread — NOT
  // summed per-worker CPU, so serial and parallel builds compare 1:1.
  double hierarchy_seconds = 0;
  double sketch_seconds = 0;
  double total_seconds = 0;
};

class FtcScheme {
 public:
  // Builds labels for the connected graph g. Throws std::invalid_argument
  // for disconnected inputs or graphs too large for the selected field.
  static FtcScheme build(const graph::Graph& g, const FtcConfig& config);

  FtcScheme(FtcScheme&&) noexcept;
  FtcScheme& operator=(FtcScheme&&) noexcept;
  ~FtcScheme();

  VertexLabel vertex_label(graph::VertexId v) const;
  EdgeLabel edge_label(graph::EdgeId e) const;

  graph::VertexId num_vertices() const;
  graph::EdgeId num_edges() const;
  const LabelParams& params() const;
  const BuildStats& build_stats() const;

  // Per hierarchy level: the level's edge population clamped to k — a
  // sound upper bound on any fragment boundary's size at that level
  // (boundaries are subsets of the level's edge set). Persisted by label
  // store format v2 and fed to PreparedFaults::prepare so the windowed
  // decode can shrink its capacity and fail-stop window per level. Since
  // format v4 it is also how many syndromes each level of an edge label
  // stores.
  std::span<const std::uint32_t> level_populations() const;

  // Hands the labels to a resident StoreView (open_resident_view in
  // label_store.hpp). They are built in container layout, so this moves
  // the buffers and copies no label; the scheme is empty afterwards.
  store::ResidentLabels release_labels() &&;

  // Size accounting (bits), matching the labels' size_bits().
  std::size_t vertex_label_bits() const;
  std::size_t edge_label_bits() const;
  std::size_t total_label_bits() const;

 private:
  struct Impl;
  explicit FtcScheme(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace ftc::core
