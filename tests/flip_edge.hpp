// Shared by the store-swap, sharded-store and remote-store suites: a
// one-edge content change to a built scheme, served from a resident view.
#pragma once

#include <cstddef>
#include <memory>

#include "core/connectivity_scheme.hpp"
#include "core/label_store.hpp"
#include "graph/graph.hpp"

namespace ftc::core {

// A copy of `scheme`'s labels (built over g) with every byte of edge
// `flip`'s blob inverted, served from a resident view — a one-shard
// content change. The copy goes through ResidentLabels::assign_edge_blobs,
// like every builder's labels. Only used to WRITE stores; the flipped
// edge is never queried or faulted.
inline std::unique_ptr<ConnectivityScheme> flip_edge(
    const ConnectivityScheme& scheme, const graph::Graph& g,
    graph::EdgeId flip) {
  const StoreView& view = *scheme.store_view();
  store::ResidentLabels labels;
  labels.backend = scheme.backend();
  const auto params = view.params_blob();
  labels.params.assign(params.begin(), params.end());
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto rec = view.vertex_blob(v);
    labels.vertex_records.insert(labels.vertex_records.end(), rec.begin(),
                                 rec.end());
  }
  labels.assign_edge_blobs(g.num_edges(), view.edge_blob(0).size());
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto blob = view.edge_blob(e);
    for (std::size_t i = 0; i < blob.size(); ++i) {
      labels.edge_blob(e)[i] = e == flip ? ~blob[i] : blob[i];
    }
  }
  return load_scheme(open_resident_view(std::move(labels), g));
}

}  // namespace ftc::core
