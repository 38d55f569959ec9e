// A content change to a built scheme, for the store tests and the serving
// bench: a copy of the scheme's labels with some edge blobs inverted.
// Test and bench support only; the library never includes it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <vector>

#include "core/connectivity_scheme.hpp"
#include "core/label_store.hpp"
#include "graph/graph.hpp"
#include "util/common.hpp"

namespace ftc::test_support {

// A copy of `scheme`'s labels (built over g) with every byte of the blobs
// of `flips` (sorted) inverted, served from a resident view: the cheapest
// way to dirty exactly the shards that own those edges. The copy goes
// through ResidentLabels::assign_edge_blobs, like every builder's labels.
// Only used to WRITE stores; a flipped edge must never be queried or
// faulted.
inline std::unique_ptr<core::ConnectivityScheme> flip_edges(
    const core::ConnectivityScheme& scheme, const graph::Graph& g,
    const std::vector<graph::EdgeId>& flips) {
  FTC_REQUIRE(std::is_sorted(flips.begin(), flips.end()),
              "flip_edges needs a sorted edge list");
  const core::StoreView& view = *scheme.store_view();
  core::store::ResidentLabels labels;
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
    const bool flip = std::binary_search(flips.begin(), flips.end(), e);
    for (std::size_t i = 0; i < blob.size(); ++i) {
      labels.edge_blob(e)[i] = flip ? ~blob[i] : blob[i];
    }
  }
  return core::load_scheme(core::open_resident_view(std::move(labels), g));
}

}  // namespace ftc::test_support
