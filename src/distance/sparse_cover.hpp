// Awerbuch-Peleg-style sparse covers: for a radius r and parameter k,
// a collection of clusters such that every ball B(v, r) is contained in
// some cluster and cluster radii stay below k*r, with cluster overlap
// governed by n^(1/k). These are the scale-structures behind the
// fault-tolerant approximate distance labeling of Corollary 1 (via the
// DP21 reduction the paper invokes).
#pragma once

#include <vector>

#include "distance/weighted_graph.hpp"

namespace ftc::distance {

struct Cluster {
  graph::VertexId center = graph::kNoVertex;
  Weight radius = 0;                      // achieved radius around center
  std::vector<graph::VertexId> vertices;  // sorted
};

struct SparseCover {
  std::vector<Cluster> clusters;
  // For every vertex, the id of a cluster containing its whole r-ball.
  std::vector<int> home_cluster;
  // All clusters containing each vertex.
  std::vector<std::vector<int>> memberships;

  double average_membership() const {
    std::size_t total = 0;
    for (const auto& m : memberships) total += m.size();
    return memberships.empty()
               ? 0.0
               : static_cast<double>(total) / memberships.size();
  }
};

// Builds a cover: ball growing stops as soon as the next layer grows the
// cluster by less than factor n^(1/k), so radii are below k*r and the
// measured overlap tracks n^(1/k) (reported by `bench_tables distance`).
SparseCover build_sparse_cover(const WeightedGraph& g, Weight r, unsigned k);

}  // namespace ftc::distance
