// Tests for a labeling scheme used as a centralized oracle (Section 1.4):
// edge-fault queries, the vertex-fault reduction and batch queries
// through a session. (Corrupt-input robustness of the label codecs is
// covered by the StoreCodec and LabelStoreAdversarial suites.)
#include <gtest/gtest.h>

#include <memory>

#include "core/batch_engine.hpp"
#include "core/connectivity_scheme.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "util/common.hpp"

namespace ftc::core {
namespace {

using graph::EdgeId;
using graph::Graph;
using graph::VertexId;

// Ground truth for vertex deletions: components of the graph without the
// faulty vertices' incident edges; deleted vertices isolated.
bool brute_vertex_fault_connected(const Graph& g, VertexId s, VertexId t,
                                  std::span<const VertexId> faults) {
  if (s == t) return true;
  for (const VertexId v : faults) {
    if (v == s || v == t) return false;
  }
  std::vector<EdgeId> dead;
  for (const VertexId v : faults) {
    for (const EdgeId e : g.incident_edges(v)) dead.push_back(e);
  }
  return graph::connected_avoiding(g, s, t, dead);
}

// The paper's own scheme behind the backend-agnostic factory.
std::unique_ptr<ConnectivityScheme> core_oracle(const Graph& g,
                                                const FtcConfig& config) {
  SchemeConfig sc;
  sc.backend = BackendKind::kCoreFtc;
  sc.ftc = config;
  return make_scheme(g, sc);
}

TEST(SchemeAsOracle, EdgeFaultsMatchGroundTruth) {
  const Graph g = graph::random_connected(40, 100, 17);
  FtcConfig cfg;
  cfg.f = 4;
  const auto oracle = core_oracle(g, cfg);
  SplitMix64 rng(5);
  for (int it = 0; it < 80; ++it) {
    std::vector<EdgeId> faults;
    const auto num_faults = rng.next_below(5);
    for (unsigned i = 0; i < num_faults; ++i) {
      faults.push_back(static_cast<EdgeId>(rng.next_below(g.num_edges())));
    }
    const VertexId s = static_cast<VertexId>(rng.next_below(40));
    const VertexId t = static_cast<VertexId>(rng.next_below(40));
    EXPECT_EQ(oracle->connected(s, t, FaultSpec::edges(faults)),
              graph::connected_avoiding(g, s, t, faults));
  }
  EXPECT_GT(oracle->total_label_bits(), 0u);
}

TEST(SchemeAsOracle, VertexFaultReduction) {
  const Graph g = graph::random_connected(30, 75, 19);
  // Capacity must cover Delta * f_v incident edges; be generous.
  FtcConfig cfg;
  cfg.f = 12;
  cfg.k_scale = 2.0;
  const auto oracle = core_oracle(g, cfg);
  SplitMix64 rng(6);
  for (int it = 0; it < 60; ++it) {
    std::vector<VertexId> faults;
    const auto num_faults = 1 + rng.next_below(2);
    for (unsigned i = 0; i < num_faults; ++i) {
      faults.push_back(static_cast<VertexId>(rng.next_below(30)));
    }
    const VertexId s = static_cast<VertexId>(rng.next_below(30));
    const VertexId t = static_cast<VertexId>(rng.next_below(30));
    EXPECT_EQ(oracle->connected(s, t, FaultSpec::vertices(faults)),
              brute_vertex_fault_connected(g, s, t, faults))
        << "it=" << it;
  }
}

TEST(SchemeAsOracle, VertexFaultEndpointRules) {
  const Graph g = graph::cycle(8);
  FtcConfig cfg;
  cfg.f = 4;
  const auto oracle = core_oracle(g, cfg);
  const std::vector<VertexId> fault{3};
  EXPECT_FALSE(oracle->connected(3, 5, FaultSpec::vertices(fault)));
  EXPECT_FALSE(oracle->connected(5, 3, FaultSpec::vertices(fault)));
  EXPECT_TRUE(oracle->connected(3, 3, FaultSpec::vertices(fault)));
  // Cutting one cycle vertex leaves the rest connected.
  EXPECT_TRUE(oracle->connected(2, 4, FaultSpec::vertices(fault)));
  EXPECT_THROW(oracle->connected(0, 1, FaultSpec::vertices(
                   std::vector<VertexId>{99})),
               std::invalid_argument);
}

TEST(SchemeAsOracle, ArticulationVertexDisconnects) {
  // Two triangles sharing vertex 2: deleting it separates them.
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  g.add_edge(4, 2);
  FtcConfig cfg;
  cfg.f = 6;
  const auto oracle = core_oracle(g, cfg);
  const std::vector<VertexId> cut{2};
  EXPECT_FALSE(oracle->connected(0, 3, FaultSpec::vertices(cut)));
  EXPECT_TRUE(oracle->connected(0, 1, FaultSpec::vertices(cut)));
  EXPECT_TRUE(oracle->connected(3, 4, FaultSpec::vertices(cut)));
}

TEST(SchemeAsOracle, BatchMatchesSingleQueries) {
  const Graph g = graph::random_connected(32, 80, 23);
  FtcConfig cfg;
  cfg.f = 3;
  const auto oracle = core_oracle(g, cfg);
  std::vector<EdgeId> faults{1, 17, 42};
  std::vector<BatchQueryEngine::Query> queries;
  SplitMix64 rng(7);
  for (int i = 0; i < 25; ++i) {
    queries.push_back({static_cast<VertexId>(rng.next_below(32)),
                       static_cast<VertexId>(rng.next_below(32))});
  }
  BatchQueryEngine session(*oracle, FaultSpec::edges(faults));
  const auto results = session.run_sequential(queries);
  ASSERT_EQ(results.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(results[i], oracle->connected(queries[i].s, queries[i].t,
                                           FaultSpec::edges(faults)));
  }
}

}  // namespace
}  // namespace ftc::core
