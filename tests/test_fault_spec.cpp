// The FaultSpec fault model: canonicalization, endpoint-deletion rules,
// the vertex -> incident-edges reduction over the view's adjacency, typed
// capability errors, and the dp21 session plumbing (Prepared fault-set
// state + reusable workspaces) that backs it.
#include <gtest/gtest.h>

#include <vector>

#include "core/batch_engine.hpp"
#include "core/connectivity_scheme.hpp"
#include "core/label_store.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "store_fixture.hpp"
#include "util/common.hpp"

namespace ftc::core {
namespace {

using graph::EdgeId;
using graph::Graph;
using graph::VertexId;
using test_support::backend_param_name;
using test_support::test_config;

TEST(FaultSpec, CanonicalizesOnce) {
  const std::vector<EdgeId> edges{7, 3, 7, 7, 1, 3};
  const std::vector<VertexId> vertices{9, 2, 9};
  const FaultSpec spec = FaultSpec::of(edges, vertices);
  EXPECT_EQ(std::vector<EdgeId>(spec.edge_faults().begin(),
                                spec.edge_faults().end()),
            (std::vector<EdgeId>{1, 3, 7}));
  EXPECT_EQ(std::vector<VertexId>(spec.vertex_faults().begin(),
                                  spec.vertex_faults().end()),
            (std::vector<VertexId>{2, 9}));
  EXPECT_TRUE(spec.has_vertex_faults());
  EXPECT_FALSE(spec.empty());
  EXPECT_EQ(spec.size(), 5u);

  EXPECT_TRUE(FaultSpec{}.empty());
  EXPECT_FALSE(FaultSpec{}.has_vertex_faults());
  EXPECT_FALSE(FaultSpec::edges(edges).has_vertex_faults());
  EXPECT_EQ(FaultSpec::vertices(vertices).size(), 2u);
}

TEST(FaultSpec, CapabilityErrorIsTypedAndBackCompatible) {
  // The typed error still satisfies pre-FaultSpec catch sites.
  EXPECT_THROW(throw CapabilityError("x"), std::invalid_argument);
}

// A built scheme's adjacency is its resident view's CSR side-table; its
// incidence order is pinned to Graph::incident_edges (the order a save()
// writes).
TEST(ResidentAdjacencyTest, MatchesGraphIncidence) {
  const Graph g = graph::barbell(5, 2);
  const auto scheme = make_scheme(g, test_config(BackendKind::kCoreFtc, 2));
  ASSERT_TRUE(scheme->has_adjacency());
  const StoreView& view = *scheme->store_view();
  ASSERT_EQ(view.info().num_vertices, g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(view.adjacency_degree(v), g.degree(v));
    std::vector<EdgeId> got;
    view.adjacency_append(v, got);
    const auto want = g.incident_edges(v);
    EXPECT_EQ(got, std::vector<EdgeId>(want.begin(), want.end()));
  }
}

class FaultModel : public ::testing::TestWithParam<BackendKind> {};

TEST_P(FaultModel, EndpointDeletionRules) {
  const Graph g = graph::cycle(8);
  const auto scheme = make_scheme(g, test_config(GetParam(), 6));
  ASSERT_TRUE(scheme->has_adjacency());
  const auto spec = FaultSpec::vertices(std::vector<VertexId>{3});
  EXPECT_FALSE(scheme->connected(3, 5, spec));
  EXPECT_FALSE(scheme->connected(5, 3, spec));
  EXPECT_TRUE(scheme->connected(3, 3, spec));  // connected to itself
  // Cutting one cycle vertex leaves the rest connected.
  EXPECT_TRUE(scheme->connected(2, 4, spec));
}

TEST_P(FaultModel, MixedFaultsMatchGroundTruthThroughEveryEntryPoint) {
  const Graph g = graph::random_connected(28, 70, 19);
  const auto scheme = make_scheme(g, test_config(GetParam(), 14));
  SplitMix64 rng(6);
  for (int it = 0; it < 25; ++it) {
    std::vector<VertexId> vf;
    const auto num_vf = 1 + rng.next_below(2);
    for (unsigned i = 0; i < num_vf; ++i) {
      vf.push_back(static_cast<VertexId>(rng.next_below(g.num_vertices())));
    }
    std::vector<EdgeId> ef;
    const auto num_ef = rng.next_below(3);
    for (unsigned i = 0; i < num_ef; ++i) {
      ef.push_back(static_cast<EdgeId>(rng.next_below(g.num_edges())));
    }
    const auto spec = FaultSpec::of(ef, vf);
    const auto s = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    const auto t = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    const bool expected = graph::connected_avoiding(g, s, t, ef, vf);
    EXPECT_EQ(scheme->connected(s, t, spec), expected) << "it=" << it;

    // Session path: prepared fault set + reused workspace.
    const auto fault_set = scheme->prepare_faults(spec);
    const auto workspace = scheme->make_workspace();
    EXPECT_EQ(scheme->query(s, t, *fault_set, *workspace), expected)
        << "it=" << it;
  }
}

// One workspace serving many fault sets in arbitrary interleaving must
// answer exactly like throwaway workspaces — the dp21 backends now keep
// real mutable per-query state there (the AGM fragment sketches).
TEST_P(FaultModel, WorkspaceReuseAcrossFaultSetsIsExact) {
  const Graph g = graph::path_of_cliques(5, 4);
  const auto scheme = make_scheme(g, test_config(GetParam(), 6));
  SplitMix64 rng(11);

  std::vector<std::unique_ptr<ConnectivityScheme::FaultSet>> fault_sets;
  std::vector<FaultSpec> specs;
  for (int i = 0; i < 4; ++i) {
    std::vector<EdgeId> ef;
    const auto num_ef = 1 + rng.next_below(3);
    for (unsigned j = 0; j < num_ef; ++j) {
      ef.push_back(static_cast<EdgeId>(rng.next_below(g.num_edges())));
    }
    std::vector<VertexId> vf;
    if (i % 2 == 1) {
      vf.push_back(static_cast<VertexId>(rng.next_below(g.num_vertices())));
    }
    specs.push_back(FaultSpec::of(ef, vf));
    fault_sets.push_back(scheme->prepare_faults(specs.back()));
  }

  const auto shared = scheme->make_workspace();
  for (int it = 0; it < 60; ++it) {
    const std::size_t which = rng.next_below(fault_sets.size());
    const auto s = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    const auto t = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    const bool with_shared =
        scheme->query(s, t, *fault_sets[which], *shared);
    const auto fresh = scheme->make_workspace();
    EXPECT_EQ(with_shared, scheme->query(s, t, *fault_sets[which], *fresh))
        << "it=" << it << " which=" << which;
    EXPECT_EQ(with_shared, scheme->connected(s, t, specs[which]))
        << "it=" << it << " which=" << which;
  }
}

TEST_P(FaultModel, NumFaultsCountsReducedEdges) {
  // Star: deleting the center takes down every edge.
  Graph g(5);
  for (VertexId v = 1; v < 5; ++v) g.add_edge(0, v);
  g.add_edge(1, 2);  // keep it 2-edge-connected enough to build
  const auto scheme = make_scheme(g, test_config(GetParam(), 6));
  const auto fs =
      scheme->prepare_faults(FaultSpec::vertices(std::vector<VertexId>{0}));
  EXPECT_EQ(fs->vertex_faults().size(), 1u);
  EXPECT_GE(fs->num_faults(), 1u);  // the 4 incident edges, deduplicated
  // The reduction and an explicit edge list collapse to the same set.
  const auto fs2 = scheme->prepare_faults(
      FaultSpec::of(std::vector<EdgeId>{0, 1, 2, 3},
                    std::vector<VertexId>{0}));
  EXPECT_EQ(fs2->num_faults(), fs->num_faults());
}

INSTANTIATE_TEST_SUITE_P(AllBackends, FaultModel,
                         ::testing::ValuesIn(kAllBackends),
                         backend_param_name);

}  // namespace
}  // namespace ftc::core
