// End-to-end tests of the f-FTC labeling scheme (Theorem 1): every query
// answered from labels alone is checked against BFS ground truth, across
// graph families, scheme kinds, fault-set sizes and decoder options.
#include <gtest/gtest.h>

#include "core/ftc_query.hpp"
#include "core/ftc_scheme.hpp"
#include "core/label_store.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "util/common.hpp"

namespace ftc::core {
namespace {

using graph::EdgeId;
using graph::Graph;
using graph::VertexId;

// Runs random fault/query sweeps of scheme answers vs BFS ground truth.
void sweep_queries(const Graph& g, const FtcScheme& scheme, unsigned f,
                   int iterations, std::uint64_t seed,
                   const QueryOptions& options = {}) {
  SplitMix64 rng(seed);
  for (int it = 0; it < iterations; ++it) {
    const unsigned nf = rng.next_below(f + 1);
    std::vector<EdgeId> faults;
    std::vector<EdgeLabel> fault_labels;
    for (unsigned i = 0; i < nf; ++i) {
      const EdgeId e = static_cast<EdgeId>(rng.next_below(g.num_edges()));
      faults.push_back(e);
      fault_labels.push_back(scheme.edge_label(e));
    }
    const VertexId s = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    const VertexId t = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    const bool expect = graph::connected_avoiding(g, s, t, faults);
    const bool got =
        FtcDecoder::connected(scheme.vertex_label(s), scheme.vertex_label(t),
                              fault_labels, options);
    ASSERT_EQ(got, expect) << "s=" << s << " t=" << t << " faults=" << nf
                           << " it=" << it;
  }
}

struct SchemeCase {
  SchemeKind kind;
  const char* name;
};

class FtcSchemeTest : public ::testing::TestWithParam<SchemeCase> {};

INSTANTIATE_TEST_SUITE_P(
    Kinds, FtcSchemeTest,
    ::testing::Values(SchemeCase{SchemeKind::kDeterministic, "det"},
                      SchemeCase{SchemeKind::kRandomized, "rand"}),
    [](const auto& info) { return info.param.name; });

TEST_P(FtcSchemeTest, RandomGraphsRandomFaults) {
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const Graph g = graph::random_connected(40, 110, 4000 + seed);
    FtcConfig cfg;
    cfg.kind = GetParam().kind;
    cfg.f = 4;
    const FtcScheme scheme = FtcScheme::build(g, cfg);
    sweep_queries(g, scheme, 4, 60, 5000 + seed);
  }
}

TEST_P(FtcSchemeTest, StructuredGraphs) {
  const SchemeCase sc = GetParam();
  FtcConfig cfg;
  cfg.kind = sc.kind;
  cfg.f = 3;
  for (const Graph& g :
       {graph::grid(5, 8), graph::cycle(24), graph::hypercube(4),
        graph::barbell(5, 2), graph::path_of_cliques(4, 4)}) {
    const FtcScheme scheme = FtcScheme::build(g, cfg);
    sweep_queries(g, scheme, 3, 40, 777);
  }
}

TEST_P(FtcSchemeTest, TreeInput) {
  // No non-tree edges at all: every tree fault disconnects.
  FtcConfig cfg;
  cfg.kind = GetParam().kind;
  cfg.f = 3;
  const Graph g = graph::random_connected(30, 29, 8);
  const FtcScheme scheme = FtcScheme::build(g, cfg);
  sweep_queries(g, scheme, 3, 60, 999);
}

TEST(FtcScheme, DisconnectingCuts) {
  // Barbell: cutting the bridge path must separate the cliques.
  const Graph g = graph::barbell(6, 1);  // vertices 0..5, 6..11, mid 12
  FtcConfig cfg;
  cfg.f = 2;
  const FtcScheme scheme = FtcScheme::build(g, cfg);
  // Find the two bridge edges (those incident to vertex 12).
  std::vector<EdgeLabel> bridge;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (g.edge(e).u == 12 || g.edge(e).v == 12) {
      bridge.push_back(scheme.edge_label(e));
    }
  }
  ASSERT_EQ(bridge.size(), 2u);
  EXPECT_FALSE(FtcDecoder::connected(scheme.vertex_label(0),
                                     scheme.vertex_label(7), bridge));
  EXPECT_TRUE(FtcDecoder::connected(scheme.vertex_label(0),
                                    scheme.vertex_label(5), bridge));
  EXPECT_TRUE(FtcDecoder::connected(scheme.vertex_label(6),
                                    scheme.vertex_label(11), bridge));
  // Every path edge is itself a bridge: one alone already separates.
  EXPECT_FALSE(FtcDecoder::connected(scheme.vertex_label(0),
                                     scheme.vertex_label(7),
                                     std::span(&bridge[0], 1)));
  EXPECT_TRUE(FtcDecoder::connected(scheme.vertex_label(0),
                                    scheme.vertex_label(5),
                                    std::span(&bridge[0], 1)));
}

TEST(FtcScheme, EdgeCases) {
  const Graph g = graph::random_connected(20, 50, 42);
  FtcConfig cfg;
  cfg.f = 3;
  const FtcScheme scheme = FtcScheme::build(g, cfg);
  const auto s = scheme.vertex_label(3);
  // s == t, with and without faults.
  EXPECT_TRUE(FtcDecoder::connected(s, s, {}));
  std::vector<EdgeLabel> faults{scheme.edge_label(0), scheme.edge_label(1)};
  EXPECT_TRUE(FtcDecoder::connected(s, s, faults));
  // Empty fault set: connected graph.
  EXPECT_TRUE(FtcDecoder::connected(s, scheme.vertex_label(17), {}));
  // Duplicate fault labels are deduplicated.
  std::vector<EdgeLabel> dup{scheme.edge_label(5), scheme.edge_label(5),
                             scheme.edge_label(5)};
  std::vector<EdgeId> one{5};
  EXPECT_EQ(FtcDecoder::connected(s, scheme.vertex_label(9), dup),
            graph::connected_avoiding(g, 3, 9, one));
}

TEST(FtcScheme, AllIncidentEdgesFaulty) {
  // Cutting every edge around a vertex isolates it.
  const Graph g = graph::random_connected(25, 60, 77);
  const VertexId victim = 5;
  std::vector<EdgeId> faults(g.incident_edges(victim).begin(),
                             g.incident_edges(victim).end());
  FtcConfig cfg;
  cfg.f = static_cast<unsigned>(faults.size());
  const FtcScheme scheme = FtcScheme::build(g, cfg);
  std::vector<EdgeLabel> labels;
  for (const EdgeId e : faults) labels.push_back(scheme.edge_label(e));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (v == victim) continue;
    EXPECT_FALSE(FtcDecoder::connected(scheme.vertex_label(victim),
                                       scheme.vertex_label(v), labels));
  }
  // The rest of the graph may or may not stay connected; check oracle.
  for (VertexId v = 0; v < 5; ++v) {
    for (VertexId w = 6; w < 10; ++w) {
      EXPECT_EQ(FtcDecoder::connected(scheme.vertex_label(v),
                                      scheme.vertex_label(w), labels),
                graph::connected_avoiding(g, v, w, faults));
    }
  }
}

TEST(FtcScheme, ProvableModeSmallGraphExhaustive) {
  // With provable k, enumerate every fault pair and every vertex pair.
  const Graph g = graph::random_connected(10, 18, 3);
  FtcConfig cfg;
  cfg.f = 2;
  cfg.k_mode = KMode::kProvable;
  const FtcScheme scheme = FtcScheme::build(g, cfg);
  for (EdgeId e1 = 0; e1 < g.num_edges(); ++e1) {
    for (EdgeId e2 = e1; e2 < g.num_edges(); ++e2) {
      std::vector<EdgeId> faults{e1, e2};
      std::vector<EdgeLabel> labels{scheme.edge_label(e1),
                                    scheme.edge_label(e2)};
      for (VertexId s = 0; s < g.num_vertices(); ++s) {
        for (VertexId t = s + 1; t < g.num_vertices(); ++t) {
          ASSERT_EQ(FtcDecoder::connected(scheme.vertex_label(s),
                                          scheme.vertex_label(t), labels),
                    graph::connected_avoiding(g, s, t, faults))
              << "e1=" << e1 << " e2=" << e2 << " s=" << s << " t=" << t;
        }
      }
    }
  }
}

TEST(FtcScheme, DecoderOptionAblationsAgree) {
  const Graph g = graph::random_connected(35, 90, 55);
  FtcConfig cfg;
  cfg.f = 4;
  const FtcScheme scheme = FtcScheme::build(g, cfg);
  SplitMix64 rng(66);
  for (int it = 0; it < 50; ++it) {
    std::vector<EdgeId> faults;
    std::vector<EdgeLabel> labels;
    for (unsigned i = 0; i < 4; ++i) {
      const EdgeId e = static_cast<EdgeId>(rng.next_below(g.num_edges()));
      faults.push_back(e);
      labels.push_back(scheme.edge_label(e));
    }
    const VertexId s = static_cast<VertexId>(rng.next_below(35));
    const VertexId t = static_cast<VertexId>(rng.next_below(35));
    const bool expect = graph::connected_avoiding(g, s, t, faults);
    for (const bool adaptive : {true, false}) {
      for (const bool smallest : {true, false}) {
        QueryOptions opt;
        opt.adaptive = adaptive;
        opt.smallest_cut_first = smallest;
        EXPECT_EQ(FtcDecoder::connected(scheme.vertex_label(s),
                                        scheme.vertex_label(t), labels, opt),
                  expect)
            << "adaptive=" << adaptive << " smallest=" << smallest;
      }
    }
  }
}

TEST(FtcScheme, QueryStatsPopulated) {
  const Graph g = graph::path_of_cliques(5, 4);
  FtcConfig cfg;
  cfg.f = 4;
  const FtcScheme scheme = FtcScheme::build(g, cfg);
  // Fault the four bridges: fragments = 5.
  std::vector<EdgeLabel> labels;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& ed = g.edge(e);
    if (ed.u / 4 != ed.v / 4) labels.push_back(scheme.edge_label(e));
  }
  ASSERT_EQ(labels.size(), 4u);
  QueryStats stats;
  EXPECT_FALSE(FtcDecoder::connected(scheme.vertex_label(0),
                                     scheme.vertex_label(19), labels,
                                     QueryOptions{}, &stats));
  EXPECT_EQ(stats.fragments, 5u);
  // Bridges are tree edges, so every fragment sketch is zero: levels are
  // scanned but no sketch decode is ever needed.
  EXPECT_GT(stats.levels_scanned, 0u);
  EXPECT_EQ(stats.outdetect_calls, 0u);

  // On a cycle, faulting one tree edge splits the tree into two fragments
  // that only a non-tree edge reconnects: decoding must actually run.
  const Graph cyc = graph::cycle(12);
  FtcConfig cfg2;
  cfg2.f = 2;
  const FtcScheme scheme2 = FtcScheme::build(cyc, cfg2);
  std::vector<EdgeLabel> labels2{scheme2.edge_label(0)};  // edge (0, 1)
  QueryStats stats2;
  EXPECT_TRUE(FtcDecoder::connected(scheme2.vertex_label(0),
                                    scheme2.vertex_label(1), labels2,
                                    QueryOptions{}, &stats2));
  EXPECT_GT(stats2.outdetect_calls, 0u);
  EXPECT_GT(stats2.merges, 0u);
}

TEST(FtcScheme, GF128FieldForced) {
  const Graph g = graph::random_connected(30, 70, 21);
  FtcConfig cfg;
  cfg.f = 3;
  cfg.field = FieldKind::kGF128;
  const FtcScheme scheme = FtcScheme::build(g, cfg);
  EXPECT_EQ(scheme.params().field_bits, 128);
  sweep_queries(g, scheme, 3, 40, 2222);
}

TEST(FtcScheme, DeterministicSchemeBitReproducible) {
  const Graph g = graph::random_connected(30, 70, 13);
  FtcConfig cfg;
  cfg.f = 3;
  const FtcScheme a = FtcScheme::build(g, cfg);
  const FtcScheme b = FtcScheme::build(g, cfg);
  EXPECT_EQ(a.params(), b.params());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const EdgeLabel la = a.edge_label(e);
    const EdgeLabel lb = b.edge_label(e);
    EXPECT_EQ(la.upper, lb.upper);
    EXPECT_EQ(la.lower, lb.lower);
    EXPECT_EQ(la.sketch_words, lb.sketch_words);
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(a.vertex_label(v).anc, b.vertex_label(v).anc);
  }
}

TEST(FtcScheme, LabelSizeAccounting) {
  const Graph g = graph::random_connected(30, 70, 17);
  FtcConfig cfg;
  cfg.f = 2;
  const FtcScheme scheme = FtcScheme::build(g, cfg);
  const auto& p = scheme.params();
  EXPECT_EQ(scheme.vertex_label_bits(), 2 * p.coord_bits());
  // Level l stores min(k, pop_l) syndromes (container format v4).
  const auto pops = scheme.level_populations();
  ASSERT_EQ(pops.size(), p.num_levels);
  std::size_t stored = 0;
  for (const std::uint32_t pop : pops) stored += std::min(pop, p.k);
  EXPECT_EQ(scheme.edge_label_bits(),
            4 * p.coord_bits() + stored * p.field_bits);
  EXPECT_EQ(scheme.edge_label(0).size_bits(), scheme.edge_label_bits());
  EXPECT_EQ(scheme.edge_label(0).sketch_words.size(),
            stored * p.words_per_elem());
  // The container blob stores the same payload, with each of the four
  // endpoint coordinates widened to a full u32.
  EXPECT_EQ(store::core_edge_layout(p, pops).blob_bytes() * 8,
            scheme.edge_label_bits() + 4 * (32 - p.coord_bits()));
}

// A tree has no non-tree edge, so its one hierarchy level is empty: the
// level stores zero syndromes (an edge blob is its endpoint records
// only), and the decoder's level scan skips it without a decode.
TEST(FtcScheme, EmptyLevelStoresNothingAndIsSkipped) {
  const Graph g = graph::random_connected(12, 11, 5);  // a spanning tree
  FtcConfig cfg;
  cfg.f = 2;
  const FtcScheme scheme = FtcScheme::build(g, cfg);
  const auto& p = scheme.params();
  ASSERT_EQ(p.num_levels, 1u);
  const auto pops = scheme.level_populations();
  ASSERT_EQ(pops.size(), 1u);
  EXPECT_EQ(pops[0], 0u);
  EXPECT_GT(p.k, 0u);
  EXPECT_EQ(scheme.edge_label_bits(), 4 * p.coord_bits());
  EXPECT_EQ(store::core_edge_layout(p, pops).blob_bytes(),
            2 * store::kVertexRecordBytes);
  const EdgeLabel label = scheme.edge_label(0);
  EXPECT_TRUE(label.sketch_words.empty());
  EXPECT_EQ(label.level_widths, std::vector<std::uint32_t>{0});

  DecoderWorkspace ws;
  for (EdgeId a = 0; a < g.num_edges(); ++a) {
    const EdgeId b = (a + 5) % g.num_edges();
    const std::vector<EdgeId> faults{a, b};
    const std::vector<EdgeLabel> labels{scheme.edge_label(a),
                                        scheme.edge_label(b)};
    const PreparedFaults prepared = PreparedFaults::prepare(labels, pops);
    for (VertexId s = 0; s < g.num_vertices(); ++s) {
      const VertexId t = (s * 7 + 3) % g.num_vertices();
      QueryStats stats;
      EXPECT_EQ(FtcDecoder::connected(scheme.vertex_label(s),
                                      scheme.vertex_label(t), prepared, ws,
                                      {}, &stats),
                graph::connected_avoiding(g, s, t, faults))
          << "faults " << a << "," << b << " s=" << s << " t=" << t;
      EXPECT_EQ(stats.outdetect_calls, 0u);
    }
  }
}

TEST(FtcScheme, RejectsBadInputs) {
  Graph disconnected(4);
  disconnected.add_edge(0, 1);
  disconnected.add_edge(2, 3);
  EXPECT_THROW(FtcScheme::build(disconnected, FtcConfig{}),
               std::invalid_argument);
  // Mismatched labels from two different schemes.
  const Graph g1 = graph::random_connected(20, 40, 1);
  const Graph g2 = graph::random_connected(24, 50, 2);
  const FtcScheme s1 = FtcScheme::build(g1, FtcConfig{});
  const FtcScheme s2 = FtcScheme::build(g2, FtcConfig{});
  std::vector<EdgeLabel> mixed{s2.edge_label(0)};
  EXPECT_THROW(FtcDecoder::connected(s1.vertex_label(0), s1.vertex_label(1),
                                     mixed),
               std::invalid_argument);
}

TEST(FtcScheme, SingleVertexAndTinyGraphs) {
  Graph g1(1);
  const FtcScheme s1 = FtcScheme::build(g1, FtcConfig{});
  EXPECT_TRUE(FtcDecoder::connected(s1.vertex_label(0), s1.vertex_label(0), {}));

  Graph g2(2);
  g2.add_edge(0, 1);
  FtcConfig cfg;
  cfg.f = 1;
  const FtcScheme s2 = FtcScheme::build(g2, cfg);
  std::vector<EdgeLabel> f{s2.edge_label(0)};
  EXPECT_FALSE(FtcDecoder::connected(s2.vertex_label(0), s2.vertex_label(1), f));
  EXPECT_TRUE(FtcDecoder::connected(s2.vertex_label(0), s2.vertex_label(1), {}));
}

TEST(FtcScheme, FaultsBeyondFStillSupported) {
  // Appendix B: the construction is universal in f; larger fault sets keep
  // working as long as sketch capacity suffices (it does at these sizes).
  const Graph g = graph::random_connected(30, 80, 91);
  FtcConfig cfg;
  cfg.f = 2;
  cfg.k_scale = 6.0;
  const FtcScheme scheme = FtcScheme::build(g, cfg);
  sweep_queries(g, scheme, 6, 40, 3333);
}

}  // namespace
}  // namespace ftc::core
