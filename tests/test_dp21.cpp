// Tests for the Dory-Parter baselines: the cycle-space scheme (whp /
// full-support variants) and the AGM-sketch scheme, built and queried
// through make_scheme like every other backend. The whp variants are set
// explicitly (the factory defaults to full support). Their guarantees are
// probabilistic, so sweeps assert exact agreement with ground truth on
// fixed seeds (any failure here means a fixed-seed regression, not bad
// luck: the per-query failure probability at these parameters is ~2^-60).
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/connectivity_scheme.hpp"
#include "core/ftc_labels.hpp"
#include "core/label_store.hpp"
#include "dp21/agm_ftc.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "util/common.hpp"

namespace ftc::dp21 {
namespace {

using core::BackendKind;
using core::FaultSpec;
using core::SchemeConfig;
using graph::EdgeId;
using graph::Graph;
using graph::VertexId;

SchemeConfig cycle_config(const CycleSpaceConfig& cycle) {
  SchemeConfig cfg;
  cfg.backend = BackendKind::kDp21CycleSpace;
  cfg.cycle = cycle;
  return cfg;
}

SchemeConfig agm_config(const AgmFtcConfig& agm) {
  SchemeConfig cfg;
  cfg.backend = BackendKind::kDp21Agm;
  cfg.agm = agm;
  return cfg;
}

bool connected(const core::ConnectivityScheme& scheme, VertexId s, VertexId t,
               const std::vector<EdgeId>& faults) {
  return scheme.connected(s, t, FaultSpec::edges(faults));
}

TEST(CycleSpaceFtc, RandomSweepsMatchGroundTruth) {
  SplitMix64 rng(71);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Graph g = graph::random_connected(40, 110, 6000 + seed);
    CycleSpaceConfig cfg;
    cfg.f = 4;
    cfg.full_support = false;
    cfg.seed = 99 + seed;
    const auto scheme = core::make_scheme(g, cycle_config(cfg));
    for (int it = 0; it < 80; ++it) {
      const unsigned nf = rng.next_below(5);
      std::vector<EdgeId> faults;
      for (unsigned i = 0; i < nf; ++i) {
        faults.push_back(static_cast<EdgeId>(rng.next_below(g.num_edges())));
      }
      const VertexId s = static_cast<VertexId>(rng.next_below(40));
      const VertexId t = static_cast<VertexId>(rng.next_below(40));
      ASSERT_EQ(connected(*scheme, s, t, faults),
                graph::connected_avoiding(g, s, t, faults))
          << "seed=" << seed << " it=" << it;
    }
  }
}

TEST(CycleSpaceFtc, StructuredGraphs) {
  SplitMix64 rng(72);
  for (const Graph& g : {graph::cycle(20), graph::grid(4, 7),
                         graph::barbell(5, 2), graph::hypercube(4)}) {
    CycleSpaceConfig cfg;
    cfg.f = 3;
    cfg.full_support = false;
    const auto scheme = core::make_scheme(g, cycle_config(cfg));
    for (int it = 0; it < 50; ++it) {
      const unsigned nf = rng.next_below(4);
      std::vector<EdgeId> faults;
      for (unsigned i = 0; i < nf; ++i) {
        faults.push_back(static_cast<EdgeId>(rng.next_below(g.num_edges())));
      }
      const VertexId s = static_cast<VertexId>(rng.next_below(g.num_vertices()));
      const VertexId t = static_cast<VertexId>(rng.next_below(g.num_vertices()));
      ASSERT_EQ(connected(*scheme, s, t, faults),
                graph::connected_avoiding(g, s, t, faults));
    }
  }
}

TEST(CycleSpaceFtc, NonTreeOnlyFaultsKeepTreeConnectivity) {
  const Graph g = graph::cycle(10);
  CycleSpaceConfig cfg;
  cfg.f = 1;
  cfg.full_support = false;
  const auto scheme = core::make_scheme(g, cycle_config(cfg));
  // Find the single non-tree edge (the BFS tree misses exactly one) from
  // the tree flag of the built edge blobs.
  const auto view = scheme->store_view();
  core::store::ByteReader pr(view->params_blob());
  const core::store::CycleParams params = core::store::decode_cycle_params(pr);
  std::vector<EdgeId> faults;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    core::store::ByteReader r(view->edge_blob(e));
    if (!core::store::decode_cycle_edge(r, params).is_tree) faults.push_back(e);
  }
  ASSERT_EQ(faults.size(), 1u);
  for (VertexId v = 1; v < 10; ++v) {
    EXPECT_TRUE(connected(*scheme, 0, v, faults));
  }
}

TEST(CycleSpaceFtc, LabelSizesTrackVariant) {
  const Graph g = graph::random_connected(64, 160, 5);
  CycleSpaceConfig whp;
  whp.f = 4;
  whp.full_support = false;
  CycleSpaceConfig full = whp;
  full.full_support = true;
  const auto a = core::make_scheme(g, cycle_config(whp));
  const auto b = core::make_scheme(g, cycle_config(full));
  const auto vector_bits = [](const core::ConnectivityScheme& scheme) {
    core::store::ByteReader r(scheme.store_view()->params_blob());
    return core::store::decode_cycle_params(r).vector_bits;
  };
  // whp: O(f + log n) bits; full: O(f log n) bits.
  EXPECT_LT(vector_bits(*a), vector_bits(*b));
  EXPECT_EQ(a->vertex_label_bits(), 2 * 6u);  // ceil(log2 64) = 6 per coord
  EXPECT_GT(a->edge_label_bits(), vector_bits(*a));
}

TEST(AgmFtc, RandomSweepsMatchGroundTruth) {
  SplitMix64 rng(73);
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const Graph g = graph::random_connected(35, 90, 7000 + seed);
    AgmFtcConfig cfg;
    cfg.f = 3;
    cfg.full_support = false;
    cfg.seed = 1000 + seed;
    cfg.scale = 2.0;
    const auto scheme = core::make_scheme(g, agm_config(cfg));
    int correct = 0;
    const int total = 60;
    for (int it = 0; it < total; ++it) {
      const unsigned nf = rng.next_below(4);
      std::vector<EdgeId> faults;
      for (unsigned i = 0; i < nf; ++i) {
        faults.push_back(static_cast<EdgeId>(rng.next_below(g.num_edges())));
      }
      const VertexId s = static_cast<VertexId>(rng.next_below(35));
      const VertexId t = static_cast<VertexId>(rng.next_below(35));
      if (connected(*scheme, s, t, faults) ==
          graph::connected_avoiding(g, s, t, faults)) {
        ++correct;
      }
    }
    // whp semantics: allow a tiny slack, but expect near-perfect.
    EXPECT_GE(correct, total - 1) << "seed " << seed;
  }
}

TEST(AgmFtc, DisconnectionDetected) {
  const Graph g = graph::barbell(5, 1);
  AgmFtcConfig cfg;
  cfg.f = 2;
  cfg.full_support = false;
  const auto scheme = core::make_scheme(g, agm_config(cfg));
  std::vector<EdgeId> faults;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (g.edge(e).u == 10 || g.edge(e).v == 10) faults.push_back(e);
  }
  ASSERT_EQ(faults.size(), 2u);
  EXPECT_FALSE(connected(*scheme, 0, 6, faults));
  EXPECT_TRUE(connected(*scheme, 0, 4, faults));
}

TEST(AgmFtc, FullSupportUsesMoreBits) {
  const Graph g = graph::random_connected(40, 100, 9);
  AgmFtcConfig whp;
  whp.f = 4;
  whp.full_support = false;
  AgmFtcConfig full = whp;
  full.full_support = true;
  const auto a = core::make_scheme(g, agm_config(whp));
  const auto b = core::make_scheme(g, agm_config(full));
  EXPECT_GT(b->edge_label_bits(), a->edge_label_bits());
  EXPECT_GE(b->edge_label_bits() /
                std::max<std::size_t>(a->edge_label_bits(), 1),
            3u);  // roughly (f+1)x
}

// A sampled edge must have exactly one endpoint in the set being grown.
// On the path 0-1-2-3-4-5 (no non-tree edges, so every honest fault
// sketch is empty) a fault label is hand-edited to hold one forged edge
// ID: first one inside the source's fragment, then one joining two other
// fragments. Both forged samples used to end the growth with "false";
// each is now refused with the typed capacity error.
TEST(AgmFtc, UncertifiedSamplesAreRefused) {
  Graph g(6);
  for (VertexId v = 0; v + 1 < 6; ++v) g.add_edge(v, v + 1);  // edge v
  AgmFtcConfig cfg;
  cfg.f = 2;
  cfg.reps_override = 4;
  const core::store::ResidentLabels labels = AgmFtc::build(g, cfg);
  core::store::ByteReader pr(labels.params);
  const core::store::AgmParams params = core::store::decode_agm_params(pr);
  const auto vertex = [&](VertexId v) {
    return AgmVertexLabel{core::store::decode_vertex_record_at(
        labels.vertex_records.data() + v * core::store::kVertexRecordBytes)};
  };
  const auto edge = [&](EdgeId e) {
    core::store::ByteReader r({labels.edge_blob(e), labels.edge_blob_bytes});
    return core::store::decode_agm_edge(r, params);
  };
  // The builder's edge ID: the two ancestry labels, lower tin first.
  const auto forged = [&](VertexId x, VertexId y) {
    graph::AncestryLabel a = vertex(x).anc;
    graph::AncestryLabel b = vertex(y).anc;
    if (b.tin < a.tin) std::swap(a, b);
    return sketch::PackedId{a.tin | (std::uint64_t{a.tout} << 32),
                            b.tin | (std::uint64_t{b.tout} << 32)};
  };
  AgmFtc::Workspace ws;

  // Fault 1-2: fragments {0, 1} and {2, ..., 5}.
  std::vector<AgmEdgeLabel> faults{edge(1)};
  EXPECT_FALSE(AgmFtc::connected(vertex(0), vertex(5),
                                 AgmFtc::Prepared::prepare(faults), ws));
  faults[0].sketch.toggle(forged(0, 1));  // does not cross
  const auto inside = AgmFtc::Prepared::prepare(faults);
  EXPECT_TRUE(AgmFtc::connected(vertex(0), vertex(1), inside, ws));
  EXPECT_THROW(AgmFtc::connected(vertex(0), vertex(5), inside, ws),
               core::FtcCapacityError);

  // Faults 1-2 and 3-4: fragments {0, 1}, {2, 3} and {4, 5}.
  faults = {edge(1), edge(3)};
  EXPECT_FALSE(AgmFtc::connected(vertex(0), vertex(5),
                                 AgmFtc::Prepared::prepare(faults), ws));
  faults[0].sketch.toggle(forged(2, 4));  // joins the two other fragments
  EXPECT_THROW(AgmFtc::connected(vertex(0), vertex(5),
                                 AgmFtc::Prepared::prepare(faults), ws),
               core::FtcCapacityError);
}

}  // namespace
}  // namespace ftc::dp21
