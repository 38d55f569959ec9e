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
#include "dp21/cycle_space_ftc.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "sketch/agm_sketch.hpp"
#include "util/common.hpp"
#include "util/xor_kernel.hpp"

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
  // the tree flag of the built edge blobs: a fault set of one non-tree
  // edge leaves the spanning tree whole.
  const auto view = scheme->store_view();
  core::store::ByteReader pr(view->params_blob());
  const core::store::CycleParams params = core::store::decode_cycle_params(pr);
  std::vector<EdgeId> faults;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    CycleSpaceFtc::Prepared::Builder builder(params, 1);
    builder.add(view->edge_blob(e));
    if (std::move(builder).finish().trivial()) faults.push_back(e);
  }
  ASSERT_EQ(faults.size(), 1u);
  for (VertexId v = 1; v < 10; ++v) {
    EXPECT_TRUE(connected(*scheme, 0, v, faults));
  }
}

// Two parallel non-tree edges are two faults, not one fault listed
// twice. With both of them and the other two edges at vertex 2 faulty,
// vertex 2 is cut off; deduplicating non-tree faults by endpoint pair
// alone left one parallel edge's lambda in the cut and answered
// "connected".
TEST(CycleSpaceFtc, ParallelNonTreeFaultsAreDistinct) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  const EdgeId a = g.add_edge(1, 2);
  const EdgeId b = g.add_edge(1, 2);
  CycleSpaceConfig cfg;
  cfg.f = 4;
  const auto scheme = core::make_scheme(g, cycle_config(cfg));
  const std::vector<EdgeId> faults{1, 3, a, b};
  ASSERT_FALSE(graph::connected_avoiding(g, 0, 2, faults));
  EXPECT_FALSE(connected(*scheme, 0, 2, faults));
  EXPECT_TRUE(connected(*scheme, 0, 3, faults));
}

// The flags byte of a dp21-cycle edge blob is 0 (non-tree) or 1 (tree
// edge); the fault-set builder refuses anything else, and a blob of the
// wrong size, with StoreError.
TEST(CycleSpaceFtc, BuilderRefusesBadTreeFlag) {
  const Graph g = graph::cycle(10);
  CycleSpaceConfig cfg;
  cfg.f = 1;
  const core::store::ResidentLabels labels = CycleSpaceFtc::build(g, cfg);
  core::store::ByteReader pr(labels.params);
  const core::store::CycleParams params = core::store::decode_cycle_params(pr);
  std::vector<std::uint8_t> blob(labels.edge_blob(0),
                                 labels.edge_blob(0) + labels.edge_blob_bytes);
  for (const int flag : {0, 1}) {
    blob[0] = static_cast<std::uint8_t>(flag);
    CycleSpaceFtc::Prepared::Builder builder(params, 1);
    EXPECT_NO_THROW(builder.add(blob)) << flag;
  }
  blob[0] = 2;
  CycleSpaceFtc::Prepared::Builder builder(params, 2);
  EXPECT_THROW(builder.add(blob), core::StoreError);
  EXPECT_THROW(builder.add(std::span<const std::uint8_t>(blob).first(
                   blob.size() - 1)),
               core::StoreError);
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
// sketch is empty) a copy of a fault's edge blob is hand-edited to hold
// one forged edge ID in its sketch words: first one inside the source's
// fragment, then one joining two other fragments. Both forged samples
// used to end the growth with "false"; each is now refused with the
// typed capacity error.
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
    return core::store::decode_vertex_record_at(
        labels.vertex_records.data() + v * core::store::kVertexRecordBytes);
  };
  using Blob = std::vector<std::uint8_t>;
  const auto edge = [&](EdgeId e) {
    return Blob(labels.edge_blob(e),
                labels.edge_blob(e) + labels.edge_blob_bytes);
  };
  const auto prepare = [&](const std::vector<Blob>& faults) {
    AgmFtc::Prepared::Builder builder(params, faults.size());
    for (const Blob& blob : faults) builder.add(blob);
    return std::move(builder).finish();
  };
  // The builder's edge ID: the two ancestry labels, lower tin first,
  // toggled into every repetition of the blob's sketch words as
  // AgmSketch::toggle would.
  const auto toggle_forged = [&](Blob& blob, VertexId x, VertexId y) {
    graph::AncestryLabel a = vertex(x);
    graph::AncestryLabel b = vertex(y);
    if (b.tin < a.tin) std::swap(a, b);
    const sketch::PackedId id{a.tin | (std::uint64_t{a.tout} << 32),
                              b.tin | (std::uint64_t{b.tout} << 32)};
    const std::uint64_t fp =
        sketch::AgmSketch::fingerprint(id.lo, id.hi, params.seed);
    std::uint8_t* words = core::store::agm_edge_sketch_words(blob.data());
    for (unsigned r = 0; r < params.reps; ++r) {
      const std::size_t c =
          sketch::AgmSketch::cell_offset(id, r, params.levels, params.seed);
      xor_le_word(words, c, id.lo);
      xor_le_word(words, c + 1, id.hi);
      xor_le_word(words, c + 2, fp);
    }
  };
  AgmFtc::Workspace ws;

  // Fault 1-2: fragments {0, 1} and {2, ..., 5}.
  std::vector<Blob> faults{edge(1)};
  EXPECT_FALSE(AgmFtc::connected(vertex(0), vertex(5), prepare(faults), ws));
  toggle_forged(faults[0], 0, 1);  // does not cross
  const auto inside = prepare(faults);
  EXPECT_TRUE(AgmFtc::connected(vertex(0), vertex(1), inside, ws));
  EXPECT_THROW(AgmFtc::connected(vertex(0), vertex(5), inside, ws),
               core::FtcCapacityError);

  // Faults 1-2 and 3-4: fragments {0, 1}, {2, 3} and {4, 5}.
  faults = {edge(1), edge(3)};
  EXPECT_FALSE(AgmFtc::connected(vertex(0), vertex(5), prepare(faults), ws));
  toggle_forged(faults[0], 2, 4);  // joins the two other fragments
  EXPECT_THROW(AgmFtc::connected(vertex(0), vertex(5), prepare(faults), ws),
               core::FtcCapacityError);
}

}  // namespace
}  // namespace ftc::dp21
