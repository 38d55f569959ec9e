// Property-based and metamorphic tests of the f-FTC scheme beyond direct
// ground-truth comparison: invariances the decoder must satisfy for any
// input, plus end-to-end coverage of the remaining configuration corners
// (greedy-net hierarchy = the Lemma 10 slot, provable randomized mode,
// forced GF(2^128), dense graphs).
#include <gtest/gtest.h>

#include "core/ftc_query.hpp"
#include "core/ftc_scheme.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "util/common.hpp"

namespace ftc::core {
namespace {

using graph::EdgeId;
using graph::Graph;
using graph::VertexId;

std::vector<EdgeLabel> labels_of(const FtcScheme& s,
                                 std::span<const EdgeId> faults) {
  std::vector<EdgeLabel> out;
  for (const EdgeId e : faults) out.push_back(s.edge_label(e));
  return out;
}

TEST(FtcProperties, GreedyHierarchyEndToEnd) {
  // SchemeKind::kDeterministicGreedy drives the poly(n) Lemma 10 slot;
  // cluster sizes are capped by the greedy net's input limit, so test on
  // small graphs only.
  SplitMix64 rng(91);
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const Graph g = graph::random_connected(30, 70, 8800 + seed);
    FtcConfig cfg;
    cfg.f = 3;
    cfg.kind = SchemeKind::kDeterministicGreedy;
    const FtcScheme scheme = FtcScheme::build(g, cfg);
    for (int it = 0; it < 40; ++it) {
      std::vector<EdgeId> faults;
      const auto num_faults = rng.next_below(4);
      for (unsigned i = 0; i < num_faults; ++i) {
        faults.push_back(static_cast<EdgeId>(rng.next_below(g.num_edges())));
      }
      const VertexId s = static_cast<VertexId>(rng.next_below(30));
      const VertexId t = static_cast<VertexId>(rng.next_below(30));
      ASSERT_EQ(FtcDecoder::connected(scheme.vertex_label(s),
                                      scheme.vertex_label(t),
                                      labels_of(scheme, faults)),
                graph::connected_avoiding(g, s, t, faults));
    }
  }
}

TEST(FtcProperties, AnswersAgreeAcrossFields) {
  // The same graph labeled over GF(2^64) and GF(2^128) must answer every
  // query identically.
  const Graph g = graph::random_connected(35, 90, 63);
  FtcConfig c64;
  c64.f = 3;
  c64.field = FieldKind::kGF64;
  FtcConfig c128 = c64;
  c128.field = FieldKind::kGF128;
  const FtcScheme a = FtcScheme::build(g, c64);
  const FtcScheme b = FtcScheme::build(g, c128);
  ASSERT_EQ(a.params().field_bits, 64);
  ASSERT_EQ(b.params().field_bits, 128);
  SplitMix64 rng(92);
  for (int it = 0; it < 60; ++it) {
    std::vector<EdgeId> faults;
    const auto num_faults = rng.next_below(4);
    for (unsigned i = 0; i < num_faults; ++i) {
      faults.push_back(static_cast<EdgeId>(rng.next_below(g.num_edges())));
    }
    const VertexId s = static_cast<VertexId>(rng.next_below(35));
    const VertexId t = static_cast<VertexId>(rng.next_below(35));
    EXPECT_EQ(FtcDecoder::connected(a.vertex_label(s), a.vertex_label(t),
                                    labels_of(a, faults)),
              FtcDecoder::connected(b.vertex_label(s), b.vertex_label(t),
                                    labels_of(b, faults)));
  }
}

TEST(FtcProperties, SymmetryInEndpoints) {
  const Graph g = graph::random_connected(30, 75, 64);
  FtcConfig cfg;
  cfg.f = 3;
  const FtcScheme scheme = FtcScheme::build(g, cfg);
  SplitMix64 rng(93);
  for (int it = 0; it < 60; ++it) {
    std::vector<EdgeId> faults;
    for (unsigned i = 0; i < 3; ++i) {
      faults.push_back(static_cast<EdgeId>(rng.next_below(g.num_edges())));
    }
    const auto fl = labels_of(scheme, faults);
    const VertexId s = static_cast<VertexId>(rng.next_below(30));
    const VertexId t = static_cast<VertexId>(rng.next_below(30));
    EXPECT_EQ(FtcDecoder::connected(scheme.vertex_label(s),
                                    scheme.vertex_label(t), fl),
              FtcDecoder::connected(scheme.vertex_label(t),
                                    scheme.vertex_label(s), fl));
  }
}

TEST(FtcProperties, DuplicatingFaultsIsIdempotent) {
  const Graph g = graph::random_connected(30, 75, 65);
  FtcConfig cfg;
  cfg.f = 3;
  const FtcScheme scheme = FtcScheme::build(g, cfg);
  SplitMix64 rng(94);
  for (int it = 0; it < 60; ++it) {
    std::vector<EdgeId> faults;
    const auto num_faults = 1 + rng.next_below(3);
    for (unsigned i = 0; i < num_faults; ++i) {
      faults.push_back(static_cast<EdgeId>(rng.next_below(g.num_edges())));
    }
    std::vector<EdgeId> doubled = faults;
    doubled.insert(doubled.end(), faults.begin(), faults.end());
    const VertexId s = static_cast<VertexId>(rng.next_below(30));
    const VertexId t = static_cast<VertexId>(rng.next_below(30));
    EXPECT_EQ(FtcDecoder::connected(scheme.vertex_label(s),
                                    scheme.vertex_label(t),
                                    labels_of(scheme, faults)),
              FtcDecoder::connected(scheme.vertex_label(s),
                                    scheme.vertex_label(t),
                                    labels_of(scheme, doubled)));
  }
}

TEST(FtcProperties, RemovingFaultsIsMonotone) {
  // Connectivity can only improve when a fault is healed.
  const Graph g = graph::random_connected(28, 64, 66);
  FtcConfig cfg;
  cfg.f = 4;
  const FtcScheme scheme = FtcScheme::build(g, cfg);
  SplitMix64 rng(95);
  for (int it = 0; it < 50; ++it) {
    std::vector<EdgeId> faults;
    for (unsigned i = 0; i < 4; ++i) {
      faults.push_back(static_cast<EdgeId>(rng.next_below(g.num_edges())));
    }
    const VertexId s = static_cast<VertexId>(rng.next_below(28));
    const VertexId t = static_cast<VertexId>(rng.next_below(28));
    const bool full = FtcDecoder::connected(scheme.vertex_label(s),
                                            scheme.vertex_label(t),
                                            labels_of(scheme, faults));
    for (std::size_t drop = 0; drop < faults.size(); ++drop) {
      std::vector<EdgeId> fewer;
      for (std::size_t i = 0; i < faults.size(); ++i) {
        if (i != drop) fewer.push_back(faults[i]);
      }
      const bool sub = FtcDecoder::connected(scheme.vertex_label(s),
                                             scheme.vertex_label(t),
                                             labels_of(scheme, fewer));
      if (full) EXPECT_TRUE(sub) << "healing a fault disconnected s-t";
    }
  }
}

TEST(FtcProperties, ProvableRandomizedMode) {
  const Graph g = graph::random_connected(24, 60, 67);
  FtcConfig cfg;
  cfg.f = 2;
  cfg.kind = SchemeKind::kRandomized;
  cfg.k_mode = KMode::kProvable;  // k = 5 f log n (Proposition 5)
  const FtcScheme scheme = FtcScheme::build(g, cfg);
  EXPECT_GE(scheme.params().k, geometry::randomized_hierarchy_k(2, 24));
  SplitMix64 rng(96);
  for (int it = 0; it < 40; ++it) {
    std::vector<EdgeId> faults;
    const auto num_faults = rng.next_below(3);
    for (unsigned i = 0; i < num_faults; ++i) {
      faults.push_back(static_cast<EdgeId>(rng.next_below(g.num_edges())));
    }
    const VertexId s = static_cast<VertexId>(rng.next_below(24));
    const VertexId t = static_cast<VertexId>(rng.next_below(24));
    ASSERT_EQ(FtcDecoder::connected(scheme.vertex_label(s),
                                    scheme.vertex_label(t),
                                    labels_of(scheme, faults)),
              graph::connected_avoiding(g, s, t, faults));
  }
}

TEST(FtcProperties, DenseGraphsAndLargeFaultSets) {
  // Complete graph: any f < n-1 faults leave it connected; hypercube with
  // targeted dimension cuts.
  const Graph kn = graph::complete(12);
  FtcConfig cfg;
  cfg.f = 8;
  cfg.k_scale = 2.0;
  const FtcScheme ks = FtcScheme::build(kn, cfg);
  SplitMix64 rng(97);
  for (int it = 0; it < 30; ++it) {
    std::vector<EdgeId> faults;
    for (unsigned i = 0; i < 8; ++i) {
      faults.push_back(static_cast<EdgeId>(rng.next_below(kn.num_edges())));
    }
    const VertexId s = static_cast<VertexId>(rng.next_below(12));
    const VertexId t = static_cast<VertexId>(rng.next_below(12));
    ASSERT_EQ(FtcDecoder::connected(ks.vertex_label(s), ks.vertex_label(t),
                                    labels_of(ks, faults)),
              graph::connected_avoiding(kn, s, t, faults));
  }

  const Graph hc = graph::hypercube(4);
  FtcConfig hcfg;
  hcfg.f = 4;
  const FtcScheme hs = FtcScheme::build(hc, hcfg);
  // Cut all 4 edges around vertex 0: isolates it exactly.
  std::vector<EdgeId> cut(hc.incident_edges(0).begin(),
                          hc.incident_edges(0).end());
  for (VertexId v = 1; v < hc.num_vertices(); ++v) {
    EXPECT_FALSE(FtcDecoder::connected(hs.vertex_label(0), hs.vertex_label(v),
                                       labels_of(hs, cut)));
  }
  EXPECT_TRUE(FtcDecoder::connected(hs.vertex_label(1), hs.vertex_label(15),
                                    labels_of(hs, cut)));
}

}  // namespace
}  // namespace ftc::core
