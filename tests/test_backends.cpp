// Cross-backend parity: all three ConnectivityScheme backends, built
// through the factory, must agree with a brute-force BFS oracle on
// random graphs, random fault sets up to f, and both QueryOptions
// ablation switches. The dp21 backends run their full-support variants
// (the factory default), so every answer is deterministic given the
// seeds baked in here — no flaky whp failures.
#include <gtest/gtest.h>

#include <vector>

#include "core/connectivity_scheme.hpp"
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

class BackendParity : public ::testing::TestWithParam<BackendKind> {};

TEST_P(BackendParity, MatchesBfsOracleOnRandomGraphs) {
  const unsigned f = 4;
  const auto cfg = test_config(GetParam(), f);
  for (const std::uint64_t graph_seed : {11u, 12u, 13u}) {
    const Graph g = graph::random_connected(36, 90, graph_seed);
    const auto scheme = make_scheme(g, cfg);
    EXPECT_EQ(scheme->backend(), GetParam());
    EXPECT_EQ(scheme->num_vertices(), g.num_vertices());
    EXPECT_EQ(scheme->num_edges(), g.num_edges());
    EXPECT_GT(scheme->vertex_label_bits(), 0u);
    EXPECT_GT(scheme->edge_label_bits(), 0u);
    EXPECT_GE(scheme->total_label_bits(),
              g.num_edges() * scheme->edge_label_bits());

    SplitMix64 rng(1000 + graph_seed);
    for (int it = 0; it < 60; ++it) {
      std::vector<EdgeId> faults;
      const auto num_faults = rng.next_below(f + 1);
      for (unsigned i = 0; i < num_faults; ++i) {
        faults.push_back(static_cast<EdgeId>(rng.next_below(g.num_edges())));
      }
      const VertexId s =
          static_cast<VertexId>(rng.next_below(g.num_vertices()));
      const VertexId t =
          static_cast<VertexId>(rng.next_below(g.num_vertices()));
      const bool expected = graph::connected_avoiding(g, s, t, faults);
      EXPECT_EQ(scheme->connected(s, t, FaultSpec::edges(faults)), expected)
          << backend_name(GetParam()) << " graph_seed=" << graph_seed
          << " it=" << it;
    }
  }
}

TEST_P(BackendParity, QueryOptionAblationsAgree) {
  const unsigned f = 3;
  const Graph g = graph::random_connected(32, 72, 21);
  const auto scheme = make_scheme(g, test_config(GetParam(), f));
  SplitMix64 rng(77);
  for (int it = 0; it < 40; ++it) {
    std::vector<EdgeId> faults;
    const auto num_faults = 1 + rng.next_below(f);
    for (unsigned i = 0; i < num_faults; ++i) {
      faults.push_back(static_cast<EdgeId>(rng.next_below(g.num_edges())));
    }
    const VertexId s = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    const VertexId t = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    const bool expected = graph::connected_avoiding(g, s, t, faults);
    for (const bool adaptive : {false, true}) {
      for (const bool smallest_cut : {false, true}) {
        QueryOptions options;
        options.adaptive = adaptive;
        options.smallest_cut_first = smallest_cut;
        EXPECT_EQ(scheme->connected(s, t, FaultSpec::edges(faults), options),
                  expected)
            << backend_name(GetParam()) << " adaptive=" << adaptive
            << " smallest_cut_first=" << smallest_cut << " it=" << it;
      }
    }
  }
}

TEST_P(BackendParity, PreparedFaultSetServesManyQueries) {
  const Graph g = graph::path_of_cliques(6, 5);
  const auto scheme = make_scheme(g, test_config(GetParam(), 3));
  SplitMix64 rng(5);
  std::vector<EdgeId> faults;
  for (int i = 0; i < 3; ++i) {
    faults.push_back(static_cast<EdgeId>(rng.next_below(g.num_edges())));
  }
  // Duplicates must collapse in the prepared set.
  faults.push_back(faults[0]);
  const auto fault_set = scheme->prepare_faults(FaultSpec::edges(faults));
  EXPECT_LE(fault_set->num_faults(), 3u);
  const auto workspace = scheme->make_workspace();
  for (int it = 0; it < 50; ++it) {
    const VertexId s = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    const VertexId t = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    const bool expected = graph::connected_avoiding(
        g, s, t, std::span<const EdgeId>(faults));
    EXPECT_EQ(scheme->query(s, t, *fault_set, *workspace), expected)
        << backend_name(GetParam()) << " it=" << it;
  }
}

TEST_P(BackendParity, RejectsOutOfRangeFaults) {
  const Graph g = graph::cycle(12);
  const auto scheme = make_scheme(g, test_config(GetParam(), 2));
  const std::vector<EdgeId> bad{g.num_edges()};
  EXPECT_THROW((void)scheme->prepare_faults(FaultSpec::edges(bad)),
               std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendParity,
                         ::testing::ValuesIn(kAllBackends),
                         backend_param_name);

TEST(BackendFactory, ParseBackendRoundTripsAndRejectsUnknown) {
  for (const BackendKind b : kAllBackends) {
    EXPECT_EQ(parse_backend(backend_name(b)), b);
  }
  EXPECT_EQ(parse_backend("ftc"), BackendKind::kCoreFtc);
  EXPECT_EQ(parse_backend("cycle"), BackendKind::kDp21CycleSpace);
  EXPECT_EQ(parse_backend("agm"), BackendKind::kDp21Agm);
  EXPECT_THROW(parse_backend("netfind-9000"), std::invalid_argument);
}

TEST(BackendFactory, SetFPropagatesToEveryBackendConfig) {
  SchemeConfig cfg;
  cfg.set_f(7);
  EXPECT_EQ(cfg.ftc.f, 7u);
  EXPECT_EQ(cfg.cycle.f, 7u);
  EXPECT_EQ(cfg.agm.f, 7u);
  EXPECT_EQ(cfg.f(), 7u);
}

}  // namespace
}  // namespace ftc::core
