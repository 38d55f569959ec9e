// BatchQueryEngine invariants: the sequential session, the parallel
// fan-out and one-shot single queries must return identical answers (and
// match the BFS ground truth), across all three backends, including the
// edge cases — empty batches, empty fault sets, duplicate faults and
// s == t queries.
#include <gtest/gtest.h>

#include <vector>

#include "core/batch_engine.hpp"
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

std::vector<BatchQueryEngine::Query> random_queries(const Graph& g, int count,
                                                    SplitMix64& rng) {
  std::vector<BatchQueryEngine::Query> queries;
  queries.reserve(count);
  for (int i = 0; i < count; ++i) {
    queries.push_back(
        {static_cast<VertexId>(rng.next_below(g.num_vertices())),
         static_cast<VertexId>(rng.next_below(g.num_vertices()))});
  }
  // Sprinkle in s == t pairs: always connected, whatever the faults.
  for (int i = 0; i < count / 8; ++i) {
    const auto v = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    queries.push_back({v, v});
  }
  return queries;
}

class BatchEngine : public ::testing::TestWithParam<BackendKind> {};

TEST_P(BatchEngine, ParallelMatchesSequentialMatchesSingle) {
  const Graph g = graph::random_connected(40, 100, 31);
  const auto scheme = make_scheme(g, test_config(GetParam(), 4));
  SplitMix64 rng(9);
  for (int round = 0; round < 4; ++round) {
    std::vector<EdgeId> faults;
    const auto num_faults = rng.next_below(5);
    for (unsigned i = 0; i < num_faults; ++i) {
      faults.push_back(static_cast<EdgeId>(rng.next_below(g.num_edges())));
    }
    BatchQueryEngine engine(*scheme, FaultSpec::edges(faults));
    const auto queries = random_queries(g, 80, rng);

    const auto sequential = engine.run_sequential(queries);
    const auto parallel = engine.run_parallel(queries, 4);
    ASSERT_EQ(sequential.size(), queries.size());
    ASSERT_EQ(parallel.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const bool expected = graph::connected_avoiding(
          g, queries[i].s, queries[i].t, faults);
      EXPECT_EQ(sequential[i], expected)
          << backend_name(GetParam()) << " round=" << round << " i=" << i;
      EXPECT_EQ(parallel[i], static_cast<bool>(sequential[i]))
          << backend_name(GetParam()) << " round=" << round << " i=" << i;
      EXPECT_EQ(engine.connected(queries[i].s, queries[i].t),
                static_cast<bool>(sequential[i]));
    }
  }
}

TEST_P(BatchEngine, EmptyBatchAndEmptyFaults) {
  const Graph g = graph::random_connected(24, 60, 37);
  const auto scheme = make_scheme(g, test_config(GetParam(), 2));

  BatchQueryEngine no_faults(*scheme, FaultSpec{});
  EXPECT_EQ(no_faults.num_faults(), 0u);
  EXPECT_TRUE(no_faults.run_sequential({}).empty());
  EXPECT_TRUE(no_faults.run_parallel({}, 4).empty());
  // The graph is connected, so every query answers true.
  std::vector<BatchQueryEngine::Query> queries{{0, 23}, {5, 5}, {17, 3}};
  for (const bool r : no_faults.run_parallel(queries, 4)) EXPECT_TRUE(r);
}

TEST_P(BatchEngine, DuplicateFaultsCollapse) {
  const Graph g = graph::barbell(6, 3);
  const auto scheme = make_scheme(g, test_config(GetParam(), 4));
  SplitMix64 rng(13);
  std::vector<EdgeId> faults{3, 3, 3, 9, 9};
  BatchQueryEngine engine(*scheme, FaultSpec::edges(faults));
  EXPECT_LE(engine.num_faults(), 2u);
  const auto queries = random_queries(g, 40, rng);
  const auto results = engine.run_parallel(queries, 4);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(results[i], graph::connected_avoiding(g, queries[i].s,
                                                    queries[i].t, faults))
        << backend_name(GetParam()) << " i=" << i;
  }
}

TEST_P(BatchEngine, ResetFaultsReusesWorkspaces) {
  const Graph g = graph::random_connected(30, 75, 41);
  const auto scheme = make_scheme(g, test_config(GetParam(), 3));
  SplitMix64 rng(17);
  BatchQueryEngine engine(*scheme, FaultSpec{});
  for (int epoch = 0; epoch < 3; ++epoch) {
    std::vector<EdgeId> faults;
    for (int i = 0; i < 3; ++i) {
      faults.push_back(static_cast<EdgeId>(rng.next_below(g.num_edges())));
    }
    engine.reset_faults(FaultSpec::edges(faults));
    const auto queries = random_queries(g, 30, rng);
    const auto results = engine.run_parallel(queries, 2);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(results[i], graph::connected_avoiding(g, queries[i].s,
                                                      queries[i].t, faults))
          << backend_name(GetParam()) << " epoch=" << epoch << " i=" << i;
    }
  }
}

// Workers carry decoder state through a whole batch, and the workspaces
// move across reset_faults: a sequential batch on fault set A, then on
// B, then B again in parallel, must all match BFS.
TEST_P(BatchEngine, SequentialThenParallelAcrossFaultSets) {
  const Graph g = graph::random_connected(80, 200, 37);
  const auto scheme = make_scheme(g, test_config(GetParam(), 6));
  SplitMix64 rng(43);
  const auto queries = random_queries(g, 300, rng);
  const auto random_faults = [&] {
    std::vector<EdgeId> faults;
    for (int i = 0; i < 6; ++i) {
      faults.push_back(static_cast<EdgeId>(rng.next_below(g.num_edges())));
    }
    return faults;
  };
  const auto check = [&](const std::vector<bool>& results,
                         const std::vector<EdgeId>& faults,
                         const char* phase) {
    ASSERT_EQ(results.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(results[i], graph::connected_avoiding(g, queries[i].s,
                                                      queries[i].t, faults))
          << backend_name(GetParam()) << " " << phase << " i=" << i;
    }
  };
  const std::vector<EdgeId> a = random_faults();
  const std::vector<EdgeId> b = random_faults();
  BatchQueryEngine engine(*scheme, FaultSpec{});
  engine.reset_faults(FaultSpec::edges(a));
  check(engine.run_sequential(queries), a, "A sequential");
  engine.reset_faults(FaultSpec::edges(b));
  check(engine.run_sequential(queries), b, "B sequential");
  check(engine.run_parallel(queries, 2), b, "B parallel");
}

TEST_P(BatchEngine, ManyThreadsOnTinyBatchIsSafe) {
  const Graph g = graph::cycle(16);
  const auto scheme = make_scheme(g, test_config(GetParam(), 2));
  BatchQueryEngine engine(*scheme, FaultSpec::edges(std::vector<EdgeId>{0}));
  const std::vector<BatchQueryEngine::Query> queries{{1, 15}};
  // More threads than work: the engine must clamp, not crash.
  const auto results = engine.run_parallel(queries, 64);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0]);  // a cycle minus one edge stays connected
}

// No implicit thread count: hardware concurrency is not what a shared
// host delivers, so zero threads is a caller error, even on an empty batch.
TEST_P(BatchEngine, ZeroThreadsIsRejected) {
  const Graph g = graph::cycle(16);
  const auto scheme = make_scheme(g, test_config(GetParam(), 2));
  BatchQueryEngine engine(*scheme, FaultSpec::edges(std::vector<EdgeId>{0}));
  const std::vector<BatchQueryEngine::Query> queries{{1, 15}};
  EXPECT_THROW(engine.run_parallel(queries, 0), std::invalid_argument);
  EXPECT_THROW(engine.run_parallel({}, 0), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BatchEngine,
                         ::testing::ValuesIn(kAllBackends),
                         backend_param_name);

}  // namespace
}  // namespace ftc::core
