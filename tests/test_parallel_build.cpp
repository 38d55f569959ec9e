// Build-reproducibility suite for the parallel construction pipeline.
//
// The determinism contract under test: a T-thread build produces
// BYTE-IDENTICAL label stores to the serial build, for every T, every
// backend, and both persistence layouts (flat container and sharded
// manifest). The contract is what makes `build --threads N` safe to
// deploy — artifact digests, delta-push reuse and store-level cmp-based
// verification all assume the thread knob is a pure wall-clock knob.
//
// Also covered here: answer parity of parallel-built schemes against
// the BFS ground truth, BuildStats wall-clock sanity under the parallel
// builder, and unit tests for the two determinism-critical primitives
// (util::parallel_sort's byte-identity with std::sort, WorkerPool's
// exception propagation). The suite runs under the asan AND tsan
// presets; tsan is what proves the builder dispatches are race-free.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/connectivity_scheme.hpp"
#include "core/ftc_scheme.hpp"
#include "core/label_store.hpp"
#include "core/sharded_store.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "store_fixture.hpp"
#include "util/common.hpp"
#include "util/worker_pool.hpp"

namespace ftc::core {
namespace {

using graph::EdgeId;
using graph::Graph;
using graph::VertexId;
using test_support::TempStore;
using test_support::backend_param_name;
using test_support::read_file;
using test_support::test_config;

// The thread counts every byte-identity sweep runs: serial baseline,
// the smallest parallel case, a typical core count, and whatever this
// host actually has (so CI on any machine covers its own concurrency).
std::vector<unsigned> sweep_threads() {
  std::vector<unsigned> threads{1, 2, 8};
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw != 0 &&
      std::find(threads.begin(), threads.end(), hw) == threads.end()) {
    threads.push_back(hw);
  }
  return threads;
}

class ParallelBuild : public ::testing::TestWithParam<BackendKind> {};

// The tentpole guarantee, flat layout: every thread count yields the
// exact bytes of the serial build, through the streaming save path.
TEST_P(ParallelBuild, FlatStoreBytesIdenticalAcrossThreadCounts) {
  const Graph g = graph::random_connected(150, 480, 19);
  SchemeConfig cfg = test_config(GetParam(), 4);

  cfg.set_build_threads(1);
  TempStore serial_file("flat_serial_" +
                        std::to_string(static_cast<int>(GetParam())), ".ftcs");
  make_scheme(g, cfg)->save(serial_file.path());
  const auto serial_bytes = read_file(serial_file.path());
  ASSERT_FALSE(serial_bytes.empty());

  for (const unsigned threads : sweep_threads()) {
    cfg.set_build_threads(threads);
    TempStore file("flat_t" + std::to_string(threads) + "_" +
                   std::to_string(static_cast<int>(GetParam())), ".ftcs");
    make_scheme(g, cfg)->save(file.path());
    EXPECT_EQ(read_file(file.path()), serial_bytes)
        << backend_name(GetParam()) << " threads=" << threads;
  }
}

// Same guarantee, sharded layout: manifest and every shard container
// must match the serial build byte-for-byte (this is what delta pushes
// and the digest-based reuse machinery key on).
TEST_P(ParallelBuild, ShardedStoreBytesIdenticalAcrossThreadCounts) {
  const unsigned kShards = 4;
  const Graph g = graph::random_connected(96, 300, 23);
  SchemeConfig cfg = test_config(GetParam(), 3);

  // Shard records embed file names derived from the manifest path, so
  // every thread count saves to the SAME path (a fresh generation each
  // time) and the bytes are snapshotted between saves.
  TempStore manifest("manifest_" + std::to_string(static_cast<int>(GetParam())),
                     ".ftcm");

  cfg.set_build_threads(1);
  save_sharded(*make_scheme(g, cfg), manifest.path(), kShards);
  const auto serial_manifest_bytes = read_file(manifest.path());
  std::vector<std::vector<std::uint8_t>> serial_shards;
  for (unsigned k = 0; k < kShards; ++k) {
    serial_shards.push_back(read_file(manifest.shard_path(k)));
    ASSERT_FALSE(serial_shards.back().empty());
  }

  for (const unsigned threads : sweep_threads()) {
    cfg.set_build_threads(threads);
    save_sharded(*make_scheme(g, cfg), manifest.path(), kShards);
    EXPECT_EQ(read_file(manifest.path()), serial_manifest_bytes)
        << backend_name(GetParam()) << " threads=" << threads;
    for (unsigned k = 0; k < kShards; ++k) {
      EXPECT_EQ(read_file(manifest.shard_path(k)), serial_shards[k])
          << backend_name(GetParam()) << " threads=" << threads
          << " shard=" << k;
    }
  }
}

// Byte-identity says parallel == serial; this says the thing they both
// equal is CORRECT: a parallel-built scheme answers random fault sweeps
// exactly like the BFS ground truth.
TEST_P(ParallelBuild, ParallelBuiltSchemeAgreesWithBfsGroundTruth) {
  const unsigned f = 4;
  const Graph g = graph::random_connected(80, 240, 31);
  SchemeConfig cfg = test_config(GetParam(), f);
  cfg.set_build_threads(8);
  const auto scheme = make_scheme(g, cfg);

  SplitMix64 rng(0x9a7a11e1);
  for (int it = 0; it < 60; ++it) {
    std::vector<EdgeId> faults;
    const auto num_faults = rng.next_below(f + 1);
    for (unsigned i = 0; i < num_faults; ++i) {
      faults.push_back(static_cast<EdgeId>(rng.next_below(g.num_edges())));
    }
    const auto s = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    const auto t = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    EXPECT_EQ(scheme->connected(s, t, FaultSpec::edges(faults)),
              graph::connected_avoiding(g, s, t, faults))
        << backend_name(GetParam()) << " it=" << it << " s=" << s
        << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ParallelBuild,
                         ::testing::ValuesIn(kAllBackends),
                         backend_param_name);

// BuildStats under the parallel builder: the resolved worker count is
// reported, and the phase timings are wall-clock on the coordinating
// thread — so hierarchy + sketch can never exceed total (they are
// disjoint sub-intervals of it), which would NOT hold if the fields
// summed per-worker CPU time.
TEST(ParallelBuildStats, WallClockTimingsAndThreadCount) {
  const Graph g = graph::random_connected(120, 400, 7);
  FtcConfig cfg;
  cfg.f = 4;
  cfg.k_scale = 2.0;

  cfg.build_threads = 8;
  const auto scheme = FtcScheme::build(g, cfg);
  const BuildStats& stats = scheme.build_stats();
  EXPECT_EQ(stats.threads, 8u);
  EXPECT_GE(stats.hierarchy_seconds, 0.0);
  EXPECT_GE(stats.sketch_seconds, 0.0);
  EXPECT_GE(stats.total_seconds, 0.0);
  EXPECT_LE(stats.hierarchy_seconds + stats.sketch_seconds,
            stats.total_seconds);

}

// The worker count must be explicit: 0 is rejected, by every backend's
// builder, rather than resolved to hardware_concurrency (which counts
// hardware threads, not the parallelism a shared host delivers).
TEST(ParallelBuildStats, ZeroThreadsIsRejected) {
  EXPECT_THROW((void)util::WorkerPool::resolve_threads(0),
               std::invalid_argument);
  EXPECT_EQ(util::WorkerPool::resolve_threads(3), 3u);
  const Graph g = graph::random_connected(40, 90, 7);
  FtcConfig cfg;
  cfg.f = 2;
  cfg.build_threads = 0;
  EXPECT_THROW((void)FtcScheme::build(g, cfg), std::invalid_argument);
  for (const BackendKind backend : kAllBackends) {
    SCOPED_TRACE(backend_name(backend));
    SchemeConfig scfg;
    scfg.backend = backend;
    scfg.set_f(2).set_build_threads(0);
    EXPECT_THROW((void)make_scheme(g, scfg), std::invalid_argument);
  }
}

// util::parallel_sort must be byte-identical to std::sort whenever ties
// only occur between bit-identical elements — heavy duplicate load,
// sizes straddling the parallel threshold, and several pool widths.
TEST(ParallelSort, MatchesStdSortWithDuplicates) {
  for (const unsigned pool_threads : {1u, 2u, 3u, 8u}) {
    util::WorkerPool pool(pool_threads);
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, std::size_t{257},
          std::size_t{4096}, std::size_t{50000}}) {
      SplitMix64 rng(n * 31 + pool_threads);
      std::vector<std::uint64_t> v(n);
      for (auto& x : v) x = rng.next_below(97);  // dense duplicates
      std::vector<std::uint64_t> expected = v;
      std::sort(expected.begin(), expected.end());
      util::parallel_sort(v, std::less<std::uint64_t>{}, &pool);
      EXPECT_EQ(v, expected) << "n=" << n << " threads=" << pool_threads;
    }
  }
}

// Comparator equivalence classes wider than one value: elements compare
// by key only, so the "ties are bit-identical" precondition is met by
// giving every equal key the same payload. The merged order must still
// match std::sort exactly.
TEST(ParallelSort, MatchesStdSortUnderKeyOnlyComparator) {
  struct Rec {
    std::uint32_t key;
    std::uint32_t payload;
    bool operator==(const Rec& o) const {
      return key == o.key && payload == o.payload;
    }
  };
  const auto by_key = [](const Rec& a, const Rec& b) { return a.key < b.key; };
  util::WorkerPool pool(4);
  SplitMix64 rng(0xfeed);
  std::vector<Rec> v(30000);
  for (auto& r : v) {
    r.key = static_cast<std::uint32_t>(rng.next_below(64));
    r.payload = r.key * 2654435761u;  // equal keys => identical records
  }
  std::vector<Rec> expected = v;
  std::sort(expected.begin(), expected.end(), by_key);
  util::parallel_sort(v, by_key, &pool);
  EXPECT_TRUE(v == expected);
}

// Builder invariant checks (FTC_CHECK and friends) must keep their
// fail-fast semantics when they fire on a pool thread: the first task
// exception is rethrown from run() on the dispatching thread, and the
// pool survives to serve later dispatches.
TEST(WorkerPool, PropagatesTaskExceptionsAndSurvives) {
  util::WorkerPool pool(4);
  EXPECT_THROW(
      pool.run(4,
               [](unsigned id) {
                 if (id == 2) throw std::runtime_error("boom");
               }),
      std::runtime_error);

  // The pool is intact: a clean dispatch still runs every id.
  std::vector<int> hits(4, 0);
  pool.run(4, [&](unsigned id) { hits[id] = 1; });
  EXPECT_EQ(hits, (std::vector<int>{1, 1, 1, 1}));

  // Exceptions on the calling thread (id 0) propagate too.
  EXPECT_THROW(pool.run(2,
                        [](unsigned id) {
                          if (id == 0) throw std::runtime_error("caller");
                        }),
               std::runtime_error);
}

}  // namespace
}  // namespace ftc::core
