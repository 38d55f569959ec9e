// Epoch-based zero-downtime store swapping in BatchQueryEngine.
//
// The contract under test: swap_store() installs a new label generation
// without draining the session — queries already in flight finish on
// their pinned epoch, new queries start on the new one, every answer is
// consistent with EXACTLY one epoch's labels (never torn across two),
// and the old generation (including its mmapped store) is released once
// its last pin drops. The stress case drives a concurrent batch-query
// session across repeated swaps between two different label generations
// whose ground truths provably differ, from sequential, parallel and
// single-query paths, partly under the asan preset.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_engine.hpp"
#include "core/connectivity_scheme.hpp"
#include "core/journal.hpp"
#include "core/label_store.hpp"
#include "core/sharded_store.hpp"
#include "flip_edges.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "util/common.hpp"

namespace ftc::core {
namespace {

using graph::EdgeId;
using graph::Graph;
using graph::VertexId;

SchemeConfig test_config(BackendKind backend, unsigned f) {
  SchemeConfig cfg;
  cfg.backend = backend;
  cfg.set_f(f);
  cfg.ftc.k_scale = 2.0;
  cfg.cycle.scale = 3.0;
  cfg.agm.scale = 1.5;
  return cfg;
}

// Smallest single-edge fault set whose BFS ground truth differs between
// the two graphs over the given queries — guaranteeing the two label
// generations are distinguishable by the test workload.
std::vector<EdgeId> find_distinguishing_faults(
    const Graph& g_a, const Graph& g_b,
    const std::vector<BatchQueryEngine::Query>& queries,
    std::vector<bool>* truth_a, std::vector<bool>* truth_b) {
  const EdgeId m = std::min(g_a.num_edges(), g_b.num_edges());
  for (EdgeId e = 0; e < m; ++e) {
    const std::vector<EdgeId> faults{e};
    truth_a->clear();
    truth_b->clear();
    for (const auto& q : queries) {
      truth_a->push_back(graph::connected_avoiding(g_a, q.s, q.t, faults));
      truth_b->push_back(graph::connected_avoiding(g_b, q.s, q.t, faults));
    }
    if (*truth_a != *truth_b) return faults;
  }
  ADD_FAILURE() << "no single-edge fault distinguishes the generations";
  return {};
}

class TempStore {
 public:
  explicit TempStore(const std::string& name)
      : path_(::testing::TempDir() + "ftc_swap_" + name + "_" +
              std::to_string(::getpid()) + ".ftcs") {
    cleanup();
  }
  ~TempStore() { cleanup(); }
  const std::string& path() const { return path_; }

 private:
  void cleanup() {
    std::remove(path_.c_str());
    std::remove((path_ + ".jrnl").c_str());
    for (unsigned k = 0; k < 8; ++k) {
      std::remove((path_ + ".shard" + std::to_string(k) + ".ftcs").c_str());
    }
  }
  std::string path_;
};

TEST(StoreSwap, EpochAdvancesAndAnswersFollowTheNewGeneration) {
  // Sparse (near-tree) graphs: the removed edges genuinely disconnect
  // pairs, and differently per generation, so the two ground truths are
  // distinguishable.
  const Graph g_a = graph::random_connected(40, 44, 3);
  const Graph g_b = graph::random_connected(40, 44, 21);
  const auto cfg = test_config(BackendKind::kCoreFtc, 3);
  TempStore store_a("basic_a");
  TempStore store_b("basic_b");
  make_scheme(g_a, cfg)->save(store_a.path());
  make_scheme(g_b, cfg)->save(store_b.path());

  std::vector<BatchQueryEngine::Query> queries;
  SplitMix64 rng(11);
  for (int i = 0; i < 400; ++i) {
    queries.push_back(
        {static_cast<VertexId>(rng.next_below(g_a.num_vertices())),
         static_cast<VertexId>(rng.next_below(g_a.num_vertices()))});
  }
  std::vector<bool> truth_a;
  std::vector<bool> truth_b;
  const std::vector<EdgeId> faults =
      find_distinguishing_faults(g_a, g_b, queries, &truth_a, &truth_b);
  ASSERT_FALSE(faults.empty());

  BatchQueryEngine session(load_scheme(store_a.path()),
                           FaultSpec::edges(faults));
  EXPECT_EQ(session.epoch(), 1u);

  EXPECT_EQ(session.run_sequential(queries), truth_a);
  EXPECT_EQ(session.last_run_epoch(), 1u);

  EXPECT_EQ(session.swap_store(load_scheme(store_b.path())), 2u);
  EXPECT_EQ(session.epoch(), 2u);
  EXPECT_EQ(session.run_sequential(queries), truth_b);
  EXPECT_EQ(session.run_parallel(queries, 4), truth_b);
  EXPECT_EQ(session.last_run_epoch(), 2u);

  // Swapping back re-prepares the same fault set against generation A.
  EXPECT_EQ(session.swap_store(load_scheme(store_a.path())), 3u);
  EXPECT_EQ(session.run_sequential(queries), truth_a);
  EXPECT_EQ(session.num_faults(), faults.size());
}

TEST(StoreSwap, SwapAcceptsShardedManifestsAndOpenViews) {
  const Graph g = graph::grid(6, 8);
  const auto cfg = test_config(BackendKind::kCoreFtc, 3);
  const auto scheme = make_scheme(g, cfg);
  TempStore flat("view_flat");
  TempStore manifest("view_manifest");
  scheme->save(flat.path());
  save_sharded(*scheme, manifest.path(), 4);

  const std::vector<EdgeId> faults{1, 17};
  std::vector<BatchQueryEngine::Query> queries;
  SplitMix64 rng(4);
  for (int i = 0; i < 200; ++i) {
    queries.push_back({static_cast<VertexId>(rng.next_below(g.num_vertices())),
                       static_cast<VertexId>(rng.next_below(g.num_vertices()))});
  }
  BatchQueryEngine session(*scheme, FaultSpec::edges(faults));
  const auto truth = session.run_sequential(queries);

  // Same labels behind three artifact shapes: answers never move.
  session.swap_store(load_scheme(flat.path()));
  EXPECT_EQ(session.run_sequential(queries), truth);
  session.swap_store(open_store_view(manifest.path()));
  EXPECT_EQ(session.run_parallel(queries, 3), truth);
  EXPECT_EQ(session.epoch(), 3u);
}

TEST(StoreSwap, OldGenerationReleasedWhenLastPinDrops) {
  const Graph g = graph::grid(5, 5);
  const auto cfg = test_config(BackendKind::kCoreFtc, 2);
  TempStore store_a("release_a");
  TempStore store_b("release_b");
  const auto scheme = make_scheme(g, cfg);
  scheme->save(store_a.path());
  scheme->save(store_b.path());

  auto view_a = LabelStoreView::open(store_a.path());
  std::weak_ptr<const LabelStoreView> weak_a = view_a;
  BatchQueryEngine session(load_scheme(view_a), FaultSpec{});
  view_a.reset();
  ASSERT_FALSE(weak_a.expired());  // generation 1 still pins the mapping

  session.swap_store(load_scheme(store_b.path()));
  // No in-flight queries: the swap retires generation 1 and the mmap
  // behind it drops immediately.
  EXPECT_TRUE(weak_a.expired());
  EXPECT_TRUE(session.connected(0, 24));
}

TEST(StoreSwap, CrossBackendSwapRebuildsWorkspaces) {
  const Graph g = graph::random_connected(32, 80, 5);
  TempStore store_core("cross_core");
  TempStore store_cycle("cross_cycle");
  make_scheme(g, test_config(BackendKind::kCoreFtc, 3))->save(store_core.path());
  make_scheme(g, test_config(BackendKind::kDp21CycleSpace, 3))
      ->save(store_cycle.path());

  const std::vector<EdgeId> faults{3, 9, 40};
  std::vector<BatchQueryEngine::Query> queries;
  SplitMix64 rng(9);
  for (int i = 0; i < 300; ++i) {
    queries.push_back({static_cast<VertexId>(rng.next_below(g.num_vertices())),
                       static_cast<VertexId>(rng.next_below(g.num_vertices()))});
  }
  std::vector<bool> truth;
  for (const auto& q : queries) {
    truth.push_back(graph::connected_avoiding(g, q.s, q.t, faults));
  }

  BatchQueryEngine session(load_scheme(store_core.path()),
                           FaultSpec::edges(faults));
  EXPECT_EQ(session.run_parallel(queries, 4), truth);
  session.swap_store(load_scheme(store_cycle.path()));
  EXPECT_EQ(session.scheme().backend(), BackendKind::kDp21CycleSpace);
  EXPECT_EQ(session.run_parallel(queries, 4), truth);
  session.swap_store(load_scheme(store_core.path()));
  EXPECT_EQ(session.run_sequential(queries), truth);
}

TEST(StoreSwap, RejectedSwapLeavesSessionServing) {
  const Graph g_big = graph::random_connected(30, 80, 2);
  const Graph g_small = graph::cycle(10);  // only 10 edges
  const auto cfg = test_config(BackendKind::kCoreFtc, 2);
  TempStore store_small("reject_small");
  make_scheme(g_small, cfg)->save(store_small.path());
  const auto scheme = make_scheme(g_big, cfg);

  const std::vector<EdgeId> faults{55};  // invalid in the small store
  BatchQueryEngine session(*scheme, FaultSpec::edges(faults));
  const bool before = session.connected(0, 20);
  EXPECT_THROW(session.swap_store(load_scheme(store_small.path())),
               std::invalid_argument);
  // The failed swap must not have touched the serving generation.
  EXPECT_EQ(session.epoch(), 1u);
  EXPECT_EQ(session.connected(0, 20), before);
}

TEST(StoreSwap, ResetFaultsKeepsEpochAndCurrentGeneration) {
  const Graph g = graph::random_connected(30, 70, 8);
  const auto cfg = test_config(BackendKind::kCoreFtc, 3);
  TempStore store("reset");
  const auto scheme = make_scheme(g, cfg);
  scheme->save(store.path());
  BatchQueryEngine session(load_scheme(store.path()), FaultSpec{});
  EXPECT_EQ(session.num_faults(), 0u);

  const std::vector<EdgeId> faults{4, 12};
  session.reset_faults(FaultSpec::edges(faults));
  EXPECT_EQ(session.epoch(), 1u);
  EXPECT_EQ(session.num_faults(), 2u);
  for (VertexId s = 0; s < 10; ++s) {
    EXPECT_EQ(session.connected(s, 20),
              graph::connected_avoiding(g, s, 20, faults));
  }
}

// reset_faults racing swap_store: once reset_faults returns, the
// serving generation — and every generation a concurrent or later swap
// installs — must carry the NEW spec. (Regression: a swap publishing
// between reset's snapshot and its install used to strand the session
// on the old fault set.)
TEST(StoreSwap, ConcurrentResetFaultsAndSwapStayCoherent) {
  const Graph g_a = graph::random_connected(36, 40, 15);
  const Graph g_b = graph::random_connected(36, 40, 51);
  const auto cfg = test_config(BackendKind::kCoreFtc, 3);
  TempStore store_a("coherent_a");
  TempStore store_b("coherent_b");
  make_scheme(g_a, cfg)->save(store_a.path());
  make_scheme(g_b, cfg)->save(store_b.path());

  std::vector<BatchQueryEngine::Query> queries;
  SplitMix64 rng(77);
  for (int i = 0; i < 128; ++i) {
    queries.push_back(
        {static_cast<VertexId>(rng.next_below(g_a.num_vertices())),
         static_cast<VertexId>(rng.next_below(g_a.num_vertices()))});
  }
  // Two specs whose truths differ on BOTH stores (empty vs a single
  // edge that disconnects pairs in both graphs), so serving a stale
  // spec is detectable no matter which epoch answers.
  const auto truth_of = [&](const Graph& g, const std::vector<EdgeId>& f) {
    std::vector<bool> t;
    for (const auto& q : queries) {
      t.push_back(graph::connected_avoiding(g, q.s, q.t, f));
    }
    return t;
  };
  std::vector<EdgeId> cut;
  for (EdgeId e = 0; e < std::min(g_a.num_edges(), g_b.num_edges()); ++e) {
    if (truth_of(g_a, {e}) != truth_of(g_a, {}) &&
        truth_of(g_b, {e}) != truth_of(g_b, {})) {
      cut = {e};
      break;
    }
  }
  ASSERT_FALSE(cut.empty()) << "no edge disconnects pairs in both graphs";
  // truth[store parity][spec index]: epoch 1 = A, swaps alternate B, A.
  const std::vector<bool> truth[2][2] = {
      {truth_of(g_b, {}), truth_of(g_b, cut)},
      {truth_of(g_a, {}), truth_of(g_a, cut)},
  };

  BatchQueryEngine session(load_scheme(store_a.path()), FaultSpec{});
  std::atomic<bool> done{false};
  std::thread swapper([&] {
    std::uint64_t swaps = 0;
    while (!done.load(std::memory_order_relaxed)) {
      session.swap_store(
          load_scheme(swaps % 2 == 0 ? store_b.path() : store_a.path()));
      ++swaps;
    }
  });

  std::uint64_t wrong = 0;
  for (int it = 0; it < 40; ++it) {
    const int spec_idx = it % 2;
    session.reset_faults(spec_idx == 0 ? FaultSpec{}
                                       : FaultSpec::edges(cut));
    const auto results = session.run_sequential(queries);
    const std::uint64_t ep = session.last_run_epoch();
    const std::vector<bool>& want = truth[ep % 2][spec_idx];
    for (std::size_t i = 0; i < queries.size(); ++i) {
      wrong += results[i] != want[i];
    }
  }
  done.store(true);
  swapper.join();
  EXPECT_EQ(wrong, 0u)
      << "a batch answered with a spec reset_faults had already replaced";
}

// swap_store() prefetches the incoming generation before publishing it:
// when the swap returns, every shard of a sharded store is already
// mapped — the new epoch never serves a cold lazy open.
TEST(StoreSwap, SwapPrefetchesShardedGenerationBeforePublish) {
  const Graph g = graph::grid(6, 8);
  const auto cfg = test_config(BackendKind::kCoreFtc, 3);
  const auto scheme = make_scheme(g, cfg);
  TempStore flat("warm_flat");
  TempStore manifest("warm_manifest");
  scheme->save(flat.path());
  save_sharded(*scheme, manifest.path(), 4);

  BatchQueryEngine session(load_scheme(flat.path()), FaultSpec{});
  const auto view = ShardedStoreView::open(manifest.path());
  EXPECT_EQ(view->shards_open(), 0u);
  session.swap_store(view);
  EXPECT_EQ(view->shards_open(), 4u);
  const auto flat_view = LabelStoreView::open(flat.path());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_TRUE(
        std::ranges::equal(view->edge_blob(e), flat_view->edge_blob(e)));
  }
  EXPECT_TRUE(session.connected(0, g.num_vertices() - 1));
}

// Explicit prefetch() racing a swap_store() that installs a generation
// over the SAME sharded view (whose install prefetches it again), while
// queries stream: publication must stay single-shot per shard and every
// answer correct.
TEST(StoreSwap, PrefetchRacesSwapStoreOverOneView) {
  const Graph g = graph::random_connected(48, 120, 19);
  const auto cfg = test_config(BackendKind::kCoreFtc, 3);
  const auto scheme = make_scheme(g, cfg);
  TempStore flat("pfrace_flat");
  TempStore manifest("pfrace_manifest");
  scheme->save(flat.path());
  save_sharded(*scheme, manifest.path(), 8);

  const std::vector<EdgeId> faults{2, 31};
  std::vector<BatchQueryEngine::Query> queries;
  SplitMix64 rng(6);
  for (int i = 0; i < 200; ++i) {
    queries.push_back({static_cast<VertexId>(rng.next_below(g.num_vertices())),
                       static_cast<VertexId>(rng.next_below(g.num_vertices()))});
  }
  std::vector<bool> truth;
  for (const auto& q : queries) {
    truth.push_back(graph::connected_avoiding(g, q.s, q.t, faults));
  }

  for (int round = 0; round < 3; ++round) {
    const auto view = ShardedStoreView::open(manifest.path());
    BatchQueryEngine session(load_scheme(flat.path()),
                             FaultSpec::edges(faults));
    std::thread prefetcher([&] { (void)view->prefetch(2); });
    std::thread swapper([&] { session.swap_store(view); });
    // Same labels both generations: answers never move mid-race.
    for (int b = 0; b < 4; ++b) {
      EXPECT_EQ(session.run_sequential(queries), truth) << "round=" << round;
    }
    prefetcher.join();
    swapper.join();
    EXPECT_EQ(view->shards_open(), 8u);
    EXPECT_EQ(view->prefetch(2).shards_opened, 0u);
    EXPECT_EQ(session.run_parallel(queries, 4), truth);
  }
}

// The acceptance stress: a session under continuous query load while
// another thread swaps stores back and forth. Every batch/query answer
// set must equal the ground truth of exactly the epoch it reports — no
// lost queries, no failures, no answers torn across generations.
TEST(StoreSwap, LiveSwapUnderLoadIsNeverTorn) {
  const unsigned f = 3;
  const Graph g_a = graph::random_connected(40, 44, 7);
  const Graph g_b = graph::random_connected(40, 44, 29);
  const auto cfg = test_config(BackendKind::kCoreFtc, f);
  TempStore store_a("stress_a");
  TempStore store_b("stress_b");
  make_scheme(g_a, cfg)->save(store_a.path());
  // Generation B is sharded: the swap path must not care.
  save_sharded(*make_scheme(g_b, cfg), store_b.path(), 4);

  std::vector<BatchQueryEngine::Query> queries;
  SplitMix64 rng(123);
  for (int i = 0; i < 256; ++i) {
    queries.push_back(
        {static_cast<VertexId>(rng.next_below(g_a.num_vertices())),
         static_cast<VertexId>(rng.next_below(g_a.num_vertices()))});
  }
  std::vector<bool> truth_a;
  std::vector<bool> truth_b;
  const std::vector<EdgeId> faults =
      find_distinguishing_faults(g_a, g_b, queries, &truth_a, &truth_b);
  ASSERT_FALSE(faults.empty());

  // Epoch 1 = A; the swapper alternates B, A, B, ... so odd epochs carry
  // truth_a and even epochs truth_b.
  BatchQueryEngine session(load_scheme(store_a.path()),
                           FaultSpec::edges(faults));
  std::atomic<bool> load_done{false};
  std::atomic<std::uint64_t> swaps_installed{0};
  std::thread swapper([&] {
    std::uint64_t swaps = 0;
    while (!load_done.load(std::memory_order_relaxed)) {
      const bool to_b = swaps % 2 == 0;
      session.swap_store(load_scheme(to_b ? store_b.path() : store_a.path()));
      swaps_installed.store(++swaps, std::memory_order_release);
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });

  // At least kBatches batches, and on until a recorded batch starts after
  // the swapper has installed two more generations than when the first
  // one started: a batch is fast next to a load_scheme, so a fixed count
  // can finish before the first swap lands. The deadline turns a stuck
  // swapper into a failure, not a hang.
  constexpr std::uint64_t kBatches = 60;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  const std::uint64_t swaps_at_start =
      swaps_installed.load(std::memory_order_acquire);
  std::uint64_t swaps_before_last_recorded = swaps_at_start;
  bool timed_out = false;
  std::uint64_t torn = 0;
  std::vector<std::uint64_t> epochs_seen;
  for (std::uint64_t b = 0;
       b < kBatches || swaps_before_last_recorded < swaps_at_start + 2; ++b) {
    if (std::chrono::steady_clock::now() > deadline) {
      timed_out = true;
      break;
    }
    const std::uint64_t swaps_now =
        swaps_installed.load(std::memory_order_acquire);
    std::vector<bool> results;
    switch (b % 3) {
      case 0:
        results = session.run_sequential(queries);
        break;
      case 1:
        results = session.run_parallel(queries, 4);
        break;
      default: {
        results.reserve(queries.size());
        // Single-query path: each query may land on a different epoch,
        // so check each answer against its own reported epoch.
        for (const auto& q : queries) {
          const bool got = session.connected(q.s, q.t);
          const std::uint64_t ep = session.last_run_epoch();
          const bool want =
              (ep % 2 == 1 ? graph::connected_avoiding(g_a, q.s, q.t, faults)
                           : graph::connected_avoiding(g_b, q.s, q.t, faults));
          torn += got != want;
        }
        continue;
      }
    }
    const std::uint64_t epoch = session.last_run_epoch();
    epochs_seen.push_back(epoch);
    swaps_before_last_recorded = swaps_now;
    const std::vector<bool>& truth = epoch % 2 == 1 ? truth_a : truth_b;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      torn += results[i] != truth[i];
    }
  }
  load_done.store(true, std::memory_order_relaxed);
  swapper.join();

  EXPECT_FALSE(timed_out) << "swapper installed fewer than two generations "
                             "before the deadline";
  EXPECT_EQ(torn, 0u) << "answers inconsistent with their reported epoch";
  // The load really did span generations (not one epoch throughout).
  std::sort(epochs_seen.begin(), epochs_seen.end());
  epochs_seen.erase(std::unique(epochs_seen.begin(), epochs_seen.end()),
                    epochs_seen.end());
  EXPECT_GE(epochs_seen.size(), 2u)
      << "stress load never observed a swap; swapper too slow?";
}

// ------------------------------------------------------------------
// swap_store(path): the delta-push serving path. A swap onto a
// delta-pushed manifest must adopt the unchanged shards' mmaps from the
// outgoing generation (mapping only the changed ones) and replay the
// new path's journal sidecar.

std::shared_ptr<const ShardedStoreView> serving_sharded_view(
    const BatchQueryEngine& session) {
  return std::dynamic_pointer_cast<const ShardedStoreView>(
      session.scheme().store_view());
}

TEST(StoreSwapDelta, SwapByPathAdoptsAllShardsOfZeroDeltaPush) {
  const Graph g = graph::random_connected(48, 120, 9);
  const auto scheme = make_scheme(g, test_config(BackendKind::kCoreFtc, 3));
  TempStore store_a("deltaswap_a");
  TempStore store_b("deltaswap_b");
  save_sharded(*scheme, store_a.path(), 4);

  const std::vector<EdgeId> faults{2, 31};
  std::vector<BatchQueryEngine::Query> queries;
  SplitMix64 rng(13);
  for (int i = 0; i < 200; ++i) {
    queries.push_back({static_cast<VertexId>(rng.next_below(g.num_vertices())),
                       static_cast<VertexId>(rng.next_below(g.num_vertices()))});
  }
  BatchQueryEngine session(load_scheme(store_a.path()),
                           FaultSpec::edges(faults));
  const auto baseline = session.run_sequential(queries);

  const DeltaPushStats stats =
      save_sharded_delta(*scheme, store_b.path(), store_a.path());
  ASSERT_EQ(stats.shards_reused, 4u);
  EXPECT_EQ(session.swap_store(store_b.path()), 2u);
  const auto view = serving_sharded_view(session);
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->info().manifest_epoch, 2u);
  // Every shard byte-identical: the swap re-mapped nothing at all.
  EXPECT_EQ(view->shards_adopted(), 4u);
  EXPECT_EQ(view->prefetch().shards_opened, 0u);
  EXPECT_EQ(session.run_parallel(queries, 3), baseline);
}

TEST(StoreSwapDelta, SwapByPathMapsOnlyTheChangedShard) {
  const Graph g = graph::random_connected(48, 120, 25);
  const auto scheme = make_scheme(g, test_config(BackendKind::kCoreFtc, 3));
  TempStore store_a("onechanged_a");
  TempStore store_b("onechanged_b");
  save_sharded(*scheme, store_a.path(), 4);

  // Faults and queries keep clear of edge 0 — the label this test
  // deliberately corrupts in shard 0 of generation B.
  const std::vector<EdgeId> faults{40, 77};
  std::vector<BatchQueryEngine::Query> queries;
  SplitMix64 rng(17);
  for (int i = 0; i < 200; ++i) {
    queries.push_back({static_cast<VertexId>(rng.next_below(g.num_vertices())),
                       static_cast<VertexId>(rng.next_below(g.num_vertices()))});
  }
  BatchQueryEngine session(load_scheme(store_a.path()),
                           FaultSpec::edges(faults));
  const auto baseline = session.run_sequential(queries);

  const auto patched = test_support::flip_edges(*scheme, g, {0});
  const DeltaPushStats stats =
      save_sharded_delta(*patched, store_b.path(), store_a.path());
  ASSERT_EQ(stats.shards_written, 1u);
  ASSERT_EQ(stats.shards_reused, 3u);

  EXPECT_EQ(session.swap_store(store_b.path()), 2u);
  const auto view = serving_sharded_view(session);
  ASSERT_NE(view, nullptr);
  // The acceptance assertion: 3 of 4 shards adopted from the previous
  // generation, only the changed one freshly mapped — and the swap's
  // own prefetch already did that mapping (nothing left to open).
  EXPECT_EQ(view->shards_adopted(), 3u);
  EXPECT_EQ(view->shards_open(), 4u);
  const store::PrefetchStats after = view->prefetch();
  EXPECT_EQ(after.shards_adopted, 3u);
  EXPECT_EQ(after.shards_opened, 0u);
  // Vertex labels and the queried fault labels are untouched by the
  // flip, so every answer matches generation A.
  EXPECT_EQ(session.run_parallel(queries, 3), baseline);
}

TEST(StoreSwapDelta, JournalSidecarFollowsTheGeneration) {
  const unsigned f = 4;
  // Near-tree, so single deleted edges genuinely disconnect pairs.
  const Graph g = graph::random_connected(40, 44, 35);
  const auto scheme = make_scheme(g, test_config(BackendKind::kCoreFtc, f));
  TempStore store_a("jrnl_a");
  TempStore store_b("jrnl_b");
  TempStore store_c("jrnl_c");
  save_sharded(*scheme, store_a.path(), 4);

  std::vector<BatchQueryEngine::Query> queries;
  SplitMix64 rng(19);
  for (int i = 0; i < 200; ++i) {
    queries.push_back({static_cast<VertexId>(rng.next_below(g.num_vertices())),
                       static_cast<VertexId>(rng.next_below(g.num_vertices()))});
  }

  const std::vector<EdgeId> query_faults{21};
  // A journaled deletion the workload can actually observe on top of
  // the query's own fault.
  std::vector<EdgeId> journaled;
  for (EdgeId e = 0; e < g.num_edges() && journaled.empty(); ++e) {
    if (e == query_faults[0]) continue;
    const std::vector<EdgeId> both{e, query_faults[0]};
    for (const auto& q : queries) {
      if (graph::connected_avoiding(g, q.s, q.t, both) !=
          graph::connected_avoiding(g, q.s, q.t, query_faults)) {
        journaled = {e};
        break;
      }
    }
  }
  ASSERT_FALSE(journaled.empty()) << "no deletion is observable";
  std::vector<EdgeId> merged = journaled;
  merged.insert(merged.end(), query_faults.begin(), query_faults.end());

  DeletionJournal::append(
      journal_path_for(store_a.path()),
      open_store_view(store_a.path())->info().payload_checksum, f, journaled);

  BatchQueryEngine explicit_session(*scheme, FaultSpec::edges(merged));
  const auto truth_merged = explicit_session.run_sequential(queries);
  BatchQueryEngine plain_session(*scheme, FaultSpec::edges(query_faults));
  const auto truth_plain = plain_session.run_sequential(queries);
  ASSERT_NE(truth_merged, truth_plain)
      << "journaled deletions must be observable for this test to bite";

  // Generation A serves with its journal folded in.
  BatchQueryEngine session(load_scheme(store_a.path()),
                           FaultSpec::edges(query_faults));
  ASSERT_NE(session.scheme().journal(), nullptr);
  EXPECT_EQ(session.run_sequential(queries), truth_merged);

  // Generation B carries its own sidecar (journals bind to a digest, so
  // each generation gets its own): the swap replays it.
  save_sharded_delta(*scheme, store_b.path(), store_a.path());
  DeletionJournal::append(journal_path_for(store_b.path()),
                          open_store_view(store_b.path())->info().payload_checksum,
                          f, journaled);
  EXPECT_EQ(session.swap_store(store_b.path()), 2u);
  ASSERT_NE(session.scheme().journal(), nullptr);
  EXPECT_EQ(session.run_sequential(queries), truth_merged);

  // Generation C has no sidecar: after this swap the deletions are gone
  // and only the query's own faults apply.
  save_sharded_delta(*scheme, store_c.path(), store_b.path());
  EXPECT_EQ(session.swap_store(store_c.path()), 3u);
  EXPECT_EQ(session.scheme().journal(), nullptr);
  EXPECT_EQ(session.run_sequential(queries), truth_plain);
}

}  // namespace
}  // namespace ftc::core
