// Storage fault-injection coverage: the failpoint harness itself, the
// SIGBUS-safe degraded-serving path, retry + shard quarantine, the
// link() fallback on delta pushes, journal locking, and fd exhaustion.
//
// The invariant under test everywhere: environmental failure at any
// syscall boundary — or a shard mutated behind a live mapping — must
// surface as the TYPED error (StoreIoError / DegradedError, both
// StoreError), never a crash, and must never take healthy shards down
// with it.
#include <gtest/gtest.h>
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_engine.hpp"
#include "core/connectivity_scheme.hpp"
#include "core/journal.hpp"
#include "core/label_store.hpp"
#include "core/sharded_store.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "store_fixture.hpp"
#include "util/common.hpp"
#include "util/failpoint.hpp"
#include "util/scoped_fd.hpp"

namespace ftc::core {
namespace {

using graph::EdgeId;
using graph::Graph;
using graph::VertexId;
using test_support::ScopedRetryPolicy;
using test_support::TempStore;
using test_support::test_config;

std::size_t count_open_fds() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

// ------------------------------------------------------------------
// Failpoint harness unit tests.

TEST(Failpoint, OffByDefaultAndZeroActive) {
  failpoint::clear_all();
  EXPECT_FALSE(failpoint::armed());
  EXPECT_EQ(FTC_FAILPOINT("nothing.armed"), 0);
  EXPECT_TRUE(failpoint::active().empty());
}

TEST(Failpoint, OnceFiresExactlyOnce) {
  failpoint::Scoped fp("t.once", "once:ENOSPC");
  EXPECT_TRUE(failpoint::armed());
  EXPECT_EQ(FTC_FAILPOINT("t.once"), ENOSPC);
  EXPECT_EQ(FTC_FAILPOINT("t.once"), 0);
  EXPECT_EQ(FTC_FAILPOINT("t.once"), 0);
  EXPECT_EQ(fp.hits(), 3u);
}

TEST(Failpoint, NthFiresOnExactlyTheNthHit) {
  failpoint::Scoped fp("t.nth", "nth:3:EXDEV");
  EXPECT_EQ(FTC_FAILPOINT("t.nth"), 0);
  EXPECT_EQ(FTC_FAILPOINT("t.nth"), 0);
  EXPECT_EQ(FTC_FAILPOINT("t.nth"), EXDEV);
  EXPECT_EQ(FTC_FAILPOINT("t.nth"), 0);
}

TEST(Failpoint, AlwaysAndDefaultErrno) {
  failpoint::Scoped fp("t.always", "always");
  EXPECT_EQ(FTC_FAILPOINT("t.always"), EIO);
  EXPECT_EQ(FTC_FAILPOINT("t.always"), EIO);
}

TEST(Failpoint, CountObservesWithoutFiring) {
  failpoint::Scoped fp("t.count", "count");
  for (int i = 0; i < 5; ++i) EXPECT_EQ(FTC_FAILPOINT("t.count"), 0);
  EXPECT_EQ(fp.hits(), 5u);
}

TEST(Failpoint, ProbExtremes) {
  {
    failpoint::Scoped fp("t.prob0", "prob:0.0");
    for (int i = 0; i < 32; ++i) EXPECT_EQ(FTC_FAILPOINT("t.prob0"), 0);
  }
  {
    failpoint::Scoped fp("t.prob1", "prob:1.0:EMFILE");
    for (int i = 0; i < 32; ++i) EXPECT_EQ(FTC_FAILPOINT("t.prob1"), EMFILE);
  }
}

TEST(Failpoint, DecimalErrnoAndRearmResetsHits) {
  failpoint::set("t.decimal", "always:28");  // 28 == ENOSPC on Linux
  EXPECT_EQ(FTC_FAILPOINT("t.decimal"), 28);
  failpoint::set("t.decimal", "off");
  EXPECT_EQ(FTC_FAILPOINT("t.decimal"), 0);
  EXPECT_EQ(failpoint::hit_count("t.decimal"), 1u);  // reset by re-set
  failpoint::clear("t.decimal");
  EXPECT_FALSE(failpoint::armed());
}

TEST(Failpoint, MalformedSpecsThrow) {
  EXPECT_THROW(failpoint::set("t.bad", "sometimes"), std::invalid_argument);
  EXPECT_THROW(failpoint::set("t.bad", "nth"), std::invalid_argument);
  EXPECT_THROW(failpoint::set("t.bad", "nth:0"), std::invalid_argument);
  EXPECT_THROW(failpoint::set("t.bad", "prob:1.5"), std::invalid_argument);
  EXPECT_THROW(failpoint::set("t.bad", "always:EBOGUS"),
               std::invalid_argument);
  EXPECT_THROW(failpoint::set("t.bad", "always:EIO:extra"),
               std::invalid_argument);
  EXPECT_FALSE(failpoint::armed()) << "failed set must not arm anything";
}

TEST(Failpoint, EnvParsing) {
  ASSERT_EQ(::setenv("FTC_FAILPOINTS",
                     "env.one=once:ENOSPC;env.two=nth:2:EXDEV", 1),
            0);
  failpoint::load_env();
  ::unsetenv("FTC_FAILPOINTS");
  EXPECT_EQ(FTC_FAILPOINT("env.one"), ENOSPC);
  EXPECT_EQ(FTC_FAILPOINT("env.two"), 0);
  EXPECT_EQ(FTC_FAILPOINT("env.two"), EXDEV);
  failpoint::clear_all();

  ASSERT_EQ(::setenv("FTC_FAILPOINTS", "garbage-without-equals", 1), 0);
  EXPECT_THROW(failpoint::load_env(), std::invalid_argument);
  ::unsetenv("FTC_FAILPOINTS");
  failpoint::clear_all();
}

// ------------------------------------------------------------------
// ScopedFd satellite.

TEST(ScopedFd, ClosesOnScopeExitAndSupportsMove) {
  const std::size_t before = count_open_fds();
  {
    util::ScopedFd fd(::open("/dev/null", O_RDONLY | O_CLOEXEC));
    ASSERT_TRUE(fd.valid());
    util::ScopedFd moved(std::move(fd));
    EXPECT_FALSE(fd.valid());
    EXPECT_TRUE(moved.valid());
  }
  EXPECT_EQ(count_open_fds(), before);
}

TEST(ScopedFd, ReadFullDistinguishesEofFromError) {
  TempStore f("readfull", ".ftcs");
  {
    std::ofstream out(f.path(), std::ios::binary);
    out << "abc";  // 3 bytes: shorter than any 8-byte magic
  }
  util::ScopedFd fd(::open(f.path().c_str(), O_RDONLY | O_CLOEXEC));
  ASSERT_TRUE(fd.valid());
  std::uint8_t buf[8];
  errno = 77;  // stale errno must not masquerade as a read error
  EXPECT_FALSE(util::read_full(fd.get(), buf, sizeof(buf)));
  EXPECT_EQ(errno, 0) << "EOF must report errno 0";
  EXPECT_FALSE(util::read_full(-1, buf, sizeof(buf)));
  EXPECT_EQ(errno, EBADF);
}

// ------------------------------------------------------------------
// Failpoints threaded through the store syscall boundaries.

TEST(FaultInjection, MapOpenFailureIsTypedStoreIoError) {
  TempStore store("map_open", ".ftcs");
  const Graph g = graph::random_connected(24, 60, 7);
  make_scheme(g, test_config(BackendKind::kCoreFtc, 2))->save(store.path());

  failpoint::Scoped fp("store.map.open", "always:EMFILE");
  try {
    (void)LabelStoreView::open(store.path());
    FAIL() << "expected StoreIoError";
  } catch (const StoreIoError& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open"), std::string::npos);
  }
}

TEST(FaultInjection, WriteBoundaryFailuresAreTypedAndLeaveNoFile) {
  const Graph g = graph::random_connected(24, 60, 7);
  const auto scheme = make_scheme(g, test_config(BackendKind::kCoreFtc, 2));
  for (const char* site : {"store.write.open", "store.write.write",
                           "store.write.fsync", "store.write.close",
                           "store.write.rename"}) {
    TempStore store(std::string("write_") + site, ".ftcs");
    failpoint::Scoped fp(site, "once:ENOSPC");
    EXPECT_THROW(scheme->save(store.path()), StoreIoError) << site;
    struct stat st{};
    EXPECT_NE(::stat(store.path().c_str(), &st), 0)
        << site << ": aborted save must not leave a store file";
  }
}

TEST(FaultInjection, SniffFailuresAreTyped) {
  TempStore store("sniff", ".ftcs");
  const Graph g = graph::random_connected(24, 60, 7);
  make_scheme(g, test_config(BackendKind::kCoreFtc, 2))->save(store.path());
  {
    failpoint::Scoped fp("store.sniff.open", "once:EACCES");
    EXPECT_THROW((void)open_store_view(store.path()), StoreIoError);
  }
  {
    failpoint::Scoped fp("store.sniff.read", "once:EIO");
    EXPECT_THROW((void)open_store_view(store.path()), StoreIoError);
  }
  EXPECT_NE(open_store_view(store.path()), nullptr);
}

// ------------------------------------------------------------------
// Retry + quarantine on the sharded serving path.

TEST(FaultInjection, TransientOpenFailureRetriesAndServes) {
  ScopedRetryPolicy retry(3, std::chrono::microseconds(1));
  TempStore manifest("retry_ok", ".ftcm");
  const Graph g = graph::random_connected(48, 120, 11);
  const auto scheme = make_scheme(g, test_config(BackendKind::kCoreFtc, 2));
  save_sharded(*scheme, manifest.path(), 4);

  const auto view = ShardedStoreView::open(manifest.path());
  // First open attempt of the first touched shard fails transiently;
  // the retry must succeed without quarantining anything.
  failpoint::Scoped fp("store.map.open", "nth:1:EAGAIN");
  (void)view->vertex_blob(0);
  EXPECT_EQ(view->shards_quarantined(), 0u);
  EXPECT_EQ(view->shards_open(), 1u);
}

TEST(FaultInjection, ExhaustedRetriesQuarantineExactlyThatShard) {
  ScopedRetryPolicy retry(2, std::chrono::microseconds(1));
  TempStore manifest("quarantine", ".ftcm");
  const Graph g = graph::random_connected(64, 160, 3);
  const auto scheme = make_scheme(g, test_config(BackendKind::kCoreFtc, 2));
  save_sharded(*scheme, manifest.path(), 4);

  const auto view = ShardedStoreView::open(manifest.path());
  const auto recs = view->shards();
  // Route a read into shard 2 while every open fails persistently.
  const VertexId damaged_v = static_cast<VertexId>(recs[2].vertex_begin);
  {
    failpoint::Scoped fp("store.map.open", "always:EIO");
    try {
      (void)view->vertex_blob(damaged_v);
      FAIL() << "expected DegradedError";
    } catch (const DegradedError& e) {
      EXPECT_EQ(e.shard, 2u);
      EXPECT_EQ(e.vertex_begin, recs[2].vertex_begin);
      EXPECT_EQ(e.vertex_end, recs[2].vertex_end);
      EXPECT_EQ(e.edge_begin, recs[2].edge_begin);
      EXPECT_EQ(e.edge_end, recs[2].edge_end);
    }
  }
  // Quarantine is sticky even after the fault clears (repair = next
  // generation), and names exactly one shard.
  EXPECT_THROW((void)view->vertex_blob(damaged_v), DegradedError);
  EXPECT_EQ(view->shards_quarantined(), 1u);
  const auto report = view->quarantine_report();
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].shard, 2u);
  EXPECT_FALSE(report[0].reason.empty());
  // Every other shard still serves.
  (void)view->vertex_blob(0);
  (void)view->vertex_blob(static_cast<VertexId>(recs[1].vertex_begin));
  (void)view->vertex_blob(static_cast<VertexId>(recs[3].vertex_begin));
  EXPECT_EQ(view->shards_open(), 3u);
}

TEST(FaultInjection, PrefetchKeepsOpeningPastAFailedShard) {
  ScopedRetryPolicy retry(1, std::chrono::microseconds(1));
  TempStore manifest("prefetch_continue", ".ftcm");
  const Graph g = graph::random_connected(64, 160, 5);
  const auto scheme = make_scheme(g, test_config(BackendKind::kCoreFtc, 2));
  save_sharded(*scheme, manifest.path(), 4);

  const auto view = ShardedStoreView::open(manifest.path());
  failpoint::Scoped fp("store.map.open", "nth:1:EIO");
  // Single-threaded prefetch: shard 0's open fails and quarantines, the
  // other three must still be mapped before the error is rethrown.
  EXPECT_THROW((void)view->prefetch(1), DegradedError);
  EXPECT_EQ(view->shards_open(), 3u);
  EXPECT_EQ(view->shards_quarantined(), 1u);
  EXPECT_EQ(view->quarantine_report()[0].shard, 0u);
}

TEST(FaultInjection, FailedSwapLeavesOldGenerationServing) {
  ScopedRetryPolicy retry(1, std::chrono::microseconds(1));
  TempStore gen_a("swap_a", ".ftcm");
  TempStore gen_b("swap_b", ".ftcm");
  const unsigned f = 2;
  const Graph g = graph::random_connected(48, 120, 17);
  // gen_b is built from a DIFFERENT graph so its shards are not
  // byte-identical to gen_a's — byte-identical shards would be adopted
  // across the swap and the open failpoint would never fire.
  const Graph g2 = graph::random_connected(48, 120, 18);
  save_sharded(*make_scheme(g, test_config(BackendKind::kCoreFtc, f)),
               gen_a.path(), 4);
  save_sharded(*make_scheme(g2, test_config(BackendKind::kCoreFtc, f)),
               gen_b.path(), 4);

  const std::vector<EdgeId> faults = {3, 40};
  BatchQueryEngine session(load_scheme(gen_a.path()),
                           FaultSpec::edges(faults));
  const bool before = session.connected(0, 47);
  EXPECT_EQ(before, graph::connected_avoiding(g, 0, 47, faults));
  {
    failpoint::Scoped fp("store.map.open", "always:EIO");
    EXPECT_THROW((void)session.swap_store(gen_b.path()), StoreError);
  }
  EXPECT_EQ(session.epoch(), 1u);
  EXPECT_EQ(session.connected(0, 47), before);
  EXPECT_EQ(session.generation_stats().shards_quarantined, 0u);
  // With the fault cleared the same swap succeeds and serves gen_b.
  EXPECT_EQ(session.swap_store(gen_b.path()), 2u);
  EXPECT_EQ(session.connected(0, 47),
            graph::connected_avoiding(g2, 0, 47, faults));
}

// ------------------------------------------------------------------
// SIGBUS-safe degraded serving: a shard truncated behind a live K=16
// generation must surface as DegradedError on its own ranges while
// every other range keeps answering correctly — never a crash.

TEST(FaultInjection, TruncatedShardBehindLiveGenerationDegradesTyped) {
  TempStore manifest("sigbus_live", ".ftcm");
  const unsigned f = 3;
  const VertexId n = 320;
  const EdgeId m = 800;
  const Graph g = graph::random_connected(n, m, 29);
  const auto scheme = make_scheme(g, test_config(BackendKind::kCoreFtc, f));
  save_sharded(*scheme, manifest.path(), 16);

  const std::vector<EdgeId> faults = {10, 200, 600};
  BatchQueryEngine session(load_scheme(manifest.path()),
                           FaultSpec::edges(faults));
  const auto view = std::dynamic_pointer_cast<const ShardedStoreView>(
      session.scheme().store_view());
  ASSERT_NE(view, nullptr);
  // Map every shard up front (the ctor only opens the shards the fault
  // labels touch) so the truncation lands behind a LIVE mapping.
  view->prefetch();
  ASSERT_EQ(view->shards_open(), 16u);

  // Ground truth before the damage.
  SplitMix64 rng(99);
  std::vector<BatchQueryEngine::Query> batch;
  for (int i = 0; i < 400; ++i) {
    batch.push_back({static_cast<VertexId>(rng.next_below(n)),
                     static_cast<VertexId>(rng.next_below(n))});
  }
  std::vector<bool> truth;
  for (const auto& q : batch) {
    truth.push_back(graph::connected_avoiding(g, q.s, q.t, faults));
  }
  const auto results = session.run_sequential(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(results[i], truth[i]) << "pre-damage answers must be exact";
  }

  // Truncate shard 9 on disk, behind the live mapping.
  const std::size_t damaged = 9;
  const auto recs = view->shards();
  ASSERT_EQ(::truncate(manifest.shard_path(damaged).c_str(), 0), 0);

  const auto in_damaged = [&](VertexId v) {
    return v >= recs[damaged].vertex_begin && v < recs[damaged].vertex_end;
  };
  std::size_t degraded_queries = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto& q = batch[i];
    if ((in_damaged(q.s) || in_damaged(q.t)) && q.s != q.t) {
      // s == t short-circuits without a label read, so only distinct
      // endpoints are required to surface the damage.
      try {
        (void)session.connected(q.s, q.t);
        FAIL() << "query into the truncated shard must degrade, not answer";
      } catch (const DegradedError& e) {
        EXPECT_EQ(e.shard, damaged);
        ++degraded_queries;
      }
    } else {
      EXPECT_EQ(session.connected(q.s, q.t), truth[i])
          << "healthy ranges must keep answering correctly";
    }
  }
  EXPECT_GT(degraded_queries, 0u) << "test must actually hit the dead range";

  EXPECT_EQ(view->shards_quarantined(), 1u);
  EXPECT_EQ(view->quarantine_report()[0].shard, damaged);
  const auto stats = session.generation_stats();
  EXPECT_TRUE(stats.degraded);
  EXPECT_EQ(stats.num_shards, 16u);
  EXPECT_EQ(stats.shards_quarantined, 1u);
  ASSERT_EQ(stats.quarantine.size(), 1u);
  EXPECT_EQ(stats.quarantine[0].shard, damaged);
  EXPECT_EQ(stats.quarantine[0].vertex_begin, recs[damaged].vertex_begin);
}

// ------------------------------------------------------------------
// Writers over a backing truncated behind the live mapping: save(),
// digest_container and save_sharded copy container bytes straight out
// of the loaded scheme's view, so the damage must surface as the typed
// error — StoreIoError for a single container, DegradedError for a
// sharded source — and never kill the process.

bool path_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

TEST(FaultInjection, WritersOverTruncatedContainerThrowTyped) {
  TempStore source("sigbus_writer_src", ".ftcs");
  TempStore copy("sigbus_writer_copy", ".ftcs");
  TempStore sharded("sigbus_writer_sharded", ".ftcm");
  const Graph g = graph::random_connected(512, 2048, 41);
  make_scheme(g, test_config(BackendKind::kCoreFtc, 4))->save(source.path());
  const auto loaded = load_scheme(source.path());
  ASSERT_EQ(::truncate(source.path().c_str(), 4096), 0);

  EXPECT_THROW(loaded->save(copy.path()), StoreIoError);
  EXPECT_THROW((void)store::digest_container(*loaded, 0, g.num_vertices(), 0,
                                             g.num_edges(), true),
               StoreIoError);
  EXPECT_THROW(save_sharded(*loaded, sharded.path(), 4), StoreIoError);
  EXPECT_FALSE(path_exists(copy.path()));
  EXPECT_FALSE(path_exists(sharded.path()));
  for (unsigned k = 0; k < 4; ++k) {
    EXPECT_FALSE(path_exists(sharded.shard_path(k))) << "shard " << k;
  }
}

TEST(FaultInjection, WritersOverTruncatedShardThrowDegraded) {
  TempStore source("sigbus_writer_shsrc", ".ftcm");
  TempStore copy("sigbus_writer_shcopy", ".ftcs");
  TempStore sharded("sigbus_writer_shout", ".ftcm");
  const Graph g = graph::random_connected(512, 2048, 43);
  save_sharded(*make_scheme(g, test_config(BackendKind::kCoreFtc, 4)),
               source.path(), 4);
  const auto loaded = load_scheme(source.path());
  loaded->prefetch();  // every shard mapped: the damage lands behind it
  const std::size_t damaged = 2;
  ASSERT_EQ(::truncate(source.shard_path(damaged).c_str(), 0), 0);

  const auto expect_degraded = [&](auto&& write) {
    try {
      write();
      ADD_FAILURE() << "write over a truncated shard must degrade";
    } catch (const DegradedError& e) {
      EXPECT_EQ(e.shard, damaged);
    }
  };
  expect_degraded([&] { loaded->save(copy.path()); });
  expect_degraded([&] {
    (void)store::digest_container(*loaded, 0, g.num_vertices(), 0,
                                  g.num_edges(), true);
  });
  expect_degraded([&] { save_sharded(*loaded, sharded.path(), 4); });
  EXPECT_FALSE(path_exists(copy.path()));
  EXPECT_FALSE(path_exists(sharded.path()));
}

// Preparing a fault set copies each fault's label prefixes straight out
// of the mapped blobs. Over a backing truncated behind the live mapping
// that copy must fail typed — StoreIoError for a single container,
// DegradedError naming the shard for a sharded store — and the engine's
// previous fault set, already copied out, must keep answering.
TEST(FaultInjection, PrepareOverTruncatedStoreThrowsTyped) {
  const std::size_t kPage = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  SplitMix64 rng(61);
  const auto answers_unchanged = [&](const Graph& g, BatchQueryEngine& session,
                                     const std::vector<EdgeId>& faults,
                                     const auto& allowed) {
    int checked = 0;
    while (checked < 200) {
      const auto s = static_cast<VertexId>(rng.next_below(g.num_vertices()));
      const auto t = static_cast<VertexId>(rng.next_below(g.num_vertices()));
      if (!allowed(s) || !allowed(t)) continue;
      ASSERT_EQ(session.connected(s, t),
                graph::connected_avoiding(g, s, t, faults))
          << "s=" << s << " t=" << t;
      ++checked;
    }
  };

  {
    TempStore source("prepare_trunc", ".ftcs");
    const Graph g = graph::random_connected(512, 2048, 47);
    make_scheme(g, test_config(BackendKind::kCoreFtc, 4))->save(source.path());
    const std::vector<EdgeId> early = {1, 5, 9, 14};
    BatchQueryEngine session(load_scheme(source.path()),
                             FaultSpec::edges(early));
    const StoreView& view = *session.scheme().store_view();
    const std::uint8_t* base = view.params_blob().data() - store::kHeaderBytes;
    const auto offset = [&](EdgeId e) {
      return static_cast<std::size_t>(view.edge_blob(e).data() - base);
    };
    // Cut at a page boundary halfway through the edge blobs. The page
    // holding the new end of file stays readable, so "late" edges start
    // a page past it.
    const std::size_t cut = offset(g.num_edges() / 2) / kPage * kPage;
    for (const EdgeId e : early) {
      ASSERT_LE(offset(e) + view.edge_blob(e).size(), cut) << "edge " << e;
    }
    std::vector<EdgeId> late;
    for (EdgeId e = g.num_edges() - 1; late.size() < 3; --e) {
      if (offset(e) >= cut + kPage) late.push_back(e);
    }
    answers_unchanged(g, session, early, [](VertexId) { return true; });
    ASSERT_EQ(::truncate(source.path().c_str(), static_cast<off_t>(cut)), 0);

    EXPECT_THROW((void)session.scheme().prepare_faults(FaultSpec::edges(late)),
                 StoreIoError);
    std::vector<EdgeId> mixed = early;
    mixed.push_back(late[0]);
    EXPECT_THROW(session.reset_faults(FaultSpec::edges(mixed)), StoreIoError);
    EXPECT_THROW(session.reset_faults(FaultSpec::edges(late)), StoreIoError);
    answers_unchanged(g, session, early, [](VertexId) { return true; });
  }

  {
    TempStore manifest("prepare_trunc_sharded", ".ftcm");
    const Graph g = graph::random_connected(512, 2048, 53);
    save_sharded(*make_scheme(g, test_config(BackendKind::kCoreFtc, 4)),
                 manifest.path(), 4);
    auto loaded = load_scheme(manifest.path());
    loaded->prefetch();  // every shard mapped: the damage lands behind it
    const auto view =
        std::dynamic_pointer_cast<const ShardedStoreView>(loaded->store_view());
    ASSERT_NE(view, nullptr);
    const auto recs = view->shards();
    const std::size_t damaged = 2;
    const auto& dead = recs[damaged];
    ASSERT_LT(dead.edge_begin, dead.edge_end);
    const std::vector<EdgeId> healthy = {
        static_cast<EdgeId>(recs[0].edge_begin),
        static_cast<EdgeId>(recs[1].edge_begin + 3),
        static_cast<EdgeId>(recs[3].edge_end - 1)};
    const std::vector<EdgeId> late = {static_cast<EdgeId>(dead.edge_begin),
                                      static_cast<EdgeId>(dead.edge_end - 1)};
    BatchQueryEngine session(std::move(loaded), FaultSpec::edges(healthy));
    const auto outside_dead = [&](VertexId v) {
      return v < dead.vertex_begin || v >= dead.vertex_end;
    };
    answers_unchanged(g, session, healthy, outside_dead);
    ASSERT_EQ(::truncate(manifest.shard_path(damaged).c_str(), 0), 0);

    const auto expect_degraded = [&](auto&& prepare) {
      try {
        prepare();
        ADD_FAILURE() << "prepare over a truncated shard must degrade";
      } catch (const DegradedError& e) {
        EXPECT_EQ(e.shard, damaged);
      }
    };
    expect_degraded(
        [&] { (void)session.scheme().prepare_faults(FaultSpec::edges(late)); });
    std::vector<EdgeId> mixed = healthy;
    mixed.push_back(late[1]);
    expect_degraded([&] { session.reset_faults(FaultSpec::edges(mixed)); });
    answers_unchanged(g, session, healthy, outside_dead);
  }
}

TEST(FaultInjection, TruncationUnderConcurrentSessionsNeverCrashes) {
  TempStore manifest("sigbus_concurrent", ".ftcm");
  const unsigned f = 2;
  const VertexId n = 256;
  const EdgeId m = 640;
  const Graph g = graph::random_connected(n, m, 31);
  const auto scheme = make_scheme(g, test_config(BackendKind::kCoreFtc, f));
  save_sharded(*scheme, manifest.path(), 16);

  const std::vector<EdgeId> faults = {7, 300};
  const auto view = ShardedStoreView::open(manifest.path());
  (void)view->prefetch();

  std::atomic<bool> stop{false};
  std::atomic<int> ready{0};
  std::atomic<std::uint64_t> degraded{0};
  std::atomic<std::uint64_t> answered{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) {
    pool.emplace_back([&, t] {
      // One engine per thread (the engine's query contract is
      // single-driver), all sharing the one live view. Construction
      // (fault-label copies) must finish before the damage lands.
      BatchQueryEngine session(load_scheme(view), FaultSpec::edges(faults));
      ready.fetch_add(1);
      SplitMix64 rng(1000 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto s = static_cast<VertexId>(rng.next_below(n));
        const auto u = static_cast<VertexId>(rng.next_below(n));
        try {
          (void)session.connected(s, u);
          answered.fetch_add(1, std::memory_order_relaxed);
        } catch (const DegradedError&) {
          degraded.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  while (ready.load() < 4) std::this_thread::sleep_for(
      std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_EQ(::truncate(manifest.shard_path(5).c_str(), 0), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  stop.store(true);
  for (auto& th : pool) th.join();

  EXPECT_GT(answered.load(), 0u);
  EXPECT_LE(view->shards_quarantined(), 1u);
  if (view->shards_quarantined() == 1) {
    EXPECT_EQ(view->quarantine_report()[0].shard, 5u);
  }
}

// ------------------------------------------------------------------
// fsck primitives: open_degraded + verify_shard.

TEST(FaultInjection, OpenDegradedQuarantinesDamagedShardAndServesRest) {
  TempStore manifest("fsck_prims", ".ftcm");
  const Graph g = graph::random_connected(64, 160, 41);
  const auto scheme = make_scheme(g, test_config(BackendKind::kCoreFtc, 2));
  save_sharded(*scheme, manifest.path(), 4);
  ASSERT_EQ(::truncate(manifest.shard_path(2).c_str(), 10), 0);

  // The strict open refuses outright (a damaged generation must never
  // win a swap) ...
  EXPECT_THROW((void)ShardedStoreView::open(manifest.path()), StoreError);
  // ... while the fsck/incident entry point opens degraded.
  const auto view = ShardedStoreView::open_degraded(manifest.path());
  EXPECT_EQ(view->shards_quarantined(), 1u);
  const auto report = view->quarantine_report();
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].shard, 2u);

  const auto recs = view->shards();
  (void)view->vertex_blob(0);  // healthy ranges serve
  EXPECT_THROW(
      (void)view->vertex_blob(static_cast<VertexId>(recs[2].vertex_begin)),
      DegradedError);

  // verify_shard agrees with the quarantine, shard by shard.
  for (std::size_t k = 0; k < 4; ++k) {
    if (k == 2) {
      EXPECT_THROW(view->verify_shard(k), StoreError);
    } else {
      EXPECT_NO_THROW(view->verify_shard(k));
    }
  }
}

// ------------------------------------------------------------------
// Delta-push link() fallback satellite.

TEST(FaultInjection, LinkFailureFallsBackToByteCopyAndCounts) {
  TempStore parent("link_parent", ".ftcm");
  TempStore child("link_child", ".ftcm");
  const Graph g = graph::random_connected(48, 120, 23);
  const auto scheme = make_scheme(g, test_config(BackendKind::kCoreFtc, 2));
  save_sharded(*scheme, parent.path(), 4);

  failpoint::Scoped fp("store.shard.link", "always:EXDEV");
  const DeltaPushStats stats =
      save_sharded_delta(*scheme, child.path(), parent.path());
  // Every shard is byte-identical to the parent, but the mount refuses
  // hard links: each one falls back to a full write, and the stats say
  // so — the push still succeeds.
  EXPECT_EQ(stats.shards_total, 4u);
  EXPECT_EQ(stats.shards_reused, 0u);
  EXPECT_EQ(stats.shards_written, 4u);
  EXPECT_EQ(stats.shards_link_fallback, 4u);
  EXPECT_GT(stats.bytes_written, 0u);

  // The fallback copies must be byte-faithful: the child opens with
  // full verification and chains to the parent.
  const auto child_view = ShardedStoreView::open(child.path());
  const auto parent_view = ShardedStoreView::open(parent.path());
  EXPECT_EQ(child_view->info().manifest_epoch, 2u);
  EXPECT_EQ(child_view->info().parent_digest,
            parent_view->info().payload_checksum);
  // And the copies are separate inodes (no hard link happened).
  struct stat a{}, b{};
  ASSERT_EQ(::stat(parent.shard_path(0).c_str(), &a), 0);
  ASSERT_EQ(::stat(child.shard_path(0).c_str(), &b), 0);
  EXPECT_NE(a.st_ino, b.st_ino);
}

TEST(FaultInjection, HealthyDeltaPushRecordsZeroFallbacks) {
  TempStore parent("nolink_parent", ".ftcm");
  TempStore child("nolink_child", ".ftcm");
  const Graph g = graph::random_connected(48, 120, 23);
  const auto scheme = make_scheme(g, test_config(BackendKind::kCoreFtc, 2));
  save_sharded(*scheme, parent.path(), 4);
  const DeltaPushStats stats =
      save_sharded_delta(*scheme, child.path(), parent.path());
  EXPECT_EQ(stats.shards_reused, 4u);
  EXPECT_EQ(stats.shards_link_fallback, 0u);
}

// ------------------------------------------------------------------
// Journal locking satellite.

TEST(FaultInjection, ConcurrentJournalAppendsLoseNoFrames) {
  TempStore store("jrnl_race", ".ftcs");
  const Graph g = graph::random_connected(48, 200, 37);
  const auto scheme = make_scheme(g, test_config(BackendKind::kCoreFtc, 8));
  scheme->save(store.path());
  const auto view = LabelStoreView::open(store.path());
  const std::uint64_t digest = view->info().payload_checksum;
  const std::string jpath = journal_path_for(store.path());

  // Two threads append disjoint edge sets; the flock around the
  // read-modify-write must serialize them so no append is lost.
  const auto appender = [&](EdgeId begin, EdgeId end) {
    for (EdgeId e = begin; e < end; ++e) {
      const std::vector<EdgeId> one{e};
      (void)DeletionJournal::append(jpath, digest, 8, one);
    }
  };
  std::thread a(appender, 0, 4);
  std::thread b(appender, 4, 8);
  a.join();
  b.join();

  const auto j = DeletionJournal::open(jpath);
  EXPECT_EQ(j->deleted_edges().size(), 8u);
  // Eight effective appends, one frame: 40 bytes of framing + 8 IDs.
  EXPECT_EQ(j->epoch(), 8u);
  EXPECT_EQ(j->file_bytes(), 72u);
}

TEST(FaultInjection, JournalFailpointsAreTyped) {
  TempStore store("jrnl_fp", ".ftcs");
  const Graph g = graph::random_connected(24, 60, 7);
  const auto scheme = make_scheme(g, test_config(BackendKind::kCoreFtc, 4));
  scheme->save(store.path());
  const auto view = LabelStoreView::open(store.path());
  const std::uint64_t digest = view->info().payload_checksum;
  const std::string jpath = journal_path_for(store.path());
  const std::vector<EdgeId> first{1};
  const std::vector<EdgeId> second{2};
  ASSERT_EQ(DeletionJournal::append(jpath, digest, 4, first), 1u);
  {
    failpoint::Scoped fp("journal.flock", "once:EACCES");
    EXPECT_THROW((void)DeletionJournal::append(jpath, digest, 4, second),
                 StoreIoError);
  }
  {
    failpoint::Scoped fp("journal.read", "once:EIO");
    EXPECT_THROW((void)DeletionJournal::open(jpath), StoreIoError);
  }
  // The journal survived both injected failures intact.
  const auto j = DeletionJournal::open(jpath);
  EXPECT_EQ(j->deleted_edges().size(), 1u);
}

// ------------------------------------------------------------------
// fd exhaustion: a K=16 store under a shrinking RLIMIT_NOFILE must fail
// typed, never crash, and never leak a descriptor.

TEST(FaultInjection, FdExhaustionSweepIsTypedAndLeakFree) {
  ScopedRetryPolicy retry(2, std::chrono::microseconds(1));
  TempStore manifest("fd_sweep", ".ftcm");
  const Graph g = graph::random_connected(128, 320, 43);
  const auto scheme = make_scheme(g, test_config(BackendKind::kCoreFtc, 2));
  save_sharded(*scheme, manifest.path(), 16);

  struct rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  const std::size_t baseline = count_open_fds();

  for (const std::size_t headroom : {16u, 8u, 4u, 2u, 1u, 0u}) {
    for (int iteration = 0; iteration < 3; ++iteration) {
      struct rlimit tight = saved;
      tight.rlim_cur = static_cast<rlim_t>(baseline + headroom);
      ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);
      try {
        const auto view = ShardedStoreView::open(manifest.path());
        (void)view->prefetch(4);
        (void)view->vertex_blob(0);
      } catch (const StoreError&) {
        // Typed failure (open/mmap EMFILE, possibly quarantined) is the
        // acceptable outcome; anything else escapes and fails the test.
      }
      ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
      EXPECT_EQ(count_open_fds(), baseline)
          << "headroom " << headroom << " iteration " << iteration
          << " leaked a descriptor";
    }
  }
  // With the limit restored the store serves normally again.
  const auto view = ShardedStoreView::open(manifest.path());
  (void)view->prefetch();
  EXPECT_EQ(view->shards_open(), 16u);
}

}  // namespace
}  // namespace ftc::core
