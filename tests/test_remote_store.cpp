// RemoteStoreView + ShardHttpServer end-to-end coverage, all on
// loopback with in-process servers.
//
// The tier's contract: a sharded store served over HTTP answers
// byte-identically to the local-directory open (blobs, queries, journal
// replay), a swap to a delta-pushed child epoch transfers only the
// changed shard (cache hits + mmap adoption cover the rest), and
// transport faults follow the same retry → quarantine → DegradedError
// ladder as local I/O faults — healthy shards keep serving throughout.
#include <gtest/gtest.h>
#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/batch_engine.hpp"
#include "core/connectivity_scheme.hpp"
#include "core/journal.hpp"
#include "core/label_store.hpp"
#include "core/shard_cache.hpp"
#include "core/shard_server.hpp"
#include "core/shard_source.hpp"
#include "core/sharded_store.hpp"
#include "flip_edges.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "util/common.hpp"
#include "util/failpoint.hpp"

namespace ftc::core {
namespace {

using graph::EdgeId;
using graph::Graph;
using graph::VertexId;

SchemeConfig test_config(unsigned f) {
  SchemeConfig cfg;
  cfg.backend = BackendKind::kCoreFtc;
  cfg.set_f(f);
  cfg.ftc.k_scale = 2.0;
  return cfg;
}

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(::testing::TempDir() + "ftc_" + name + "_" +
              std::to_string(::getpid())) {
    remove_all();
    ::mkdir(path_.c_str(), 0755);
  }
  ~ScratchDir() { remove_all(); }
  const std::string& path() const { return path_; }
  std::string file(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  void remove_all() {
    if (DIR* d = ::opendir(path_.c_str())) {
      while (const struct dirent* ent = ::readdir(d)) {
        const std::string name = ent->d_name;
        if (name == "." || name == "..") continue;
        std::remove((path_ + "/" + name).c_str());
      }
      ::closedir(d);
    }
    ::rmdir(path_.c_str());
  }
  std::string path_;
};

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

bool spans_equal(std::span<const std::uint8_t> a,
                 std::span<const std::uint8_t> b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

// Swaps a fresh, budget-free cache in as the process default for the
// test's duration — load_scheme(url) and swap_store(url) reach the
// remote tier through default_remote_cache().
class ScopedDefaultCache {
 public:
  explicit ScopedDefaultCache(const std::string& dir,
                              std::uint64_t max_bytes = 0)
      : cache_(std::make_shared<ShardCache>(dir, max_bytes)),
        prior_(set_default_remote_cache(cache_)) {}
  ~ScopedDefaultCache() { set_default_remote_cache(prior_); }
  const std::shared_ptr<ShardCache>& cache() const { return cache_; }

 private:
  std::shared_ptr<ShardCache> cache_;
  std::shared_ptr<ShardCache> prior_;
};

// One sharded store on disk plus a loopback origin serving its
// directory. url() is the manifest's http:// address.
struct ServedStore {
  explicit ServedStore(const std::string& name, unsigned k_shards,
                       unsigned seed = 13, unsigned n = 48, unsigned m = 120)
      : dir(name),
        graph(graph::random_connected(n, m, seed)),
        scheme(make_scheme(graph, test_config(3))),
        server(dir.path()) {
    save_sharded(*scheme, dir.file("store.ftcm"), k_shards);
    server.start();
  }
  std::string url() const { return server.base_url() + "store.ftcm"; }
  std::string manifest() const { return dir.file("store.ftcm"); }

  ScratchDir dir;
  Graph graph;
  std::unique_ptr<ConnectivityScheme> scheme;
  ShardHttpServer server;
};

// ------------------------------------------------------------------
// HttpShardSource against the in-process origin: the raw transport.

TEST(ShardHttpServer, ServesObjectsRangesAndStats) {
  ServedStore served("httpsrv", 2);
  const HttpShardSource src("127.0.0.1", served.server.port(), "/");

  const auto disk = read_file(served.manifest());
  const auto fetched = src.fetch("store.ftcm");
  EXPECT_EQ(fetched, disk);

  const auto slice = src.fetch_range("store.ftcm", 8, 32);
  ASSERT_EQ(slice.size(), 32u);
  EXPECT_TRUE(spans_equal(
      slice, std::span<const std::uint8_t>(disk).subspan(8, 32)));

  std::uint64_t size = 0;
  ASSERT_TRUE(src.stat("store.ftcm", &size));
  EXPECT_EQ(size, disk.size());
  EXPECT_FALSE(src.stat("absent.ftcm", &size));
  EXPECT_THROW((void)src.fetch("absent.ftcm"), StoreError);
  EXPECT_THROW((void)src.fetch_range("store.ftcm", disk.size(), 1),
               StoreError);
  // Traversal attempts must 404, never escape the served directory.
  EXPECT_THROW((void)src.fetch("../store.ftcm"), StoreError);

  const auto stats = served.server.stats();
  EXPECT_GE(stats.requests, 5u);
  EXPECT_GE(stats.range_requests, 1u);
  EXPECT_GE(stats.not_found, 2u);
  EXPECT_GT(stats.bytes_sent, disk.size());
}

TEST(ShardHttpSource, ConnectFailureIsTransient) {
  // Nothing listens on the server's port once it stops: connect must
  // fail with the retryable class, not hang or crash.
  std::uint16_t dead_port;
  {
    ServedStore served("deadport", 1);
    dead_port = served.server.port();
    served.server.stop();
  }
  const HttpShardSource src("127.0.0.1", dead_port, "/");
  EXPECT_THROW((void)src.fetch("store.ftcm"), StoreIoError);
}

// ------------------------------------------------------------------
// RemoteStoreView: parity, prefetch, warm cache.

TEST(RemoteStore, BlobsAndInfoMatchLocalOpen) {
  ServedStore served("parity", 4);
  ScratchDir cache_dir("parity_cache");
  auto cache = std::make_shared<ShardCache>(cache_dir.path(), 0);

  const auto local = ShardedStoreView::open(served.manifest());
  const auto remote = RemoteStoreView::open(served.url(), true, nullptr,
                                            cache);
  ASSERT_NE(remote, nullptr);
  EXPECT_EQ(remote->url(), served.url());
  EXPECT_EQ(remote->info().num_vertices, local->info().num_vertices);
  EXPECT_EQ(remote->info().num_edges, local->info().num_edges);
  EXPECT_EQ(remote->info().num_shards, local->info().num_shards);
  EXPECT_EQ(remote->info().manifest_epoch, local->info().manifest_epoch);
  EXPECT_EQ(remote->info().payload_checksum, local->info().payload_checksum);
  EXPECT_EQ(remote->info().file_bytes, local->info().file_bytes);

  EXPECT_TRUE(spans_equal(remote->params_blob(), local->params_blob()));
  for (VertexId v = 0; v < local->info().num_vertices; ++v) {
    ASSERT_TRUE(spans_equal(remote->vertex_blob(v), local->vertex_blob(v)))
        << "vertex " << v;
  }
  for (EdgeId e = 0; e < local->info().num_edges; ++e) {
    ASSERT_TRUE(spans_equal(remote->edge_blob(e), local->edge_blob(e)))
        << "edge " << e;
  }
  // Adjacency is carried by the manifest itself.
  std::vector<EdgeId> local_adj;
  std::vector<EdgeId> remote_adj;
  for (VertexId v = 0; v < local->info().num_vertices; ++v) {
    local_adj.clear();
    remote_adj.clear();
    local->adjacency_append(v, local_adj);
    remote->adjacency_append(v, remote_adj);
    ASSERT_EQ(remote_adj, local_adj) << "vertex " << v;
  }
}

TEST(RemoteStore, PrefetchFetchesEveryShardOnceThenServesWarm) {
  ServedStore served("prefetch", 4);
  ScratchDir cache_dir("prefetch_cache");
  auto cache = std::make_shared<ShardCache>(cache_dir.path(), 0);

  const auto remote = RemoteStoreView::open(served.url(), true, nullptr,
                                            cache);
  EXPECT_EQ(remote->shards_open(), 0u);  // shards stay lazy across the open
  const auto stats = remote->prefetch(4);
  EXPECT_EQ(stats.shards_opened, 4u);
  EXPECT_EQ(remote->shards_open(), 4u);
  EXPECT_EQ(remote->prefetch(4).shards_opened, 0u);  // nothing left to fetch

  std::uint64_t shard_bytes = 0;
  for (const auto& rec : remote->shards()) shard_bytes += rec.file_bytes;
  auto cstats = cache->stats();
  EXPECT_EQ(cstats.misses, 4u);
  EXPECT_EQ(cstats.bytes_fetched, shard_bytes);

  // A second open over the same cache is all hits: no shard bytes move.
  const auto warm = RemoteStoreView::open(served.url(), true, nullptr, cache);
  EXPECT_EQ(warm->prefetch(4).shards_opened, 4u);
  cstats = cache->stats();
  EXPECT_EQ(cstats.misses, 4u);
  EXPECT_EQ(cstats.hits, 4u);
  EXPECT_EQ(cstats.bytes_fetched, shard_bytes);
}

TEST(RemoteStore, LoadSchemeAnswersMatchLocalThroughEngine) {
  ServedStore served("engine", 4, 29);
  ScratchDir cache_dir("engine_cache");
  const ScopedDefaultCache cache(cache_dir.path());

  const std::vector<EdgeId> faults{1, 5};
  std::vector<BatchQueryEngine::Query> queries;
  for (VertexId s = 0; s < served.graph.num_vertices(); ++s) {
    queries.push_back({s, (s * 7 + 3) % served.graph.num_vertices()});
  }
  BatchQueryEngine local_session(load_scheme(served.manifest()),
                                 FaultSpec::edges(faults));
  // load_scheme(url) rides the open_store_view dispatch — no
  // remote-specific call sites above the store layer.
  BatchQueryEngine remote_session(load_scheme(served.url()),
                                  FaultSpec::edges(faults));
  const auto expected = local_session.run_sequential(queries);
  EXPECT_EQ(remote_session.run_sequential(queries), expected);
  EXPECT_EQ(remote_session.run_parallel(queries, 4), expected);
}

// ------------------------------------------------------------------
// Delta swap: only the changed shard crosses the wire.

TEST(RemoteStore, SwapToDeltaPushedChildFetchesOnlyChangedShard) {
  ServedStore served("delta", 4, 31);
  ScratchDir cache_dir("delta_cache");
  const ScopedDefaultCache cache(cache_dir.path());

  auto scheme = load_scheme(served.url());
  const auto parent_view = std::dynamic_pointer_cast<const ShardedStoreView>(
      scheme->store_view());
  ASSERT_NE(parent_view, nullptr);
  parent_view->prefetch(4);  // all four shards cached + mapped

  const std::vector<EdgeId> faults{2};
  BatchQueryEngine session(std::move(scheme), FaultSpec::edges(faults));

  // Push a child epoch whose only change is edge 0's label — exactly
  // shard 0's bytes differ — and serve it from the same origin dir.
  const auto patched = test_support::flip_edges(*served.scheme, served.graph, {0});
  const DeltaPushStats push = save_sharded_delta(
      *patched, served.dir.file("child.ftcm"), served.manifest());
  ASSERT_EQ(push.shards_written, 1u);
  ASSERT_EQ(push.shards_reused, 3u);

  const auto before = cache.cache()->stats();
  // swap_store prefetches the incoming generation before publishing it;
  // with the parent view as reuse source the three unchanged shards are
  // adopted onto their existing mmaps, so the swap moves exactly ONE
  // shard over the wire — a cache miss for the child's new bytes.
  session.swap_store(served.server.base_url() + "child.ftcm");
  const auto child_view = std::dynamic_pointer_cast<const ShardedStoreView>(
      session.scheme().store_view());
  ASSERT_NE(child_view, nullptr);
  EXPECT_EQ(child_view->shards_adopted(), 3u);
  const auto after = cache.cache()->stats();
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.hits, before.hits);  // adoption never re-touches the cache
  // The generation is already warm: another prefetch maps nothing new
  // and re-reports the constant adoption count.
  const auto pstats = child_view->prefetch(4);
  EXPECT_EQ(pstats.shards_opened, 0u);
  EXPECT_EQ(pstats.shards_adopted, 3u);
}

// ------------------------------------------------------------------
// Fault ladder: transient retries, persistent failures degrade the one
// shard while the rest keep serving.

// Shrinks the retry schedule (and restores it) so always-failing drills
// do not sleep through real backoff.
class ScopedRetryPolicy {
 public:
  ScopedRetryPolicy(unsigned attempts, std::chrono::microseconds backoff)
      : prior_(default_retry_policy()) {
    default_retry_policy().max_attempts = attempts;
    default_retry_policy().initial_backoff = backoff;
  }
  ~ScopedRetryPolicy() { default_retry_policy() = prior_; }

 private:
  RetryPolicy prior_;
};

TEST(RemoteStoreFaults, TransientReadFailureRetriesAndSucceeds) {
  ServedStore served("retry", 2);
  ScratchDir cache_dir("retry_cache");
  auto cache = std::make_shared<ShardCache>(cache_dir.path(), 0);
  const ScopedRetryPolicy policy(3, std::chrono::microseconds(50));

  const auto remote = RemoteStoreView::open(served.url(), true, nullptr,
                                            cache);
  // One injected EIO on the next socket read: the shard fetch fails
  // once, the open_shard retry loop re-fetches, the query answers.
  failpoint::Scoped fp("remote.read", "once:EIO");
  EXPECT_GT(remote->vertex_blob(0).size(), 0u);
  EXPECT_GE(fp.hits(), 1u);  // the failing recv plus the retry's reads
  EXPECT_EQ(remote->shards_quarantined(), 0u);
}

TEST(RemoteStoreFaults, PersistentFailureDegradesShardOthersKeepServing) {
  ServedStore served("degrade", 4);
  ScratchDir cache_dir("degrade_cache");
  auto cache = std::make_shared<ShardCache>(cache_dir.path(), 0);
  const ScopedRetryPolicy policy(2, std::chrono::microseconds(50));

  const auto remote = RemoteStoreView::open(served.url(), true, nullptr,
                                            cache);
  // Warm shard 0 while the origin is healthy.
  const VertexId healthy_v = remote->shards()[0].vertex_begin;
  EXPECT_GT(remote->vertex_blob(healthy_v).size(), 0u);

  // Every read now fails: the first touch of the LAST shard exhausts
  // its retries and quarantines exactly that shard.
  const auto& last = remote->shards()[remote->shards().size() - 1];
  const VertexId cold_v = last.vertex_begin;
  ASSERT_GT(last.vertex_end, last.vertex_begin);
  {
    failpoint::Scoped fp("remote.read", "always:EIO");
    try {
      (void)remote->vertex_blob(cold_v);
      FAIL() << "expected DegradedError";
    } catch (const DegradedError& e) {
      EXPECT_EQ(e.shard, remote->shards().size() - 1);
      EXPECT_EQ(e.vertex_begin, last.vertex_begin);
      EXPECT_EQ(e.vertex_end, last.vertex_end);
    }
    // Warm shards never touch the wire again: they answer even while
    // the origin is down.
    EXPECT_GT(remote->vertex_blob(healthy_v).size(), 0u);
  }
  EXPECT_EQ(remote->shards_quarantined(), 1u);
  // Quarantine is sticky — the shard stays dead after the fault clears
  // (a swap to a fresh generation is the recovery path).
  EXPECT_THROW((void)remote->vertex_blob(cold_v), DegradedError);
  const auto report = remote->quarantine_report();
  ASSERT_EQ(report.size(), 1u);
  EXPECT_NE(report[0].reason.find("remote"), std::string::npos);
}

TEST(RemoteStoreFaults, CorruptOriginShardFailsTypedNotCrash) {
  ServedStore served("corrupt", 2);
  ScratchDir cache_dir("corrupt_cache");
  auto cache = std::make_shared<ShardCache>(cache_dir.path(), 0);
  const ScopedRetryPolicy policy(2, std::chrono::microseconds(50));

  // Flip a payload byte of shard 0 on the origin: the transfer works
  // but the digest check refuses to publish, and the shard degrades.
  const std::string shard_path = served.dir.file("store.ftcm.shard0.ftcs");
  auto bytes = read_file(shard_path);
  ASSERT_GT(bytes.size(), store::kHeaderBytes);
  bytes[bytes.size() - 1] ^= 0x40;
  {
    std::ofstream out(shard_path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  const auto remote = RemoteStoreView::open(served.url(), true, nullptr,
                                            cache);
  EXPECT_THROW((void)remote->vertex_blob(remote->shards()[0].vertex_begin),
               DegradedError);
  EXPECT_EQ(cache->stats().entries, 0u);  // corrupt bytes never published
}

// ------------------------------------------------------------------
// Journal sidecar over the wire.

TEST(RemoteStore, JournalSidecarReplaysSameAsLocal) {
  ServedStore served("journal", 2, 37);
  ScratchDir cache_dir("journal_cache");
  const ScopedDefaultCache cache(cache_dir.path());

  // Journal one deleted edge next to the manifest; the origin serves it
  // as "<manifest>.jrnl" like any other object.
  const auto view = ShardedStoreView::open(served.manifest());
  const EdgeId dead_edge = 4;
  DeletionJournal::append(journal_path_for(served.manifest()),
                          view->info().payload_checksum, 3,
                          std::vector<EdgeId>{dead_edge});

  std::vector<BatchQueryEngine::Query> queries;
  for (VertexId s = 0; s + 1 < served.graph.num_vertices(); s += 3) {
    queries.push_back({s, s + 1});
  }
  BatchQueryEngine local_session(load_scheme(served.manifest()), FaultSpec{});
  BatchQueryEngine remote_session(load_scheme(served.url()), FaultSpec{});
  EXPECT_EQ(remote_session.num_faults(), local_session.num_faults());
  EXPECT_EQ(remote_session.run_sequential(queries),
            local_session.run_sequential(queries));
}

// ------------------------------------------------------------------
// Eviction during serving: a tiny budget stays correct, just slower.

TEST(RemoteStore, TinyCacheBudgetStillAnswersCorrectly) {
  ServedStore served("tiny", 4, 41);
  ScratchDir cache_dir("tiny_cache");
  // Budget below ONE shard: every entry evicts as soon as the next
  // fetch lands; already-mapped shards keep serving regardless.
  const ScopedDefaultCache cache(cache_dir.path(), 1024);

  const std::vector<EdgeId> faults{0};
  std::vector<BatchQueryEngine::Query> queries;
  for (VertexId s = 0; s < served.graph.num_vertices(); s += 2) {
    queries.push_back({s, (s + 11) % served.graph.num_vertices()});
  }
  BatchQueryEngine local_session(load_scheme(served.manifest()),
                                 FaultSpec::edges(faults));
  BatchQueryEngine remote_session(load_scheme(served.url()),
                                  FaultSpec::edges(faults));
  EXPECT_EQ(remote_session.run_sequential(queries),
            local_session.run_sequential(queries));
  const auto stats = cache.cache()->stats();
  EXPECT_GT(stats.evictions, 0u);
  // Under a budget below one shard, each publish evicts every other
  // entry: only the most recent fetch survives on disk.
  EXPECT_EQ(stats.entries, 1u);
}

}  // namespace
}  // namespace ftc::core
