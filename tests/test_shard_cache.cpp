// ShardSource + ShardCache coverage: the transport and staging layers
// under the remote serving tier.
//
// The cache's contract: a fetch returns a local path whose bytes are
// verbatim the origin's shard (digest-verified against the manifest
// record before publish), hits never re-transfer, eviction under a byte
// budget unlinks LRU files WITHOUT invalidating live mmaps, and a
// restarted process re-adopts whatever survived on disk. The
// concurrency test (fetch/evict/query races) is also the TSan target
// for this subsystem (scripts/ci.sh tsan).
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/connectivity_scheme.hpp"
#include "core/label_store.hpp"
#include "core/shard_cache.hpp"
#include "core/shard_source.hpp"
#include "core/sharded_store.hpp"
#include "graph/generators.hpp"
#include "store_fixture.hpp"
#include "util/common.hpp"
#include "util/env.hpp"
#include "util/failpoint.hpp"

namespace ftc::core {
namespace {

using graph::Graph;
using test_support::ScratchDir;
using test_support::file_exists;
using test_support::read_file;
using test_support::test_config;
using test_support::write_file;

// Builds a real K-shard store in `dir` and returns its manifest path;
// the caller reads the records through ShardedStoreView::open.
std::string make_sharded_store(const ScratchDir& dir, unsigned k_shards,
                               unsigned seed = 13) {
  const Graph g = graph::random_connected(48, 120, seed);
  const auto scheme = make_scheme(g, test_config(BackendKind::kCoreFtc, 3));
  const std::string manifest = dir.file("store.ftcm");
  save_sharded(*scheme, manifest, k_shards);
  return manifest;
}

// ------------------------------------------------------------------
// LocalDirShardSource: the transport contract against plain files.

TEST(LocalDirShardSource, FetchAndStatRoundTrip) {
  ScratchDir dir("localsrc");
  write_file(dir.file("obj"), "0123456789abcdef");
  const LocalDirShardSource src(dir.path());

  const auto all = src.fetch("obj");
  EXPECT_EQ(std::string(all.begin(), all.end()), "0123456789abcdef");

  std::uint64_t size = 0;
  EXPECT_TRUE(src.stat("obj", &size));
  EXPECT_EQ(size, 16u);
  EXPECT_FALSE(src.stat("absent", &size));

  EXPECT_EQ(src.describe("obj"), dir.path() + "/obj");
}

// Given the manifest's size, an object of any other size is the
// retryable size-mismatch error, thrown before any byte is read.
TEST(LocalDirShardSource, FetchChecksTheExpectedSize) {
  ScratchDir dir("localsrc_size");
  write_file(dir.file("obj"), "0123456789abcdef");
  const LocalDirShardSource src(dir.path());
  EXPECT_EQ(src.fetch("obj", 16).size(), 16u);
  for (const std::uint64_t expected : {15u, 17u}) {
    try {
      (void)src.fetch("obj", expected);
      ADD_FAILURE() << expected << ": fetch succeeded";
    } catch (const StoreIoError& e) {
      EXPECT_NE(std::string(e.what()).find("size mismatch"), std::string::npos)
          << e.what();
    }
  }
}

TEST(LocalDirShardSource, MissingObjectIsStructural) {
  ScratchDir dir("localsrc_err");
  write_file(dir.file("obj"), "abc");
  const LocalDirShardSource src(dir.path());
  // Not-found is structural (plain StoreError): retrying cannot
  // conjure the bytes, so it must not match the retry filter.
  EXPECT_THROW((void)src.fetch("absent"), StoreError);
  try {
    (void)src.fetch("absent");
    FAIL() << "expected StoreError";
  } catch (const StoreIoError&) {
    FAIL() << "not-found must not be the retryable subclass";
  } catch (const StoreError&) {
  }
}

// ------------------------------------------------------------------
// URL parsing.

TEST(ParseHttpUrl, AcceptsWellFormedUrls) {
  HttpEndpoint ep;
  ASSERT_TRUE(parse_http_url("http://127.0.0.1:8080/dir/sub/m.ftcm", &ep));
  EXPECT_EQ(ep.host, "127.0.0.1");
  EXPECT_EQ(ep.port, 8080);
  EXPECT_EQ(ep.dir, "/dir/sub/");
  EXPECT_EQ(ep.object, "m.ftcm");

  ASSERT_TRUE(parse_http_url("http://origin/m.ftcm", &ep));
  EXPECT_EQ(ep.host, "origin");
  EXPECT_EQ(ep.port, 80);
  EXPECT_EQ(ep.dir, "/");
  EXPECT_EQ(ep.object, "m.ftcm");
}

TEST(ParseHttpUrl, RejectsMalformedUrls) {
  HttpEndpoint ep;
  EXPECT_FALSE(parse_http_url("https://host/m", &ep));      // wrong scheme
  EXPECT_FALSE(parse_http_url("http://host", &ep));         // no path
  EXPECT_FALSE(parse_http_url("http:///m", &ep));           // empty host
  EXPECT_FALSE(parse_http_url("http://host/dir/", &ep));    // empty object
  EXPECT_FALSE(parse_http_url("http://host:0/m", &ep));     // port 0
  EXPECT_FALSE(parse_http_url("http://host:70000/m", &ep)); // port range
  EXPECT_FALSE(parse_http_url("http://host:8x/m", &ep));    // port digits
  EXPECT_TRUE(is_http_url("http://host/m"));
  EXPECT_FALSE(is_http_url("/var/store/m.ftcm"));
}

// ------------------------------------------------------------------
// ShardCache: verify-then-publish, hits, eviction, rescan.

TEST(ShardCache, MissFetchesVerbatimBytesThenHits) {
  ScratchDir store_dir("cache_store");
  ScratchDir cache_dir("cache_dir");
  const std::string manifest = make_sharded_store(store_dir, 4);
  const auto view = ShardedStoreView::open(manifest);
  const LocalDirShardSource src(store_dir.path());
  ShardCache cache(cache_dir.path(), 0);

  for (const auto& rec : view->shards()) {
    const std::string local = cache.fetch_shard(src, rec);
    EXPECT_EQ(read_file(local), read_file(store_dir.path() + "/" + rec.name))
        << rec.name;
  }
  auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_GT(stats.bytes_fetched, 0u);

  // Every re-fetch is a hit; no new transfer, no new entries.
  for (const auto& rec : view->shards()) {
    (void)cache.fetch_shard(src, rec);
    EXPECT_TRUE(cache.contains(rec.payload_digest, rec.file_bytes));
  }
  stats = cache.stats();
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.hits, 4u);
  EXPECT_EQ(stats.bytes_resident, stats.bytes_fetched);
}

TEST(ShardCache, DigestMismatchIsTransientAndPublishesNothing) {
  ScratchDir store_dir("cache_digest");
  ScratchDir cache_dir("cache_digest_c");
  const std::string manifest = make_sharded_store(store_dir, 2);
  const auto view = ShardedStoreView::open(manifest);
  const LocalDirShardSource src(store_dir.path());
  ShardCache cache(cache_dir.path(), 0);

  {
    failpoint::Scoped fp("remote.digest", "always");
    EXPECT_THROW((void)cache.fetch_shard(src, view->shards()[0]),
                 StoreIoError);
  }
  // Nothing corrupt was published; the next (healthy) fetch is a miss
  // that succeeds.
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_FALSE(
      cache.contains(view->shards()[0].payload_digest,
                     view->shards()[0].file_bytes));
  (void)cache.fetch_shard(src, view->shards()[0]);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ShardCache, SizeMismatchAgainstRecordIsTransient) {
  ScratchDir store_dir("cache_size");
  ScratchDir cache_dir("cache_size_c");
  const std::string manifest = make_sharded_store(store_dir, 2);
  const auto view = ShardedStoreView::open(manifest);
  const LocalDirShardSource src(store_dir.path());
  ShardCache cache(cache_dir.path(), 0);

  store::ShardRecord lying = view->shards()[0];
  lying.file_bytes += 1;  // origin will serve one byte short of this
  EXPECT_THROW((void)cache.fetch_shard(src, lying), StoreIoError);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ShardCache, EvictsLruUnderByteBudget) {
  ScratchDir store_dir("cache_evict");
  ScratchDir cache_dir("cache_evict_c");
  const std::string manifest = make_sharded_store(store_dir, 4);
  const auto view = ShardedStoreView::open(manifest);
  const LocalDirShardSource src(store_dir.path());

  // Budget sized for roughly two shards: fetching all four must evict.
  const std::uint64_t two_shards =
      view->shards()[0].file_bytes + view->shards()[1].file_bytes;
  ShardCache cache(cache_dir.path(), two_shards);
  std::vector<std::string> paths;
  for (const auto& rec : view->shards()) {
    paths.push_back(cache.fetch_shard(src, rec));
  }
  const auto stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes_resident, two_shards);
  EXPECT_GT(stats.bytes_evicted, 0u);
  // Strict LRU: the first-fetched shard died first; the most recent
  // fetch always survives (fetch_shard never evicts what it returns).
  EXPECT_FALSE(file_exists(paths.front()));
  EXPECT_TRUE(file_exists(paths.back()));
  // An evicted shard refetches as a miss and works.
  (void)cache.fetch_shard(src, view->shards()[0]);
  EXPECT_TRUE(
      cache.contains(view->shards()[0].payload_digest,
                     view->shards()[0].file_bytes));
}

TEST(ShardCache, EvictionNeverInvalidatesLiveMmaps) {
  ScratchDir store_dir("cache_pin");
  ScratchDir cache_dir("cache_pin_c");
  const std::string manifest = make_sharded_store(store_dir, 4);
  const auto view = ShardedStoreView::open(manifest);
  const LocalDirShardSource src(store_dir.path());
  ShardCache cache(cache_dir.path(), view->shards()[0].file_bytes + 16);

  // Map the cached shard, then force its eviction with later fetches.
  const std::string pinned = cache.fetch_shard(src, view->shards()[0]);
  const auto mapped = LabelStoreView::open(pinned);
  const auto before = std::vector<std::uint8_t>(
      mapped->params_blob().begin(), mapped->params_blob().end());
  for (std::size_t k = 1; k < view->shards().size(); ++k) {
    (void)cache.fetch_shard(src, view->shards()[k]);
  }
  EXPECT_FALSE(file_exists(pinned)) << "eviction should have unlinked it";
  // POSIX keeps unlinked-but-mapped bytes alive until the last mapping
  // drops: the view still serves, byte-identically.
  EXPECT_EQ(std::vector<std::uint8_t>(mapped->params_blob().begin(),
                                      mapped->params_blob().end()),
            before);
  EXPECT_GT(mapped->vertex_blob(0).size(), 0u);
}

TEST(ShardCache, StartupRescanAdoptsSurvivingFiles) {
  ScratchDir store_dir("cache_rescan");
  ScratchDir cache_dir("cache_rescan_c");
  const std::string manifest = make_sharded_store(store_dir, 3);
  const auto view = ShardedStoreView::open(manifest);
  const LocalDirShardSource src(store_dir.path());
  {
    ShardCache first(cache_dir.path(), 0);
    for (const auto& rec : view->shards()) (void)first.fetch_shard(src, rec);
    EXPECT_EQ(first.stats().entries, 3u);
  }
  // A new process over the same directory starts warm.
  ShardCache second(cache_dir.path(), 0);
  EXPECT_EQ(second.stats().entries, 3u);
  EXPECT_GT(second.stats().bytes_resident, 0u);
  for (const auto& rec : view->shards()) {
    (void)second.fetch_shard(src, rec);
  }
  EXPECT_EQ(second.stats().hits, 3u);
  EXPECT_EQ(second.stats().misses, 0u);
}

TEST(ShardCache, PutBlobIsContentAddressedAndIdempotent) {
  ScratchDir cache_dir("cache_blob");
  ShardCache cache(cache_dir.path(), 64);  // tiny budget must not evict blobs
  const std::vector<std::uint8_t> a{1, 2, 3, 4};
  const std::vector<std::uint8_t> b{5, 6, 7};
  const std::string pa = cache.put_blob("manifest", a);
  const std::string pb = cache.put_blob("manifest", b);
  EXPECT_NE(pa, pb);  // different bytes, different address
  EXPECT_EQ(cache.put_blob("manifest", a), pa);  // same bytes, same file
  EXPECT_EQ(read_file(pa), a);
  EXPECT_EQ(read_file(pb), b);
  // Blobs are not LRU-tracked: no entries, no eviction pressure.
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ShardCache, DefaultCacheSeedsFromEnvironment) {
  ScratchDir cache_dir("cache_env");
  const auto prior = set_default_remote_cache(nullptr);
  ::setenv("FTC_CACHE_DIR", cache_dir.path().c_str(), 1);
  ::setenv("FTC_CACHE_BYTES", "12345", 1);
  const auto cache = default_remote_cache();
  EXPECT_EQ(cache->dir(), cache_dir.path() + "/");
  EXPECT_EQ(cache->max_bytes(), 12345u);
  EXPECT_EQ(default_remote_cache(), cache);  // one instance per process
  ::unsetenv("FTC_CACHE_DIR");
  ::unsetenv("FTC_CACHE_BYTES");
  set_default_remote_cache(prior);
}

// Numeric environment knobs take plain decimal digits only: a sign or a
// leading space must not wrap "-1" into a 2^64 - 1 byte budget or
// UINT_MAX retry attempts.
TEST(EnvParse, AcceptsOnlyPlainDecimalDigits) {
  EXPECT_EQ(util::parse_decimal_u64("42"), 42u);
  EXPECT_EQ(util::parse_decimal_u64("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(util::parse_decimal_u64("-1"), std::nullopt);
  EXPECT_EQ(util::parse_decimal_u64(" 7"), std::nullopt);
  EXPECT_EQ(util::parse_decimal_u64("+5"), std::nullopt);
  EXPECT_EQ(util::parse_decimal_u64(""), std::nullopt);
  EXPECT_EQ(util::parse_decimal_u64(nullptr), std::nullopt);
  EXPECT_EQ(util::parse_decimal_u64("18446744073709551616"), std::nullopt);
  EXPECT_EQ(util::parse_decimal_u64("99999999999999999999"), std::nullopt);
}

TEST(ShardCache, MalformedCacheBytesKeepsTheDefaultBudget) {
  ScratchDir cache_dir("cache_env_bad");
  const auto prior = set_default_remote_cache(nullptr);
  ::setenv("FTC_CACHE_DIR", cache_dir.path().c_str(), 1);
  ::setenv("FTC_CACHE_BYTES", "-1", 1);
  EXPECT_EQ(default_remote_cache()->max_bytes(), std::uint64_t{256} << 20);
  ::unsetenv("FTC_CACHE_DIR");
  ::unsetenv("FTC_CACHE_BYTES");
  set_default_remote_cache(prior);
}

// ------------------------------------------------------------------
// Concurrency: fetch/evict/query races under a budget small enough to
// keep eviction continuously active. The TSan leg runs this suite.

TEST(ShardCacheConcurrency, ConcurrentFetchEvictQueryStaysConsistent) {
  ScratchDir store_dir("cache_mt");
  ScratchDir cache_dir("cache_mt_c");
  const std::string manifest = make_sharded_store(store_dir, 4);
  const auto view = ShardedStoreView::open(manifest);
  const LocalDirShardSource src(store_dir.path());
  // Room for ~2 of 4 shards: every round of fetches evicts someone.
  ShardCache cache(cache_dir.path(),
                   view->shards()[0].file_bytes * 2 + 64);

  constexpr unsigned kThreads = 8;
  constexpr unsigned kIters = 40;
  std::atomic<unsigned> failures{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (unsigned i = 0; i < kIters; ++i) {
        const auto& rec = view->shards()[(t + i) % view->shards().size()];
        try {
          const std::string path = cache.fetch_shard(src, rec);
          if (path.empty()) failures.fetch_add(1);
          (void)cache.contains(rec.payload_digest, rec.file_bytes);
          (void)cache.stats();
        } catch (const StoreError&) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_EQ(failures.load(), 0u);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kIters);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes_resident, view->shards()[0].file_bytes * 2 + 64);
}

}  // namespace
}  // namespace ftc::core
