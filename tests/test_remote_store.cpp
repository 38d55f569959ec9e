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
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
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
#include "store_fixture.hpp"
#include "util/common.hpp"
#include "util/failpoint.hpp"

namespace ftc::core {
namespace {

using graph::EdgeId;
using graph::Graph;
using graph::VertexId;
using test_support::ScopedRetryPolicy;
using test_support::ScratchDir;
using test_support::read_file;
using test_support::spans_equal;
using test_support::test_config;

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
        scheme(make_scheme(graph, test_config(BackendKind::kCoreFtc, 3))),
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

// One request over a fresh loopback connection; returns every byte the
// server sent until it closed.
std::string raw_http_exchange(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  EXPECT_GE(fd, 0);
  struct sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  std::string out;
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) == 0 &&
      ::send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
          static_cast<ssize_t>(request.size())) {
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  return out;
}

// A loopback listener that answers each connection it accepts with a
// canned response and closes it: `head_response` for a HEAD request,
// `response` for anything else. An origin that says whatever a test
// needs it to; it counts the HEADs it answered.
class CannedOrigin {
 public:
  explicit CannedOrigin(std::string response, std::string head_response = "")
      : response_(std::move(response)),
        head_response_(std::move(head_response)),
        fd_(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0)) {
    struct sockaddr_in addr {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::bind(fd_, reinterpret_cast<struct sockaddr*>(&addr), len), 0);
    EXPECT_EQ(::listen(fd_, 1), 0);
    EXPECT_EQ(
        ::getsockname(fd_, reinterpret_cast<struct sockaddr*>(&addr), &len),
        0);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] {
      for (;;) {
        const int conn = ::accept(fd_, nullptr, nullptr);
        if (conn < 0) return;  // the destructor shut the listener down
        std::string head;
        char buf[1024];
        ssize_t n;
        while (head.find("\r\n\r\n") == std::string::npos &&
               (n = ::recv(conn, buf, sizeof(buf), 0)) > 0) {
          head.append(buf, static_cast<std::size_t>(n));
        }
        const bool is_head = head.rfind("HEAD ", 0) == 0;
        if (is_head) ++heads_;
        const std::string& out = is_head ? head_response_ : response_;
        (void)::send(conn, out.data(), out.size(), MSG_NOSIGNAL);
        ::close(conn);
      }
    });
  }
  ~CannedOrigin() {
    ::shutdown(fd_, SHUT_RDWR);  // unblocks accept()
    thread_.join();
    ::close(fd_);
  }
  CannedOrigin(const CannedOrigin&) = delete;
  CannedOrigin& operator=(const CannedOrigin&) = delete;

  std::uint16_t port() const { return port_; }
  unsigned heads() const { return heads_; }

 private:
  std::string response_;
  std::string head_response_;
  int fd_;
  std::uint16_t port_ = 0;
  std::atomic<unsigned> heads_{0};
  std::thread thread_;
};

// ------------------------------------------------------------------
// HttpShardSource against the in-process origin: the raw transport.

TEST(ShardHttpServer, ServesObjectsAndStats) {
  ServedStore served("httpsrv", 2);
  const HttpShardSource src("127.0.0.1", served.server.port(), "/");

  const auto disk = read_file(served.manifest());
  const auto fetched = src.fetch("store.ftcm");
  EXPECT_EQ(fetched, disk);

  std::uint64_t size = 0;
  ASSERT_TRUE(src.stat("store.ftcm", &size));
  EXPECT_EQ(size, disk.size());
  EXPECT_FALSE(src.stat("absent.ftcm", &size));
  EXPECT_THROW((void)src.fetch("absent.ftcm"), StoreError);
  // Traversal attempts must 404, never escape the served directory.
  EXPECT_THROW((void)src.fetch("../store.ftcm"), StoreError);

  const auto stats = served.server.stats();
  EXPECT_GE(stats.requests, 5u);
  EXPECT_GE(stats.not_found, 2u);
  EXPECT_GT(stats.bytes_sent, disk.size());
}

// The origin serves whole objects only: a Range request is answered
// with 200 and every byte of the file, which RFC 9110 permits.
TEST(ShardHttpServer, RangeRequestGetsWholeObject) {
  ServedStore served("rangeget", 1);
  const auto disk = read_file(served.manifest());
  const std::string resp = raw_http_exchange(
      served.server.port(),
      "GET /store.ftcm HTTP/1.1\r\nHost: 127.0.0.1\r\n"
      "Range: bytes=0-9\r\nConnection: close\r\n\r\n");
  ASSERT_EQ(resp.rfind("HTTP/1.1 200 ", 0), 0u)
      << resp.substr(0, resp.find("\r\n"));
  const std::size_t head_end = resp.find("\r\n\r\n");
  ASSERT_NE(head_end, std::string::npos);
  EXPECT_NE(resp.find("Content-Length: " + std::to_string(disk.size()) +
                      "\r\n"),
            std::string::npos);
  const std::string body = resp.substr(head_end + 4);
  EXPECT_EQ(std::vector<std::uint8_t>(body.begin(), body.end()), disk);
}

// An origin's announced Content-Length is untrusted: a huge one must not
// size an allocation, and a malformed or overflowing one is refused, all
// as typed store errors the retry/quarantine ladder understands — never
// std::bad_alloc.
TEST(ShardHttpSource, HugeOrMalformedContentLengthIsTypedRefusal) {
  struct Case {
    const char* length;
    bool malformed;
  };
  const Case cases[] = {
      {"1000000000000000000", false},        // 10^18: body cut short
      {"1000000000000000000000000", true},   // 25 digits: past 2^64
      {"12abc", true},
  };
  for (const Case& c : cases) {
    CannedOrigin origin(std::string("HTTP/1.1 200 OK\r\nContent-Length: ") +
                         c.length + "\r\nConnection: close\r\n\r\nabc");
    const HttpShardSource src("127.0.0.1", origin.port(), "/");
    try {
      (void)src.fetch("obj");
      ADD_FAILURE() << c.length << ": fetch succeeded";
    } catch (const StoreError& e) {
      if (c.malformed) {
        EXPECT_NE(std::string(e.what()).find("Content-Length malformed"),
                  std::string::npos)
            << c.length << ": " << e.what();
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << c.length << ": untyped " << e.what();
    }
  }
}

// An origin that sends more than its Content-Length is wrong, not
// flaky: a plain StoreError that says "longer", never the retryable
// StoreIoError a cut-short body gets (which derives from StoreError).
TEST(ShardHttpSource, BodyLongerThanContentLengthIsNotATruncation) {
  CannedOrigin origin(
      "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nabc");
  const HttpShardSource src("127.0.0.1", origin.port(), "/");
  try {
    (void)src.fetch("obj");
    ADD_FAILURE() << "fetch succeeded";
  } catch (const StoreIoError& e) {
    ADD_FAILURE() << "retryable: " << e.what();
  } catch (const StoreError& e) {
    EXPECT_NE(std::string(e.what()).find("longer"), std::string::npos)
        << e.what();
  }
}

// With the manifest's size to go by, a body that runs past it stops the
// read at once: an origin streaming 8 MiB with no Content-Length against
// a 64 KiB shard gets the cache's size-mismatch error, not a buffer that
// grows until the origin stops.
TEST(ShardHttpSource, BodyPastExpectedSizeStopsTheRead) {
  CannedOrigin origin("HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n" +
                       std::string(8u << 20, 'x'));
  const HttpShardSource src("127.0.0.1", origin.port(), "/");
  try {
    (void)src.fetch("obj", std::uint64_t{64} << 10);
    ADD_FAILURE() << "fetch succeeded";
  } catch (const StoreIoError& e) {
    EXPECT_NE(std::string(e.what()).find("size mismatch"), std::string::npos)
        << e.what();
  }
}

// The expected size bounds a shard's body, never an error response's:
// a 404 stays the structural "not found", not a size mismatch.
TEST(ShardHttpSource, ExpectedSizeDoesNotMaskTheStatus) {
  CannedOrigin origin(
      "HTTP/1.1 404 Not Found\r\nContent-Length: 9\r\n"
      "Connection: close\r\n\r\nnot found");
  const HttpShardSource src("127.0.0.1", origin.port(), "/");
  try {
    (void)src.fetch("obj", 100);
    ADD_FAILURE() << "fetch succeeded";
  } catch (const StoreIoError& e) {
    ADD_FAILURE() << "retryable: " << e.what();
  } catch (const StoreError& e) {
    EXPECT_NE(std::string(e.what()).find("not found"), std::string::npos)
        << e.what();
  }
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

// The manifest and the journal sidecar have no manifest size to bound
// their reads: each is a HEAD, then a GET that stops once the body
// passes the size the HEAD reported. An origin that reports 64 bytes
// and then streams 8 MiB with no Content-Length gets a size mismatch,
// retried as a HEAD + GET pair, instead of an 8 MiB buffer.
const std::string kHead64 =
    "HTTP/1.1 200 OK\r\nContent-Length: 64\r\nConnection: close\r\n\r\n";

std::string stream_8mib() {
  return "HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n" +
         std::string(8u << 20, 'x');
}

TEST(RemoteStoreFaults, ManifestBodyPastHeadSizeStopsTheRead) {
  CannedOrigin origin(stream_8mib(), kHead64);
  ScratchDir cache_dir("manifest_past_cache");
  const ScopedRetryPolicy policy(2, std::chrono::microseconds(50));
  try {
    (void)RemoteStoreView::open(
        "http://127.0.0.1:" + std::to_string(origin.port()) + "/store.ftcm",
        true, nullptr, std::make_shared<ShardCache>(cache_dir.path(), 0));
    ADD_FAILURE() << "open succeeded";
  } catch (const StoreIoError& e) {
    EXPECT_NE(std::string(e.what()).find("size mismatch"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(origin.heads(), 2u);  // each attempt re-reads the size
}

TEST(RemoteStoreFaults, JournalBodyPastHeadSizeStopsTheRead) {
  CannedOrigin origin(stream_8mib(), kHead64);
  const ScopedRetryPolicy policy(2, std::chrono::microseconds(50));
  try {
    (void)fetch_remote_journal("http://127.0.0.1:" +
                               std::to_string(origin.port()) + "/store.ftcm");
    ADD_FAILURE() << "journal fetch succeeded";
  } catch (const StoreIoError& e) {
    EXPECT_NE(std::string(e.what()).find("size mismatch"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(origin.heads(), 2u);
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
  EXPECT_NE(report[0].reason.find("(after 2 attempts)"), std::string::npos)
      << report[0].reason;
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
