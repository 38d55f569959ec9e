// ShardedLabelStore coverage.
//
// Parity: for every backend and K in {1, 4, 16}, labels served through a
// ShardedStoreView must match the unsharded container byte-for-byte
// (params / vertex / edge blobs) and answer-for-answer (edge, vertex and
// mixed FaultSpec queries, cross-checked against BFS ground truth),
// including through BatchQueryEngine sessions and a merge back to a
// byte-identical single container.
//
// Adversarial: every manifest failure mode — truncation, bad magic or
// version, shard-range overlap/gap, digest mismatch, missing or resized
// shard files, params tampering, path-traversal shard names — must
// surface as the typed StoreError, never UB (the suite also runs under
// the asan preset).
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_engine.hpp"
#include "core/connectivity_scheme.hpp"
#include "core/label_store.hpp"
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
using test_support::TempStore;
using test_support::backend_param_name;
using test_support::file_exists;
using test_support::fix_manifest_header_checksum;
using test_support::read_file;
using test_support::spans_equal;
using test_support::test_config;
using test_support::write_file;

class ShardedStoreParity : public ::testing::TestWithParam<BackendKind> {};

TEST_P(ShardedStoreParity, BlobsAndAnswersMatchUnshardedAcrossShardCounts) {
  const unsigned f = 4;
  const Graph g = graph::random_connected(48, 120, 13);
  const auto scheme = make_scheme(g, test_config(GetParam(), f));
  TempStore flat("parity_flat_" + std::to_string(static_cast<int>(GetParam())),
                 ".ftcs");
  scheme->save(flat.path());
  const auto flat_view = LabelStoreView::open(flat.path());

  for (const unsigned k_shards : {1u, 4u, 16u}) {
    TempStore manifest("parity_k" + std::to_string(k_shards) + "_" +
                       std::to_string(static_cast<int>(GetParam())),
                       ".ftcm");
    save_sharded(*scheme, manifest.path(), k_shards);
    const auto view = ShardedStoreView::open(manifest.path());

    // Aggregate info matches the single container.
    EXPECT_EQ(view->info().backend, GetParam());
    EXPECT_EQ(view->info().num_shards, k_shards);
    EXPECT_EQ(view->info().num_vertices, flat_view->info().num_vertices);
    EXPECT_EQ(view->info().num_edges, flat_view->info().num_edges);
    EXPECT_EQ(view->info().vertex_label_bits,
              flat_view->info().vertex_label_bits);
    EXPECT_EQ(view->info().edge_label_bits, flat_view->info().edge_label_bits);
    EXPECT_TRUE(view->info().has_adjacency);

    // Byte-for-byte parity of every label blob against the unsharded
    // container — the sharded layout must be a pure re-arrangement.
    EXPECT_TRUE(spans_equal(view->params_blob(), flat_view->params_blob()));
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      EXPECT_TRUE(spans_equal(view->vertex_blob(v), flat_view->vertex_blob(v)))
          << "k=" << k_shards << " v=" << v;
    }
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      EXPECT_TRUE(spans_equal(view->edge_blob(e), flat_view->edge_blob(e)))
          << "k=" << k_shards << " e=" << e;
    }
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(view->adjacency_degree(v), flat_view->adjacency_degree(v));
    }

    // Query parity incl. vertex and mixed faults, vs BFS ground truth.
    const auto loaded = load_scheme(view);
    SplitMix64 rng(500 + k_shards);
    for (int it = 0; it < 25; ++it) {
      std::vector<EdgeId> edge_faults;
      const auto num_edge_faults = rng.next_below(3u);
      for (unsigned i = 0; i < num_edge_faults; ++i) {
        edge_faults.push_back(
            static_cast<EdgeId>(rng.next_below(g.num_edges())));
      }
      std::vector<VertexId> vertex_faults;
      if (rng.next_below(2u) == 0) {
        vertex_faults.push_back(
            static_cast<VertexId>(rng.next_below(g.num_vertices())));
      }
      const auto spec = FaultSpec::of(edge_faults, vertex_faults);
      const auto s = static_cast<VertexId>(rng.next_below(g.num_vertices()));
      const auto t = static_cast<VertexId>(rng.next_below(g.num_vertices()));
      const bool expected =
          graph::connected_avoiding(g, s, t, edge_faults, vertex_faults);
      EXPECT_EQ(loaded->connected(s, t, spec), expected)
          << "k=" << k_shards << " it=" << it;
      EXPECT_EQ(scheme->connected(s, t, spec), expected) << "it=" << it;
    }
  }
}

TEST_P(ShardedStoreParity, BatchEngineOverManifestMatchesInMemory) {
  const Graph g = graph::grid(7, 9);
  const auto scheme = make_scheme(g, test_config(GetParam(), 3));
  TempStore manifest("batch_" + std::to_string(static_cast<int>(GetParam())),
                     ".ftcm");
  save_sharded(*scheme, manifest.path(), 4);

  SplitMix64 rng(7);
  std::vector<EdgeId> faults;
  for (int i = 0; i < 3; ++i) {
    faults.push_back(static_cast<EdgeId>(rng.next_below(g.num_edges())));
  }
  std::vector<BatchQueryEngine::Query> queries;
  for (int i = 0; i < 2000; ++i) {
    queries.push_back({static_cast<VertexId>(rng.next_below(g.num_vertices())),
                       static_cast<VertexId>(rng.next_below(g.num_vertices()))});
  }
  BatchQueryEngine in_memory(*scheme, FaultSpec::edges(faults));
  BatchQueryEngine from_manifest(load_scheme(manifest.path()),
                                 FaultSpec::edges(faults));
  EXPECT_EQ(from_manifest.run_parallel(queries, 4),
            in_memory.run_sequential(queries));
}

TEST_P(ShardedStoreParity, MergeBackToContainerIsByteIdentical) {
  const Graph g = graph::barbell(7, 3);
  const auto scheme = make_scheme(g, test_config(GetParam(), 2));
  TempStore flat("merge_flat_" + std::to_string(static_cast<int>(GetParam())),
                 ".ftcs");
  TempStore merged("merge_out_" + std::to_string(static_cast<int>(GetParam())),
                   ".ftcs");
  TempStore manifest("merge_" + std::to_string(static_cast<int>(GetParam())),
                     ".ftcm");
  scheme->save(flat.path());
  save_sharded(*scheme, manifest.path(), 4);
  // A scheme loaded from the manifest re-saves as a single container
  // byte-identical to the direct save (adjacency included).
  load_scheme(manifest.path())->save(merged.path());
  EXPECT_EQ(read_file(flat.path()), read_file(merged.path()));
}

TEST_P(ShardedStoreParity, OracleFromManifestServesMixedFaults) {
  const Graph g = graph::barbell(8, 3);
  const auto scheme = make_scheme(g, test_config(GetParam(), 10));
  TempStore manifest("oracle_" + std::to_string(static_cast<int>(GetParam())),
                     ".ftcm");
  save_sharded(*scheme, manifest.path(), 4);
  const auto oracle = load_scheme(manifest.path());
  EXPECT_TRUE(oracle->has_adjacency());
  SplitMix64 rng(5);
  for (int it = 0; it < 20; ++it) {
    std::vector<EdgeId> edge_faults;
    const auto num_edge_faults = rng.next_below(3u);
    for (unsigned i = 0; i < num_edge_faults; ++i) {
      edge_faults.push_back(static_cast<EdgeId>(rng.next_below(g.num_edges())));
    }
    std::vector<VertexId> vertex_faults;
    if (rng.next_below(2u) == 0) {
      vertex_faults.push_back(
          static_cast<VertexId>(rng.next_below(g.num_vertices())));
    }
    const auto s = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    const auto t = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    EXPECT_EQ(
        oracle->connected(s, t, FaultSpec::of(edge_faults, vertex_faults)),
        graph::connected_avoiding(g, s, t, edge_faults, vertex_faults))
        << "it=" << it;
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ShardedStoreParity,
                         ::testing::ValuesIn(kAllBackends),
                         backend_param_name);

// More shards than vertices: the surplus shards hold empty ranges and
// everything still routes correctly.
TEST(ShardedStore, MoreShardsThanVertices) {
  const Graph g = graph::cycle(10);
  const auto scheme = make_scheme(g, test_config(BackendKind::kCoreFtc, 2));
  TempStore manifest("tiny", ".ftcm");
  save_sharded(*scheme, manifest.path(), 16);
  const auto view = ShardedStoreView::open(manifest.path());
  EXPECT_EQ(view->info().num_shards, 16u);
  const auto loaded = load_scheme(view);
  const std::vector<EdgeId> faults{0, 5};
  for (VertexId s = 0; s < g.num_vertices(); ++s) {
    EXPECT_EQ(loaded->connected(s, (s + 3) % g.num_vertices(),
                                FaultSpec::edges(faults)),
              graph::connected_avoiding(g, s, (s + 3) % g.num_vertices(),
                                        faults));
  }
}

// Shards mmap lazily: queries that only touch one shard's ranges open
// only that shard (plus the shard(s) owning the fault-edge labels).
TEST(ShardedStore, ShardsOpenLazily) {
  const Graph g = graph::grid(8, 8);
  const auto scheme = make_scheme(g, test_config(BackendKind::kCoreFtc, 2));
  TempStore manifest("lazy", ".ftcm");
  save_sharded(*scheme, manifest.path(), 8);
  const auto view = ShardedStoreView::open(manifest.path());
  EXPECT_EQ(view->shards_open(), 0u);
  (void)view->vertex_blob(0);
  EXPECT_EQ(view->shards_open(), 1u);
  (void)view->vertex_blob(0);
  EXPECT_EQ(view->shards_open(), 1u);  // cached, not reopened
  (void)view->edge_blob(g.num_edges() - 1);
  EXPECT_EQ(view->shards_open(), 2u);
}

// ------------------------------------------------------------------
// Prefetch: the parallel warm-up path must compose with lazy opens,
// concurrent queries and corrupt shards exactly like the lazy path does.

// prefetch() maps every shard, and the blobs served through the shard
// routing are byte-identical to the unsharded container.
TEST(ShardedStorePrefetch, OpensAllShardsAndKeepsParity) {
  const Graph g = graph::random_connected(40, 100, 21);
  const auto scheme = make_scheme(g, test_config(BackendKind::kCoreFtc, 3));
  TempStore flat("prefetch_flat", ".ftcs");
  scheme->save(flat.path());
  const auto flat_view = LabelStoreView::open(flat.path());
  TempStore manifest("prefetch", ".ftcm");
  save_sharded(*scheme, manifest.path(), 8);

  const auto view = ShardedStoreView::open(manifest.path());
  EXPECT_EQ(view->shards_open(), 0u);
  const store::PrefetchStats stats = view->prefetch(4);
  EXPECT_EQ(stats.shards_opened, 8u);
  EXPECT_EQ(stats.shard_us.size(), 8u);
  EXPECT_GT(stats.threads, 0u);
  EXPECT_EQ(view->shards_open(), 8u);
  EXPECT_EQ(view->edge_blob_width(), flat_view->edge_blob_width());

  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_TRUE(spans_equal(view->vertex_blob(v), flat_view->vertex_blob(v)));
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_TRUE(spans_equal(view->edge_blob(e), flat_view->edge_blob(e)));
  }

  // Idempotent: a second prefetch opens nothing and changes nothing.
  const store::PrefetchStats again = view->prefetch();
  EXPECT_EQ(again.shards_opened, 0u);
  EXPECT_EQ(view->shards_open(), 8u);
}

// The single-container view serves straight from its mapping at open;
// prefetch is a no-op there, and every read is byte-identical to the
// resident view the container was saved from.
TEST(ShardedStorePrefetch, FlatContainerServesAtOpen) {
  const Graph g = graph::cycle(16);
  const auto scheme = make_scheme(g, test_config(BackendKind::kCoreFtc, 2));
  TempStore flat("routes_flat", ".ftcs");
  scheme->save(flat.path());
  const auto view = LabelStoreView::open(flat.path());
  const StoreView& resident = *scheme->store_view();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_TRUE(spans_equal(view->vertex_blob(v), resident.vertex_blob(v)));
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_TRUE(spans_equal(view->edge_blob(e), resident.edge_blob(e)));
  }
  EXPECT_TRUE(view->prefetch(3).shard_us.empty());  // no-op, must not throw
}

// Prefetch racing lazy first-touch opens and concurrent queries: every
// read must come back correct and every shard end up mapped exactly
// once. (This is the test the tsan preset is aimed at.)
TEST(ShardedStorePrefetch, RacesLazyOpensAndConcurrentQueries) {
  const Graph g = graph::random_connected(64, 160, 33);
  const auto scheme = make_scheme(g, test_config(BackendKind::kCoreFtc, 2));
  TempStore flat("race_flat", ".ftcs");
  scheme->save(flat.path());
  const auto flat_view = LabelStoreView::open(flat.path());
  TempStore manifest("race", ".ftcm");
  save_sharded(*scheme, manifest.path(), 16);

  for (int round = 0; round < 4; ++round) {
    const auto view = ShardedStoreView::open(manifest.path());
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    // Two prefetchers racing each other...
    for (int p = 0; p < 2; ++p) {
      threads.emplace_back([&] { (void)view->prefetch(4); });
    }
    // ...while readers drive lazy first-touch opens across all shards.
    for (int r = 0; r < 3; ++r) {
      threads.emplace_back([&, r] {
        for (VertexId v = r; v < g.num_vertices(); v += 3) {
          if (!spans_equal(view->vertex_blob(v), flat_view->vertex_blob(v))) {
            mismatches.fetch_add(1);
          }
        }
        for (EdgeId e = r; e < g.num_edges(); e += 3) {
          if (!spans_equal(view->edge_blob(e), flat_view->edge_blob(e))) {
            mismatches.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(view->shards_open(), 16u);
  }
}

// A corrupt shard fails prefetch with the SAME typed error the lazy
// open throws, and the healthy shards keep serving.
TEST(ShardedStorePrefetch, CorruptShardThrowsTypedStoreError) {
  TempStore manifest("prefetch_corrupt", ".ftcm");
  const Graph g = graph::random_connected(24, 60, 9);
  const auto scheme = make_scheme(g, test_config(BackendKind::kCoreFtc, 2));
  save_sharded(*scheme, manifest.path(), 4);
  // Flip one payload byte of shard 2 and re-patch nothing: its digest no
  // longer matches the manifest record.
  auto shard = read_file(manifest.shard_path(2));
  shard.back() ^= 0x01;
  write_file(manifest.shard_path(2), shard);

  const auto view = ShardedStoreView::open(manifest.path());
  EXPECT_THROW((void)view->prefetch(4), StoreError);
  // The failure is sticky for the bad shard, not for the store: healthy
  // shards were published and still serve, and re-touching the bad shard
  // throws again.
  EXPECT_EQ(view->shards_open(), 3u);
  EXPECT_EQ(view->shards_quarantined(), 1u);
  (void)view->vertex_blob(0);  // shard 0 serves
  EXPECT_THROW((void)view->edge_blob(g.num_edges() - 25), StoreError);
}

// ------------------------------------------------------------------
// Adversarial manifest corpus. Structural validation must hold with the
// payload-checksum pass disabled, mirroring the container corpus.

class ShardedStoreAdversarial : public ::testing::Test {
 protected:
  // A small 4-shard store; returns the manifest bytes.
  std::vector<std::uint8_t> make_manifest(TempStore& manifest) {
    const Graph g = graph::random_connected(24, 60, 9);
    const auto scheme = make_scheme(g, test_config(BackendKind::kCoreFtc, 2));
    save_sharded(*scheme, manifest.path(), 4);
    return read_file(manifest.path());
  }

  // Offset of shard record k inside the manifest bytes (the records
  // follow the 8-aligned params blob; each is 48 bytes of ranges/digest
  // plus the length-prefixed name padded to 8).
  std::size_t record_offset(const std::vector<std::uint8_t>& bytes,
                            const TempStore& manifest, unsigned k) {
    const auto view = [&] {
      // Parse params size from the (valid) header copy we were given.
      std::uint64_t params_size = 0;
      for (int i = 0; i < 8; ++i) {
        params_size |= std::uint64_t{bytes[40 + i]} << (8 * i);
      }
      return store::kManifestHeaderBytes + ((params_size + 7) & ~7ull);
    }();
    std::size_t off = view;
    for (unsigned i = 0; i < k; ++i) {
      const std::string name = shard_name(manifest, i);
      off += 48 + ((4 + name.size() + 7) & ~std::size_t{7});
    }
    return off;
  }

  static std::string shard_name(const TempStore& manifest, unsigned k) {
    const std::string& p = manifest.path();
    const std::size_t slash = p.find_last_of('/');
    const std::string base = slash == std::string::npos ? p : p.substr(slash + 1);
    return base + ".shard" + std::to_string(k) + ".ftcs";
  }
};

TEST_F(ShardedStoreAdversarial, TruncatedManifestThrows) {
  TempStore manifest("trunc", ".ftcm");
  const auto bytes = make_manifest(manifest);
  const std::size_t cuts[] = {0,
                              1,
                              16,
                              store::kManifestHeaderBytes - 1,
                              store::kManifestHeaderBytes,
                              store::kManifestHeaderBytes + 3,
                              bytes.size() / 2,
                              bytes.size() - 1};
  for (const std::size_t cut : cuts) {
    write_file(manifest.path(),
               std::span<const std::uint8_t>(bytes.data(), cut));
    EXPECT_THROW((void)ShardedStoreView::open(manifest.path()), StoreError)
        << "truncated to " << cut;
    EXPECT_THROW((void)ShardedStoreView::open(manifest.path(), false),
                 StoreError)
        << "truncated to " << cut << " (no verify)";
  }
}

TEST_F(ShardedStoreAdversarial, BadMagicAndVersionThrow) {
  TempStore manifest("magic", ".ftcm");
  auto bytes = make_manifest(manifest);
  auto corrupt = bytes;
  corrupt[0] ^= 0xff;
  write_file(manifest.path(), corrupt);
  EXPECT_THROW((void)ShardedStoreView::open(manifest.path()), StoreError);
  // open_store_view must reject it too (neither magic matches).
  EXPECT_THROW((void)open_store_view(manifest.path()), StoreError);

  corrupt = bytes;
  corrupt[8] = 99;  // manifest version field
  fix_manifest_header_checksum(corrupt);
  write_file(manifest.path(), corrupt);
  EXPECT_THROW((void)ShardedStoreView::open(manifest.path(), false),
               StoreError);

  corrupt = bytes;
  corrupt[13] |= 0x80;  // undefined flag bit
  fix_manifest_header_checksum(corrupt);
  write_file(manifest.path(), corrupt);
  EXPECT_THROW((void)ShardedStoreView::open(manifest.path(), false),
               StoreError);
}

TEST_F(ShardedStoreAdversarial, ShardRangeOverlapAndGapThrow) {
  TempStore manifest("ranges", ".ftcm");
  const auto bytes = make_manifest(manifest);
  // Record 1's vertex_begin (record offset + 0): bump it by one — now it
  // no longer abuts record 0's vertex_end (a gap; bumping down overlaps).
  for (const int delta : {+1, -1}) {
    auto corrupt = bytes;
    const std::size_t off = record_offset(corrupt, manifest, 1);
    corrupt[off] = static_cast<std::uint8_t>(corrupt[off] + delta);
    write_file(manifest.path(), corrupt);
    EXPECT_THROW((void)ShardedStoreView::open(manifest.path(), false),
                 StoreError)
        << "delta=" << delta;
  }
  // Last record's edge_end (offset 24 in the record) shrunk: the ranges
  // no longer cover [0, m).
  auto corrupt = bytes;
  const std::size_t off = record_offset(corrupt, manifest, 3) + 24;
  corrupt[off] -= 1;
  write_file(manifest.path(), corrupt);
  EXPECT_THROW((void)ShardedStoreView::open(manifest.path(), false),
               StoreError);
}

TEST_F(ShardedStoreAdversarial, DigestMismatchThrowsAtFirstTouch) {
  TempStore manifest("digest", ".ftcm");
  auto bytes = make_manifest(manifest);
  // Record 0's payload digest (offset 40 in the record).
  bytes[record_offset(bytes, manifest, 0) + 40] ^= 0x01;
  write_file(manifest.path(), bytes);
  // Structure is fine, so open (without the payload pass) succeeds; the
  // lazy shard open is what must catch the stale digest.
  const auto view = ShardedStoreView::open(manifest.path(), false);
  EXPECT_EQ(view->shards_open(), 0u);
  EXPECT_THROW((void)view->vertex_blob(0), StoreError);
}

TEST_F(ShardedStoreAdversarial, SwappedShardFilesThrow) {
  TempStore manifest("swapped", ".ftcm");
  (void)make_manifest(manifest);
  // Shards 0 and 2 trade places: sizes match the manifest, digests don't.
  const auto shard0 = read_file(manifest.shard_path(0));
  const auto shard2 = read_file(manifest.shard_path(2));
  ASSERT_EQ(shard0.size(), shard2.size());
  write_file(manifest.shard_path(0), shard2);
  write_file(manifest.shard_path(2), shard0);
  const auto view = ShardedStoreView::open(manifest.path(), false);
  EXPECT_THROW((void)view->vertex_blob(0), StoreError);
}

TEST_F(ShardedStoreAdversarial, MissingShardFileThrowsAtOpen) {
  TempStore manifest("missing", ".ftcm");
  (void)make_manifest(manifest);
  std::remove(manifest.shard_path(2).c_str());
  EXPECT_THROW((void)ShardedStoreView::open(manifest.path()), StoreError);
  EXPECT_THROW((void)ShardedStoreView::open(manifest.path(), false),
               StoreError);
  EXPECT_THROW((void)load_scheme(manifest.path()), StoreError);
}

TEST_F(ShardedStoreAdversarial, ResizedShardFileThrowsAtOpen) {
  TempStore manifest("resized", ".ftcm");
  (void)make_manifest(manifest);
  auto shard = read_file(manifest.shard_path(1));
  shard.pop_back();
  write_file(manifest.shard_path(1), shard);
  EXPECT_THROW((void)ShardedStoreView::open(manifest.path(), false),
               StoreError);
}

TEST_F(ShardedStoreAdversarial, TamperedParamsBlobThrows) {
  TempStore manifest("params", ".ftcm");
  auto bytes = make_manifest(manifest);
  bytes[store::kManifestHeaderBytes] ^= 0x01;  // first params byte
  write_file(manifest.path(), bytes);
  // Hash check fires even with the payload-checksum pass disabled.
  EXPECT_THROW((void)ShardedStoreView::open(manifest.path(), false),
               StoreError);
}

TEST_F(ShardedStoreAdversarial, PathTraversalShardNameThrows) {
  TempStore manifest("traverse", ".ftcm");
  auto bytes = make_manifest(manifest);
  // Overwrite the first bytes of record 0's name with "../" — same
  // length, but now names a parent-directory path.
  const std::size_t name_off = record_offset(bytes, manifest, 0) + 52;
  bytes[name_off] = '.';
  bytes[name_off + 1] = '.';
  bytes[name_off + 2] = '/';
  write_file(manifest.path(), bytes);
  EXPECT_THROW((void)ShardedStoreView::open(manifest.path(), false),
               StoreError);
}

TEST_F(ShardedStoreAdversarial, PayloadChecksumGuardsEverythingElse) {
  TempStore manifest("paysum", ".ftcm");
  auto bytes = make_manifest(manifest);
  // Any payload flip must fail the default (verifying) open.
  bytes[bytes.size() - 1] ^= 0x10;
  write_file(manifest.path(), bytes);
  EXPECT_THROW((void)ShardedStoreView::open(manifest.path()), StoreError);
}

TEST_F(ShardedStoreAdversarial, EpochZeroManifestThrows) {
  TempStore manifest("epoch0", ".ftcm");
  auto bytes = make_manifest(manifest);
  for (int i = 0; i < 8; ++i) bytes[64 + i] = 0;  // epoch field
  fix_manifest_header_checksum(bytes);
  write_file(manifest.path(), bytes);
  EXPECT_THROW((void)ShardedStoreView::open(manifest.path(), false),
               StoreError);
}

// ------------------------------------------------------------------
// save_sharded failure / shrink hygiene, and the content-addressed
// delta-push + shard-adoption path.

// The store.write.write hits of one save_sharded(scheme, path, shards).
// The manifest's single write is the last of them, so failing hit
// (count - 1) aborts the save on the last shard-container write, after
// every other shard file was staged.
std::uint64_t count_save_writes(const ConnectivityScheme& scheme,
                                const std::string& path, unsigned shards) {
  const failpoint::Scoped counter("store.write.write", "count");
  save_sharded(scheme, path, shards);
  return counter.hits();
}

TEST(ShardedStoreHygiene, MidSaveThrowLeavesNoOrphanShards) {
  const Graph g = graph::random_connected(48, 120, 13);
  const auto scheme = make_scheme(g, test_config(BackendKind::kCoreFtc, 3));
  TempStore manifest("midthrow", ".ftcm");
  std::uint64_t writes = 0;
  {
    TempStore counted("midthrow_count", ".ftcm");
    writes = count_save_writes(*scheme, counted.path(), 4);
  }
  ASSERT_GE(writes, 2u);
  {
    const failpoint::Scoped fp("store.write.write",
                               "nth:" + std::to_string(writes - 1));
    EXPECT_THROW(save_sharded(*scheme, manifest.path(), 4), StoreIoError);
  }
  EXPECT_FALSE(file_exists(manifest.path()));
  for (unsigned k = 0; k < 8; ++k) {
    EXPECT_FALSE(file_exists(manifest.shard_path(k))) << "shard " << k;
  }
  // The path is clean: a real save afterwards succeeds and serves.
  save_sharded(*scheme, manifest.path(), 4);
  EXPECT_NE(ShardedStoreView::open(manifest.path()), nullptr);
}

TEST(ShardedStoreHygiene, MidSaveThrowKeepsPriorGenerationIntact) {
  const Graph g = graph::random_connected(32, 80, 17);
  const auto scheme = make_scheme(g, test_config(BackendKind::kCoreFtc, 3));
  TempStore manifest("midthrow_prior", ".ftcm");
  const std::uint64_t writes = count_save_writes(*scheme, manifest.path(), 4);
  ASSERT_GE(writes, 2u);
  const auto manifest_before = read_file(manifest.path());
  const auto shard0_before = read_file(manifest.shard_path(0));

  {
    const failpoint::Scoped fp("store.write.write",
                               "nth:" + std::to_string(writes - 1));
    EXPECT_THROW(save_sharded(*scheme, manifest.path(), 4), StoreIoError);
  }
  // A failed re-save must not tear down the generation already on disk
  // (the build failed before anything was published over it).
  EXPECT_EQ(read_file(manifest.path()), manifest_before);
  EXPECT_EQ(read_file(manifest.shard_path(0)), shard0_before);
  EXPECT_NE(ShardedStoreView::open(manifest.path()), nullptr);
}

TEST(ShardedStoreHygiene, ResaveWithFewerShardsUnlinksStaleFiles) {
  const Graph g = graph::random_connected(40, 100, 19);
  const auto scheme = make_scheme(g, test_config(BackendKind::kCoreFtc, 3));
  TempStore manifest("shrink", ".ftcm");
  save_sharded(*scheme, manifest.path(), 8);
  for (unsigned k = 0; k < 8; ++k) {
    ASSERT_TRUE(file_exists(manifest.shard_path(k))) << "shard " << k;
  }
  save_sharded(*scheme, manifest.path(), 3);
  for (unsigned k = 0; k < 3; ++k) {
    EXPECT_TRUE(file_exists(manifest.shard_path(k))) << "shard " << k;
  }
  // Stale K >= 3 files would shadow the live store (and resurrect on a
  // later K-grow); the re-save must have removed them.
  for (unsigned k = 3; k < 8; ++k) {
    EXPECT_FALSE(file_exists(manifest.shard_path(k))) << "shard " << k;
  }
  const auto view = ShardedStoreView::open(manifest.path());
  EXPECT_EQ(view->info().num_shards, 3u);
  EXPECT_EQ(view->prefetch(2).shards_opened, 3u);
}

class DeltaFiles {
 public:
  explicit DeltaFiles(const std::string& name)
      : parent_(name + "_parent", ".ftcm"), child_(name + "_child", ".ftcm") {}
  TempStore& parent() { return parent_; }
  TempStore& child() { return child_; }

 private:
  TempStore parent_;
  TempStore child_;
};

TEST(ShardedStoreDelta, ZeroDeltaPushReusesEveryShardByHardLink) {
  const Graph g = graph::random_connected(48, 120, 23);
  const auto scheme = make_scheme(g, test_config(BackendKind::kCoreFtc, 3));
  DeltaFiles files("zerodelta");
  save_sharded(*scheme, files.parent().path(), 4);
  const auto parent_view = ShardedStoreView::open(files.parent().path());
  EXPECT_EQ(parent_view->info().manifest_epoch, 1u);
  EXPECT_EQ(parent_view->info().parent_digest, 0u);

  const DeltaPushStats stats =
      save_sharded_delta(*scheme, files.child().path(), files.parent().path());
  EXPECT_EQ(stats.epoch, 2u);
  EXPECT_EQ(stats.shards_total, 4u);
  EXPECT_EQ(stats.shards_written, 0u);
  EXPECT_EQ(stats.shards_reused, 4u);
  EXPECT_EQ(stats.bytes_written, 0u);
  EXPECT_GT(stats.bytes_reused, 0u);
  EXPECT_GT(stats.manifest_bytes, 0u);

  // Reuse is by hard link, not copy: same inode, link count >= 2.
  struct stat parent_st{};
  struct stat child_st{};
  ASSERT_EQ(::stat(files.parent().shard_path(0).c_str(), &parent_st), 0);
  ASSERT_EQ(::stat(files.child().shard_path(0).c_str(), &child_st), 0);
  EXPECT_EQ(parent_st.st_ino, child_st.st_ino);
  EXPECT_GE(child_st.st_nlink, 2u);

  // The child verifies clean and chains to the parent generation.
  const auto child_view = ShardedStoreView::open(files.child().path());
  EXPECT_EQ(child_view->info().manifest_epoch, 2u);
  EXPECT_EQ(child_view->info().parent_digest,
            parent_view->info().payload_checksum);
}

TEST(ShardedStoreDelta, SingleChangedShardWritesExactlyOneShard) {
  const Graph g = graph::random_connected(48, 120, 29);
  const auto scheme = make_scheme(g, test_config(BackendKind::kCoreFtc, 3));
  DeltaFiles files("onechanged");
  save_sharded(*scheme, files.parent().path(), 4);

  // Edge 0 lives in shard 0's range; flipping its label bytes must
  // rewrite shard 0 and ONLY shard 0.
  const auto patched = test_support::flip_edges(*scheme, g, {0});
  const DeltaPushStats stats = save_sharded_delta(
      *patched, files.child().path(), files.parent().path());
  EXPECT_EQ(stats.epoch, 2u);
  EXPECT_EQ(stats.shards_written, 1u);
  EXPECT_EQ(stats.shards_reused, 3u);
  EXPECT_GT(stats.bytes_written, 0u);
  // O(1 shard), not O(store): the rewrite is far below the reused bytes
  // of the three untouched shards.
  EXPECT_LT(stats.bytes_written, stats.bytes_reused);

  struct stat parent_st{};
  struct stat child_st{};
  ASSERT_EQ(::stat(files.parent().shard_path(0).c_str(), &parent_st), 0);
  ASSERT_EQ(::stat(files.child().shard_path(0).c_str(), &child_st), 0);
  EXPECT_NE(parent_st.st_ino, child_st.st_ino);  // rewritten, not linked
  ASSERT_EQ(::stat(files.parent().shard_path(1).c_str(), &parent_st), 0);
  ASSERT_EQ(::stat(files.child().shard_path(1).c_str(), &child_st), 0);
  EXPECT_EQ(parent_st.st_ino, child_st.st_ino);  // linked, not rewritten

  // Digest bookkeeping is consistent: the child verifies clean.
  EXPECT_NE(ShardedStoreView::open(files.child().path()), nullptr);
}

TEST(ShardedStoreDelta, PushOverParentPathKeepsUnchangedShardsInPlace) {
  const Graph g = graph::random_connected(40, 100, 31);
  const auto scheme = make_scheme(g, test_config(BackendKind::kCoreFtc, 3));
  TempStore manifest("inplace", ".ftcm");
  save_sharded(*scheme, manifest.path(), 4);
  struct stat before{};
  ASSERT_EQ(::stat(manifest.shard_path(2).c_str(), &before), 0);

  const DeltaPushStats stats =
      save_sharded_delta(*scheme, manifest.path(), manifest.path());
  EXPECT_EQ(stats.epoch, 2u);
  EXPECT_EQ(stats.shards_reused, 4u);
  EXPECT_EQ(stats.bytes_written, 0u);
  struct stat after{};
  ASSERT_EQ(::stat(manifest.shard_path(2).c_str(), &after), 0);
  EXPECT_EQ(before.st_ino, after.st_ino);  // untouched in place
  const auto view = ShardedStoreView::open(manifest.path());
  EXPECT_EQ(view->info().manifest_epoch, 2u);
}

TEST(ShardedStoreDelta, ChainedPushesIncrementEpochAndLinkDigests) {
  const Graph g = graph::random_connected(40, 100, 37);
  const auto scheme = make_scheme(g, test_config(BackendKind::kCoreFtc, 3));
  TempStore a("chain_a", ".ftcm");
  TempStore b("chain_b", ".ftcm");
  TempStore c("chain_c", ".ftcm");
  save_sharded(*scheme, a.path(), 4);
  // num_shards = 0 inherits the parent's K.
  EXPECT_EQ(save_sharded_delta(*scheme, b.path(), a.path()).epoch, 2u);
  EXPECT_EQ(save_sharded_delta(*scheme, c.path(), b.path()).epoch, 3u);
  const auto va = ShardedStoreView::open(a.path());
  const auto vb = ShardedStoreView::open(b.path());
  const auto vc = ShardedStoreView::open(c.path());
  EXPECT_EQ(vb->info().num_shards, 4u);
  EXPECT_EQ(vb->info().parent_digest, va->info().payload_checksum);
  EXPECT_EQ(vc->info().parent_digest, vb->info().payload_checksum);
}

TEST(ShardedStoreDelta, AdoptionSharesUnchangedShardMaps) {
  const Graph g = graph::random_connected(48, 120, 41);
  const auto scheme = make_scheme(g, test_config(BackendKind::kCoreFtc, 3));
  DeltaFiles files("adopt");
  save_sharded(*scheme, files.parent().path(), 4);
  const auto parent_view = ShardedStoreView::open(files.parent().path());
  (void)parent_view->prefetch(2);  // all four shards mapped

  // One changed shard: adoption must carry the three unchanged maps
  // over and leave exactly the changed one for prefetch to open.
  const auto patched = test_support::flip_edges(*scheme, g, {0});
  save_sharded_delta(*patched, files.child().path(), files.parent().path());
  const auto child_view = ShardedStoreView::open(
      files.child().path(), /*verify_checksum=*/true, parent_view);
  EXPECT_EQ(child_view->shards_adopted(), 3u);
  EXPECT_EQ(child_view->shards_open(), 3u);
  const store::PrefetchStats stats = child_view->prefetch(2);
  EXPECT_EQ(stats.shards_adopted, 3u);
  EXPECT_EQ(stats.shards_opened, 1u);
  EXPECT_EQ(child_view->shards_open(), 4u);

  // Unchanged labels serve byte-identically through the adopted maps
  // (skip shard 0's edge range — its labels were deliberately flipped).
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_TRUE(
        spans_equal(child_view->vertex_blob(v), parent_view->vertex_blob(v)));
  }
}

TEST(ShardedStoreDelta, ZeroDeltaAdoptionOpensEveryShardImmediately) {
  const Graph g = graph::random_connected(40, 100, 43);
  const auto scheme = make_scheme(g, test_config(BackendKind::kCoreFtc, 3));
  DeltaFiles files("adoptall");
  save_sharded(*scheme, files.parent().path(), 4);
  const auto parent_view = ShardedStoreView::open(files.parent().path());
  (void)parent_view->prefetch(2);

  save_sharded_delta(*scheme, files.child().path(), files.parent().path());
  const auto child_view = ShardedStoreView::open(
      files.child().path(), /*verify_checksum=*/true, parent_view);
  // Everything adopted: the view is fully warm at open — every shard
  // already mapped, a prefetch has nothing left to map, and the adopted
  // maps serve the parent's bytes.
  EXPECT_EQ(child_view->shards_adopted(), 4u);
  EXPECT_EQ(child_view->shards_open(), 4u);
  EXPECT_EQ(child_view->prefetch(2).shards_opened, 0u);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_TRUE(
        spans_equal(child_view->edge_blob(e), parent_view->edge_blob(e)));
  }
}

TEST(ShardedStoreDelta, AdoptionFromColdParentAdoptsNothing) {
  const Graph g = graph::random_connected(40, 100, 47);
  const auto scheme = make_scheme(g, test_config(BackendKind::kCoreFtc, 3));
  DeltaFiles files("coldparent");
  save_sharded(*scheme, files.parent().path(), 4);
  const auto parent_view = ShardedStoreView::open(files.parent().path());
  // Parent never touched: no maps to share, so adoption is a no-op and
  // the child serves through ordinary lazy opens.
  save_sharded_delta(*scheme, files.child().path(), files.parent().path());
  const auto child_view = ShardedStoreView::open(
      files.child().path(), /*verify_checksum=*/true, parent_view);
  EXPECT_EQ(child_view->shards_adopted(), 0u);
  EXPECT_EQ(child_view->prefetch(2).shards_opened, 4u);
}

}  // namespace
}  // namespace ftc::core
