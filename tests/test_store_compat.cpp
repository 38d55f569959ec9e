// Checked-in label store fixtures of every older container format.
//
// tests/data/ holds, for container formats v1, v2 and v3, one core-ftc
// and one dp21-cycle store of the same input: barbell(4, 3), f = 2,
// seed 7, k_override 12, bits_override 64, each written by the last
// writer of its format. Each fixture must load and serve, and saving it
// again must give a current-format (v4) container that keeps its level
// bounds and answers identically. The same core-ftc labels are also
// checked in as a manifest-v2 sharded store (two v3 shards), the last
// manifest format whose shards keep stride k.
//
// The exhaustive check runs every fixture and its re-save through every
// edge fault set with |F| <= 2 and every (s, t) pair, against BFS. For
// core-ftc a typed FtcCapacityError is also an allowed outcome, but then
// every version of the same labels must refuse the same queries.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "core/batch_engine.hpp"
#include "core/connectivity_scheme.hpp"
#include "core/ftc_scheme.hpp"
#include "core/label_store.hpp"
#include "core/sharded_store.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "store_fixture.hpp"
#include "util/common.hpp"
#include "util/digest.hpp"

namespace ftc::core {
namespace {

using graph::EdgeId;
using graph::Graph;
using graph::VertexId;
using test_support::ScratchDir;
using test_support::TempStore;
using test_support::random_faults;
using test_support::read_file;
using test_support::write_file;

// The exact graph and config the fixtures were generated with.
Graph fixture_graph() { return graph::barbell(4, 3); }

SchemeConfig fixture_config(BackendKind backend) {
  SchemeConfig cfg;
  cfg.backend = backend;
  cfg.set_f(2).set_seed(7);
  cfg.ftc.k_override = 12;
  cfg.cycle.bits_override = 64;
  return cfg;
}

std::string fixture_path(const std::string& file) {
  return std::string(FTC_TEST_DATA_DIR) + "/" + file;
}

// A core view's params, and its level bounds.
LabelParams core_params(const StoreView& view,
                        std::vector<std::uint32_t>* bounds) {
  store::ByteReader r(view.params_blob());
  return store::decode_core_params(r, view.info().format_version, bounds);
}

std::vector<std::uint32_t> level_bounds(const StoreView& view) {
  std::vector<std::uint32_t> bounds;
  (void)core_params(view, &bounds);
  return bounds;
}

// The core edge layout a view's blobs have.
store::CoreEdgeLayout stored_layout(const StoreView& view) {
  std::vector<std::uint32_t> bounds;
  const LabelParams p = core_params(view, &bounds);
  return store::core_edge_layout(p, bounds, view.info().format_version);
}

EdgeLabel core_edge(const StoreView& view, EdgeId e) {
  store::ByteReader r(view.edge_blob(e));
  return store::decode_core_edge(r, core_params(view, nullptr),
                                 stored_layout(view));
}

struct StoreFixture {
  const char* file;
  BackendKind backend;
};

std::string fixture_name(const ::testing::TestParamInfo<StoreFixture>& info) {
  return info.param.backend == BackendKind::kCoreFtc ? "core_ftc"
                                                     : "dp21_cycle";
}

void expect_edge_faults_match_bfs(const ConnectivityScheme& scheme,
                                  std::uint64_t seed) {
  const Graph g = fixture_graph();
  SplitMix64 rng(seed);
  for (int it = 0; it < 40; ++it) {
    const auto faults = random_faults(rng, g, 2);
    const auto s = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    const auto t = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    EXPECT_EQ(scheme.connected(s, t, FaultSpec::edges(faults)),
              graph::connected_avoiding(g, s, t, faults))
        << "it=" << it;
  }
}

void expect_vertex_faults_match_bfs(const ConnectivityScheme& scheme) {
  const Graph g = fixture_graph();
  ASSERT_TRUE(scheme.has_adjacency());
  const std::vector<VertexId> vf{1};
  for (VertexId s = 0; s < g.num_vertices(); ++s) {
    if (s == 1) continue;
    EXPECT_EQ(scheme.connected(s, 0, FaultSpec::vertices(vf)),
              graph::connected_avoiding(g, s, 0, {}, vf))
        << "s=" << s;
  }
}

// Saves a fixture again and checks the current-format container it
// gives: version, CRC-64 payload digest, adjacency, a byte-identical
// params blob (so the level bounds survive, and equal a fresh build's),
// and identical answers. A core-ftc re-save stores each level's first
// min(k, bound) syndromes, exactly the fixture's, so it is strictly
// smaller; a dp21 re-save differs from the fixture only in the header's
// version and checksum fields. Saving the re-save again changes nothing.
void check_resave(const StoreFixture& fixture) {
  const std::string path = fixture_path(fixture.file);
  const auto fixture_view = LabelStoreView::open(path);
  const auto loaded = load_scheme(path);
  TempStore upgraded(std::string("resave_") + fixture.file, ".ftcs");
  loaded->save(upgraded.path());
  const auto view = LabelStoreView::open(upgraded.path());
  EXPECT_EQ(view->info().format_version, store::kFormatVersion);
  EXPECT_TRUE(view->info().has_adjacency);
  const std::vector<std::uint8_t> bytes = read_file(upgraded.path());
  EXPECT_EQ(view->info().payload_checksum,
            util::crc64(std::span<const std::uint8_t>(bytes).subspan(
                store::kHeaderBytes)));
  const auto want_params = fixture_view->params_blob();
  const auto got_params = view->params_blob();
  EXPECT_TRUE(std::equal(want_params.begin(), want_params.end(),
                         got_params.begin(), got_params.end()));

  const std::vector<std::uint8_t> fixture_bytes = read_file(path);
  if (fixture.backend == BackendKind::kCoreFtc) {
    // The per-level bounds survive the re-save, and they are what a
    // fresh build of the same input computes.
    const auto built = FtcScheme::build(
        fixture_graph(), fixture_config(BackendKind::kCoreFtc).ftc);
    const auto pops = built.level_populations();
    const std::vector<std::uint32_t> want(pops.begin(), pops.end());
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(level_bounds(*fixture_view), want);
    EXPECT_EQ(level_bounds(*view), want);
    EXPECT_LT(bytes.size(), fixture_bytes.size());
    EXPECT_LT(view->info().edge_label_bits,
              fixture_view->info().edge_label_bits);
    EXPECT_EQ(view->info().edge_label_bits, built.edge_label_bits());
    // Every re-saved blob is the fixture's, re-strided: the same
    // endpoints and, per level, the fixture's first width(l) syndromes.
    const store::CoreEdgeLayout from = stored_layout(*fixture_view);
    const store::CoreEdgeLayout to = stored_layout(*view);
    for (EdgeId e = 0; e < view->info().num_edges; ++e) {
      const EdgeLabel a = core_edge(*fixture_view, e);
      const EdgeLabel b = core_edge(*view, e);
      EXPECT_EQ(a.upper, b.upper);
      EXPECT_EQ(a.lower, b.lower);
      EXPECT_EQ(b.level_widths, want);
      for (unsigned lev = 0; lev < to.num_levels; ++lev) {
        const std::size_t words =
            std::size_t{to.width(lev)} * to.elem_words;
        EXPECT_TRUE(std::equal(
            b.sketch_words.begin() + to.offset(lev),
            b.sketch_words.begin() + to.offset(lev) + words,
            a.sketch_words.begin() + from.offset(lev)))
            << "edge " << e << " level " << lev;
      }
    }
  } else {
    ASSERT_EQ(bytes.size(), fixture_bytes.size());
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      const bool header_field = i == 8 || (i >= 40 && i < 48) || i >= 56;
      if (i < store::kHeaderBytes && header_field) continue;
      ASSERT_EQ(bytes[i], fixture_bytes[i]) << "byte " << i;
    }
  }

  const auto reloaded = load_scheme(upgraded.path());
  TempStore again(std::string("resave2_") + fixture.file, ".ftcs");
  reloaded->save(again.path());
  EXPECT_EQ(read_file(again.path()), bytes) << "re-save is not a fixpoint";

  const Graph g = fixture_graph();
  SplitMix64 rng(80);
  for (int it = 0; it < 40; ++it) {
    const auto faults = random_faults(rng, g, 2);
    const auto s = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    const auto t = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    const bool answer = loaded->connected(s, t, FaultSpec::edges(faults));
    EXPECT_EQ(reloaded->connected(s, t, FaultSpec::edges(faults)), answer)
        << "it=" << it;
    EXPECT_EQ(answer, graph::connected_avoiding(g, s, t, faults))
        << "it=" << it;
  }
}

// ------------------------------------------------------------------
// Format v1 (written by the original v1 writer): loads, serves
// edge-fault queries like a freshly built scheme, and raises the typed
// capability error on vertex faults (v1 carries no adjacency).

class LabelStoreV1Compat : public ::testing::TestWithParam<StoreFixture> {};

TEST_P(LabelStoreV1Compat, LoadsAndServesEdgeFaultsUnchanged) {
  const std::string path = fixture_path(GetParam().file);
  const auto view = LabelStoreView::open(path);
  EXPECT_EQ(view->info().format_version, 1u);
  EXPECT_EQ(view->info().backend, GetParam().backend);
  EXPECT_FALSE(view->info().has_adjacency);
  EXPECT_EQ(view->info().adjacency_bytes, 0u);

  const Graph g = fixture_graph();
  const auto rebuilt = make_scheme(g, fixture_config(GetParam().backend));
  const auto loaded = load_scheme(path);
  EXPECT_EQ(loaded->num_vertices(), g.num_vertices());
  EXPECT_EQ(loaded->num_edges(), g.num_edges());
  EXPECT_FALSE(loaded->has_adjacency());
  expect_edge_faults_match_bfs(*loaded, 77);
  expect_edge_faults_match_bfs(*rebuilt, 77);
}

TEST_P(LabelStoreV1Compat, VertexFaultsRaiseTypedCapabilityError) {
  const std::string path = fixture_path(GetParam().file);
  const auto loaded = load_scheme(path);
  EXPECT_FALSE(loaded->has_adjacency());
  const std::vector<VertexId> vf{1};
  EXPECT_THROW((void)loaded->prepare_faults(FaultSpec::vertices(vf)),
               CapabilityError);
  EXPECT_THROW((void)loaded->connected(0, 2, FaultSpec::vertices(vf)),
               CapabilityError);
  // Edge-only specs keep working through the same session API.
  BatchQueryEngine session(load_scheme(path),
                           FaultSpec::edges(std::vector<EdgeId>{0, 3}));
  EXPECT_THROW(session.reset_faults(FaultSpec::vertices(vf)),
               CapabilityError);
}

// A v1 container re-saved through the new writer becomes a valid
// current-format container (core params gain an empty bounds trailer,
// still no adjacency) and keeps serving identical answers. With no
// bounds, its core levels keep all k syndromes: the blobs do not shrink.
TEST_P(LabelStoreV1Compat, ResaveUpgradesToCurrentFormatWithoutAdjacency) {
  const std::string path = fixture_path(GetParam().file);
  const auto loaded = load_scheme(path);
  TempStore upgraded(std::string("v1_upgrade_") + GetParam().file, ".ftcs");
  loaded->save(upgraded.path());
  const auto view = LabelStoreView::open(upgraded.path());
  EXPECT_EQ(view->info().format_version, store::kFormatVersion);
  EXPECT_FALSE(view->info().has_adjacency);
  EXPECT_EQ(view->info().edge_blob_bytes,
            LabelStoreView::open(path)->info().edge_blob_bytes);
  if (GetParam().backend == BackendKind::kCoreFtc) {
    EXPECT_TRUE(level_bounds(*view).empty());
    const store::CoreEdgeLayout layout = stored_layout(*view);
    EXPECT_EQ(layout.payload_words,
              std::size_t{layout.num_levels} * layout.k * layout.elem_words);
    EXPECT_EQ(core_edge(*view, 0).level_widths.size(), 0u);
  }
  expect_edge_faults_match_bfs(*load_scheme(upgraded.path()), 78);
}

INSTANTIATE_TEST_SUITE_P(
    Fixtures, LabelStoreV1Compat,
    ::testing::Values(StoreFixture{"v1_core_ftc.ftcs", BackendKind::kCoreFtc},
                      StoreFixture{"v1_dp21_cycle.ftcs",
                                   BackendKind::kDp21CycleSpace}),
    fixture_name);

// ------------------------------------------------------------------
// Format v2 (written by the last v2 writer, with adjacency): verifies
// through the FNV-1a payload digest and serves edge and vertex faults.

class LabelStoreV2Compat : public ::testing::TestWithParam<StoreFixture> {};

TEST_P(LabelStoreV2Compat, VerifiesWithFnvAndServesFaults) {
  const std::string path = fixture_path(GetParam().file);
  const auto view = LabelStoreView::open(path, /*verify_checksum=*/true);
  EXPECT_EQ(view->info().format_version, 2u);
  EXPECT_EQ(view->info().backend, GetParam().backend);
  EXPECT_TRUE(view->info().has_adjacency);
  const std::vector<std::uint8_t> bytes = read_file(path);
  EXPECT_EQ(view->info().payload_checksum,
            util::fnv1a(std::span<const std::uint8_t>(bytes).subspan(
                store::kHeaderBytes)));
  const auto loaded = load_scheme(path);
  expect_edge_faults_match_bfs(*loaded, 79);
  expect_vertex_faults_match_bfs(*loaded);
}

TEST_P(LabelStoreV2Compat, ResaveWritesCurrentFormatKeepingBoundsAndAnswers) {
  check_resave(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Fixtures, LabelStoreV2Compat,
    ::testing::Values(StoreFixture{"v2_core_ftc.ftcs", BackendKind::kCoreFtc},
                      StoreFixture{"v2_dp21_cycle.ftcs",
                                   BackendKind::kDp21CycleSpace}),
    fixture_name);

// ------------------------------------------------------------------
// Format v3 (written by the last v3 writer): the v2 layout under a
// CRC-64/XZ payload digest, core levels at stride k.

class LabelStoreV3Compat : public ::testing::TestWithParam<StoreFixture> {};

TEST_P(LabelStoreV3Compat, VerifiesWithCrcAndServesFaults) {
  const std::string path = fixture_path(GetParam().file);
  const auto view = LabelStoreView::open(path, /*verify_checksum=*/true);
  EXPECT_EQ(view->info().format_version, 3u);
  EXPECT_EQ(view->info().backend, GetParam().backend);
  EXPECT_TRUE(view->info().has_adjacency);
  const std::vector<std::uint8_t> bytes = read_file(path);
  EXPECT_EQ(view->info().payload_checksum,
            util::crc64(std::span<const std::uint8_t>(bytes).subspan(
                store::kHeaderBytes)));
  if (GetParam().backend == BackendKind::kCoreFtc) {
    // Stride k on every level, although the bounds are below k.
    const store::CoreEdgeLayout layout = stored_layout(*view);
    EXPECT_EQ(layout.payload_words,
              std::size_t{layout.num_levels} * layout.k * layout.elem_words);
    const auto bounds = level_bounds(*view);
    ASSERT_FALSE(bounds.empty());
    EXPECT_LT(*std::min_element(bounds.begin(), bounds.end()), layout.k);
  }
  const auto loaded = load_scheme(path);
  expect_edge_faults_match_bfs(*loaded, 81);
  expect_vertex_faults_match_bfs(*loaded);
}

TEST_P(LabelStoreV3Compat, ResaveWritesV4KeepingBoundsAndAnswers) {
  check_resave(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Fixtures, LabelStoreV3Compat,
    ::testing::Values(StoreFixture{"v3_core_ftc.ftcs", BackendKind::kCoreFtc},
                      StoreFixture{"v3_dp21_cycle.ftcs",
                                   BackendKind::kDp21CycleSpace}),
    fixture_name);

// ------------------------------------------------------------------
// The fixtures have one hierarchy level, where both layouts put it at
// offset 0. This store has two, the first narrower than k, so level 1
// sits at another offset in each layout. Its v4 bytes are rewritten as
// a v3 container at stride k, the syndromes past each level's width
// filled with junk no query may read. That container must serve like
// the original, and saving it again must give the original v4 bytes.

std::vector<std::uint8_t> as_stride_k_v3(const std::vector<std::uint8_t>& v4,
                                         const StoreView& view) {
  const StoreInfo& info = view.info();
  std::vector<std::uint32_t> bounds;
  const LabelParams p = core_params(view, &bounds);
  const store::CoreEdgeLayout from = stored_layout(view);
  const store::CoreEdgeLayout to = store::core_edge_layout(p, bounds, 3);
  const std::size_t index_off =
      ((store::kHeaderBytes + info.params_bytes + 7) & ~std::size_t{7}) +
      info.vertex_section_bytes;
  const std::size_t blobs_off = index_off + info.edge_index_bytes;

  store::ByteWriter w;
  w.bytes(std::span<const std::uint8_t>(v4).first(index_off));
  for (EdgeId e = 0; e <= info.num_edges; ++e) w.u64(e * to.blob_bytes());
  const std::size_t elem_bytes = 8 * p.words_per_elem();
  for (EdgeId e = 0; e < info.num_edges; ++e) {
    const std::uint8_t* blob = v4.data() + blobs_off + e * from.blob_bytes();
    w.bytes(std::span<const std::uint8_t>(blob, 16));
    for (unsigned lev = 0; lev < to.num_levels; ++lev) {
      const std::size_t kept = from.width(lev) * elem_bytes;
      w.bytes(std::span<const std::uint8_t>(blob + 16 + 8 * from.offset(lev),
                                            kept));
      for (std::size_t i = kept; i < p.k * elem_bytes; ++i) w.u8(0xA5);
    }
  }
  w.pad_to(8);
  w.bytes(std::span<const std::uint8_t>(v4).last(info.adjacency_bytes));
  std::vector<std::uint8_t> out = w.take();
  out[8] = 3;  // the low byte of the u32 format version
  const std::span<const std::uint8_t> bytes(out);
  util::write_u64_le(out.data() + 40,
                     util::crc64(bytes.subspan(store::kHeaderBytes)));
  util::write_u64_le(out.data() + 56, store::fnv1a(bytes.first(56)));
  return out;
}

TEST(StrideKCompat, TwoLevelV3ServesAndResavesToTheOriginalV4Bytes) {
  const Graph g = graph::random_connected(60, 180, 5);
  SchemeConfig cfg;
  cfg.set_f(1);
  cfg.ftc.k_override = 160;
  const auto built = make_scheme(g, cfg);
  TempStore v4_file("two_level_v4", ".ftcs");
  built->save(v4_file.path());
  const std::vector<std::uint8_t> v4 = read_file(v4_file.path());
  const auto v4_view = LabelStoreView::open(v4_file.path());
  const store::CoreEdgeLayout layout = stored_layout(*v4_view);
  ASSERT_GE(layout.num_levels, 2u);
  ASSERT_LT(layout.width(0), layout.k);  // so level 1's offsets differ

  TempStore v3_file("two_level_v3", ".ftcs");
  write_file(v3_file.path(), as_stride_k_v3(v4, *v4_view));
  const auto v3_view = LabelStoreView::open(v3_file.path());
  EXPECT_EQ(v3_view->info().format_version, 3u);
  EXPECT_GT(v3_view->info().file_bytes, v4.size());
  const auto v3 = load_scheme(v3_file.path());
  SplitMix64 rng(84);
  for (int it = 0; it < 200; ++it) {
    const auto faults = random_faults(rng, g, 1);
    const auto s = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    const auto t = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    EXPECT_EQ(v3->connected(s, t, FaultSpec::edges(faults)),
              graph::connected_avoiding(g, s, t, faults))
        << "it=" << it;
  }
  TempStore resaved("two_level_resaved", ".ftcs");
  v3->save(resaved.path());
  EXPECT_EQ(read_file(resaved.path()), v4);
}

// ------------------------------------------------------------------
// Manifest v2 fronts shards of container formats 1-3: the view reports
// format 3, serves the stride-k shards, and re-sharding writes a v3
// manifest of format-v4 shards.

TEST(LegacyManifestCompat, ManifestV2OfV3ShardsServesAndReshardsToV4) {
  const std::string manifest = fixture_path("v3_core_ftc_sharded.ftcm");
  const auto view = open_store_view(manifest);
  EXPECT_EQ(view->info().num_shards, 2u);
  EXPECT_EQ(view->info().format_version, 3u);
  EXPECT_EQ(read_file(manifest)[8], 2);  // manifest format version
  const auto loaded = load_scheme(manifest);
  expect_edge_faults_match_bfs(*loaded, 82);
  expect_vertex_faults_match_bfs(*loaded);
  loaded->prefetch(1);
  expect_edge_faults_match_bfs(*loaded, 83);

  const ScratchDir dir("legacy_manifest");
  const std::string resharded = dir.file("labels.ftcm");
  save_sharded(*loaded, resharded, 2);
  EXPECT_EQ(read_file(resharded)[8], store::kManifestFormatVersion);
  const auto new_view = open_store_view(resharded);
  EXPECT_EQ(new_view->info().format_version, store::kFormatVersion);
  EXPECT_LT(new_view->info().edge_blob_bytes, view->info().edge_blob_bytes);
  const auto reloaded = load_scheme(resharded);
  expect_edge_faults_match_bfs(*reloaded, 82);
  expect_vertex_faults_match_bfs(*reloaded);

  // A manifest whose version disagrees with its shards' blob width is
  // refused at the shard open, typed, never served: here a v3 manifest
  // of v4 shards relabelled v2.
  std::vector<std::uint8_t> bytes = read_file(resharded);
  bytes[8] = 2;
  const std::uint64_t sum =
      store::fnv1a(std::span<const std::uint8_t>(bytes.data(), 88));
  for (int i = 0; i < 8; ++i) bytes[88 + i] = (sum >> (8 * i)) & 0xff;
  write_file(resharded, bytes);
  const auto mislabelled = load_scheme(resharded);
  EXPECT_THROW(mislabelled->prefetch(1), StoreError);
  const std::vector<EdgeId> one{1};
  EXPECT_THROW((void)mislabelled->connected(0, 10, FaultSpec::edges(one)),
               StoreError);
}

// ------------------------------------------------------------------
// Exhaustive: every fixture and its v4 re-save, every edge fault set
// with |F| <= 2, every (s, t).

// One query's outcome: 0 disconnected, 1 connected, 2 FtcCapacityError.
std::vector<int> all_outcomes(const ConnectivityScheme& scheme,
                              const std::vector<std::vector<EdgeId>>& sets) {
  const VertexId n = scheme.num_vertices();
  std::vector<int> out;
  out.reserve(sets.size() * n * n);
  const auto ws = scheme.make_workspace();
  for (const auto& faults : sets) {
    const auto prepared = scheme.prepare_faults(FaultSpec::edges(faults));
    for (VertexId s = 0; s < n; ++s) {
      for (VertexId t = 0; t < n; ++t) {
        try {
          out.push_back(scheme.query(s, t, *prepared, *ws) ? 1 : 0);
        } catch (const FtcCapacityError&) {
          out.push_back(2);
        }
      }
    }
  }
  return out;
}

TEST(StoreFixtureExhaustive, EveryFaultSetUpToTwoAndEveryPairMatchesBfs) {
  const Graph g = fixture_graph();
  const VertexId n = g.num_vertices();
  std::vector<std::vector<EdgeId>> sets{{}};
  for (EdgeId a = 0; a < g.num_edges(); ++a) {
    sets.push_back({a});
    for (EdgeId b = a + 1; b < g.num_edges(); ++b) sets.push_back({a, b});
  }
  ASSERT_EQ(sets.size(), 1 + 16 + 16 * 15 / 2);
  std::vector<int> bfs;
  for (const auto& faults : sets) {
    for (VertexId s = 0; s < n; ++s) {
      for (VertexId t = 0; t < n; ++t) {
        bfs.push_back(graph::connected_avoiding(g, s, t, faults) ? 1 : 0);
      }
    }
  }

  for (const BackendKind backend :
       {BackendKind::kCoreFtc, BackendKind::kDp21CycleSpace}) {
    const std::string suffix = backend == BackendKind::kCoreFtc
                                   ? "_core_ftc.ftcs"
                                   : "_dp21_cycle.ftcs";
    std::vector<int> first;  // the v1 fixture's outcomes
    for (const char* version : {"v1", "v2", "v3"}) {
      const std::string file = version + suffix;
      TempStore resaved("exhaustive_" + file, ".ftcs");
      load_scheme(fixture_path(file))->save(resaved.path());
      for (const std::string& path : {fixture_path(file), resaved.path()}) {
        SCOPED_TRACE(path);
        const auto scheme = load_scheme(path);
        const std::vector<int> got = all_outcomes(*scheme, sets);
        ASSERT_EQ(got.size(), bfs.size());
        std::size_t refused = 0;
        for (std::size_t i = 0; i < got.size(); ++i) {
          if (got[i] == 2) {
            ++refused;
            continue;
          }
          ASSERT_EQ(got[i], bfs[i])
              << "fault set " << i / (n * n) << ", s " << (i % (n * n)) / n
              << ", t " << i % n;
        }
        if (backend != BackendKind::kCoreFtc) {
          EXPECT_EQ(refused, 0u);
        }
        // A refusal is allowed, but never one that another version of
        // the same labels answers.
        if (first.empty()) first = got;
        EXPECT_EQ(got, first);
      }
    }
  }
}

}  // namespace
}  // namespace ftc::core
