// LabelStore round-trip and adversarial-input coverage.
//
// Round-trip: every backend's labels, written through save() and loaded
// back via the mmap view, must answer exactly like the freshly built
// scheme that wrote them (cross-checked against the BFS ground truth),
// including through BatchQueryEngine sessions spun up straight from the
// file. The built scheme's resident view must report what the saved
// container records.
//
// Adversarial: truncations, bad magic, unsupported versions, flipped
// checksum/payload bytes, corrupt offset indices and blob widths that
// disagree with the format version must throw the typed StoreError —
// never UB (the suite also runs under the asan preset). The checked-in
// fixtures of older formats are covered by test_store_compat.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "core/batch_engine.hpp"
#include "core/connectivity_scheme.hpp"
#include "core/ftc_scheme.hpp"
#include "core/label_store.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "store_fixture.hpp"
#include "util/common.hpp"

namespace ftc::core {
namespace {

using graph::EdgeId;
using graph::Graph;
using graph::VertexId;
using test_support::TempStore;
using test_support::backend_param_name;
using test_support::fix_header_checksum;
using test_support::random_faults;
using test_support::read_file;
using test_support::test_config;
using test_support::write_file;

class LabelStoreParity : public ::testing::TestWithParam<BackendKind> {};

TEST_P(LabelStoreParity, SaveLoadRoundTripMatchesInMemoryAndBfs) {
  const unsigned f = 3;
  struct Family {
    const char* name;
    Graph g;
  };
  const Family families[] = {
      {"random", graph::random_connected(40, 96, 7)},
      {"grid", graph::grid(6, 7)},
      {"cliques", graph::path_of_cliques(5, 5)},
  };
  for (const Family& fam : families) {
    const Graph& g = fam.g;
    const auto scheme = make_scheme(g, test_config(GetParam(), f));
    TempStore file(std::string("parity_") + fam.name + "_" +
                   std::to_string(static_cast<int>(GetParam())), ".ftcs");
    scheme->save(file.path());

    // Both load modes: with the payload checksum pass, and without it
    // (the label bytes served must be the same either way).
    const auto loaded = load_scheme(file.path());
    const auto unverified =
        load_scheme(open_store_view(file.path(), /*verify_checksum=*/false));
    for (const ConnectivityScheme* served :
         {loaded.get(), unverified.get()}) {
      EXPECT_EQ(served->backend(), GetParam());
      EXPECT_EQ(served->num_vertices(), scheme->num_vertices());
      EXPECT_EQ(served->num_edges(), scheme->num_edges());
      EXPECT_EQ(served->vertex_label_bits(), scheme->vertex_label_bits());
      EXPECT_EQ(served->edge_label_bits(), scheme->edge_label_bits());
    }

    SplitMix64 rng(900 + static_cast<int>(GetParam()));
    for (int it = 0; it < 25; ++it) {
      const auto faults = random_faults(rng, g, f);
      const auto s = static_cast<VertexId>(rng.next_below(g.num_vertices()));
      const auto t = static_cast<VertexId>(rng.next_below(g.num_vertices()));
      const bool expected = graph::connected_avoiding(g, s, t, faults);
      EXPECT_EQ(scheme->connected(s, t, FaultSpec::edges(faults)),
                expected)
          << fam.name << " it=" << it;
      EXPECT_EQ(loaded->connected(s, t, FaultSpec::edges(faults)), expected)
          << fam.name << " it=" << it;
      EXPECT_EQ(unverified->connected(s, t, FaultSpec::edges(faults)),
                expected)
          << fam.name << " it=" << it << " (no checksum pass)";
    }
  }
}

// make_scheme serves its labels from a resident view that reports what
// the saved container does, and accounts label bits as the paper does:
// two coordinates per vertex; four coordinates plus the payload per edge.
TEST_P(LabelStoreParity, ResidentViewMatchesSavedContainer) {
  const Graph g = graph::random_connected(30, 70, 9);
  SchemeConfig cfg = test_config(GetParam(), 3);
  cfg.ftc.k_override = 12;
  cfg.cycle.bits_override = 40;
  cfg.agm.reps_override = 5;
  const auto scheme = make_scheme(g, cfg);
  const auto resident = scheme->store_view();
  ASSERT_NE(resident, nullptr);
  EXPECT_FALSE(resident->file_backed());
  TempStore file("resident_" + std::to_string(static_cast<int>(GetParam())),
                 ".ftcs");
  scheme->save(file.path());
  const auto saved = LabelStoreView::open(file.path());
  EXPECT_TRUE(saved->file_backed());
  const StoreInfo& got = resident->info();
  const StoreInfo& want = saved->info();
  EXPECT_EQ(got.num_vertices, want.num_vertices);
  EXPECT_EQ(got.num_edges, want.num_edges);
  EXPECT_EQ(got.backend, want.backend);
  EXPECT_EQ(got.vertex_label_bits, want.vertex_label_bits);
  EXPECT_EQ(got.edge_label_bits, want.edge_label_bits);
  EXPECT_EQ(got.has_adjacency, want.has_adjacency);
  EXPECT_TRUE(got.has_adjacency);

  // The overridden dimension must reach the params blob unchanged; the
  // rest (coordinate width, hierarchy or sampler depth) is read back.
  const auto n = static_cast<std::size_t>(g.num_vertices());
  const auto m = static_cast<std::size_t>(g.num_edges());
  store::ByteReader pr(resident->params_blob());
  std::size_t coord_bits = 0;
  std::size_t payload_bits = 0;
  switch (GetParam()) {
    case BackendKind::kCoreFtc: {
      std::vector<std::uint32_t> bounds;
      const LabelParams p =
          store::decode_core_params(pr, store::kFormatVersion, &bounds);
      EXPECT_EQ(p.k, 12u);
      ASSERT_EQ(bounds.size(), p.num_levels);
      coord_bits = ceil_log2(p.n_aux);
      // Level l stores min(k, bound_l) syndromes.
      for (const std::uint32_t b : bounds) {
        payload_bits += std::size_t{std::min(b, 12u)} * p.field_bits;
      }
      break;
    }
    case BackendKind::kDp21CycleSpace: {
      const store::CycleParams p = store::decode_cycle_params(pr);
      EXPECT_EQ(p.vector_bits, 40u);
      EXPECT_EQ(p.coord_bits, ceil_log2(g.num_vertices()));
      coord_bits = p.coord_bits;
      payload_bits = 40 + 1;  // the vector plus the tree-edge flag
      break;
    }
    case BackendKind::kDp21Agm: {
      const store::AgmParams p = store::decode_agm_params(pr);
      EXPECT_EQ(p.reps, 5u);
      coord_bits = p.coord_bits;
      // 3 words per cell (ID lo/hi, fingerprint), levels x reps cells.
      payload_bits = std::size_t{p.levels} * 5 * 3 * 64;
      break;
    }
  }
  EXPECT_EQ(scheme->vertex_label_bits(), 2 * coord_bits);
  EXPECT_EQ(scheme->edge_label_bits(), 4 * coord_bits + payload_bits);
  EXPECT_EQ(scheme->total_label_bits(),
            n * 2 * coord_bits + m * (4 * coord_bits + payload_bits));
}

// The smallest inputs every builder must handle: one vertex (no edge
// blobs at all) and one edge. Each survives save/load with the same
// label accounting and answers like BFS.
TEST_P(LabelStoreParity, TinyGraphsSurviveSaveAndLoad) {
  Graph single_vertex(1);
  Graph single_edge(2);
  single_edge.add_edge(0, 1);
  for (const Graph* g : {&single_vertex, &single_edge}) {
    SCOPED_TRACE("n=" + std::to_string(g->num_vertices()));
    const auto built = make_scheme(*g, test_config(GetParam(), 1));
    TempStore file("tiny_" + std::to_string(g->num_vertices()) + "_" +
                   std::to_string(static_cast<int>(GetParam())), ".ftcs");
    built->save(file.path());
    const auto loaded = load_scheme(file.path());
    EXPECT_EQ(loaded->num_vertices(), g->num_vertices());
    EXPECT_EQ(loaded->num_edges(), g->num_edges());
    EXPECT_EQ(loaded->total_label_bits(), built->total_label_bits());

    std::vector<std::vector<EdgeId>> fault_sets{{}};
    for (EdgeId e = 0; e < g->num_edges(); ++e) fault_sets.push_back({e});
    for (const auto& faults : fault_sets) {
      for (VertexId s = 0; s < g->num_vertices(); ++s) {
        for (VertexId t = 0; t < g->num_vertices(); ++t) {
          const bool want = graph::connected_avoiding(*g, s, t, faults);
          EXPECT_EQ(built->connected(s, t, FaultSpec::edges(faults)), want);
          EXPECT_EQ(loaded->connected(s, t, FaultSpec::edges(faults)), want);
        }
      }
    }
  }
}

TEST_P(LabelStoreParity, SaveFromLoadedViewIsByteIdentical) {
  const Graph g = graph::random_connected(24, 50, 3);
  const auto scheme = make_scheme(g, test_config(GetParam(), 2));
  TempStore first("first_" + std::to_string(static_cast<int>(GetParam())),
                  ".ftcs");
  TempStore second("second_" + std::to_string(static_cast<int>(GetParam())),
                   ".ftcs");
  scheme->save(first.path());
  const auto loaded = load_scheme(first.path());
  loaded->save(second.path());
  EXPECT_EQ(read_file(first.path()), read_file(second.path()));
}

// The acceptance-criterion workload: a 10k-query batch served through the
// mmap view must be bit-identical to the in-memory scheme, per backend,
// across >= 3 generator families.
TEST_P(LabelStoreParity, TenThousandQueryBatchMatchesInMemory) {
  const unsigned f = 3;
  struct Family {
    const char* name;
    Graph g;
  };
  const Family families[] = {
      {"grid", graph::grid(8, 8)},
      {"barbell", graph::barbell(10, 4)},
      {"random", graph::random_connected(64, 150, 11)},
  };
  for (const Family& fam : families) {
    const Graph& g = fam.g;
    const auto scheme = make_scheme(g, test_config(GetParam(), f));
    TempStore file(std::string("batch_") + fam.name + "_" +
                   std::to_string(static_cast<int>(GetParam())), ".ftcs");
    scheme->save(file.path());

    SplitMix64 rng(42);
    const auto faults = random_faults(rng, g, f);
    std::vector<BatchQueryEngine::Query> queries;
    queries.reserve(10000);
    for (int i = 0; i < 10000; ++i) {
      queries.push_back(
          {static_cast<VertexId>(rng.next_below(g.num_vertices())),
           static_cast<VertexId>(rng.next_below(g.num_vertices()))});
    }

    BatchQueryEngine in_memory(*scheme, FaultSpec::edges(faults));
    // The store session owns its loaded scheme (mmap zero-copy path) and
    // fans out across threads; answers must be bit-identical.
    BatchQueryEngine from_store(
        load_scheme(file.path()),
        FaultSpec::edges(faults));
    const auto expected = in_memory.run_sequential(queries);
    const auto actual = from_store.run_parallel(queries, 4);
    EXPECT_EQ(actual, expected) << fam.name;
  }
}

// A format-v2 store carries the adjacency side-table, so a loaded scheme
// used as an oracle serves edge, vertex and mixed faults exactly like
// the scheme that wrote it.
TEST_P(LabelStoreParity, OracleFromStoreServesVertexAndMixedFaults) {
  const Graph g = graph::barbell(8, 3);
  // Headroom for the Delta * f incident-edge reduction (Delta = 8 here).
  const auto scheme = make_scheme(g, test_config(GetParam(), 10));
  TempStore file("oracle_" + std::to_string(static_cast<int>(GetParam())),
                 ".ftcs");
  scheme->save(file.path());

  const auto oracle = load_scheme(file.path());
  EXPECT_EQ(oracle->backend(), GetParam());
  EXPECT_TRUE(oracle->has_adjacency());
  SplitMix64 rng(5);
  for (int it = 0; it < 20; ++it) {
    const auto edge_faults = random_faults(rng, g, 2);
    std::vector<VertexId> vertex_faults;
    const auto num_vertex_faults = rng.next_below(2);
    for (unsigned i = 0; i < num_vertex_faults; ++i) {
      vertex_faults.push_back(
          static_cast<VertexId>(rng.next_below(g.num_vertices())));
    }
    const auto spec = FaultSpec::of(edge_faults, vertex_faults);
    const auto s = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    const auto t = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    EXPECT_EQ(oracle->connected(s, t, spec),
              graph::connected_avoiding(g, s, t, edge_faults, vertex_faults))
        << "it=" << it;
  }
}

TEST_P(LabelStoreParity, LoadedSchemeValidatesQueryArguments) {
  const Graph g = graph::cycle(10);
  const auto scheme = make_scheme(g, test_config(GetParam(), 2));
  TempStore file("args_" + std::to_string(static_cast<int>(GetParam())),
                 ".ftcs");
  scheme->save(file.path());
  const auto loaded = load_scheme(file.path());
  const std::vector<EdgeId> bad{g.num_edges()};
  EXPECT_THROW((void)loaded->prepare_faults(FaultSpec::edges(bad)),
               std::invalid_argument);
  EXPECT_THROW((void)loaded->connected(g.num_vertices(), 0, FaultSpec{}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)loaded->prepare_faults(
          FaultSpec::vertices(std::vector<VertexId>{g.num_vertices()})),
      std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, LabelStoreParity,
                         ::testing::ValuesIn(kAllBackends),
                         backend_param_name);

// ------------------------------------------------------------------
// Blob codecs: little-endian whatever the host, and a payload cut short
// anywhere throws StoreError before a word is read past its end.

TEST(StoreCodec, FieldsAreLittleEndian) {
  const std::uint8_t bytes[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_EQ(util::read_u64_le(bytes), 0x0807060504030201ULL);
  EXPECT_EQ(util::read_u32_le(bytes), 0x04030201u);
  store::ByteReader r(bytes);
  EXPECT_EQ(r.u32(), 0x04030201u);
  EXPECT_EQ(r.u32(), 0x08070605u);
  EXPECT_THROW(r.u8(), StoreError);
  store::ByteWriter w;
  w.u64(0x0807060504030201ULL);
  EXPECT_TRUE(std::equal(w.view().begin(), w.view().end(), bytes));
}

// Every backend's fault-set builder refuses an edge blob cut short with
// StoreError, and so does core-ftc's blob decoder (FtcScheme::edge_label).
TEST(StoreCodec, TruncatedEdgeBlobsThrow) {
  const Graph g = graph::random_connected(16, 30, 9);
  for (const BackendKind backend : kAllBackends) {
    SCOPED_TRACE(backend_name(backend));
    const auto view = make_scheme(g, test_config(backend, 2))->store_view();
    const auto blob = view->edge_blob(3);
    const auto add = [&](std::span<const std::uint8_t> bytes) {
      store::ByteReader pr(view->params_blob());
      switch (backend) {
        case BackendKind::kCoreFtc: {
          std::vector<std::uint32_t> bounds;
          const LabelParams p =
              store::decode_core_params(pr, store::kFormatVersion, &bounds);
          PreparedFaults::Builder builder(p, bounds, 1);
          store::copy_core_edge_prefixes(
              bytes, store::core_edge_layout(p, bounds), builder);
          break;
        }
        case BackendKind::kDp21CycleSpace:
          dp21::CycleSpaceFtc::Prepared::Builder(
              store::decode_cycle_params(pr), 1)
              .add(bytes);
          break;
        case BackendKind::kDp21Agm:
          dp21::AgmFtc::Prepared::Builder(store::decode_agm_params(pr), 1)
              .add(bytes);
          break;
      }
    };
    const auto decode_core = [&](std::span<const std::uint8_t> bytes) {
      store::ByteReader pr(view->params_blob());
      std::vector<std::uint32_t> bounds;
      const LabelParams p =
          store::decode_core_params(pr, store::kFormatVersion, &bounds);
      store::ByteReader r(bytes);
      (void)store::decode_core_edge(r, p, store::core_edge_layout(p, bounds));
      return r.remaining();
    };
    EXPECT_NO_THROW(add(blob));
    if (backend == BackendKind::kCoreFtc) {
      EXPECT_EQ(decode_core(blob), 0u);
    }
    for (const std::size_t cut : {std::size_t{0}, std::size_t{10},
                                  blob.size() / 2, blob.size() - 1}) {
      EXPECT_THROW(add(blob.first(cut)), StoreError) << "cut=" << cut;
      if (backend == BackendKind::kCoreFtc) {
        EXPECT_THROW(decode_core(blob.first(cut)), StoreError)
            << "cut=" << cut;
      }
    }
  }
}

// A params blob cut short anywhere, or carrying an impossible dimension
// (field width, coordinate width, sampler depth), throws StoreError.
TEST(StoreCodec, TruncatedOrCorruptParamsThrow) {
  const Graph g = graph::random_connected(16, 30, 9);
  for (const BackendKind backend : kAllBackends) {
    SCOPED_TRACE(backend_name(backend));
    const auto view = make_scheme(g, test_config(backend, 2))->store_view();
    const auto params = view->params_blob();
    const auto blob_bytes = [&](std::span<const std::uint8_t> bytes) {
      return store::describe_params(backend, bytes, store::kFormatVersion)
          .edge_blob_bytes;
    };
    EXPECT_EQ(blob_bytes(params), view->edge_blob(0).size());
    for (std::size_t cut = 0; cut < params.size(); ++cut) {
      EXPECT_THROW(blob_bytes(params.first(cut)), StoreError) << "cut=" << cut;
    }
    std::vector<std::uint8_t> bad(params.begin(), params.end());
    switch (backend) {
      case BackendKind::kCoreFtc:
        bad[0] = 77;  // field_bits
        break;
      case BackendKind::kDp21CycleSpace:
        std::fill(bad.begin(), bad.begin() + 4, 0);  // coord_bits
        break;
      case BackendKind::kDp21Agm:
        std::fill(bad.begin() + 4, bad.begin() + 8, 0);  // levels
        break;
    }
    EXPECT_THROW(blob_bytes(bad), StoreError);
  }
}

// ------------------------------------------------------------------
// Adversarial container inputs. All failure modes must surface as the
// typed StoreError, regardless of backend.

class LabelStoreAdversarial : public ::testing::Test {
 protected:
  // One small store per backend, written once per test.
  std::vector<std::uint8_t> make_store_bytes(BackendKind backend,
                                             TempStore& file) {
    const Graph g = graph::random_connected(16, 30, 9);
    const auto scheme = make_scheme(g, test_config(backend, 2));
    scheme->save(file.path());
    return read_file(file.path());
  }
};

TEST_F(LabelStoreAdversarial, MissingAndNonRegularFilesThrow) {
  EXPECT_THROW((void)LabelStoreView::open("/nonexistent/no/such.ftcs"),
               StoreError);
  EXPECT_THROW((void)LabelStoreView::open(::testing::TempDir()), StoreError);
}

TEST_F(LabelStoreAdversarial, TruncatedFilesThrow) {
  for (const BackendKind backend : kAllBackends) {
    TempStore file("trunc_" + std::to_string(static_cast<int>(backend)),
                   ".ftcs");
    const auto bytes = make_store_bytes(backend, file);
    ASSERT_GT(bytes.size(), store::kHeaderBytes);
    const std::size_t cuts[] = {0,
                                1,
                                16,
                                store::kHeaderBytes - 1,
                                store::kHeaderBytes,
                                store::kHeaderBytes + 3,
                                bytes.size() / 2,
                                bytes.size() - 1};
    for (const std::size_t cut : cuts) {
      write_file(file.path(),
                 std::span<const std::uint8_t>(bytes.data(), cut));
      EXPECT_THROW((void)LabelStoreView::open(file.path()), StoreError)
          << backend_name(backend) << " truncated to " << cut;
      // Skipping the payload-checksum pass must not weaken structural
      // validation: still a typed error, still no UB.
      EXPECT_THROW((void)LabelStoreView::open(file.path(), false), StoreError)
          << backend_name(backend) << " truncated to " << cut << " (no verify)";
    }
  }
}

TEST_F(LabelStoreAdversarial, BadMagicThrows) {
  TempStore file("magic", ".ftcs");
  auto bytes = make_store_bytes(BackendKind::kCoreFtc, file);
  bytes[0] ^= 0xff;
  write_file(file.path(), bytes);
  EXPECT_THROW((void)LabelStoreView::open(file.path()), StoreError);
}

TEST_F(LabelStoreAdversarial, WrongFormatVersionThrows) {
  TempStore file("version", ".ftcs");
  auto bytes = make_store_bytes(BackendKind::kCoreFtc, file);
  bytes[8] = 99;  // format version field
  fix_header_checksum(bytes);
  write_file(file.path(), bytes);
  EXPECT_THROW((void)LabelStoreView::open(file.path()), StoreError);
}

TEST_F(LabelStoreAdversarial, UnknownBackendKindThrows) {
  TempStore file("backend", ".ftcs");
  auto bytes = make_store_bytes(BackendKind::kCoreFtc, file);
  bytes[12] = 7;  // backend byte
  fix_header_checksum(bytes);
  write_file(file.path(), bytes);
  EXPECT_THROW((void)LabelStoreView::open(file.path()), StoreError);
}

TEST_F(LabelStoreAdversarial, CorruptHeaderChecksumThrows) {
  TempStore file("hdrsum", ".ftcs");
  auto bytes = make_store_bytes(BackendKind::kCoreFtc, file);
  bytes[57] ^= 0x01;  // header checksum field itself
  write_file(file.path(), bytes);
  EXPECT_THROW((void)LabelStoreView::open(file.path()), StoreError);
}

TEST_F(LabelStoreAdversarial, FlippedPayloadBytesFailChecksum) {
  for (const BackendKind backend : kAllBackends) {
    TempStore file("payload_" + std::to_string(static_cast<int>(backend)),
                   ".ftcs");
    const auto bytes = make_store_bytes(backend, file);
    // Flip one byte in each region of the payload: params, vertex
    // section, edge index, edge blobs (approximately — any position past
    // the header must be caught by the checksum).
    const std::size_t positions[] = {
        store::kHeaderBytes, store::kHeaderBytes + 8,
        (store::kHeaderBytes + bytes.size()) / 2, bytes.size() - 1};
    for (const std::size_t pos : positions) {
      auto corrupt = bytes;
      corrupt[pos] ^= 0x10;
      write_file(file.path(), corrupt);
      EXPECT_THROW((void)LabelStoreView::open(file.path()), StoreError)
          << backend_name(backend) << " flipped byte " << pos;
    }
  }
}

TEST_F(LabelStoreAdversarial, FlippedStoredChecksumThrows) {
  TempStore file("paysum", ".ftcs");
  auto bytes = make_store_bytes(BackendKind::kCoreFtc, file);
  bytes[40] ^= 0xff;  // stored payload checksum field
  fix_header_checksum(bytes);
  write_file(file.path(), bytes);
  EXPECT_THROW((void)LabelStoreView::open(file.path()), StoreError);
}

TEST_F(LabelStoreAdversarial, CorruptIndexThrowsEvenWithoutChecksum) {
  for (const BackendKind backend : kAllBackends) {
    TempStore file("index_" + std::to_string(static_cast<int>(backend)),
                   ".ftcs");
    const auto bytes = make_store_bytes(backend, file);
    const auto view = LabelStoreView::open(file.path());
    const StoreInfo info = view->info();
    // Recompute the index offset from the public layout contract.
    const std::size_t params_end = store::kHeaderBytes + info.params_bytes;
    const std::size_t vertex_off = (params_end + 7) & ~std::size_t{7};
    const std::size_t index_off = vertex_off + info.vertex_section_bytes;
    ASSERT_LT(index_off + 8, bytes.size());

    // Entry 1 of the index becomes garbage: monotonicity/blob-size
    // validation must reject it even with the checksum pass disabled.
    auto corrupt = bytes;
    corrupt[index_off + 8] ^= 0xff;
    write_file(file.path(), corrupt);
    EXPECT_THROW((void)LabelStoreView::open(file.path(), false), StoreError)
        << backend_name(backend);
  }
}

TEST_F(LabelStoreAdversarial, OversizedDimensionsThrow) {
  TempStore file("dims", ".ftcs");
  auto bytes = make_store_bytes(BackendKind::kCoreFtc, file);
  // num_vertices field (offset 16): pretend there are 2^40 vertices.
  bytes[16 + 4] = 0xff;
  fix_header_checksum(bytes);
  write_file(file.path(), bytes);
  EXPECT_THROW((void)LabelStoreView::open(file.path()), StoreError);
}

// ------------------------------------------------------------------
// Format v2 adjacency section: adversarial corpus. Every corruption must
// surface as StoreError — with and without the payload-checksum pass.

TEST_F(LabelStoreAdversarial, AdjacencyFlagWithoutSectionThrows) {
  TempStore file("adjflag", ".ftcs");
  auto bytes = make_store_bytes(BackendKind::kCoreFtc, file);
  // Clear the adjacency size (offset 48) but keep the flag (offset 13).
  for (int i = 0; i < 8; ++i) bytes[48 + i] = 0;
  fix_header_checksum(bytes);
  write_file(file.path(), bytes);
  EXPECT_THROW((void)LabelStoreView::open(file.path(), false), StoreError);
}

TEST_F(LabelStoreAdversarial, UnknownHeaderFlagThrows) {
  TempStore file("badflag", ".ftcs");
  auto bytes = make_store_bytes(BackendKind::kCoreFtc, file);
  bytes[13] |= 0x80;  // undefined flag bit
  fix_header_checksum(bytes);
  write_file(file.path(), bytes);
  EXPECT_THROW((void)LabelStoreView::open(file.path(), false), StoreError);
}

TEST_F(LabelStoreAdversarial, AdjacencySizeMismatchThrows) {
  TempStore file("adjsize", ".ftcs");
  auto bytes = make_store_bytes(BackendKind::kCoreFtc, file);
  bytes[48] ^= 0x08;  // adjacency size no longer matches 8(n+1) + 8m
  fix_header_checksum(bytes);
  write_file(file.path(), bytes);
  EXPECT_THROW((void)LabelStoreView::open(file.path(), false), StoreError);
}

TEST_F(LabelStoreAdversarial, TruncatedAdjacencySectionThrows) {
  for (const BackendKind backend : kAllBackends) {
    TempStore file("adjtrunc_" + std::to_string(static_cast<int>(backend)),
                   ".ftcs");
    const auto bytes = make_store_bytes(backend, file);
    const auto view = LabelStoreView::open(file.path());
    ASSERT_TRUE(view->info().has_adjacency);
    const std::size_t adj_bytes = view->info().adjacency_bytes;
    // Cut inside the adjacency section (offsets and lists regions).
    for (const std::size_t keep :
         {bytes.size() - adj_bytes + 8, bytes.size() - adj_bytes / 2,
          bytes.size() - 1}) {
      write_file(file.path(),
                 std::span<const std::uint8_t>(bytes.data(), keep));
      EXPECT_THROW((void)LabelStoreView::open(file.path(), false), StoreError)
          << backend_name(backend) << " truncated to " << keep;
    }
  }
}

TEST_F(LabelStoreAdversarial, NonMonotoneAdjacencyOffsetsThrow) {
  TempStore file("adjmono", ".ftcs");
  auto bytes = make_store_bytes(BackendKind::kDp21CycleSpace, file);
  const auto view = LabelStoreView::open(file.path());
  const std::size_t adj_off = bytes.size() - view->info().adjacency_bytes;
  // Offset entry 1 becomes garbage (way beyond 2m).
  bytes[adj_off + 8 + 6] = 0xff;
  write_file(file.path(), bytes);
  EXPECT_THROW((void)LabelStoreView::open(file.path(), false), StoreError);
}

TEST_F(LabelStoreAdversarial, AdjacencyEdgeIdOutOfRangeThrows) {
  TempStore file("adjid", ".ftcs");
  auto bytes = make_store_bytes(BackendKind::kDp21CycleSpace, file);
  const auto view = LabelStoreView::open(file.path());
  const StoreInfo info = view->info();
  const std::size_t adj_off = bytes.size() - info.adjacency_bytes;
  const std::size_t lists_off =
      adj_off + 8 * (static_cast<std::size_t>(info.num_vertices) + 1);
  for (int i = 0; i < 4; ++i) bytes[lists_off + i] = 0xff;  // id = 2^32 - 1
  write_file(file.path(), bytes);
  EXPECT_THROW((void)LabelStoreView::open(file.path(), false), StoreError);
}

// A v4 header must never front stride-k core blobs, nor a v3 header
// level-width ones: the offset index spacing then disagrees with the
// blob size the params imply (16 + 8 * sum_l w_l * words_per_elem), and
// open throws the typed StoreError even without the checksum pass.
TEST_F(LabelStoreAdversarial, CoreBlobWidthDisagreeingWithVersionThrows) {
  TempStore file("widths", ".ftcs");
  auto v3 = read_file(std::string(FTC_TEST_DATA_DIR) + "/v3_core_ftc.ftcs");
  ASSERT_EQ(v3[8], 3);
  v3[8] = 4;
  fix_header_checksum(v3);
  write_file(file.path(), v3);
  EXPECT_THROW((void)LabelStoreView::open(file.path(), false), StoreError);
  EXPECT_THROW((void)LabelStoreView::open(file.path()), StoreError);

  // The reverse: a v4 core store relabelled v3. Its level bounds are
  // below k, so its blobs are narrower than stride k.
  auto v4 = make_store_bytes(BackendKind::kCoreFtc, file);
  ASSERT_EQ(v4[8], 4);
  v4[8] = 3;
  fix_header_checksum(v4);
  write_file(file.path(), v4);
  EXPECT_THROW((void)LabelStoreView::open(file.path(), false), StoreError);
}

}  // namespace
}  // namespace ftc::core
