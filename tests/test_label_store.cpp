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
// checksum/payload bytes and corrupt offset indices must throw the typed
// StoreError — never UB (the suite also runs under the asan preset).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "core/batch_engine.hpp"
#include "core/connectivity_scheme.hpp"
#include "core/ftc_scheme.hpp"
#include "core/label_store.hpp"
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
  // Headroom so practical-k / whp parameters never run out of capacity
  // on the adversarial random workloads below.
  cfg.ftc.k_scale = 2.0;
  cfg.cycle.scale = 3.0;
  cfg.agm.scale = 1.5;
  return cfg;
}

// Unique file path per test under gtest's temp dir; removed on teardown.
class StoreFile {
 public:
  explicit StoreFile(const std::string& name)
      : path_(::testing::TempDir() + "ftc_store_" + name + "_" +
              std::to_string(::getpid()) + ".ftcs") {
    std::remove(path_.c_str());
  }
  ~StoreFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, std::span<const std::uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// After editing header fields, restore the header checksum so the edit
// (not the checksum guard) is what open() trips over.
void fix_header_checksum(std::vector<std::uint8_t>& bytes) {
  ASSERT_GE(bytes.size(), store::kHeaderBytes);
  const std::uint64_t sum =
      store::fnv1a(std::span<const std::uint8_t>(bytes.data(), 56));
  for (int i = 0; i < 8; ++i) bytes[56 + i] = (sum >> (8 * i)) & 0xff;
}

std::vector<EdgeId> random_faults(SplitMix64& rng, const Graph& g,
                                  unsigned max_faults) {
  std::vector<EdgeId> faults;
  for (unsigned i = 0; i < rng.next_below(max_faults + 1); ++i) {
    faults.push_back(static_cast<EdgeId>(rng.next_below(g.num_edges())));
  }
  return faults;
}

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
    StoreFile file(std::string("parity_") + fam.name + "_" +
                   std::to_string(static_cast<int>(GetParam())));
    scheme->save(file.path());

    const auto loaded = load_scheme(file.path());
    EXPECT_EQ(loaded->backend(), GetParam());
    EXPECT_EQ(loaded->num_vertices(), scheme->num_vertices());
    EXPECT_EQ(loaded->num_edges(), scheme->num_edges());
    EXPECT_EQ(loaded->vertex_label_bits(), scheme->vertex_label_bits());
    EXPECT_EQ(loaded->edge_label_bits(), scheme->edge_label_bits());

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
  StoreFile file("resident_" + std::to_string(static_cast<int>(GetParam())));
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
      const LabelParams p =
          store::decode_core_params(pr, store::kFormatVersion);
      EXPECT_EQ(p.k, 12u);
      coord_bits = ceil_log2(p.n_aux);
      payload_bits = std::size_t{p.num_levels} * 12 * p.field_bits;
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
    StoreFile file("tiny_" + std::to_string(g->num_vertices()) + "_" +
                   std::to_string(static_cast<int>(GetParam())));
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
  StoreFile first("first_" + std::to_string(static_cast<int>(GetParam())));
  StoreFile second("second_" + std::to_string(static_cast<int>(GetParam())));
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
    StoreFile file(std::string("batch_") + fam.name + "_" +
                   std::to_string(static_cast<int>(GetParam())));
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
  StoreFile file("oracle_" + std::to_string(static_cast<int>(GetParam())));
  scheme->save(file.path());

  const auto oracle = load_scheme(file.path());
  EXPECT_EQ(oracle->backend(), GetParam());
  EXPECT_NE(oracle->adjacency(), nullptr);
  SplitMix64 rng(5);
  for (int it = 0; it < 20; ++it) {
    const auto edge_faults = random_faults(rng, g, 2);
    std::vector<VertexId> vertex_faults;
    for (unsigned i = 0; i < rng.next_below(2); ++i) {
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
  StoreFile file("args_" + std::to_string(static_cast<int>(GetParam())));
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
                         [](const auto& info) {
                           std::string name = backend_name(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

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

TEST(StoreCodec, TruncatedEdgeBlobsThrow) {
  const Graph g = graph::random_connected(16, 30, 9);
  for (const BackendKind backend : kAllBackends) {
    SCOPED_TRACE(backend_name(backend));
    const auto view = make_scheme(g, test_config(backend, 2))->store_view();
    const auto blob = view->edge_blob(3);
    const auto decode = [&](std::span<const std::uint8_t> bytes) {
      store::ByteReader pr(view->params_blob());
      store::ByteReader r(bytes);
      switch (backend) {
        case BackendKind::kCoreFtc:
          (void)store::decode_core_edge(
              r, store::decode_core_params(pr, store::kFormatVersion));
          break;
        case BackendKind::kDp21CycleSpace:
          (void)store::decode_cycle_edge(r, store::decode_cycle_params(pr));
          break;
        case BackendKind::kDp21Agm:
          (void)store::decode_agm_edge(r, store::decode_agm_params(pr));
          break;
      }
      return r.remaining();
    };
    EXPECT_EQ(decode(blob), 0u);
    for (const std::size_t cut : {std::size_t{0}, std::size_t{10},
                                  blob.size() / 2, blob.size() - 1}) {
      EXPECT_THROW(decode(blob.first(cut)), StoreError) << "cut=" << cut;
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
      return store::expected_edge_blob_bytes(backend, bytes,
                                             store::kFormatVersion);
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
                                             StoreFile& file) {
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
    StoreFile file("trunc_" + std::to_string(static_cast<int>(backend)));
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
  StoreFile file("magic");
  auto bytes = make_store_bytes(BackendKind::kCoreFtc, file);
  bytes[0] ^= 0xff;
  write_file(file.path(), bytes);
  EXPECT_THROW((void)LabelStoreView::open(file.path()), StoreError);
}

TEST_F(LabelStoreAdversarial, WrongFormatVersionThrows) {
  StoreFile file("version");
  auto bytes = make_store_bytes(BackendKind::kCoreFtc, file);
  bytes[8] = 99;  // format version field
  fix_header_checksum(bytes);
  write_file(file.path(), bytes);
  EXPECT_THROW((void)LabelStoreView::open(file.path()), StoreError);
}

TEST_F(LabelStoreAdversarial, UnknownBackendKindThrows) {
  StoreFile file("backend");
  auto bytes = make_store_bytes(BackendKind::kCoreFtc, file);
  bytes[12] = 7;  // backend byte
  fix_header_checksum(bytes);
  write_file(file.path(), bytes);
  EXPECT_THROW((void)LabelStoreView::open(file.path()), StoreError);
}

TEST_F(LabelStoreAdversarial, CorruptHeaderChecksumThrows) {
  StoreFile file("hdrsum");
  auto bytes = make_store_bytes(BackendKind::kCoreFtc, file);
  bytes[57] ^= 0x01;  // header checksum field itself
  write_file(file.path(), bytes);
  EXPECT_THROW((void)LabelStoreView::open(file.path()), StoreError);
}

TEST_F(LabelStoreAdversarial, FlippedPayloadBytesFailChecksum) {
  for (const BackendKind backend : kAllBackends) {
    StoreFile file("payload_" + std::to_string(static_cast<int>(backend)));
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
  StoreFile file("paysum");
  auto bytes = make_store_bytes(BackendKind::kCoreFtc, file);
  bytes[40] ^= 0xff;  // stored payload checksum field
  fix_header_checksum(bytes);
  write_file(file.path(), bytes);
  EXPECT_THROW((void)LabelStoreView::open(file.path()), StoreError);
}

TEST_F(LabelStoreAdversarial, CorruptIndexThrowsEvenWithoutChecksum) {
  for (const BackendKind backend : kAllBackends) {
    StoreFile file("index_" + std::to_string(static_cast<int>(backend)));
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
  StoreFile file("dims");
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
  StoreFile file("adjflag");
  auto bytes = make_store_bytes(BackendKind::kCoreFtc, file);
  // Clear the adjacency size (offset 48) but keep the flag (offset 13).
  for (int i = 0; i < 8; ++i) bytes[48 + i] = 0;
  fix_header_checksum(bytes);
  write_file(file.path(), bytes);
  EXPECT_THROW((void)LabelStoreView::open(file.path(), false), StoreError);
}

TEST_F(LabelStoreAdversarial, UnknownHeaderFlagThrows) {
  StoreFile file("badflag");
  auto bytes = make_store_bytes(BackendKind::kCoreFtc, file);
  bytes[13] |= 0x80;  // undefined flag bit
  fix_header_checksum(bytes);
  write_file(file.path(), bytes);
  EXPECT_THROW((void)LabelStoreView::open(file.path(), false), StoreError);
}

TEST_F(LabelStoreAdversarial, AdjacencySizeMismatchThrows) {
  StoreFile file("adjsize");
  auto bytes = make_store_bytes(BackendKind::kCoreFtc, file);
  bytes[48] ^= 0x08;  // adjacency size no longer matches 8(n+1) + 8m
  fix_header_checksum(bytes);
  write_file(file.path(), bytes);
  EXPECT_THROW((void)LabelStoreView::open(file.path(), false), StoreError);
}

TEST_F(LabelStoreAdversarial, TruncatedAdjacencySectionThrows) {
  for (const BackendKind backend : kAllBackends) {
    StoreFile file("adjtrunc_" + std::to_string(static_cast<int>(backend)));
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
  StoreFile file("adjmono");
  auto bytes = make_store_bytes(BackendKind::kDp21CycleSpace, file);
  const auto view = LabelStoreView::open(file.path());
  const std::size_t adj_off = bytes.size() - view->info().adjacency_bytes;
  // Offset entry 1 becomes garbage (way beyond 2m).
  bytes[adj_off + 8 + 6] = 0xff;
  write_file(file.path(), bytes);
  EXPECT_THROW((void)LabelStoreView::open(file.path(), false), StoreError);
}

TEST_F(LabelStoreAdversarial, AdjacencyEdgeIdOutOfRangeThrows) {
  StoreFile file("adjid");
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

// ------------------------------------------------------------------
// Backward compatibility: checked-in format-v1 fixtures (written by the
// PR-2/PR-3 era writer) must still load, serve edge-fault queries
// identically to a freshly built scheme, and raise the typed capability
// error on vertex faults (v1 carries no adjacency).

struct StoreFixture {
  const char* file;
  BackendKind backend;
};

class LabelStoreV1Compat : public ::testing::TestWithParam<StoreFixture> {
 protected:
  // The exact graph + config the fixtures were generated with (see
  // tests/data/: barbell(4, 3), f = 2, seed 7, k_override 12 /
  // bits_override 64).
  static Graph fixture_graph() { return graph::barbell(4, 3); }
  static SchemeConfig fixture_config(BackendKind backend) {
    SchemeConfig cfg;
    cfg.backend = backend;
    cfg.set_f(2).set_seed(7);
    cfg.ftc.k_override = 12;
    cfg.cycle.bits_override = 64;
    return cfg;
  }
  static std::string fixture_path(const char* file) {
    return std::string(FTC_TEST_DATA_DIR) + "/" + file;
  }
};

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
  EXPECT_EQ(loaded->adjacency(), nullptr);
  SplitMix64 rng(77);
  for (int it = 0; it < 40; ++it) {
    const auto faults = random_faults(rng, g, 2);
    const auto s = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    const auto t = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    const bool expected = graph::connected_avoiding(g, s, t, faults);
    EXPECT_EQ(loaded->connected(s, t, FaultSpec::edges(faults)), expected)
        << "it=" << it;
    EXPECT_EQ(rebuilt->connected(s, t, FaultSpec::edges(faults)), expected)
        << "it=" << it;
  }
}

TEST_P(LabelStoreV1Compat, VertexFaultsRaiseTypedCapabilityError) {
  const std::string path = fixture_path(GetParam().file);
  const auto loaded = load_scheme(path);
  EXPECT_EQ(loaded->adjacency(), nullptr);
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
// still no adjacency) and keeps serving identical answers.
TEST_P(LabelStoreV1Compat, ResaveUpgradesToCurrentFormatWithoutAdjacency) {
  const std::string path = fixture_path(GetParam().file);
  const auto loaded = load_scheme(path);
  StoreFile upgraded("v1_upgrade_" +
                     std::to_string(static_cast<int>(GetParam().backend)));
  loaded->save(upgraded.path());
  const auto view = LabelStoreView::open(upgraded.path());
  EXPECT_EQ(view->info().format_version, store::kFormatVersion);
  EXPECT_FALSE(view->info().has_adjacency);
  const auto reloaded = load_scheme(upgraded.path());
  const Graph g = fixture_graph();
  SplitMix64 rng(78);
  for (int it = 0; it < 25; ++it) {
    const auto faults = random_faults(rng, g, 2);
    const auto s = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    const auto t = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    EXPECT_EQ(reloaded->connected(s, t, FaultSpec::edges(faults)),
              graph::connected_avoiding(g, s, t, faults))
        << "it=" << it;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fixtures, LabelStoreV1Compat,
    ::testing::Values(StoreFixture{"v1_core_ftc.ftcs", BackendKind::kCoreFtc},
                      StoreFixture{"v1_dp21_cycle.ftcs",
                                BackendKind::kDp21CycleSpace}),
    [](const auto& info) {
      return std::string(info.param.backend == BackendKind::kCoreFtc
                             ? "core_ftc"
                             : "dp21_cycle");
    });

// ------------------------------------------------------------------
// Format-v2 fixtures (same graph and config as the v1 ones, written by
// the last v2 writer, with adjacency): they verify through the FNV-1a
// payload digest and serve edge and vertex faults. Re-saving one gives a
// v3 container (CRC-64 payload digest) whose params blob — including the
// per-level population bounds — is byte-identical to the fixture's.

class LabelStoreV2Compat : public LabelStoreV1Compat {
 protected:
  static std::vector<std::uint32_t> level_bounds(const StoreView& view) {
    store::ByteReader r(view.params_blob());
    std::vector<std::uint32_t> bounds;
    (void)store::decode_core_params(r, view.info().format_version, &bounds);
    return bounds;
  }
};

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

  const Graph g = fixture_graph();
  const auto loaded = load_scheme(path);
  ASSERT_NE(loaded->adjacency(), nullptr);
  SplitMix64 rng(79);
  for (int it = 0; it < 40; ++it) {
    const auto faults = random_faults(rng, g, 2);
    const auto s = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    const auto t = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    EXPECT_EQ(loaded->connected(s, t, FaultSpec::edges(faults)),
              graph::connected_avoiding(g, s, t, faults))
        << "it=" << it;
  }
  const std::vector<VertexId> vf{1};
  for (VertexId s = 0; s < g.num_vertices(); ++s) {
    if (s == 1) continue;
    EXPECT_EQ(loaded->connected(s, 0, FaultSpec::vertices(vf)),
              graph::connected_avoiding(g, s, 0, {}, vf))
        << "s=" << s;
  }
}

TEST_P(LabelStoreV2Compat, ResaveWritesV3WithIdenticalParamsAndAnswers) {
  const std::string path = fixture_path(GetParam().file);
  const auto fixture_view = LabelStoreView::open(path);
  const auto loaded = load_scheme(path);
  StoreFile upgraded("v2_upgrade_" +
                     std::to_string(static_cast<int>(GetParam().backend)));
  loaded->save(upgraded.path());
  const auto view = LabelStoreView::open(upgraded.path());
  EXPECT_EQ(view->info().format_version, 3u);
  EXPECT_TRUE(view->info().has_adjacency);
  const std::vector<std::uint8_t> bytes = read_file(upgraded.path());
  EXPECT_EQ(view->info().payload_checksum,
            util::crc64(std::span<const std::uint8_t>(bytes).subspan(
                store::kHeaderBytes)));
  // Only the version and the two checksums differ from the v2 bytes.
  const std::vector<std::uint8_t> fixture_bytes = read_file(path);
  ASSERT_EQ(bytes.size(), fixture_bytes.size());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    const bool header_field = i == 8 || (i >= 40 && i < 48) || i >= 56;
    if (i < store::kHeaderBytes && header_field) continue;
    ASSERT_EQ(bytes[i], fixture_bytes[i]) << "byte " << i;
  }
  const auto want_params = fixture_view->params_blob();
  const auto got_params = view->params_blob();
  EXPECT_TRUE(std::equal(want_params.begin(), want_params.end(),
                         got_params.begin(), got_params.end()));
  if (GetParam().backend == BackendKind::kCoreFtc) {
    // The per-level bounds survive the re-save, and they are what a
    // fresh build of the same input computes.
    const auto built = FtcScheme::build(
        fixture_graph(), fixture_config(BackendKind::kCoreFtc).ftc);
    const auto pops = built.level_populations();
    const std::vector<std::uint32_t> want(pops.begin(), pops.end());
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(level_bounds(*fixture_view), want);
    EXPECT_EQ(level_bounds(*view), want);
  }

  const auto reloaded = load_scheme(upgraded.path());
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

INSTANTIATE_TEST_SUITE_P(
    Fixtures, LabelStoreV2Compat,
    ::testing::Values(StoreFixture{"v2_core_ftc.ftcs", BackendKind::kCoreFtc},
                      StoreFixture{"v2_dp21_cycle.ftcs",
                                BackendKind::kDp21CycleSpace}),
    [](const auto& info) {
      return std::string(info.param.backend == BackendKind::kCoreFtc
                             ? "core_ftc"
                             : "dp21_cycle");
    });

}  // namespace
}  // namespace ftc::core
