// DeletionJournal coverage: the append/open lifecycle (every append
// writes the journal as one frame; a frame chain still opens), the
// adversarial frame corpus (every structural damage must throw the
// typed StoreError — never UB; the suite also runs under the asan
// preset), the capacity accounting (CapacityError with budget /
// journaled / requested), and replay parity — a journaled deletion must
// be answer-identical to the same edge passed explicitly in the
// FaultSpec, across every backend, for the loaded scheme and the batch
// engine.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "core/batch_engine.hpp"
#include "core/connectivity_scheme.hpp"
#include "core/journal.hpp"
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
using test_support::read_file;
using test_support::write_file;

// Hand-rolled frame encoder mirroring the normative layout in
// journal.hpp, so corpus tests can produce frames the public append API
// refuses to write (bad epochs, zero counts, broken chains, ...).
struct FrameSpec {
  std::uint64_t epoch;
  std::uint64_t store_digest;
  std::uint32_t fault_budget;
  std::vector<std::uint32_t> edge_ids;  // written verbatim, unsorted OK
  bool corrupt_chain = false;
  std::uint8_t padding_byte = 0;
};

std::vector<std::uint8_t> encode_journal(const std::vector<FrameSpec>& frames) {
  store::ByteWriter w;
  std::uint64_t chain = store::kFnvBasis;
  for (const FrameSpec& fr : frames) {
    const std::size_t start = w.size();
    w.u64(store::kJournalMagic);
    w.u64(fr.epoch);
    w.u64(fr.store_digest);
    w.u32(fr.fault_budget);
    w.u32(static_cast<std::uint32_t>(fr.edge_ids.size()));
    for (const std::uint32_t e : fr.edge_ids) w.u32(e);
    while (w.size() % 8 != 0) w.u8(fr.padding_byte);
    chain = store::fnv1a(w.view().subspan(start), chain);
    w.u64(fr.corrupt_chain ? chain ^ 1 : chain);
  }
  const auto view = w.view();
  return std::vector<std::uint8_t>(view.begin(), view.end());
}

// ------------------------------------------------------------ lifecycle

TEST(DeletionJournal, AppendOpenRoundTrip) {
  TempStore file("roundtrip", ".ftcs");
  const std::string jpath = file.journal();
  EXPECT_FALSE(DeletionJournal::exists(jpath));

  const std::vector<EdgeId> first = {7, 3, 7};  // dup canonicalized away
  EXPECT_EQ(DeletionJournal::append(jpath, 0xabcd, 4, first), 1u);
  EXPECT_TRUE(DeletionJournal::exists(jpath));
  const std::vector<EdgeId> second = {11};
  EXPECT_EQ(DeletionJournal::append(jpath, 0xabcd, 0, second), 2u);

  const auto j = DeletionJournal::open(jpath);
  EXPECT_EQ(j->epoch(), 2u);
  EXPECT_EQ(j->store_digest(), 0xabcdu);
  EXPECT_EQ(j->fault_budget(), 4u);
  EXPECT_EQ(j->occupancy(), 3u);
  EXPECT_EQ(j->remaining(), 1u);
  // One frame: 40 bytes of framing + 3 IDs padded to 16 bytes.
  EXPECT_EQ(j->file_bytes(), 56u);
  const std::vector<EdgeId> expect = {3, 7, 11};
  EXPECT_EQ(std::vector<EdgeId>(j->deleted_edges().begin(),
                                j->deleted_edges().end()),
            expect);
}

TEST(DeletionJournal, ReappendOfJournaledIdsIsIdempotent) {
  TempStore file("idempotent", ".ftcs");
  const std::string jpath = file.journal();
  const std::vector<EdgeId> ids = {5, 9};
  DeletionJournal::append(jpath, 1, 3, ids);
  const auto before = read_file(jpath);
  // Nothing new: the epoch stays put and the file is untouched.
  EXPECT_EQ(DeletionJournal::append(jpath, 1, 0, ids), 1u);
  EXPECT_EQ(read_file(jpath), before);
}

TEST(DeletionJournal, FirstAppendRequiresBudgetAndEdges) {
  TempStore file("firstappend", ".ftcs");
  EXPECT_THROW(DeletionJournal::append(file.journal(), 1, 0,
                                       std::vector<EdgeId>{2}),
               std::invalid_argument);
  EXPECT_THROW(DeletionJournal::append(file.journal(), 1, 3,
                                       std::vector<EdgeId>{}),
               std::invalid_argument);
  EXPECT_FALSE(DeletionJournal::exists(file.journal()));
}

TEST(DeletionJournal, BudgetIsFixedAtCreation) {
  TempStore file("fixedbudget", ".ftcs");
  DeletionJournal::append(file.journal(), 1, 3, std::vector<EdgeId>{2});
  EXPECT_THROW(DeletionJournal::append(file.journal(), 1, 4,
                                       std::vector<EdgeId>{4}),
               std::invalid_argument);
  // Budget 0 means "keep the journal's".
  EXPECT_EQ(DeletionJournal::append(file.journal(), 1, 0,
                                    std::vector<EdgeId>{4}),
            2u);
}

TEST(DeletionJournal, AppendToForeignStoreDigestRefused) {
  TempStore file("foreigndigest", ".ftcs");
  DeletionJournal::append(file.journal(), 0x1111, 3, std::vector<EdgeId>{2});
  EXPECT_THROW(DeletionJournal::append(file.journal(), 0x2222, 0,
                                       std::vector<EdgeId>{4}),
               StoreError);
}

TEST(DeletionJournal, OverCapacityAppendThrowsTypedAndLeavesFileIntact) {
  TempStore file("overcap", ".ftcs");
  const std::string jpath = file.journal();
  DeletionJournal::append(jpath, 9, 3, std::vector<EdgeId>{1, 2});
  const auto before = read_file(jpath);
  try {
    DeletionJournal::append(jpath, 9, 0, std::vector<EdgeId>{5, 6});
    FAIL() << "expected CapacityError";
  } catch (const CapacityError& e) {
    EXPECT_EQ(e.budget(), 3u);
    EXPECT_EQ(e.journaled(), 2u);
    EXPECT_EQ(e.requested(), 4u);
    EXPECT_EQ(e.remaining(), 1u);
  }
  EXPECT_EQ(read_file(jpath), before);
  // A fitting append still works afterwards.
  EXPECT_EQ(DeletionJournal::append(jpath, 9, 0, std::vector<EdgeId>{5}), 2u);
}

// A journal written before the one-frame writer is a chain of frames,
// one per append. It still opens, and its next append rewrites it as
// one frame holding the union.
TEST(DeletionJournal, FrameChainOpensAndNextAppendWritesOneFrame) {
  TempStore file("framechain", ".ftcs");
  const std::string jpath = file.journal();
  write_file(jpath, encode_journal({{1, 7, 5, {4, 9}}, {2, 7, 5, {1}}}));
  const auto before = DeletionJournal::open(jpath);
  EXPECT_EQ(before->epoch(), 2u);
  EXPECT_EQ(before->store_digest(), 7u);
  EXPECT_EQ(before->fault_budget(), 5u);
  EXPECT_EQ(std::vector<EdgeId>(before->deleted_edges().begin(),
                                before->deleted_edges().end()),
            (std::vector<EdgeId>{1, 4, 9}));

  EXPECT_EQ(DeletionJournal::append(jpath, 7, 0, std::vector<EdgeId>{2}),
            3u);
  EXPECT_EQ(read_file(jpath), encode_journal({{3, 7, 5, {1, 2, 4, 9}}}));
  const auto after = DeletionJournal::open(jpath);
  EXPECT_EQ(after->epoch(), 3u);
  EXPECT_EQ(after->fault_budget(), 5u);
  EXPECT_EQ(after->file_bytes(), 56u);
}

// ---------------------------------------------------- adversarial corpus

struct CorruptCase {
  const char* name;
  std::vector<FrameSpec> frames;
};

class JournalCorpus : public ::testing::TestWithParam<CorruptCase> {};

TEST_P(JournalCorpus, StructuralDamageThrowsStoreError) {
  TempStore file(std::string("corpus_") + GetParam().name, ".ftcs");
  write_file(file.journal(), encode_journal(GetParam().frames));
  EXPECT_THROW(DeletionJournal::open(file.journal()), StoreError)
      << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    AllDamage, JournalCorpus,
    ::testing::Values(
        CorruptCase{"epoch_zero", {{0, 1, 3, {2}}}},
        CorruptCase{"epoch_not_increasing",
                    {{2, 1, 3, {2}}, {2, 1, 3, {4}}}},
        CorruptCase{"digest_differs_between_frames",
                    {{1, 1, 3, {2}}, {2, 9, 3, {4}}}},
        CorruptCase{"budget_differs_between_frames",
                    {{1, 1, 3, {2}}, {2, 1, 4, {4}}}},
        CorruptCase{"zero_budget", {{1, 1, 0, {2}}}},
        CorruptCase{"empty_frame", {{1, 1, 3, {}}}},
        CorruptCase{"unsorted_ids", {{1, 1, 3, {4, 2}}}},
        CorruptCase{"duplicate_ids", {{1, 1, 3, {2, 2}}}},
        CorruptCase{"nonzero_padding", {{1, 1, 3, {2}, false, 0x5a}}},
        CorruptCase{"broken_chain", {{1, 1, 3, {2}, true}}},
        CorruptCase{"broken_chain_second_frame",
                    {{1, 1, 3, {2}}, {2, 1, 3, {4}, true}}}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(JournalCorpus, EmptyFileThrows) {
  TempStore file("corpus_empty", ".ftcs");
  write_file(file.journal(), std::vector<std::uint8_t>{});
  EXPECT_THROW(DeletionJournal::open(file.journal()), StoreError);
}

TEST(JournalCorpus, MissingFileThrows) {
  TempStore file("corpus_missing", ".ftcs");
  EXPECT_THROW(DeletionJournal::open(file.journal()), StoreError);
}

TEST(JournalCorpus, BadMagicThrows) {
  TempStore file("corpus_magic", ".ftcs");
  auto bytes = encode_journal({{1, 1, 3, {2}}});
  bytes[0] ^= 0xff;
  write_file(file.journal(), bytes);
  EXPECT_THROW(DeletionJournal::open(file.journal()), StoreError);
}

TEST(JournalCorpus, EveryTruncationPrefixThrows) {
  TempStore file("corpus_truncate", ".ftcs");
  const auto bytes = encode_journal({{1, 1, 5, {2, 5, 9}}, {2, 1, 5, {11}}});
  // A journal is valid only at frame boundaries; every strict prefix of
  // the byte stream (except the full file) must fail typed, including
  // cuts inside the prefix, the ID array, the padding and the digest.
  // 32-byte prefix + 3*4 ID bytes + 4 pad + 8-byte digest.
  const std::size_t frame_one_bytes = 56;
  for (std::size_t len = 1; len < bytes.size(); ++len) {
    if (len == frame_one_bytes) continue;  // a valid one-frame journal
    write_file(file.journal(),
               std::span<const std::uint8_t>(bytes.data(), len));
    EXPECT_THROW(DeletionJournal::open(file.journal()), StoreError)
        << "prefix length " << len;
  }
  // Sanity: the boundary prefix and the full file both open.
  write_file(file.journal(),
             std::span<const std::uint8_t>(bytes.data(), frame_one_bytes));
  EXPECT_EQ(DeletionJournal::open(file.journal())->epoch(), 1u);
  write_file(file.journal(), bytes);
  EXPECT_EQ(DeletionJournal::open(file.journal())->epoch(), 2u);
}

TEST(JournalCorpus, FlippedPayloadBitBreaksChain) {
  TempStore file("corpus_bitflip", ".ftcs");
  auto bytes = encode_journal({{1, 1, 3, {2, 5}}});
  bytes[32] ^= 0x01;  // first edge ID, low byte
  write_file(file.journal(), bytes);
  EXPECT_THROW(DeletionJournal::open(file.journal()), StoreError);
}

TEST(JournalCorpus, OverCapacityJournalRefusesToOpen) {
  TempStore file("corpus_overcap", ".ftcs");
  // Structurally pristine, semantically unservable: 4 deletions against
  // a budget of 3. open() must refuse typed, not serve wrong answers.
  write_file(file.journal(), encode_journal({{1, 1, 3, {1, 2, 5, 9}}}));
  try {
    DeletionJournal::open(file.journal());
    FAIL() << "expected CapacityError";
  } catch (const CapacityError& e) {
    EXPECT_EQ(e.budget(), 3u);
    EXPECT_EQ(e.journaled(), 4u);
    EXPECT_EQ(e.remaining(), 0u);
  }
}

// ------------------------------------------------------- store binding

TEST(JournalBinding, UnknownEdgeIdsRefusedAgainstStore) {
  const Graph g = graph::random_connected(24, 60, 3);
  SchemeConfig cfg;
  cfg.set_f(3);
  TempStore file("unknown_ids", ".ftcs");
  make_scheme(g, cfg)->save(file.path());
  const auto view = open_store_view(file.path());
  DeletionJournal::append(file.journal(), view->info().payload_checksum, 3,
                          std::vector<EdgeId>{g.num_edges()});
  EXPECT_THROW(load_scheme(file.path()), StoreError);
}

TEST(JournalBinding, StaleJournalFromOldGenerationRefused) {
  const Graph g = graph::random_connected(24, 60, 3);
  SchemeConfig cfg;
  cfg.set_f(3);
  TempStore file("stale", ".ftcs");
  make_scheme(g, cfg)->save(file.path());
  // Journal bound to a digest no store will ever have.
  DeletionJournal::append(file.journal(), 0xdeadbeef, 3,
                          std::vector<EdgeId>{1});
  EXPECT_THROW(load_scheme(file.path()), StoreError);
  // Opting out of replay serves the labels as-is.
  LoadOptions options;
  options.replay_journal = false;
  EXPECT_NE(load_scheme(file.path(), options), nullptr);
}

// -------------------------------------------------------- replay parity

class JournalReplayParity : public ::testing::TestWithParam<BackendKind> {};

TEST_P(JournalReplayParity, JournaledDeletionsMatchExplicitFaults) {
  const unsigned f = 4;
  const Graph g = graph::random_connected(40, 96, 11);
  SchemeConfig cfg;
  cfg.backend = GetParam();
  cfg.set_f(f);
  cfg.ftc.k_scale = 2.0;
  cfg.cycle.scale = 3.0;
  cfg.agm.scale = 1.5;
  const auto scheme = make_scheme(g, cfg);
  TempStore file("parity_" + std::string(backend_name(GetParam())), ".ftcs");
  scheme->save(file.path());

  const std::vector<EdgeId> journaled = {4, 17};
  const auto view = open_store_view(file.path());
  DeletionJournal::append(file.journal(), view->info().payload_checksum, f,
                          journaled);

  SplitMix64 rng(23);
  const auto replayed = load_scheme(file.path());
  ASSERT_NE(replayed->journal(), nullptr);
  for (int round = 0; round < 24; ++round) {
    // Query faults within the leftover budget, overlapping journaled
    // IDs on purpose (the union, not the sum, is what must fit).
    std::vector<EdgeId> query_faults;
    const unsigned num_query_faults = rng.next_below(3);
    for (unsigned i = 0; i < num_query_faults; ++i) {
      query_faults.push_back(
          static_cast<EdgeId>(rng.next_below(g.num_edges())));
    }
    if (round % 3 == 0) query_faults.push_back(journaled[0]);
    std::vector<EdgeId> merged = journaled;
    merged.insert(merged.end(), query_faults.begin(), query_faults.end());
    const VertexId s = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    const VertexId t = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    EXPECT_EQ(replayed->connected(s, t, FaultSpec::edges(query_faults)),
              scheme->connected(s, t, FaultSpec::edges(merged)))
        << backend_name(GetParam()) << " s=" << s << " t=" << t;
  }
  // Past the leftover budget the scheme must refuse typed: 2 journaled
  // + 3 distinct query faults > f = 4.
  const std::vector<EdgeId> over = {1, 2, 3};
  try {
    replayed->connected(0, 1, FaultSpec::edges(over));
    FAIL() << "expected CapacityError";
  } catch (const CapacityError& e) {
    EXPECT_EQ(e.budget(), f);
    EXPECT_EQ(e.journaled(), journaled.size());
    EXPECT_EQ(e.requested(), 5u);
    EXPECT_EQ(e.remaining(), f - journaled.size());
  }
}

TEST_P(JournalReplayParity, BatchEngineRepliesThroughJournal) {
  const unsigned f = 4;
  const Graph g = graph::random_connected(36, 80, 5);
  SchemeConfig cfg;
  cfg.backend = GetParam();
  cfg.set_f(f);
  cfg.ftc.k_scale = 2.0;
  cfg.cycle.scale = 3.0;
  cfg.agm.scale = 1.5;
  const auto scheme = make_scheme(g, cfg);
  TempStore file("batch_" + std::string(backend_name(GetParam())), ".ftcs");
  scheme->save(file.path());

  const std::vector<EdgeId> journaled = {3, 9};
  const auto view = open_store_view(file.path());
  DeletionJournal::append(file.journal(), view->info().payload_checksum, f,
                          journaled);

  const std::vector<EdgeId> query_faults = {21, 30};
  std::vector<EdgeId> merged = journaled;
  merged.insert(merged.end(), query_faults.begin(), query_faults.end());

  SplitMix64 rng(31);
  std::vector<BatchQueryEngine::Query> batch;
  for (int i = 0; i < 200; ++i) {
    batch.push_back(
        {static_cast<VertexId>(rng.next_below(g.num_vertices())),
         static_cast<VertexId>(rng.next_below(g.num_vertices()))});
  }
  BatchQueryEngine session(load_scheme(file.path()),
                           FaultSpec::edges(query_faults));
  BatchQueryEngine explicit_session(*scheme, FaultSpec::edges(merged));
  const auto via_journal = session.run_parallel(batch, 2);
  const auto via_explicit = explicit_session.run_sequential(batch);
  EXPECT_EQ(via_journal, via_explicit) << backend_name(GetParam());

  // reset_faults goes through the same journal fold: over budget refuses.
  EXPECT_THROW(
      session.reset_faults(FaultSpec::edges(std::vector<EdgeId>{1, 2, 5})),
      CapacityError);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, JournalReplayParity,
                         ::testing::ValuesIn(kAllBackends),
                         backend_param_name);

}  // namespace
}  // namespace ftc::core
