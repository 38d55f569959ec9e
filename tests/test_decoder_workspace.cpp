// Regression traps for the DecoderWorkspace (core/ftc_query.cpp): one
// workspace serving interleaved queries across multiple PreparedFaults
// objects — different fault sets, different schemes, and both field
// widths — must answer exactly like a fresh workspace (and like BFS
// ground truth). If the epoch/copy-on-write logic or the session key
// ever lets a query read stale or foreign state, these interleavings
// catch it.
//
// Also pins the session contract: consecutive queries on one
// PreparedFaults under one QueryOptions carry the merge state forward,
// so they walk the fault set's merge sequence once. In smallest-cut-first
// order that sequence depends on the fault labels alone: a carried
// workspace gives every answer and every FtcCapacityError a fresh one
// gives, and a session's summed decode work equals its most expensive
// cold query's. In source-first order the carried merges are still facts
// about G - F, so answers stay exact and a session never does more work
// than its cold queries together.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/connectivity_scheme.hpp"
#include "core/ftc_query.hpp"
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
using test_support::TempStore;

struct Session {
  Graph g;
  FtcScheme scheme;
  std::vector<EdgeId> fault_ids;
  PreparedFaults prepared;

  Session(Graph graph, const FtcConfig& cfg, std::vector<EdgeId> faults)
      : g(std::move(graph)),
        scheme(FtcScheme::build(g, cfg)),
        fault_ids(std::move(faults)),
        prepared(PreparedFaults::prepare(labels())) {}

  std::vector<EdgeLabel> labels() const {
    std::vector<EdgeLabel> out;
    out.reserve(fault_ids.size());
    for (const EdgeId e : fault_ids) out.push_back(scheme.edge_label(e));
    return out;
  }

  bool query(VertexId s, VertexId t, DecoderWorkspace& ws,
             const QueryOptions& options = {},
             QueryStats* stats = nullptr) const {
    return FtcDecoder::connected(scheme.vertex_label(s),
                                 scheme.vertex_label(t), prepared, ws,
                                 options, stats);
  }

  bool ground_truth(VertexId s, VertexId t) const {
    return graph::connected_avoiding(g, s, t, fault_ids);
  }
};

std::vector<EdgeId> random_faults(SplitMix64& rng, const Graph& g,
                                  unsigned count) {
  std::vector<EdgeId> faults;
  for (unsigned i = 0; i < count; ++i) {
    faults.push_back(static_cast<EdgeId>(rng.next_below(g.num_edges())));
  }
  return faults;
}

FtcConfig config_for(unsigned f, FieldKind field = FieldKind::kAuto) {
  FtcConfig cfg;
  cfg.f = f;
  cfg.k_scale = 2.0;
  cfg.field = field;
  return cfg;
}

// One workspace, four prepared fault sets (two schemes on different
// graphs x two fault sets each, one scheme forced to GF(2^128)),
// round-robin interleaved. Every answer must match a fresh workspace and
// the BFS ground truth.
TEST(DecoderWorkspace, InterleavesAcrossFaultSetsSchemesAndFields) {
  SplitMix64 rng(71);
  const Graph g64 = graph::random_connected(48, 120, 5);
  const Graph g128 = graph::random_connected(40, 100, 6);

  std::vector<Session> sessions;
  sessions.emplace_back(g64, config_for(5), random_faults(rng, g64, 5));
  sessions.emplace_back(g64, config_for(3), random_faults(rng, g64, 2));
  sessions.emplace_back(g128, config_for(4, FieldKind::kGF128),
                        random_faults(rng, g128, 4));
  sessions.emplace_back(g128, config_for(4, FieldKind::kGF128),
                        random_faults(rng, g128, 1));
  ASSERT_EQ(sessions[0].prepared.params().field_bits, 64u);
  ASSERT_EQ(sessions[2].prepared.params().field_bits, 128u);

  DecoderWorkspace shared;
  for (int round = 0; round < 40; ++round) {
    const Session& sess = sessions[round % sessions.size()];
    const auto s = static_cast<VertexId>(rng.next_below(sess.g.num_vertices()));
    const auto t = static_cast<VertexId>(rng.next_below(sess.g.num_vertices()));
    const bool expected = sess.ground_truth(s, t);
    EXPECT_EQ(sess.query(s, t, shared), expected)
        << "shared workspace, round " << round << " s=" << s << " t=" << t;
    DecoderWorkspace fresh;
    EXPECT_EQ(sess.query(s, t, fresh), expected)
        << "fresh workspace, round " << round << " s=" << s << " t=" << t;
  }
}

// Shrinking then regrowing the fragment count through one workspace: a
// large fault set materializes many rows; a following small fault set
// must not see them, nor the large one the small one's afterwards.
TEST(DecoderWorkspace, LargeSmallLargeFaultSetCycles) {
  SplitMix64 rng(91);
  const Graph g = graph::random_connected(64, 170, 9);
  const Session big(g, config_for(12), random_faults(rng, g, 12));
  const Session small(g, config_for(12), random_faults(rng, g, 1));

  DecoderWorkspace shared;
  for (int round = 0; round < 30; ++round) {
    const Session& sess = (round % 3 == 1) ? small : big;
    const auto s = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    const auto t = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    EXPECT_EQ(sess.query(s, t, shared), sess.ground_truth(s, t))
        << "round " << round << " s=" << s << " t=" << t;
  }
}

// The session contract on a seeded corpus, for the full option matrix.
// A session is 25 queries on one carried workspace; each query is also
// run cold, on a fresh workspace.
TEST(DecoderWorkspace, QueryStatsSessionContract) {
  SplitMix64 rng(123);
  const Graph g = graph::random_connected(56, 140, 13);
  int sessions = 0;
  int sessions_with_decodes = 0;
  for (const unsigned f : {1u, 3u, 6u, 10u}) {
    for (int set = 0; set < 20; ++set) {
      const Session sess(g, config_for(f), random_faults(rng, g, f));
      for (const bool adaptive : {true, false}) {
        for (const bool smallest_cut : {true, false}) {
          const QueryOptions options{adaptive, smallest_cut};
          DecoderWorkspace carried;
          QueryStats sum{};
          QueryStats cold_max{};
          QueryStats cold_sum{};
          for (int i = 0; i < 25; ++i) {
            const auto s =
                static_cast<VertexId>(rng.next_below(g.num_vertices()));
            const auto t =
                static_cast<VertexId>(rng.next_below(g.num_vertices()));
            QueryStats warm{};
            const bool got = sess.query(s, t, carried, options, &warm);
            DecoderWorkspace fresh;
            QueryStats cold{};
            const bool expected = sess.query(s, t, fresh, options, &cold);
            ASSERT_EQ(got, expected)
                << "f=" << f << " set=" << set << " adaptive=" << adaptive
                << " smallest_cut=" << smallest_cut << " i=" << i;
            ASSERT_EQ(got, sess.ground_truth(s, t));
            EXPECT_EQ(warm.fragments, cold.fragments);
            sum.outdetect_calls += warm.outdetect_calls;
            sum.merges += warm.merges;
            sum.levels_scanned += warm.levels_scanned;
            cold_sum.outdetect_calls += cold.outdetect_calls;
            cold_sum.merges += cold.merges;
            cold_sum.levels_scanned += cold.levels_scanned;
            cold_max.outdetect_calls =
                std::max(cold_max.outdetect_calls, cold.outdetect_calls);
            cold_max.merges = std::max(cold_max.merges, cold.merges);
            cold_max.levels_scanned =
                std::max(cold_max.levels_scanned, cold.levels_scanned);
          }
          ++sessions;
          if (cold_sum.outdetect_calls > cold_max.outdetect_calls) {
            ++sessions_with_decodes;
          }
          if (smallest_cut) {
            // The session decodes a prefix of the fixed sequence once: as
            // far as its deepest query needs, no further. Cold and
            // carried queries both finish every round they start, so the
            // merges match too.
            EXPECT_EQ(sum.outdetect_calls, cold_max.outdetect_calls)
                << "f=" << f << " set=" << set << " adaptive=" << adaptive;
            EXPECT_EQ(sum.levels_scanned, cold_max.levels_scanned)
                << "f=" << f << " set=" << set << " adaptive=" << adaptive;
            EXPECT_EQ(sum.merges, cold_max.merges)
                << "f=" << f << " set=" << set << " adaptive=" << adaptive;
          } else {
            EXPECT_LE(sum.outdetect_calls, cold_sum.outdetect_calls);
            EXPECT_LE(sum.merges, cold_sum.merges);
            EXPECT_LE(sum.levels_scanned, cold_sum.levels_scanned);
          }
        }
      }
    }
  }
  EXPECT_EQ(sessions, 320);
  // The corpus must exercise reuse: many sessions whose cold queries
  // repeat decodes that the carried session does once.
  EXPECT_GT(sessions_with_decodes, sessions / 4);
}

std::vector<EdgeLabel> labels_of(const FtcScheme& scheme,
                                 const std::vector<EdgeId>& fault_ids) {
  std::vector<EdgeLabel> out;
  for (const EdgeId e : fault_ids) out.push_back(scheme.edge_label(e));
  return out;
}

// One query's outcome: an answer, or the message of a typed refusal.
struct Outcome {
  std::optional<bool> answer;
  std::string refusal;

  bool operator==(const Outcome&) const = default;
};

Outcome run_query(const FtcScheme& scheme, VertexId s, VertexId t,
                  const PreparedFaults& prepared, DecoderWorkspace& ws,
                  const QueryOptions& options) {
  try {
    return {FtcDecoder::connected(scheme.vertex_label(s),
                                  scheme.vertex_label(t), prepared, ws,
                                  options),
            {}};
  } catch (const FtcCapacityError& e) {
    return {std::nullopt, e.what()};
  }
}

// kPractical with a k far too small for the fault sets: some decodes
// refuse. A refusal ends the session, so the next query starts fresh;
// in smallest-cut-first order every outcome on the carried workspace,
// refusals and the queries right after them included, must equal a
// fresh workspace's. In source-first order the refusal set may differ,
// but every answer must still be right.
TEST(DecoderWorkspace, RefusalsMatchFreshWorkspace) {
  const Graph g = graph::random_connected(300, 1200, 21);
  for (const double k_scale : {0.05, 0.1}) {
    FtcConfig cfg;
    cfg.f = 12;
    cfg.k_mode = KMode::kPractical;
    cfg.k_scale = k_scale;
    const FtcScheme scheme = FtcScheme::build(g, cfg);
    SplitMix64 rng(static_cast<std::uint64_t>(k_scale * 1000));
    int refusals = 0;
    int after_refusal = 0;
    int answered_source_first = 0;
    for (int set = 0; set < 12; ++set) {
      const std::vector<EdgeId> fault_ids = random_faults(rng, g, cfg.f);
      const PreparedFaults prepared =
          PreparedFaults::prepare(labels_of(scheme, fault_ids));
      for (const bool smallest_cut : {true, false}) {
        const QueryOptions options{true, smallest_cut};
        DecoderWorkspace carried;
        bool last_refused = false;
        for (int i = 0; i < 40; ++i) {
          const auto s =
              static_cast<VertexId>(rng.next_below(g.num_vertices()));
          const auto t =
              static_cast<VertexId>(rng.next_below(g.num_vertices()));
          const Outcome got = run_query(scheme, s, t, prepared, carried,
                                        options);
          if (got.answer.has_value()) {
            EXPECT_EQ(*got.answer,
                      graph::connected_avoiding(g, s, t, fault_ids))
                << "k_scale=" << k_scale << " set=" << set
                << " smallest_cut=" << smallest_cut << " i=" << i;
          }
          if (!smallest_cut) {
            answered_source_first += got.answer.has_value();
            continue;
          }
          DecoderWorkspace fresh;
          const Outcome cold = run_query(scheme, s, t, prepared, fresh,
                                         options);
          EXPECT_EQ(got, cold) << "k_scale=" << k_scale << " set=" << set
                               << " i=" << i;
          after_refusal += last_refused;
          last_refused = !got.answer.has_value();
          refusals += last_refused;
        }
      }
    }
    EXPECT_GT(refusals, 0) << "k_scale=" << k_scale;
    EXPECT_GT(after_refusal, 0) << "k_scale=" << k_scale;
    EXPECT_GT(answered_source_first, 0) << "k_scale=" << k_scale;
  }
}

// A session is keyed on the fault set's identity, not its address:
// fault set B, prepared right after A is destroyed, may reuse A's
// storage, and must still start a fresh session.
TEST(DecoderWorkspace, FaultSetReplacedInScopeStartsFreshSession) {
  const Graph g = graph::random_connected(80, 200, 17);
  const FtcScheme scheme = FtcScheme::build(g, config_for(6));
  SplitMix64 rng(29);
  DecoderWorkspace ws;
  for (int generation = 0; generation < 8; ++generation) {
    const std::vector<EdgeId> a_ids = random_faults(rng, g, 6);
    const std::vector<EdgeId> b_ids = random_faults(rng, g, 6);
    {
      const PreparedFaults a =
          PreparedFaults::prepare(labels_of(scheme, a_ids));
      for (int i = 0; i < 20; ++i) {
        const auto s = static_cast<VertexId>(rng.next_below(g.num_vertices()));
        const auto t = static_cast<VertexId>(rng.next_below(g.num_vertices()));
        EXPECT_EQ(FtcDecoder::connected(scheme.vertex_label(s),
                                        scheme.vertex_label(t), a, ws),
                  graph::connected_avoiding(g, s, t, a_ids));
      }
    }
    const PreparedFaults b = PreparedFaults::prepare(labels_of(scheme, b_ids));
    for (int i = 0; i < 20; ++i) {
      const auto s = static_cast<VertexId>(rng.next_below(g.num_vertices()));
      const auto t = static_cast<VertexId>(rng.next_below(g.num_vertices()));
      EXPECT_EQ(FtcDecoder::connected(scheme.vertex_label(s),
                                      scheme.vertex_label(t), b, ws),
                graph::connected_avoiding(g, s, t, b_ids))
          << "generation " << generation << " i=" << i;
    }
  }
}

// Alternating A/B/A/B on one workspace, first under fixed options, then
// also switching the options between queries on the same fault set: every
// switch starts a new session, and no query sees another session's
// merges or its missing heap.
TEST(DecoderWorkspace, InterleavedSessionsOnOneWorkspace) {
  const Graph g = graph::random_connected(80, 200, 23);
  const FtcScheme scheme = FtcScheme::build(g, config_for(6));
  SplitMix64 rng(31);
  const std::vector<EdgeId> a_ids = random_faults(rng, g, 6);
  const std::vector<EdgeId> b_ids = random_faults(rng, g, 6);
  const PreparedFaults a = PreparedFaults::prepare(labels_of(scheme, a_ids));
  const PreparedFaults b = PreparedFaults::prepare(labels_of(scheme, b_ids));
  const QueryOptions smallest_cut{true, true};
  const QueryOptions source_first{true, false};
  const auto check = [&](DecoderWorkspace& ws, bool use_a,
                         const QueryOptions& options, int i) {
    const auto s = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    const auto t = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    EXPECT_EQ(FtcDecoder::connected(scheme.vertex_label(s),
                                    scheme.vertex_label(t), use_a ? a : b,
                                    ws, options),
              graph::connected_avoiding(g, s, t, use_a ? a_ids : b_ids))
        << "use_a=" << use_a
        << " smallest_cut=" << options.smallest_cut_first << " i=" << i;
  };
  for (const QueryOptions& options : {smallest_cut, source_first}) {
    DecoderWorkspace ws;
    for (int i = 0; i < 200; ++i) check(ws, i % 2 == 0, options, i);
  }
  // Random (fault set, options) keys hit every transition between them.
  DecoderWorkspace ws;
  for (int i = 0; i < 400; ++i) {
    const std::uint64_t key = rng.next_below(4);
    check(ws, key < 2, key % 2 == 0 ? smallest_cut : source_first, i);
  }
}

// Golden outcomes. Every query's outcome (connected, disconnected or
// refused) and, on the label-span path, its QueryStats are folded into
// one FNV-1a digest. The corpus covers a practical k small enough that
// some decodes refuse, a practical k whose sparse levels decode below k,
// a provable k and a GF(2^128) scheme; all four QueryOptions; and every
// serving path: the resident view, a flat mmap container, a sharded
// store and PreparedFaults::prepare over EdgeLabels with the builder's
// level bounds. Each (fault set, options) pair runs its queries in a
// fixed order on one carried workspace, so the digest also pins
// source-first refusals, which depend on that order. The pinned value
// was recorded before fault-set sums were rebuilt from cut bitsets over
// level-clamped payloads: that change must alter no answer, no refusal
// and no decode count.
constexpr std::uint64_t kGoldenOutcomeDigest = 0x54451346f828d865ULL;

enum : std::uint8_t { kDisconnected = 0, kConnected = 1, kRefused = 2 };

void digest_value(std::uint64_t& h, std::uint64_t v) {
  std::uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  h = util::fnv1a(bytes, h);
}

TEST(DecoderWorkspace, GoldenOutcomesAcrossServingPaths) {
  struct Case {
    const char* name;
    Graph g;
    FtcConfig cfg;
  };
  const auto practical = [](unsigned f, unsigned k_override,
                            FieldKind field = FieldKind::kAuto) {
    FtcConfig cfg = config_for(f, field);
    cfg.k_mode = KMode::kPractical;
    cfg.k_override = k_override;
    return cfg;
  };
  FtcConfig provable;
  provable.f = 3;
  provable.k_mode = KMode::kProvable;
  std::vector<Case> cases;
  // Sparse graphs, so that f faults often disconnect.
  cases.push_back({"refusing", graph::random_connected(120, 170, 3),
                   practical(6, 3)});
  cases.push_back({"practical", graph::random_connected(600, 900, 4),
                   practical(6, 0)});
  cases.push_back({"provable", graph::random_connected(32, 44, 5), provable});
  cases.push_back({"gf128", graph::random_connected(60, 85, 6),
                   practical(5, 4, FieldKind::kGF128)});

  std::uint64_t digest = util::kFnvBasis;
  unsigned outcomes[3] = {0, 0, 0};
  unsigned clamped_levels = 0;  // levels whose bound is below k
  QueryStats total{};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const FtcScheme labels = FtcScheme::build(c.g, c.cfg);
    for (const std::uint32_t bound : labels.level_populations()) {
      clamped_levels += bound > 0 && bound < labels.params().k;
    }
    SchemeConfig scfg;
    scfg.ftc = c.cfg;
    const auto resident = make_scheme(c.g, scfg);
    const TempStore flat(c.name, ".ftcs");
    const TempStore manifest(c.name, ".ftcm");
    resident->save(flat.path());
    save_sharded(*resident, manifest.path(), 3);
    const std::unique_ptr<ConnectivityScheme> schemes[] = {
        load_scheme(resident->store_view()), load_scheme(flat.path()),
        load_scheme(manifest.path())};

    SplitMix64 rng(c.cfg.f * 1000 + c.g.num_vertices());
    for (int set = 0; set < 6; ++set) {
      const std::vector<EdgeId> fault_ids =
          random_faults(rng, c.g, c.cfg.f);
      const PreparedFaults prepared = PreparedFaults::prepare(
          labels_of(labels, fault_ids), labels.level_populations());
      std::vector<std::unique_ptr<ConnectivityScheme::FaultSet>> fault_sets;
      for (const auto& scheme : schemes) {
        fault_sets.push_back(
            scheme->prepare_faults(FaultSpec::edges(fault_ids)));
      }
      std::vector<std::pair<VertexId, VertexId>> pairs;
      for (int i = 0; i < 40; ++i) {
        pairs.emplace_back(
            static_cast<VertexId>(rng.next_below(c.g.num_vertices())),
            static_cast<VertexId>(rng.next_below(c.g.num_vertices())));
      }
      for (const bool adaptive : {true, false}) {
        for (const bool smallest_cut : {true, false}) {
          const QueryOptions options{adaptive, smallest_cut};
          DecoderWorkspace ws;
          std::vector<std::unique_ptr<ConnectivityScheme::Workspace>> wss;
          for (const auto& scheme : schemes) {
            wss.push_back(scheme->make_workspace());
          }
          for (const auto& [s, t] : pairs) {
            QueryStats stats;
            std::uint8_t outcome = kRefused;
            try {
              outcome = FtcDecoder::connected(labels.vertex_label(s),
                                              labels.vertex_label(t),
                                              prepared, ws, options, &stats)
                            ? kConnected
                            : kDisconnected;
            } catch (const FtcCapacityError&) {
            }
            ++outcomes[outcome];
            if (outcome != kRefused) {
              EXPECT_EQ(outcome == kConnected,
                        graph::connected_avoiding(c.g, s, t, fault_ids))
                  << "set=" << set << " s=" << s << " t=" << t;
            }
            digest_value(digest, outcome);
            digest_value(digest, stats.fragments);
            digest_value(digest, stats.outdetect_calls);
            digest_value(digest, stats.merges);
            digest_value(digest, stats.levels_scanned);
            total.outdetect_calls += stats.outdetect_calls;
            total.merges += stats.merges;
            for (std::size_t p = 0; p < std::size(schemes); ++p) {
              std::uint8_t served = kRefused;
              try {
                served = schemes[p]->query(s, t, *fault_sets[p], *wss[p],
                                           options)
                             ? kConnected
                             : kDisconnected;
              } catch (const FtcCapacityError&) {
              }
              EXPECT_EQ(served, outcome)
                  << "path=" << p << " set=" << set << " adaptive="
                  << adaptive << " smallest_cut=" << smallest_cut
                  << " s=" << s << " t=" << t;
              digest_value(digest, served);
            }
          }
        }
      }
    }
  }
  EXPECT_GT(outcomes[kConnected], 0u);
  EXPECT_GT(outcomes[kDisconnected], 0u);
  EXPECT_GT(outcomes[kRefused], 0u);
  EXPECT_GT(clamped_levels, 0u);
  EXPECT_GT(total.merges, 0u);
  EXPECT_EQ(digest, kGoldenOutcomeDigest)
      << "digest 0x" << std::hex << digest << "; outcomes connected="
      << std::dec << outcomes[kConnected]
      << " disconnected=" << outcomes[kDisconnected]
      << " refused=" << outcomes[kRefused] << "; decodes "
      << total.outdetect_calls << ", merges " << total.merges
      << ", clamped levels " << clamped_levels;
}

}  // namespace
}  // namespace ftc::core
