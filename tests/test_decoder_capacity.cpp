// KMode::kPractical's contract at a k far too small for f: every query
// either answers exactly (BFS ground truth) or throws FtcCapacityError.
// It never answers wrong and never hangs. An overflowed sketch can decode
// to plausible edges that all lie inside the fragment set being grown; a
// round that merges nothing must refuse, not decode the same cut again.
// A decode is certified before it merges: every decoded edge must have
// exactly one endpoint in the set being grown, or the query refuses.
// CMakeLists.txt gives this test a ctest TIMEOUT, so a hang fails it.
#include <gtest/gtest.h>

#include <vector>

#include "core/edge_code.hpp"
#include "core/ftc_query.hpp"
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

struct Tally {
  unsigned answered = 0;
  unsigned refused = 0;
};

// All pairs of one fault set, in both merge orders, through one carried
// workspace per order (a refusal ends the session; the next query starts
// a fresh one).
void sweep_pairs(const Graph& g, const FtcScheme& labels,
                 const std::vector<EdgeId>& faults, Tally& tally) {
  std::vector<EdgeLabel> fault_labels;
  for (const EdgeId e : faults) fault_labels.push_back(labels.edge_label(e));
  const PreparedFaults prepared =
      PreparedFaults::prepare(fault_labels, labels.level_populations());
  for (const bool smallest_cut : {true, false}) {
    const QueryOptions options{true, smallest_cut};
    DecoderWorkspace ws;
    for (VertexId s = 0; s < g.num_vertices(); ++s) {
      for (VertexId t = s + 1; t < g.num_vertices(); ++t) {
        bool connected = false;
        try {
          connected =
              FtcDecoder::connected(labels.vertex_label(s),
                                    labels.vertex_label(t), prepared, ws,
                                    options);
        } catch (const FtcCapacityError&) {
          ++tally.refused;
          continue;
        }
        ++tally.answered;
        ASSERT_EQ(connected, graph::connected_avoiding(g, s, t, faults))
            << "s=" << s << " t=" << t << " smallest_cut=" << smallest_cut;
      }
    }
  }
}

TEST(DecoderCapacity, TinyKAnswersExactlyOrRefusesNeverHangs) {
  constexpr unsigned kF = 10;
  Tally tally;
  for (const unsigned k : {2u, 3u}) {
    for (const SchemeKind kind :
         {SchemeKind::kDeterministic, SchemeKind::kRandomized}) {
      for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(testing::Message()
                     << "k=" << k << " kind=" << static_cast<int>(kind)
                     << " seed=" << seed);
        const Graph g = graph::random_connected(32, 96, seed);
        FtcConfig cfg;
        cfg.f = kF;
        cfg.kind = kind;
        cfg.k_mode = KMode::kPractical;
        cfg.k_override = k;
        cfg.seed = seed;
        const FtcScheme labels = FtcScheme::build(g, cfg);
        ASSERT_EQ(labels.params().k, k);

        SplitMix64 rng(seed * 100 + k);
        for (int set = 0; set < 6; ++set) {
          const unsigned size = 1 + static_cast<unsigned>(rng.next_below(kF));
          std::vector<EdgeId> faults;
          for (unsigned i = 0; i < size; ++i) {
            faults.push_back(
                static_cast<EdgeId>(rng.next_below(g.num_edges())));
          }
          sweep_pairs(g, labels, faults, tally);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
  // Both outcomes occur: k this small must refuse somewhere, and the
  // sweep is not vacuous.
  EXPECT_GT(tally.refused, 0u);
  EXPECT_GT(tally.answered, 0u);
}

// A hand-edited edge label whose sketch decodes to its true boundary edge
// plus a plausible edge between two *other* fragments. Graph: root 0 with
// tree children 1..7; 1's only other edge is the non-tree edge 1-2, 3 is
// a leaf, and 2, 4, 5, 6, 7 form a dense non-tree block. Faults 0-1 and
// 0-3 split T' into S (below 1), C = {3} and the rest R, with s = 1 in S
// and t = 3 in C, so the truth is "disconnected". S's cut is fault 0-1
// alone, so adding the power sums of a fake R-C edge to that label's top
// nonzero level makes S's top level decode to {S-R edge, fake R-C edge}.
// Merging both unchecked would join S to C and answer "connected".
TEST(DecoderCapacity, DecodedEdgeJoiningTwoOtherSetsIsRefused) {
  using F = gf::GF2_64;
  Graph g(8);
  const EdgeId f_s = g.add_edge(0, 1);
  g.add_edge(0, 2);
  const EdgeId f_t = g.add_edge(0, 3);
  g.add_edge(1, 2);
  for (VertexId v = 4; v < 8; ++v) g.add_edge(0, v);
  for (const auto& [u, v] : std::vector<std::pair<VertexId, VertexId>>{
           {2, 4}, {2, 5}, {2, 6}, {2, 7}, {4, 5}, {4, 6}, {4, 7}, {5, 6},
           {5, 7}, {6, 7}}) {
    g.add_edge(u, v);
  }
  const std::vector<EdgeId> faults{f_s, f_t};
  const VertexId s = 1;
  const VertexId t = 3;
  ASSERT_FALSE(graph::connected_avoiding(g, s, t, faults));

  FtcConfig cfg;
  cfg.f = 2;
  cfg.field = FieldKind::kGF64;
  cfg.k_override = 8;
  const FtcScheme labels = FtcScheme::build(g, cfg);
  const QueryOptions source_first{true, false};
  std::vector<EdgeLabel> fault_labels{labels.edge_label(f_s),
                                      labels.edge_label(f_t)};
  ASSERT_FALSE(FtcDecoder::connected(labels.vertex_label(s),
                                     labels.vertex_label(t), fault_labels,
                                     source_first));

  // The top nonzero level of S's sum, i.e. of fault 0-1's sketch.
  EdgeLabel& edited = fault_labels[0];
  const store::CoreEdgeLayout layout =
      store::core_edge_layout(edited.params, edited.level_widths);
  int top = -1;
  for (unsigned lev = 0; lev < layout.num_levels; ++lev) {
    for (unsigned j = 0; j < layout.width(lev); ++j) {
      if (edited.sketch_words[layout.offset(lev) + j] != 0) top = lev;
    }
  }
  ASSERT_GE(top, 0);
  const unsigned width = layout.width(static_cast<unsigned>(top));
  ASSERT_GE(width, 2u) << "two edges must fit the level";

  // Fake edge 2-3: from R to C, neither endpoint in S.
  const F id = EdgeCode<F>::encode(labels.vertex_label(2).anc,
                                   labels.vertex_label(t).anc);
  const F id2 = id.square();
  F p = id;
  for (unsigned j = 0; j < width; ++j) {
    edited.sketch_words[layout.offset(static_cast<unsigned>(top)) + j] ^=
        p.value();
    p *= id2;
  }
  EXPECT_THROW((void)FtcDecoder::connected(labels.vertex_label(s),
                                           labels.vertex_label(t),
                                           fault_labels, source_first),
               FtcCapacityError);
}

}  // namespace
}  // namespace ftc::core
