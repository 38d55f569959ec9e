// KMode::kPractical's contract at a k far too small for f: every query
// either answers exactly (BFS ground truth) or throws FtcCapacityError.
// It never answers wrong and never hangs. An overflowed sketch can decode
// to plausible edges that all lie inside the fragment set being grown; a
// round that merges nothing must refuse, not decode the same cut again.
// CMakeLists.txt gives this test a ctest TIMEOUT, so a hang fails it.
#include <gtest/gtest.h>

#include <vector>

#include "core/ftc_query.hpp"
#include "core/ftc_scheme.hpp"
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

}  // namespace
}  // namespace ftc::core
