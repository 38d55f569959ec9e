// Experiment E8 (DESIGN.md): the practical-k safety margin (DESIGN.md
// Section 2.3). The provable k of Lemma 5 has galactic constants; the
// library defaults to k = ceil(k_scale (f+1) log2 n') with a fail-stop
// decoder. This bench sweeps k downward and reports, over many random
// queries: answers correct / capacity errors raised (fail-stop) / wrong
// answers (must be zero — the decoder detects shortfalls, it never lies;
// any wrong answer makes the bench exit 1). Faults are BFS balls with s
// on a failed edge, as in ftcbench's `outage`: uniform faults rarely give
// a fragment a boundary wider than the smallest k, so they never show the
// fail-stop side of the tradeoff.
#include "bench_util.hpp"
#include "core/ftc_query.hpp"
#include "core/ftc_scheme.hpp"

namespace ftc::bench {
namespace {

using graph::EdgeId;

// Returns the number of wrong answers.
int run(unsigned n, unsigned m, unsigned f) {
  const auto g = graph::random_connected(n, m, 2024);
  const auto cases = make_query_cases(g, f, 150, 31337, /*ball=*/true);

  std::printf(
      "\n== k tradeoff: n=%u m=%u f=%u, BFS-ball faults (150 queries each) "
      "==\n",
      n, m, f);
  Table table({"k", "edge label", "correct", "fail-stop", "wrong"});
  int total_wrong = 0;
  for (const unsigned k : {4u, 6u, 8u, 12u, 24u, 48u}) {
    core::FtcConfig cfg;
    cfg.f = f;
    cfg.k_override = k;
    const auto scheme = core::FtcScheme::build(g, cfg);
    int correct = 0, failstop = 0, wrong = 0;
    for (const auto& qc : cases) {
      std::vector<core::EdgeLabel> labels;
      for (const EdgeId e : qc.faults) labels.push_back(scheme.edge_label(e));
      try {
        const bool got = core::FtcDecoder::connected(
            scheme.vertex_label(qc.s), scheme.vertex_label(qc.t), labels);
        (got == qc.expected ? correct : wrong)++;
      } catch (const core::FtcCapacityError&) {
        ++failstop;
      }
    }
    table.add_row({std::to_string(k), fmt_bits(scheme.edge_label_bits()),
                   std::to_string(correct), std::to_string(failstop),
                   std::to_string(wrong)});
    total_wrong += wrong;
  }
  table.print();
  core::FtcConfig defaults;
  defaults.f = f;
  std::printf("(practical default for this size is k=%u)\n",
              core::FtcScheme::build(g, defaults).build_stats().k);
  return total_wrong;
}

}  // namespace
}  // namespace ftc::bench

int main() {
  std::printf("bench_k_tradeoff: practical sketch capacity vs fail-stop rate\n");
  const int wrong =
      ftc::bench::run(1024, 4096, 4) + ftc::bench::run(1024, 4096, 8);
  if (wrong != 0) {
    std::printf("FAILED: %d wrong answers\n", wrong);
    return 1;
  }
  return 0;
}
