// Experiment T1 (DESIGN.md): empirical reproduction of the paper's
// Table 1 — all implementable scheme variants side by side, with measured
// (not asymptotic) label sizes, construction time, query time and
// correctness. Every row now runs through the same ConnectivityScheme
// factory, so this bench is also the smoke test that the polymorphic
// interface covers all backends and variants.
//
// Paper rows -> factory configs:
//   1st (whp)  [DP21]  -> kDp21CycleSpace (full_support = false)
//   2nd (whp)  [DP21]  -> kDp21Agm        (full_support = false)
//   1st (full) [DP21]  -> kDp21CycleSpace (full_support = true)
//   2nd (full) [DP21]  -> kDp21Agm        (full_support = true)
//   This paper Det     -> kCoreFtc        (SchemeKind::kDeterministic)
//   This paper Rand    -> kCoreFtc        (SchemeKind::kRandomized)
// (The O(f^2 log^2 n loglog n) poly(n)-time deterministic row shares the
// pipeline with Det via the greedy-net hierarchy; see bench_hierarchy.)
//
// Expected shape: deterministic labels are the largest, DP21-1st labels
// the smallest; deterministic queries cost more than randomized. Every
// answer is checked against BFS: `correct` is the share of right
// answers, `refused` counts typed refusals (FtcCapacityError), and any
// wrong answer makes the bench exit 1. The `query` column is prepare
// plus query, so it is where a fault-set builder's cost shows.
#include "bench_util.hpp"
#include "core/connectivity_scheme.hpp"

namespace ftc::bench {
namespace {

using graph::EdgeId;
using graph::Graph;

struct TableRow {
  std::string name;
  core::SchemeConfig config;
};

std::vector<TableRow> table1_rows(unsigned f) {
  std::vector<TableRow> rows;
  for (const bool full : {false, true}) {
    core::SchemeConfig cfg;
    cfg.backend = core::BackendKind::kDp21CycleSpace;
    cfg.set_f(f);
    cfg.cycle.full_support = full;
    rows.push_back({full ? "DP21-1st (full)" : "DP21-1st (whp)", cfg});
  }
  for (const bool full : {false, true}) {
    core::SchemeConfig cfg;
    cfg.backend = core::BackendKind::kDp21Agm;
    cfg.set_f(f);
    cfg.agm.full_support = full;
    rows.push_back({full ? "DP21-2nd (full)" : "DP21-2nd (whp)", cfg});
  }
  for (const auto kind :
       {core::SchemeKind::kDeterministic, core::SchemeKind::kRandomized}) {
    core::SchemeConfig cfg;
    cfg.backend = core::BackendKind::kCoreFtc;
    cfg.set_f(f);
    cfg.ftc.kind = kind;
    cfg.ftc.k_scale = 2.0;
    rows.push_back({kind == core::SchemeKind::kDeterministic
                        ? "This paper (Det)"
                        : "This paper (Rand full)",
                    cfg});
  }
  return rows;
}

// Returns the number of wrong answers.
int run_config(graph::VertexId n, EdgeId m, unsigned f) {
  const Graph g = graph::random_connected(n, m, /*seed=*/n * 31 + f);
  const auto cases = make_query_cases(g, f, 60, /*seed=*/12345);

  std::printf("\n== Table 1 (empirical): n=%u m=%u f=%u (%zu queries) ==\n",
              n, m, f, cases.size());
  Table table({"scheme", "vertex label", "edge label", "construction",
               "query", "correct", "refused"});
  int wrong = 0;
  for (const auto& row : table1_rows(f)) {
    Timer tb;
    const auto scheme = core::make_scheme(g, row.config);
    const double build_ms = tb.millis();
    int correct = 0;
    int refused = 0;
    Timer tq;
    for (const auto& qc : cases) {
      try {
        if (scheme->connected(qc.s, qc.t, core::FaultSpec::edges(qc.faults)) ==
            qc.expected) {
          ++correct;
        } else {
          ++wrong;
        }
      } catch (const core::FtcCapacityError&) {
        ++refused;
      }
    }
    const double query_us = tq.micros() / static_cast<double>(cases.size());
    table.add_row({row.name, fmt_bits(scheme->vertex_label_bits()),
                   fmt_bits(scheme->edge_label_bits()),
                   fmt(build_ms, "%.1f ms"), fmt(query_us, "%.1f us"),
                   fmt(static_cast<double>(correct) /
                           static_cast<double>(cases.size()),
                       "%.3f"),
                   std::to_string(refused)});
  }
  table.print();
  return wrong;
}

}  // namespace
}  // namespace ftc::bench

int main() {
  std::printf("bench_table1: empirical reproduction of paper Table 1\n");
  const int wrong = ftc::bench::run_config(512, 1536, 2) +
                    ftc::bench::run_config(512, 1536, 4) +
                    ftc::bench::run_config(2048, 6144, 2) +
                    ftc::bench::run_config(2048, 6144, 4);
  if (wrong != 0) {
    std::printf("FAILED: %d incorrect answers\n", wrong);
    return 1;
  }
  return 0;
}
