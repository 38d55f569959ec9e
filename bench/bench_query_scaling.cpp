// Experiment E2 (DESIGN.md): query-time scaling in |F| (Theorem 1 and
// Section 6). Claims: the deterministic scheme decodes in O~(|F|^4), the
// randomized framework variant in O~(|F|^2); adaptive decoding makes the
// cost depend on |F| (actual faults), not f (capacity).
// Expected shape: query time grows polynomially in |F| with the
// deterministic curve steeper than the randomized one, and the adaptive
// decoder beats the non-adaptive one at small |F|.
#include "bench_util.hpp"
#include "core/ftc_query.hpp"
#include "core/ftc_scheme.hpp"

namespace ftc::bench {
namespace {

using graph::EdgeId;

// Mean decode time per case; counts wrong answers into `wrong`.
double measure_query_us(const core::FtcScheme& scheme,
                        const std::vector<QueryCase>& cases,
                        const core::QueryOptions& opts, int& wrong) {
  // Pre-fetch labels so the measurement is decode-only.
  std::vector<std::vector<core::EdgeLabel>> fault_labels;
  std::vector<std::pair<core::VertexLabel, core::VertexLabel>> endpoints;
  for (const auto& qc : cases) {
    std::vector<core::EdgeLabel> labels;
    for (const EdgeId e : qc.faults) labels.push_back(scheme.edge_label(e));
    fault_labels.push_back(std::move(labels));
    endpoints.emplace_back(scheme.vertex_label(qc.s), scheme.vertex_label(qc.t));
  }
  Timer t;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const bool got = core::FtcDecoder::connected(
        endpoints[i].first, endpoints[i].second, fault_labels[i], opts);
    if (got != cases[i].expected) {
      std::printf("  !! incorrect answer on case %zu\n", i);
      ++wrong;
    }
  }
  return t.micros() / static_cast<double>(cases.size());
}

// Returns the number of wrong answers.
int run() {
  const unsigned n = 2048;
  const auto g = graph::random_connected(n, 3 * n, 5);
  const unsigned fmax = 16;

  core::FtcConfig det;
  det.f = fmax;
  det.kind = core::SchemeKind::kDeterministic;
  det.k_scale = 1.0;
  const auto det_scheme = core::FtcScheme::build(g, det);

  core::FtcConfig rnd = det;
  rnd.kind = core::SchemeKind::kRandomized;
  const auto rnd_scheme = core::FtcScheme::build(g, rnd);

  std::printf("\n== query time vs |F| (n=%u, m=%u, schemes built for f=%u) ==\n",
              n, 3 * n, fmax);
  Table table({"|F|", "det adaptive", "det fixed-k", "rand adaptive"});
  std::vector<double> xs, det_t, rnd_t;
  int wrong = 0;
  for (const unsigned nf : {1u, 2u, 4u, 8u, 16u}) {
    const auto cases = make_query_cases(g, nf, 40, 777 + nf);
    core::QueryOptions adaptive;
    core::QueryOptions fixed;
    fixed.adaptive = false;
    const double da = measure_query_us(det_scheme, cases, adaptive, wrong);
    const double df = measure_query_us(det_scheme, cases, fixed, wrong);
    const double ra = measure_query_us(rnd_scheme, cases, adaptive, wrong);
    table.add_row({std::to_string(nf), fmt(da, "%.1f us"), fmt(df, "%.1f us"),
                   fmt(ra, "%.1f us")});
    xs.push_back(nf);
    det_t.push_back(da);
    rnd_t.push_back(ra);
  }
  table.print();
  std::printf(
      "log-log slope in |F|: det %.2f, rand %.2f (theory: <=4 and <=2; both "
      "are upper bounds, real instances decode far below worst case)\n",
      loglog_slope(xs, det_t), loglog_slope(xs, rnd_t));
  return wrong;
}

}  // namespace
}  // namespace ftc::bench

int main() {
  std::printf("bench_query_scaling: Theorem 1 / Section 6 query-time shape\n");
  const int wrong = ftc::bench::run();
  if (wrong != 0) {
    std::printf("FAILED: %d incorrect answers\n", wrong);
    return 1;
  }
  return 0;
}
