// Experiment E3 (DESIGN.md): construction-time scaling (Theorem 1:
// O~(m f^2) for the near-linear deterministic scheme). We measure build
// time versus m (fixed f; expected near-linear, log-log slope ~1) and
// versus f (fixed m; expected <= quadratic), with the hierarchy and
// sketch-aggregation phases broken out. Each build also reports its
// minor page faults (the getrusage ru_minflt delta around it): most of
// them are the label pages themselves.
#include <sys/resource.h>

#include "bench_util.hpp"
#include "core/ftc_scheme.hpp"

namespace ftc::bench {
namespace {

long minor_faults() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

void vs_m() {
  std::printf("\n== construction time vs m (n = m/3, f = 4) ==\n");
  Table table({"m", "total", "hierarchy", "sketches", "levels", "k",
               "minor faults"});
  std::vector<double> ms, ts;
  for (const unsigned m : {1500u, 3000u, 6000u, 12000u, 24000u}) {
    const unsigned n = m / 3;
    const auto g = graph::random_connected(n, m, m);
    core::FtcConfig cfg;
    cfg.f = 4;
    cfg.k_scale = 1.0;
    const long faults0 = minor_faults();
    Timer t;
    const auto scheme = core::FtcScheme::build(g, cfg);
    const double total = t.seconds();
    const long faults = minor_faults() - faults0;
    const auto& st = scheme.build_stats();
    table.add_row({std::to_string(m), fmt(total * 1e3, "%.1f ms"),
                   fmt(st.hierarchy_seconds * 1e3, "%.1f ms"),
                   fmt(st.sketch_seconds * 1e3, "%.1f ms"),
                   std::to_string(st.num_levels), std::to_string(st.k),
                   std::to_string(faults)});
    ms.push_back(m);
    ts.push_back(total);
  }
  table.print();
  std::printf("log-log slope in m: %.2f (near-linear expected, ~1)\n",
              loglog_slope(ms, ts));
}

void vs_f() {
  std::printf("\n== construction time vs f (n=2048, m=6144) ==\n");
  const auto g = graph::random_connected(2048, 6144, 11);
  Table table({"f", "total", "k", "edge label", "minor faults"});
  std::vector<double> fs, ts;
  for (const unsigned f : {1u, 2u, 4u, 8u, 16u}) {
    core::FtcConfig cfg;
    cfg.f = f;
    cfg.k_scale = 1.0;
    const long faults0 = minor_faults();
    Timer t;
    const auto scheme = core::FtcScheme::build(g, cfg);
    const double total = t.seconds();
    const long faults = minor_faults() - faults0;
    table.add_row({std::to_string(f), fmt(total * 1e3, "%.1f ms"),
                   std::to_string(scheme.params().k),
                   fmt_bits(scheme.edge_label_bits()),
                   std::to_string(faults)});
    fs.push_back(f);
    ts.push_back(total);
  }
  table.print();
  std::printf("log-log slope in f: %.2f (k ~ f in practical mode, so ~1;"
              " provable mode would add another factor f)\n",
              loglog_slope(fs, ts));
}

}  // namespace
}  // namespace ftc::bench

int main() {
  std::printf("bench_construction: Theorem 1 construction-time shape\n");
  ftc::bench::vs_m();
  ftc::bench::vs_f();
  return 0;
}
