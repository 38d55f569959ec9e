// Experiment E1 (DESIGN.md): label-size scaling of Theorem 1.
// Claim: O(log n) bits per vertex and O(f^2 log^3 n) bits per edge.
// We measure serialized edge-label bits versus f (fixed n) and versus n
// (fixed f) and report log-log slopes. Expected shape: slope in f between
// 1 and 2 (the k factor is Theta(f) in practical mode and Theta(f^2) in
// provable mode — both are printed), polylog growth in n.
//
// The analysis charges k syndromes on each of L levels. A stored label
// (container format v4) keeps min(k, pop_l) at level l, pop_l being the
// level's edge population, since no query reads more (Proposition 6).
// The "stored / L*k" column shows how far below the L*k bound the
// practical labels sit; the provable column is the L*k bound itself.
#include "bench_util.hpp"
#include "core/ftc_scheme.hpp"
#include "geometry/netfind.hpp"

namespace ftc::bench {
namespace {

// Syndromes an edge label stores, sum_l min(k, pop_l), over L * k.
std::string stored_fraction(const core::FtcScheme& scheme) {
  const auto& p = scheme.params();
  std::size_t stored = 0;
  for (const std::uint32_t pop : scheme.level_populations()) {
    stored += std::min(pop, p.k);
  }
  return fmt(static_cast<double>(stored) /
                 (static_cast<double>(p.num_levels) * p.k),
             "%.3f");
}

void scaling_in_f() {
  std::printf("\n== edge label bits vs f (n=1024, m=3072) ==\n");
  const auto g = graph::random_connected(1024, 3072, 99);
  Table table({"f", "practical k", "practical bits", "stored / L*k",
               "provable k", "provable bits (L*k formula)"});
  std::vector<double> fs, practical_bits, provable_bits;
  for (const unsigned f : {1u, 2u, 4u, 8u, 16u}) {
    core::FtcConfig cfg;
    cfg.f = f;
    cfg.k_scale = 2.0;
    const auto scheme = core::FtcScheme::build(g, cfg);
    // Provable-mode sizes follow from the Lemma 5 k; compute the label
    // size formula without materializing the (huge) labels.
    core::FtcConfig prov = cfg;
    prov.k_mode = core::KMode::kProvable;
    const unsigned prov_k = geometry::provable_hierarchy_k(
        f, geometry::provable_group_len(3072));
    const std::size_t prov_bits =
        static_cast<std::size_t>(scheme.params().num_levels) * prov_k *
            scheme.params().field_bits +
        4 * scheme.params().coord_bits();
    table.add_row({std::to_string(f), std::to_string(scheme.params().k),
                   fmt_bits(scheme.edge_label_bits()),
                   stored_fraction(scheme), std::to_string(prov_k),
                   fmt_bits(prov_bits)});
    fs.push_back(f);
    practical_bits.push_back(static_cast<double>(scheme.edge_label_bits()));
    provable_bits.push_back(static_cast<double>(prov_bits));
  }
  table.print();
  std::printf("log-log slope in f: practical %.2f (expected ~1),"
              " provable %.2f (expected ->2 for large f)\n",
              loglog_slope(fs, practical_bits),
              loglog_slope(fs, provable_bits));
}

void scaling_in_n() {
  std::printf("\n== edge label bits vs n (m=3n, f=4) ==\n");
  Table table({"n", "levels", "k", "edge label bits", "stored / L*k",
               "vertex label bits"});
  std::vector<double> ns, bits;
  for (const unsigned n : {256u, 1024u, 4096u, 16384u}) {
    const auto g = graph::random_connected(n, 3 * n, 7 * n);
    core::FtcConfig cfg;
    cfg.f = 4;
    cfg.k_scale = 2.0;
    const auto scheme = core::FtcScheme::build(g, cfg);
    table.add_row({std::to_string(n),
                   std::to_string(scheme.params().num_levels),
                   std::to_string(scheme.params().k),
                   fmt_bits(scheme.edge_label_bits()),
                   stored_fraction(scheme),
                   std::to_string(scheme.vertex_label_bits())});
    ns.push_back(n);
    bits.push_back(static_cast<double>(scheme.edge_label_bits()));
  }
  table.print();
  std::printf("log-log slope in n: %.2f (polylog: slope -> 0 as n grows;"
              " bits/log^3(n') should be ~flat)\n",
              loglog_slope(ns, bits));
}

}  // namespace
}  // namespace ftc::bench

int main() {
  std::printf("bench_label_scaling: Theorem 1 label-size shape\n");
  ftc::bench::scaling_in_f();
  ftc::bench::scaling_in_n();
  return 0;
}
