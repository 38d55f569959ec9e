// bench_tables: the paper's tables, reproduced on one measurement loop.
//
// Usage: bench_tables [table]   (no name: every table, in this order)
//   table1          Table 1: the six scheme variants side by side
//   label_scaling   Theorem 1 label size vs f and vs n
//   k_tradeoff      practical k against the fail-stop rate
//   query_scaling   Theorem 1 / Section 6 query time vs |F|
//   query_ablation  Lemma 6 / Section 6 query optimizations
//   construction    Theorem 1 construction time vs m and vs f
//   hierarchy       Definition 1 goodness, Lemma 5 vs Proposition 5
//   netfind         Lemmas 11/12 epsilon-net size, time and hits
//   congest         Section 8 / Theorem 3 distributed construction
//   distance        Corollary 1 fault-tolerant distance labels
//   routing         Corollary 2 forbidden-set routing
//
// Every timed cell comes from rounds() (bench_util.hpp) and shows its
// median, p99 and sample count. Every answer with a ground truth is
// checked (BFS connectivity, exact distances, the net and hierarchy
// guarantees); a wrong one prints a `FAILED:` line and the run exits 1.
// Runs on one thread.
#include <sys/resource.h>

#include <optional>
#include <set>
#include <tuple>
#include <utility>

#include "bench_util.hpp"
#include "congest/dist_labeling.hpp"
#include "core/connectivity_scheme.hpp"
#include "core/ftc_query.hpp"
#include "core/ftc_scheme.hpp"
#include "distance/ft_distance.hpp"
#include "distance/ft_routing.hpp"
#include "geometry/greedy_net.hpp"
#include "geometry/hierarchy.hpp"
#include "geometry/netfind.hpp"
#include "geometry/point_map.hpp"
#include "graph/euler_tour.hpp"
#include "graph/spanning_tree.hpp"

namespace ftc::bench {
namespace {

using graph::EdgeId;
using graph::Graph;
using graph::VertexId;

// Measured rounds of every timed build (warm-up rounds come on top).
constexpr std::size_t kBuildRounds = 5;

// Times `make()` over kBuildRounds rounds into `ms` and returns the last
// build. Each round frees the previous build before it starts.
template <typename Make>
auto timed_builds(Series& ms, Make&& make) {
  std::optional<decltype(make())> built;
  rounds(kBuildRounds, [&](std::size_t, bool keep) {
    built.reset();
    Timer t;
    built.emplace(make());
    ms.add(t, keep);
  });
  return std::move(*built);
}

// Correct, refused (FtcCapacityError) and wrong answers over a case
// stream, and the latency of the answered ones.
struct Answers {
  int correct = 0;
  int refused = 0;
  int wrong = 0;
  Series us;
};

// Answers every case through the ConnectivityScheme interface, timing
// prepare_faults plus query. Each case gets a fresh workspace, made
// before the clock starts: a carried session would answer a repeated
// query from its state.
Answers answer_cases(const core::ConnectivityScheme& scheme,
                     const std::vector<QueryCase>& cases,
                     const std::string& where,
                     const core::QueryOptions& options = {}) {
  Answers a;
  rounds(cases.size(), [&](std::size_t i, bool keep) {
    const QueryCase& qc = cases[i % cases.size()];
    const auto workspace = scheme.make_workspace();
    bool got = false;
    Timer t;
    try {
      const auto faults =
          scheme.prepare_faults(core::FaultSpec::edges(qc.faults));
      got = scheme.query(qc.s, qc.t, *faults, *workspace, options);
    } catch (const core::FtcCapacityError&) {
      if (keep) ++a.refused;
      return;
    }
    a.us.add(t, keep);
    if (!keep) return;
    check(got, qc.expected, where, "query");
    ++(got == qc.expected ? a.correct : a.wrong);
  });
  return a;
}

core::SchemeConfig core_config(unsigned f, double k_scale) {
  core::SchemeConfig cfg;
  cfg.set_f(f);
  cfg.ftc.k_scale = k_scale;
  return cfg;
}

// ------------------------------------------------------------ table1
// All implementable Table 1 variants through the make_scheme factory:
//   DP21-1st (whp/full) -> kDp21CycleSpace, full_support false/true
//   DP21-2nd (whp/full) -> kDp21Agm,        full_support false/true
//   This paper (Det)    -> kCoreFtc, SchemeKind::kDeterministic
//   This paper (Rand)   -> kCoreFtc, SchemeKind::kRandomized
// (The poly(n)-time deterministic row shares the pipeline with Det via
// the greedy-net hierarchy; see the hierarchy table.) Expected shape:
// deterministic labels the largest of this paper's, DP21-1st the
// smallest; deterministic queries cost more than randomized. The query
// column is prepare plus query, so a fault-set builder's cost shows.

std::vector<std::pair<std::string, core::SchemeConfig>> table1_rows(
    unsigned f) {
  std::vector<std::pair<std::string, core::SchemeConfig>> rows;
  for (const bool full : {false, true}) {
    core::SchemeConfig cfg;
    cfg.backend = core::BackendKind::kDp21CycleSpace;
    cfg.set_f(f);
    cfg.cycle.full_support = full;
    rows.emplace_back(full ? "DP21-1st (full)" : "DP21-1st (whp)", cfg);
  }
  for (const bool full : {false, true}) {
    core::SchemeConfig cfg;
    cfg.backend = core::BackendKind::kDp21Agm;
    cfg.set_f(f);
    cfg.agm.full_support = full;
    rows.emplace_back(full ? "DP21-2nd (full)" : "DP21-2nd (whp)", cfg);
  }
  for (const auto kind :
       {core::SchemeKind::kDeterministic, core::SchemeKind::kRandomized}) {
    core::SchemeConfig cfg = core_config(f, 2.0);
    cfg.ftc.kind = kind;
    rows.emplace_back(kind == core::SchemeKind::kDeterministic
                          ? "This paper (Det)"
                          : "This paper (Rand full)",
                      cfg);
  }
  return rows;
}

void table1() {
  for (const auto& [n, m] : {std::pair<VertexId, EdgeId>{512, 1536},
                             std::pair<VertexId, EdgeId>{2048, 6144}}) {
    for (const unsigned f : {2u, 4u}) {
      const Graph g = graph::random_connected(n, m, n * 31 + f);
      const auto cases = make_query_cases(g, f, 60, 12345);
      std::printf("\n== Table 1 (empirical): n=%u m=%u f=%u (%zu queries) ==\n",
                  n, m, f, cases.size());
      Table table({"scheme", "vertex label", "edge label", "construction",
                   "query", "correct", "refused"});
      for (const auto& [name, cfg] : table1_rows(f)) {
        Series build;
        const auto scheme =
            timed_builds(build, [&] { return core::make_scheme(g, cfg); });
        const Answers a = answer_cases(*scheme, cases, "table1 " + name);
        table.add_row({name, fmt_bits(scheme->vertex_label_bits()),
                       fmt_bits(scheme->edge_label_bits()),
                       fmt_series(build, "ms"), fmt_series(a.us, "us"),
                       fmt(static_cast<double>(a.correct) /
                               static_cast<double>(cases.size()),
                           "%.3f"),
                       std::to_string(a.refused)});
      }
      table.print();
    }
  }
}

// ------------------------------------------------------------ label_scaling
// Theorem 1 claims O(log n) bits per vertex and O(f^2 log^3 n) per edge.
// Expected shape: slope in f between 1 and 2 (k is Theta(f) in practical
// mode and Theta(f^2) in provable mode; both are printed), polylog in n.
// A stored label (format v4) keeps min(k, pop_l) syndromes at level l,
// pop_l the level's edge population, since no query reads more
// (Proposition 6): "stored / L*k" shows how far below the L*k bound the
// practical labels sit. The provable column is the L*k bound itself.

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

void label_scaling() {
  std::printf("\n== edge label bits vs f (n=1024, m=3072) ==\n");
  const auto g = graph::random_connected(1024, 3072, 99);
  Table by_f({"f", "practical k", "practical bits", "stored / L*k",
              "provable k", "provable bits (L*k formula)"});
  std::vector<double> fs, practical_bits, provable_bits;
  for (const unsigned f : {1u, 2u, 4u, 8u, 16u}) {
    core::FtcConfig cfg;
    cfg.f = f;
    cfg.k_scale = 2.0;
    const auto scheme = core::FtcScheme::build(g, cfg);
    // The Lemma 5 k gives the provable size without building its labels.
    const unsigned prov_k = geometry::provable_hierarchy_k(
        f, geometry::provable_group_len(3072));
    const std::size_t prov_bits =
        static_cast<std::size_t>(scheme.params().num_levels) * prov_k *
            scheme.params().field_bits +
        4 * scheme.params().coord_bits();
    by_f.add_row({std::to_string(f), std::to_string(scheme.params().k),
                  fmt_bits(scheme.edge_label_bits()), stored_fraction(scheme),
                  std::to_string(prov_k), fmt_bits(prov_bits)});
    fs.push_back(f);
    practical_bits.push_back(static_cast<double>(scheme.edge_label_bits()));
    provable_bits.push_back(static_cast<double>(prov_bits));
  }
  by_f.print();
  std::printf("log-log slope in f: practical %.2f (expected ~1),"
              " provable %.2f (expected ->2 for large f)\n",
              loglog_slope(fs, practical_bits),
              loglog_slope(fs, provable_bits));

  std::printf("\n== edge label bits vs n (m=3n, f=4) ==\n");
  Table by_n({"n", "levels", "k", "edge label bits", "stored / L*k",
              "vertex label bits"});
  std::vector<double> ns, bits;
  for (const unsigned n : {256u, 1024u, 4096u, 16384u}) {
    core::FtcConfig cfg;
    cfg.f = 4;
    cfg.k_scale = 2.0;
    const auto scheme =
        core::FtcScheme::build(graph::random_connected(n, 3 * n, 7 * n), cfg);
    by_n.add_row({std::to_string(n),
                  std::to_string(scheme.params().num_levels),
                  std::to_string(scheme.params().k),
                  fmt_bits(scheme.edge_label_bits()), stored_fraction(scheme),
                  std::to_string(scheme.vertex_label_bits())});
    ns.push_back(n);
    bits.push_back(static_cast<double>(scheme.edge_label_bits()));
  }
  by_n.print();
  std::printf("log-log slope in n: %.2f (polylog: slope -> 0 as n grows;"
              " bits/log^3(n') should be ~flat)\n",
              loglog_slope(ns, bits));
}

// ------------------------------------------------------------ k_tradeoff
// The practical k = ceil(k_scale (f+1) log2 n') with a fail-stop decoder,
// swept downward through k_override: correct answers, capacity errors
// (fail-stop) and wrong answers. Faults are BFS balls with s on a failed
// edge, as in ftcbench's `outage`: uniform faults rarely give a fragment
// a boundary wider than the smallest k, so they never show the fail-stop
// side of the tradeoff.

void k_tradeoff() {
  for (const unsigned f : {4u, 8u}) {
    const auto g = graph::random_connected(1024, 4096, 2024);
    const auto cases = make_query_cases(g, f, 150, 31337, /*ball=*/true);
    std::printf(
        "\n== k tradeoff: n=1024 m=4096 f=%u, BFS-ball faults (150 queries "
        "each) ==\n",
        f);
    Table table({"k", "edge label", "correct", "fail-stop", "wrong"});
    for (const unsigned k : {4u, 6u, 8u, 12u, 24u, 48u}) {
      core::SchemeConfig cfg = core_config(f, 4.0);
      cfg.ftc.k_override = k;
      const auto scheme = core::make_scheme(g, cfg);
      const Answers a = answer_cases(*scheme, cases,
                                     "k_tradeoff k=" + std::to_string(k));
      table.add_row({std::to_string(k), fmt_bits(scheme->edge_label_bits()),
                     std::to_string(a.correct), std::to_string(a.refused),
                     std::to_string(a.wrong)});
    }
    table.print();
    core::FtcConfig defaults;
    defaults.f = f;
    std::printf("(practical default for this size is k=%u)\n",
                core::FtcScheme::build(g, defaults).build_stats().k);
  }
}

// ------------------------------------------------------------ query_scaling
// The deterministic scheme decodes in O~(|F|^4), the randomized variant
// in O~(|F|^2); adaptive decoding makes the cost depend on |F| (actual
// faults), not f (capacity). Expected shape: polynomial growth in |F|,
// deterministic steeper than randomized, adaptive ahead at small |F|.

void query_scaling() {
  const unsigned n = 2048;
  const unsigned fmax = 16;
  const auto g = graph::random_connected(n, 3 * n, 5);
  core::SchemeConfig det = core_config(fmax, 1.0);
  core::SchemeConfig rnd = det;
  rnd.ftc.kind = core::SchemeKind::kRandomized;
  const auto det_scheme = core::make_scheme(g, det);
  const auto rnd_scheme = core::make_scheme(g, rnd);

  std::printf("\n== query time vs |F| (n=%u, m=%u, schemes built for f=%u) ==\n",
              n, 3 * n, fmax);
  Table table({"|F|", "det adaptive", "det fixed-k", "rand adaptive"});
  core::QueryOptions fixed;
  fixed.adaptive = false;
  std::vector<double> xs, det_t, rnd_t;
  for (const unsigned nf : {1u, 2u, 4u, 8u, 16u}) {
    const auto cases = make_query_cases(g, nf, 40, 777 + nf);
    const std::string where = "query_scaling |F|=" + std::to_string(nf);
    const Answers da = answer_cases(*det_scheme, cases, where + " det");
    const Answers df =
        answer_cases(*det_scheme, cases, where + " det fixed-k", fixed);
    const Answers ra = answer_cases(*rnd_scheme, cases, where + " rand");
    table.add_row({std::to_string(nf), fmt_series(da.us, "us"),
                   fmt_series(df.us, "us"), fmt_series(ra.us, "us")});
    xs.push_back(nf);
    det_t.push_back(da.us.at(0.5));
    rnd_t.push_back(ra.us.at(0.5));
  }
  table.print();
  std::printf(
      "log-log slope in |F| (medians): det %.2f, rand %.2f (theory: <=4 and "
      "<=2; both are upper bounds, real instances decode far below worst "
      "case)\n",
      loglog_slope(xs, det_t), loglog_slope(xs, rnd_t));
}

// ------------------------------------------------------------ query_ablation
// The two query optimizations of Section 6 / Lemma 6: smallest-cut-first
// merge order (Section 7.6) against source-first (Section 3.1), and
// adaptive prefix decoding against decoding at full capacity k. Workload:
// a path of cliques with every bridge faulted and a chord beside each,
// maximizing fragment count and size imbalance, where Lemma 6's
// reordering provably saves an |F| factor. Runs on FtcDecoder directly,
// which reports QueryStats.

void query_ablation() {
  const unsigned k = 6;
  for (const unsigned cliques : {8u, 24u, 48u}) {
    graph::Graph g = graph::path_of_cliques(cliques, k);
    std::vector<EdgeId> bridges;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (g.edge(e).u / k != g.edge(e).v / k) bridges.push_back(e);
    }
    for (unsigned c = 0; c + 1 < cliques; ++c) {
      g.add_edge(c * k + 1, (c + 1) * k + 1);  // chord beside bridge c
    }
    core::FtcConfig cfg;
    cfg.f = static_cast<unsigned>(bridges.size());
    cfg.k_scale = 1.0;
    const auto scheme = core::FtcScheme::build(g, cfg);
    std::vector<core::EdgeLabel> fault_labels;
    for (const EdgeId e : bridges) fault_labels.push_back(scheme.edge_label(e));
    const VertexId t_id = (cliques - 1) * k;
    const auto s = scheme.vertex_label(0);
    const auto t = scheme.vertex_label(t_id);
    const bool truth = graph::connected_avoiding(g, 0, t_id, bridges);

    std::printf("\n== query ablation: %u cliques of %u, |F|=%zu ==\n",
                cliques, k, fault_labels.size());
    Table table({"strategy", "query time", "outdetect calls", "merges"});
    for (const bool smallest : {true, false}) {
      for (const bool adaptive : {true, false}) {
        core::QueryOptions opt;
        opt.smallest_cut_first = smallest;
        opt.adaptive = adaptive;
        const std::string name =
            std::string(smallest ? "smallest-cut" : "source-first") +
            (adaptive ? " + adaptive" : " + fixed-k");
        core::QueryStats stats;
        Series us;
        rounds(20, [&](std::size_t, bool keep) {
          stats = core::QueryStats{};
          Timer timer;
          const bool got =
              core::FtcDecoder::connected(s, t, fault_labels, opt, &stats);
          us.add(timer, keep);
          if (keep) check(got, truth, "query_ablation " + name, "query");
        });
        table.add_row({name, fmt_series(us, "us"),
                       std::to_string(stats.outdetect_calls),
                       std::to_string(stats.merges)});
      }
    }
    table.print();
  }
}

// ------------------------------------------------------------ construction
// Theorem 1: O~(m f^2) for the near-linear deterministic scheme. Build
// time vs m (fixed f; expected near-linear, log-log slope ~1) and vs f
// (fixed m; expected <= quadratic), with the hierarchy and sketch phases
// broken out. Each build also reports its minor page faults (the
// getrusage ru_minflt delta around it); most are the label pages.

struct CoreBuild {
  core::FtcScheme scheme;
  Series ms;         // whole build
  Series hierarchy;  // BuildStats phases
  Series sketches;
  long minor_faults = 0;  // median over the measured builds
};

long minor_faults() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

CoreBuild build_core(const Graph& g, const core::FtcConfig& cfg) {
  Series ms, hierarchy, sketches;
  std::vector<long> faults;
  std::optional<core::FtcScheme> scheme;
  rounds(kBuildRounds, [&](std::size_t, bool keep) {
    scheme.reset();
    const long faults0 = minor_faults();
    Timer t;
    scheme.emplace(core::FtcScheme::build(g, cfg));
    ms.add(t, keep);
    if (!keep) return;
    faults.push_back(minor_faults() - faults0);
    hierarchy.us.push_back(scheme->build_stats().hierarchy_seconds * 1e6);
    sketches.us.push_back(scheme->build_stats().sketch_seconds * 1e6);
  });
  std::nth_element(faults.begin(), faults.begin() + faults.size() / 2,
                   faults.end());
  return {std::move(*scheme), ms, hierarchy, sketches,
          faults[faults.size() / 2]};
}

void construction() {
  std::printf("\n== construction time vs m (n = m/3, f = 4) ==\n");
  Table by_m({"m", "total", "hierarchy", "sketches", "levels", "k",
              "minor faults"});
  std::vector<double> ms, ts;
  for (const unsigned m : {1500u, 3000u, 6000u, 12000u, 24000u}) {
    core::FtcConfig cfg;
    cfg.f = 4;
    cfg.k_scale = 1.0;
    const CoreBuild b = build_core(graph::random_connected(m / 3, m, m), cfg);
    by_m.add_row({std::to_string(m), fmt_series(b.ms, "ms"),
                  fmt(b.hierarchy.at(0.5) * 1e-3, "%.1f ms"),
                  fmt(b.sketches.at(0.5) * 1e-3, "%.1f ms"),
                  std::to_string(b.scheme.build_stats().num_levels),
                  std::to_string(b.scheme.build_stats().k),
                  std::to_string(b.minor_faults)});
    ms.push_back(m);
    ts.push_back(b.ms.at(0.5));
  }
  by_m.print();
  std::printf("log-log slope in m (medians): %.2f (near-linear expected, ~1)\n",
              loglog_slope(ms, ts));

  std::printf("\n== construction time vs f (n=2048, m=6144) ==\n");
  const auto g = graph::random_connected(2048, 6144, 11);
  Table by_f({"f", "total", "k", "edge label", "minor faults"});
  std::vector<double> fs;
  ts.clear();
  for (const unsigned f : {1u, 2u, 4u, 8u, 16u}) {
    core::FtcConfig cfg;
    cfg.f = f;
    cfg.k_scale = 1.0;
    const CoreBuild b = build_core(g, cfg);
    by_f.add_row({std::to_string(f), fmt_series(b.ms, "ms"),
                  std::to_string(b.scheme.params().k),
                  fmt_bits(b.scheme.edge_label_bits()),
                  std::to_string(b.minor_faults)});
    fs.push_back(f);
    ts.push_back(b.ms.at(0.5));
  }
  by_f.print();
  std::printf("log-log slope in f (medians): %.2f (k ~ f in practical mode,"
              " so ~1; provable mode would add another factor f)\n",
              loglog_slope(fs, ts));
}

// ------------------------------------------------------------ hierarchy
// (S_{f,T}, k)-good hierarchies (Definition 1, Lemma 5, Proposition 5):
// depth, size and the empirical "needed k" — over sampled S in S_{f,T},
// the boundary size at the top nonempty level, which is exactly what the
// sketch threshold k must cover. Expected shape: depth O(log m), needed
// k far below the provable bounds (checked for NetFind, whose Lemma 5
// bound is deterministic), NetFind no worse than random halving.

struct Needed {
  std::size_t max_needed = 0;
  double avg_needed = 0;
};

// Samples random S in S_{f,T} (unions of fragments of T minus f random
// tree edges) and measures the boundary at the top nonempty level.
Needed sample_needed_k(const Graph& g, const graph::SpanningTree& t,
                       const geometry::EdgeHierarchy& h, unsigned f,
                       int samples, std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<EdgeId> tree_edges;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (t.is_tree_edge[e]) tree_edges.push_back(e);
  }
  Needed out;
  std::size_t total = 0;
  int counted = 0;
  for (int it = 0; it < samples; ++it) {
    Graph tree_only(g.num_vertices());
    std::vector<EdgeId> fault_ids;
    std::vector<EdgeId> remap(g.num_edges(), graph::kNoEdge);
    for (const EdgeId e : tree_edges) {
      remap[e] = tree_only.add_edge(g.edge(e).u, g.edge(e).v);
    }
    for (unsigned i = 0; i < f; ++i) {
      fault_ids.push_back(
          remap[tree_edges[rng.next_below(tree_edges.size())]]);
    }
    const auto comp = graph::components_avoiding(tree_only, fault_ids);
    const int num_frag = 1 + *std::max_element(comp.begin(), comp.end());
    std::vector<char> frag_in(num_frag);
    for (auto& b : frag_in) b = rng.next_bool();
    std::vector<char> in_set(g.num_vertices());
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      in_set[v] = frag_in[comp[v]];
    }
    std::size_t needed = 0;
    for (std::size_t lev = h.levels.size(); lev-- > 0;) {
      const auto bd = graph::boundary_edges(g, in_set, h.levels[lev]);
      if (!bd.empty()) {
        needed = bd.size();
        break;
      }
    }
    if (needed > 0) {
      out.max_needed = std::max(out.max_needed, needed);
      total += needed;
      ++counted;
    }
  }
  out.avg_needed = counted ? static_cast<double>(total) / counted : 0;
  return out;
}

void hierarchy() {
  for (const auto& [n, m, f] : {std::tuple{512u, 2048u, 2u},
                                std::tuple{2048u, 8192u, 4u},
                                std::tuple{8192u, 24576u, 8u}}) {
    const auto g = graph::random_connected(n, m, 1234);
    const auto t = graph::bfs_spanning_tree(g, 0);
    const auto pts =
        geometry::map_nontree_edges(g, t, graph::euler_tour(t));
    std::printf(
        "\n== hierarchy quality: n=%u m=%u f=%u (%zu non-tree edges) ==\n", n,
        m, f, pts.size());
    Table table({"hierarchy", "depth", "total edges", "needed k (max)",
                 "needed k (avg)", "provable k"});
    for (const auto kind : {geometry::HierarchyKind::kDeterministicNetFind,
                            geometry::HierarchyKind::kRandomSampling}) {
      geometry::HierarchyConfig cfg;
      cfg.kind = kind;
      const auto h = geometry::build_hierarchy(pts, cfg);
      const auto needed = sample_needed_k(g, t, h, f, 300, 5);
      const bool det = kind == geometry::HierarchyKind::kDeterministicNetFind;
      const unsigned provable =
          det ? geometry::provable_hierarchy_k(
                    f, geometry::provable_group_len(pts.size()))
              : geometry::randomized_hierarchy_k(f, n);
      if (det) {
        expect(needed.max_needed <= provable,
               "hierarchy n=" + std::to_string(n) +
                   ": NetFind needed k above its Lemma 5 bound");
      }
      table.add_row({det ? "NetFind (det)" : "random halving",
                     std::to_string(h.depth()),
                     std::to_string(h.total_edges()),
                     std::to_string(needed.max_needed),
                     fmt(needed.avg_needed, "%.1f"),
                     std::to_string(provable)});
    }
    table.print();
  }
}

// ------------------------------------------------------------ netfind
// The NetFind epsilon-net (Lemmas 11/12): size at most
// |P| log2 |P| / (2 log2 N) (= |P|/2 at the provable group length),
// construction time O~(N), and the net property — every heavy
// axis-aligned rectangle is hit (sampled at scale, exhaustive on the
// small instance, where greedy (the Lemma 10 slot) and random sampling
// are compared).

std::vector<geometry::Point2> random_points(SplitMix64& rng, std::size_t n,
                                            std::uint32_t range) {
  std::vector<geometry::Point2> pts;
  std::set<std::pair<std::uint32_t, std::uint32_t>> used;
  while (pts.size() < n) {
    const auto x = static_cast<std::uint32_t>(rng.next_below(range));
    const auto y = static_cast<std::uint32_t>(rng.next_below(range));
    if (!used.insert({x, y}).second) continue;
    pts.push_back({x, y, static_cast<EdgeId>(pts.size())});
  }
  return pts;
}

void netfind() {
  std::printf("\n== NetFind: size and time vs N (provable group length) ==\n");
  SplitMix64 rng(3);
  Table table({"N", "group len", "net size", "Lemma 12 bound", "time",
               "heavy rects hit"});
  std::vector<double> ns, ts;
  for (const std::size_t n : {2000u, 8000u, 32000u, 128000u}) {
    const auto pts = random_points(rng, n, 1u << 20);
    const unsigned gl = geometry::provable_group_len(n);
    Series build;
    const auto net =
        timed_builds(build, [&] { return geometry::netfind(pts, gl); });
    // Lemma 12 size bound: 2 |P| ceil(log2 |P|) / group_len.
    const double bound =
        2.0 * static_cast<double>(n) * std::ceil(std::log2(double(n))) / gl;
    // Sampled heavy rectangles must all contain a net point.
    const unsigned thr = geometry::netfind_threshold(gl);
    int heavy = 0, hit = 0;
    SplitMix64 rrng(17);
    while (heavy < 40) {
      auto x1 = static_cast<std::uint32_t>(rrng.next_below(1u << 20));
      auto x2 = static_cast<std::uint32_t>(rrng.next_below(1u << 20));
      auto y1 = static_cast<std::uint32_t>(rrng.next_below(1u << 20));
      auto y2 = static_cast<std::uint32_t>(rrng.next_below(1u << 20));
      if (x1 > x2) std::swap(x1, x2);
      if (y1 > y2) std::swap(y1, y2);
      if (geometry::points_in_rect(pts, x1, x2, y1, y2) < thr) continue;
      ++heavy;
      const bool is_hit = geometry::points_in_rect(net, x1, x2, y1, y2) > 0;
      expect(is_hit, "netfind N=" + std::to_string(n) +
                         ": a heavy rectangle holds no net point");
      hit += is_hit;
    }
    table.add_row({std::to_string(n), std::to_string(gl),
                   std::to_string(net.size()), fmt(bound, "%.0f"),
                   fmt_series(build, "ms"),
                   std::to_string(hit) + "/" + std::to_string(heavy)});
    ns.push_back(static_cast<double>(n));
    ts.push_back(build.at(0.5));
  }
  table.print();
  std::printf("log-log time slope (medians): %.2f (O~(N) expected, ~1)\n",
              loglog_slope(ns, ts));

  std::printf("\n== small-instance comparison: NetFind vs greedy vs random "
              "(N=100, threshold=15) ==\n");
  SplitMix64 small_rng(5);
  const auto pts = random_points(small_rng, 100, 4096);
  const unsigned thr = 15;  // = 3 * group_len for group_len 5
  Table small({"method", "net size", "all heavy rects hit"});
  const auto add = [&](const char* method,
                       const std::vector<geometry::Point2>& net,
                       bool guaranteed) {
    const bool all = geometry::net_hits_all_heavy_rects(pts, net, thr);
    if (guaranteed) {
      expect(all, std::string("netfind: ") + method + " missed a heavy rect");
    }
    small.add_row({method, std::to_string(net.size()),
                   all ? "yes" : guaranteed ? "NO" : "NO (allowed: whp only)"});
  };
  add("NetFind (Lemma 12)", geometry::netfind(pts, thr / 3), true);
  add("greedy (Lemma 10 slot)", geometry::greedy_rect_net(pts, thr), true);
  std::vector<geometry::Point2> half;
  for (const auto& p : pts) {
    if (small_rng.next_bool()) half.push_back(p);
  }
  add("random half (Prop. 5)", half, false);
  small.print();
}

// ------------------------------------------------------------ congest
// Distributed construction in the CONGEST model (Section 8 / Theorem 3).
// Measured: real message-passing rounds for BFS + ancestry + pipelined
// sketch aggregation (the O~(D + k) part); modeled per Lemma 13: the
// NetFind hierarchy rounds O~(sqrt(m) D). Expected shape: measured
// rounds ~ depth + k (pipelining); the model grows with sqrt(m) and D.

void congest() {
  std::printf("\n== measured rounds: BFS + ancestry + k-slot pipeline ==\n");
  Table table({"graph", "n", "m", "depth", "k", "rounds", "depth+k",
               "messages", "max msg bits"});
  struct Case {
    const char* name;
    Graph g;
    unsigned k;
  };
  const std::vector<Case> cases = {
      {"grid 16x16", graph::grid(16, 16), 8},
      {"grid 16x16", graph::grid(16, 16), 64},
      {"random sparse", graph::random_connected(512, 1536, 3), 8},
      {"random sparse", graph::random_connected(512, 1536, 3), 64},
      {"random dense", graph::random_connected(256, 4096, 4), 64},
  };
  for (const Case& c : cases) {
    const auto t = graph::bfs_spanning_tree(c.g, 0);
    const unsigned depth = *std::max_element(t.depth.begin(), t.depth.end());
    const auto r = congest::run_distributed_labeling(c.g, 0, c.k);
    table.add_row({c.name, std::to_string(c.g.num_vertices()),
                   std::to_string(c.g.num_edges()), std::to_string(depth),
                   std::to_string(c.k), std::to_string(r.stats.rounds),
                   std::to_string(depth + c.k),
                   std::to_string(r.stats.messages),
                   std::to_string(r.stats.max_message_bits)});
  }
  table.print();
  std::printf("(rounds track depth + k up to small constants: Theorem 3's "
              "O~(D + f^2) aggregation term)\n");

  std::printf("\n== Lemma 13 model: NetFind hierarchy rounds O~(sqrt(m') D) ==\n");
  Table model({"m'", "D", "modeled rounds"});
  std::vector<double> ms, modeled;
  for (const std::uint64_t m : {1000u, 4000u, 16000u}) {
    for (const std::uint64_t d : {8u, 32u}) {
      model.add_row({std::to_string(m), std::to_string(d),
                     std::to_string(congest::netfind_round_model(m, d))});
    }
    ms.push_back(static_cast<double>(m));
    modeled.push_back(
        static_cast<double>(congest::netfind_round_model(m, 16)));
  }
  model.print();
  std::printf("log-log slope in m': %.2f (sqrt scaling expected, ~0.5)\n",
              loglog_slope(ms, modeled));
}

// ------------------------------------------------------------ distance
// The fault-tolerant approximate distance labels (Corollary 1): label
// size tracks n^(1/k) (higher k, smaller labels, larger stretch) and so
// does cover overlap; stretch grows ~linearly in |F| under the O(|F| k)
// cap. Every estimate is checked against the exact distance in G - F:
// it must be infinite exactly when s and t are disconnected, and never
// below the exact distance.

using distance::DistEdgeLabel;
using distance::FtDistanceConfig;
using distance::FtDistanceScheme;
using distance::kInfinity;
using distance::Weight;
using distance::WeightedGraph;

WeightedGraph random_weighted(VertexId n, EdgeId m, Weight max_w,
                              std::uint64_t seed) {
  const Graph g = graph::random_connected(n, m, seed);
  SplitMix64 rng(seed * 7 + 1);
  WeightedGraph wg(n);
  for (EdgeId e = 0; e < m; ++e) {
    wg.add_edge(g.edge(e).u, g.edge(e).v, 1 + rng.next_below(max_w));
  }
  return wg;
}

// One distance or routing query: uniform faults with their labels,
// uniform s and t, and the exact distance in G - F.
struct DistCase {
  std::vector<EdgeId> faults;
  std::vector<DistEdgeLabel> labels;
  VertexId s = 0;
  VertexId t = 0;
  Weight exact = 0;
};

DistCase draw_dist_case(const WeightedGraph& g, const FtDistanceScheme& scheme,
                        unsigned num_faults, SplitMix64& rng) {
  DistCase c;
  for (unsigned i = 0; i < num_faults; ++i) {
    const auto e = static_cast<EdgeId>(rng.next_below(g.num_edges()));
    c.faults.push_back(e);
    c.labels.push_back(scheme.edge_label(e));
  }
  c.s = static_cast<VertexId>(rng.next_below(g.num_vertices()));
  c.t = static_cast<VertexId>(rng.next_below(g.num_vertices()));
  c.exact = distance::exact_distance(g, c.s, c.t, c.faults);
  return c;
}

// The label decoder's estimate for `c`, checked against c.exact.
Weight checked_estimate(const FtDistanceScheme& scheme, const DistCase& c,
                        const std::string& where) {
  const Weight est = FtDistanceScheme::approx_distance(
      scheme.vertex_label(c.s), scheme.vertex_label(c.t), c.labels);
  check(est != kInfinity, c.exact != kInfinity, where, "disconnection");
  if (c.exact != kInfinity) {
    expect(est >= c.exact, where + ": estimate below the exact distance");
  }
  return est;
}

// Stretch accumulator over the connected, s != t cases.
struct Stretch {
  double sum = 0;
  double max = 0;
  int counted = 0;

  void add(double stretch) {
    sum += stretch;
    max = std::max(max, stretch);
    ++counted;
  }
  double mean() const { return sum / std::max(counted, 1); }
};

void distance_table() {
  std::printf("\n== distance labels vs cover parameter k (n=96, m=288) ==\n");
  const WeightedGraph g = random_weighted(96, 288, 6, 5);
  Table by_k({"k", "scales", "avg vertex label", "avg overlap (scale 1)",
              "avg stretch (|F|=2)", "max stretch"});
  SplitMix64 rng(77);
  for (const unsigned k : {1u, 2u, 3u}) {
    FtDistanceConfig cfg;
    cfg.f = 2;
    cfg.k = k;
    const auto scheme = FtDistanceScheme::build(g, cfg);
    double vbits = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      vbits += static_cast<double>(scheme.vertex_label(v).size_bits());
    }
    vbits /= g.num_vertices();
    Stretch st;
    for (int it = 0; it < 80; ++it) {
      const DistCase c = draw_dist_case(g, scheme, 2, rng);
      const Weight est =
          checked_estimate(scheme, c, "distance k=" + std::to_string(k));
      if (c.exact == kInfinity || c.exact == 0) continue;
      st.add(static_cast<double>(est) / static_cast<double>(c.exact));
    }
    by_k.add_row({std::to_string(k), std::to_string(scheme.num_scales()),
                  fmt_bits(static_cast<std::size_t>(vbits)),
                  fmt(scheme.average_cover_membership(
                          std::min(1u, scheme.num_scales() - 1)),
                      "%.2f"),
                  fmt(st.mean(), "%.1f"), fmt(st.max, "%.1f")});
  }
  by_k.print();

  std::printf(
      "\n== stretch vs |F| (n=96, m=288, k=2; cap = (2|F|+1)*2(k+1)*2) ==\n");
  const WeightedGraph h = random_weighted(96, 288, 6, 9);
  FtDistanceConfig cfg;
  cfg.f = 6;
  cfg.k = 2;
  const auto scheme = FtDistanceScheme::build(h, cfg);
  Table by_f({"|F|", "avg stretch", "max stretch", "analytical cap",
              "disconnected pairs", "disconnects exact"});
  // Uniform faults almost never cut a pair off, so a row whose |F|
  // reaches the minimum degree also isolates each vertex s of degree <=
  // |F| (F = every edge of s, t = the vertex n/2 further on): those rows
  // must check disconnected pairs.
  const graph::Graph& topo = h.topology();
  std::size_t min_degree = topo.degree(0);
  for (VertexId v = 1; v < topo.num_vertices(); ++v) {
    min_degree = std::min(min_degree, topo.degree(v));
  }
  expect(min_degree <= cfg.f,
         "distance: no |F| row reaches the minimum degree");
  SplitMix64 frng(88);
  for (const unsigned nf : {0u, 1u, 2u, 4u, 6u}) {
    const std::string where = "distance |F|=" + std::to_string(nf);
    std::vector<DistCase> cases;
    for (int it = 0; it < 60; ++it) {
      cases.push_back(draw_dist_case(h, scheme, nf, frng));
    }
    if (nf >= min_degree) {
      for (VertexId s = 0; s < topo.num_vertices(); ++s) {
        if (topo.degree(s) > nf) continue;
        DistCase c;
        c.s = s;
        c.t = (s + topo.num_vertices() / 2) % topo.num_vertices();
        for (const EdgeId e : topo.incident_edges(s)) {
          c.faults.push_back(e);
          c.labels.push_back(scheme.edge_label(e));
        }
        c.exact = distance::exact_distance(h, c.s, c.t, c.faults);
        cases.push_back(std::move(c));
      }
    }
    Stretch st;
    bool disc_ok = true;
    std::size_t disconnected = 0;
    for (const DistCase& c : cases) {
      const Weight est = checked_estimate(scheme, c, where);
      disc_ok = disc_ok && (est == kInfinity) == (c.exact == kInfinity);
      disconnected += c.exact == kInfinity;
      if (c.exact == kInfinity || c.exact == 0) continue;
      st.add(static_cast<double>(est) / static_cast<double>(c.exact));
    }
    if (nf >= min_degree) {
      expect(disconnected > 0, where + ": no disconnected pair checked");
    }
    const double cap = (2.0 * nf + 1) * 2 * (cfg.k + 1) * 2;
    by_f.add_row({std::to_string(nf), fmt(st.mean(), "%.1f"),
                  fmt(st.max, "%.1f"), fmt(cap, "%.0f"),
                  std::to_string(disconnected), disc_ok ? "yes" : "NO"});
  }
  by_f.print();
}

// ------------------------------------------------------------ routing
// Forbidden-set compact routing (Corollary 2): delivery rate, path
// stretch and per-router table sizes as |F| grows. Expected shape: high
// delivery, stretch well under the Corollary 2 bound, table bits
// dominated by the neighbour distance labels. A delivered path is
// checked against the exact distance (it can never be shorter).

void routing() {
  const VertexId n = 72;
  const Graph base = graph::random_connected(n, 3 * n, 4242);
  SplitMix64 wrng(1);
  WeightedGraph g(n);
  for (EdgeId e = 0; e < base.num_edges(); ++e) {
    g.add_edge(base.edge(e).u, base.edge(e).v, 1 + wrng.next_below(4));
  }
  FtDistanceConfig cfg;
  cfg.f = 4;
  cfg.k = 2;
  Series build;
  const auto [scheme, router] = timed_builds(build, [&] {
    FtDistanceScheme built = FtDistanceScheme::build(g, cfg);
    distance::FtRouter tables(g, built);
    return std::pair{std::move(built), std::move(tables)};
  });
  std::printf("\nbuilt distance labels + tables in %s\n",
              fmt_series(build, "ms").c_str());

  std::size_t total_table = 0, max_table = 0;
  for (VertexId v = 0; v < n; ++v) {
    total_table += router.table_bits(v);
    max_table = std::max(max_table, router.table_bits(v));
  }
  std::printf("routing tables: total %s, max per-router %s\n",
              fmt_bits(total_table).c_str(), fmt_bits(max_table).c_str());

  Table table({"|F|", "delivered", "unreachable", "stuck", "avg stretch",
               "max stretch"});
  SplitMix64 rng(7);
  for (const unsigned nf : {0u, 1u, 2u, 4u}) {
    int delivered = 0, unreachable = 0, stuck = 0;
    Stretch st;
    for (int it = 0; it < 80; ++it) {
      const DistCase c = draw_dist_case(g, scheme, nf, rng);
      if (c.s == c.t) continue;
      if (c.exact == kInfinity) {
        ++unreachable;
        continue;
      }
      const auto res = router.route(c.s, c.t, c.faults, c.labels);
      if (!res.delivered) {
        ++stuck;
        continue;
      }
      ++delivered;
      expect(res.path_weight >= c.exact,
             "routing |F|=" + std::to_string(nf) +
                 ": delivered path shorter than the exact distance");
      st.add(static_cast<double>(res.path_weight) /
             static_cast<double>(c.exact));
    }
    table.add_row({std::to_string(nf), std::to_string(delivered),
                   std::to_string(unreachable), std::to_string(stuck),
                   fmt(st.mean(), "%.2f"), fmt(st.max, "%.2f")});
  }
  table.print();
}

// ------------------------------------------------------------ driver

struct TableEntry {
  const char* name;
  void (*run)();
};

constexpr TableEntry kTables[] = {
    {"table1", table1},
    {"label_scaling", label_scaling},
    {"k_tradeoff", k_tradeoff},
    {"query_scaling", query_scaling},
    {"query_ablation", query_ablation},
    {"construction", construction},
    {"hierarchy", hierarchy},
    {"netfind", netfind},
    {"congest", congest},
    {"distance", distance_table},
    {"routing", routing},
};

}  // namespace
}  // namespace ftc::bench

int main(int argc, char** argv) {
  using namespace ftc::bench;
  const std::string only = argc > 1 ? argv[1] : "";
  int ran = 0;
  for (const TableEntry& table : kTables) {
    if (!only.empty() && only != table.name) continue;
    std::printf("\n#### bench_tables %s\n", table.name);
    table.run();
    ++ran;
  }
  if (ran == 0) {
    std::fprintf(stderr, "bench_tables: unknown table '%s'; one of:",
                 only.c_str());
    for (const TableEntry& table : kTables) {
      std::fprintf(stderr, " %s", table.name);
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  std::printf("\nbench_tables: %d tables, %zu answers checked, %zu failed "
              "checks\n",
              ran, g_checked, g_failures);
  return g_failures != 0 ? 1 : 0;
}
