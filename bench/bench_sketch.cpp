// Experiment E6 (DESIGN.md): the deterministic k-threshold sketch
// (Proposition 2). google-benchmark micro-measurements:
//  * field multiplication throughput (GF(2^64) vs GF(2^128));
//  * sketch toggle cost ~ k;
//  * decode cost versus actual support size d (adaptive decoding makes it
//    ~d^2 rather than k^2 — the Section 6 / Appendix B point);
//  * Berlekamp-Massey vs root-finding split, with root finding timed on
//    random roots and on EdgeCode IDs of a real auxiliary graph;
//  * the decoder's fail-stop verify walk (power_sums_match) at the
//    closure width w* ~ 230 of an ftcbench-sized level;
//  * one FTC_FAILPOINT() check at a site that is not armed.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <optional>
#include <set>
#include <utility>

#include "core/edge_code.hpp"
#include "gf/berlekamp_massey.hpp"
#include "gf/gf2_poly.hpp"
#include "gf/trace_roots.hpp"
#include "graph/ancestry.hpp"
#include "graph/aux_graph.hpp"
#include "graph/euler_tour.hpp"
#include "graph/generators.hpp"
#include "graph/spanning_tree.hpp"
#include "sketch/rs_sketch.hpp"
#include "util/common.hpp"
#include "util/failpoint.hpp"

namespace {

using ftc::SplitMix64;
using ftc::gf::GF2_128;
using ftc::gf::GF2_64;

template <typename F>
std::vector<F> random_distinct(SplitMix64& rng, unsigned count) {
  std::set<F> s;
  while (s.size() < count) {
    F v;
    if constexpr (F::kWords == 2) {
      v = F(rng.next(), rng.next());
    } else {
      v = F(rng.next());
    }
    if (!v.is_zero()) s.insert(v);
  }
  return {s.begin(), s.end()};
}

template <typename F>
void BM_FieldMul(benchmark::State& state) {
  SplitMix64 rng(1);
  F a, b;
  if constexpr (F::kWords == 2) {
    a = F(rng.next(), rng.next());
    b = F(rng.next(), rng.next());
  } else {
    a = F(rng.next());
    b = F(rng.next());
  }
  for (auto _ : state) {
    a = a * b;
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK_TEMPLATE(BM_FieldMul, GF2_64);
BENCHMARK_TEMPLATE(BM_FieldMul, GF2_128);

void BM_SketchToggle(benchmark::State& state) {
  const unsigned k = static_cast<unsigned>(state.range(0));
  ftc::sketch::RsSketch<GF2_64> sk(k);
  SplitMix64 rng(2);
  const GF2_64 x(rng.next());
  for (auto _ : state) {
    sk.toggle(x);
    benchmark::DoNotOptimize(sk);
  }
  state.SetComplexityN(k);
}
BENCHMARK(BM_SketchToggle)->RangeMultiplier(2)->Range(8, 256)->Complexity();

// Decode cost as a function of the true support size d with adaptive
// (prefix-doubling) decoding; capacity k fixed at 256.
void BM_SketchDecodeAdaptive(benchmark::State& state) {
  const unsigned d = static_cast<unsigned>(state.range(0));
  const unsigned k = 256;
  SplitMix64 rng(3);
  const auto xs = random_distinct<GF2_64>(rng, d);
  ftc::sketch::RsSketch<GF2_64> sk(k);
  for (const auto& x : xs) sk.toggle(x);
  for (auto _ : state) {
    auto r = sk.decode_adaptive();
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(d);
}
BENCHMARK(BM_SketchDecodeAdaptive)
    ->RangeMultiplier(2)
    ->Range(1, 64)
    ->Complexity();

// Non-adaptive decode at full capacity: the k^2 baseline being avoided.
void BM_SketchDecodeFullK(benchmark::State& state) {
  const unsigned k = static_cast<unsigned>(state.range(0));
  SplitMix64 rng(4);
  const auto xs = random_distinct<GF2_64>(rng, std::max(1u, k / 4));
  ftc::sketch::RsSketch<GF2_64> sk(k);
  for (const auto& x : xs) sk.toggle(x);
  for (auto _ : state) {
    auto r = sk.decode(k);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(k);
}
BENCHMARK(BM_SketchDecodeFullK)->RangeMultiplier(2)->Range(8, 128)->Complexity();

void BM_BerlekampMassey(benchmark::State& state) {
  const unsigned t = static_cast<unsigned>(state.range(0));
  SplitMix64 rng(5);
  const auto xs = random_distinct<GF2_64>(rng, t);
  std::vector<GF2_64> syn(2 * t, GF2_64::zero());
  for (const auto& x : xs) {
    GF2_64 p = GF2_64::one();
    for (unsigned i = 0; i < 2 * t; ++i) {
      p *= x;
      syn[i] += p;
    }
  }
  std::vector<GF2_64> sigma, prev;
  for (auto _ : state) {
    const int deg = ftc::gf::berlekamp_massey(std::span<const GF2_64>(syn),
                                              sigma, prev);
    benchmark::DoNotOptimize(deg);
    benchmark::DoNotOptimize(sigma.data());
  }
  state.SetComplexityN(t);
}
BENCHMARK(BM_BerlekampMassey)->RangeMultiplier(2)->Range(4, 64)->Complexity();

// find_roots on the monic polynomial with the given roots, with a warm
// scratch as the decoder keeps it.
void time_root_finding(benchmark::State& state, const std::vector<GF2_64>& xs) {
  const auto poly = ftc::gf::poly_from_roots<GF2_64>(xs);
  ftc::gf::RootScratch<GF2_64> ws;
  std::vector<GF2_64> roots;
  for (auto _ : state) {
    const bool ok = ftc::gf::find_roots<GF2_64>(poly.coeffs(), ws, roots);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(roots.data());
  }
  if (roots.size() != xs.size()) state.SkipWithError("roots not recovered");
  state.SetComplexityN(static_cast<std::int64_t>(xs.size()));
}

// Random roots: the first trace-basis element already splits them about
// in half, so these rows understate the cost on structured IDs.
void BM_TraceRootFinding(benchmark::State& state) {
  SplitMix64 rng(6);
  time_root_finding(
      state, random_distinct<GF2_64>(rng, static_cast<unsigned>(state.range(0))));
}
BENCHMARK(BM_TraceRootFinding)->RangeMultiplier(2)->Range(2, 32)->Complexity();

// The roots the decoder actually sees: EdgeCode IDs of d consecutive
// non-tree edges (by endpoint tin) of a real auxiliary graph, so they
// share endpoints and differ in a few low bits of each coordinate.
std::vector<GF2_64> edge_code_ids(unsigned d) {
  const auto g = ftc::graph::random_connected(2048, 8192, 1);
  const auto t = ftc::graph::bfs_spanning_tree(g, 0);
  const auto aux = ftc::graph::build_aux_graph(g, t);
  const auto et = ftc::graph::euler_tour(aux.t2);
  const ftc::graph::AncestryLabeling anc(aux.t2, et);
  std::vector<std::pair<std::uint32_t, GF2_64>> ids;
  for (ftc::graph::EdgeId e = 0; e < aux.g2.num_edges(); ++e) {
    if (aux.t2.is_tree_edge[e]) continue;
    const auto a = anc.label(aux.g2.edge(e).u);
    const auto b = anc.label(aux.g2.edge(e).v);
    ids.emplace_back(std::min(a.tin, b.tin),
                     ftc::core::EdgeCode<GF2_64>::encode(a, b));
  }
  std::sort(ids.begin(), ids.end());
  std::vector<GF2_64> out;
  for (std::size_t i = ids.size() / 2; out.size() < d; ++i) {
    out.push_back(ids[i].second);
  }
  return out;
}

void BM_TraceRootFindingEdgeCode(benchmark::State& state) {
  time_root_finding(state,
                    edge_code_ids(static_cast<unsigned>(state.range(0))));
}
BENCHMARK(BM_TraceRootFindingEdgeCode)->Arg(3)->Arg(8)->Arg(16)->Arg(64);

// The fail-stop verify walk of a support of d elements against w = 230
// syndromes, about the closure width w* of a level of k ~ 455 (ftcbench's
// outage workload): every syndrome compared, all of them matching.
// GF(2^128) always walks the scalar lane body.
template <typename F>
void BM_VerifyWalk(benchmark::State& state) {
  const unsigned d = static_cast<unsigned>(state.range(0));
  const unsigned w = 230;
  SplitMix64 rng(7);
  const auto xs = random_distinct<F>(rng, d);
  const auto syn = ftc::sketch::odd_power_sums<F>(xs, w);
  bool ok = true;
  for (auto _ : state) {
    ok &= ftc::sketch::power_sums_match<F>(xs, syn, w);
    benchmark::DoNotOptimize(ok);
  }
  if (!ok) state.SkipWithError("verify walk rejected a matching support");
}
BENCHMARK_TEMPLATE(BM_VerifyWalk, GF2_64)->Arg(1)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK_TEMPLATE(BM_VerifyWalk, GF2_128)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// What a syscall-boundary failpoint costs the store when it is not armed:
// with nothing armed (armed_miss:0) one relaxed load and an untaken
// branch; with an unrelated point armed (armed_miss:1), as during a
// drill, the registry lookup that misses.
void BM_FailpointCheck(benchmark::State& state) {
  std::optional<ftc::failpoint::Scoped> other;
  if (state.range(0) != 0) other.emplace("bench.unrelated.site", "count");
  int fired = 0;
  for (auto _ : state) {
    fired += FTC_FAILPOINT("bench.disabled.site");
    benchmark::DoNotOptimize(fired);
  }
  if (fired != 0) state.SkipWithError("a disarmed failpoint fired");
}
BENCHMARK(BM_FailpointCheck)->ArgName("armed_miss")->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
