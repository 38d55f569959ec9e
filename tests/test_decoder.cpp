// Tests for the syndrome-decoding pipeline: Berlekamp-Massey error-locator
// synthesis and deterministic root finding (Berlekamp trace algorithm).
// Together these realize the O(k^2) decoder of Proposition 2.
//
// find_roots is all or nothing: exactly deg distinct nonzero roots, or
// false. Besides random roots, the root sets below include the structured
// ones the decoder really sees — EdgeCode IDs of a real auxiliary graph —
// and GF(2)-subspaces, which a trace basis must split bit by bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>

#include "core/edge_code.hpp"
#include "gf/berlekamp_massey.hpp"
#include "gf/gf2.hpp"
#include "gf/gf2_poly.hpp"
#include "gf/trace_roots.hpp"
#include "graph/ancestry.hpp"
#include "graph/aux_graph.hpp"
#include "graph/euler_tour.hpp"
#include "graph/generators.hpp"
#include "graph/spanning_tree.hpp"
#include "util/common.hpp"

namespace ftc::gf {
namespace {

template <typename F>
std::vector<F> random_distinct_nonzero(SplitMix64& rng, unsigned count) {
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

// Power sums S_1..S_N of the set.
template <typename F>
std::vector<F> power_sums(const std::vector<F>& xs, unsigned n) {
  std::vector<F> s(n, F::zero());
  for (const F& x : xs) {
    F p = F::one();
    for (unsigned i = 0; i < n; ++i) {
      p *= x;
      s[i] += p;
    }
  }
  return s;
}

template <typename F>
F eval(std::span<const F> c, F x) {  // Horner
  F r = F::zero();
  for (std::size_t i = c.size(); i-- > 0;) r = r * x + c[i];
  return r;
}

// Runs find_roots on the monic polynomial p; false when it reports failure.
template <typename F>
bool roots_of(const Poly<F>& p, std::vector<F>* found) {
  RootScratch<F> ws;
  return find_roots<F>(p.coeffs(), ws, *found);
}

// Expects find_roots to return exactly the given roots, sorted.
template <typename F>
void expect_roots(std::vector<F> roots, RootScratch<F>& ws) {
  const Poly<F> p = poly_from_roots<F>(roots);
  std::vector<F> found;
  ASSERT_TRUE(find_roots<F>(p.coeffs(), ws, found))
      << "degree " << roots.size();
  std::sort(roots.begin(), roots.end());
  EXPECT_EQ(found, roots) << "degree " << roots.size();
}

template <typename F>
class DecoderTest : public ::testing::Test {};

using FieldTypes = ::testing::Types<GF2_16, GF2_32, GF2_64, GF2_128>;
TYPED_TEST_SUITE(DecoderTest, FieldTypes);

TYPED_TEST(DecoderTest, BerlekampMasseyRecoversLocator) {
  using F = TypeParam;
  SplitMix64 rng(21);
  std::vector<F> sigma, prev;
  for (unsigned t : {1u, 2u, 3u, 5u, 8u}) {
    for (int it = 0; it < 20; ++it) {
      const auto xs = random_distinct_nonzero<F>(rng, t);
      const auto s = power_sums(xs, 2 * t);
      const int deg = berlekamp_massey(std::span<const F>(s), sigma, prev);
      ASSERT_EQ(deg, static_cast<int>(t));
      EXPECT_EQ(sigma[0], F::one());
      // sigma(z) = prod (1 - x z) vanishes at every inverse locator.
      const std::span<const F> c(sigma.data(), t + 1);
      for (const F& x : xs) {
        EXPECT_TRUE(eval(c, inverse(x)).is_zero());
      }
    }
  }
}

TYPED_TEST(DecoderTest, BerlekampMasseyZeroSequence) {
  using F = TypeParam;
  const std::vector<F> s(10, F::zero());
  std::vector<F> sigma, prev;
  EXPECT_EQ(berlekamp_massey(std::span<const F>(s), sigma, prev), 0);
  EXPECT_EQ(sigma[0], F::one());
}

TYPED_TEST(DecoderTest, FindRootsSmallDegrees) {
  using F = TypeParam;
  SplitMix64 rng(22);
  RootScratch<F> ws;  // one scratch across degrees, as the decoder uses it
  for (unsigned deg = 1; deg <= 12; ++deg) {
    for (int it = 0; it < 10; ++it) {
      expect_roots(random_distinct_nonzero<F>(rng, deg), ws);
    }
  }
}

TEST(FindRootsLarge, Degree40OverGF64) {
  using F = GF2_64;
  SplitMix64 rng(23);
  RootScratch<F> ws;
  expect_roots(random_distinct_nonzero<F>(rng, 40), ws);
}

TEST(FindRootsLarge, Degree24OverGF128) {
  using F = GF2_128;
  SplitMix64 rng(24);
  RootScratch<F> ws;
  expect_roots(random_distinct_nonzero<F>(rng, 24), ws);
}

TYPED_TEST(DecoderTest, RepeatedRootsRejected) {
  using F = TypeParam;
  SplitMix64 rng(25);
  const auto xs = random_distinct_nonzero<F>(rng, 3);
  // (x+a)^2 (x+b)(x+c), (x+a)^2 and (x+a)^3 (x+b): each has a repeated root.
  for (const std::vector<F>& with_dup :
       {std::vector<F>{xs[0], xs[0], xs[1], xs[2]},
        std::vector<F>{xs[0], xs[0]},
        std::vector<F>{xs[0], xs[0], xs[0], xs[1]}}) {
    std::vector<F> found;
    EXPECT_FALSE(roots_of(poly_from_roots<F>(with_dup), &found))
        << "degree " << with_dup.size();
    EXPECT_TRUE(found.empty());
  }
}

TYPED_TEST(DecoderTest, IrreducibleQuadraticHasNoRoots) {
  using F = TypeParam;
  SplitMix64 rng(26);
  int tested = 0;
  while (tested < 20) {
    F c;
    if constexpr (F::kWords == 2) {
      c = F(rng.next(), rng.next());
    } else {
      c = F(rng.next());
    }
    // x^2 + x + c is irreducible iff Tr(c) = 1.
    if (trace(c) != F::one()) continue;
    ++tested;
    const Poly<F> q(std::vector<F>{c, F::one(), F::one()});
    std::vector<F> found;
    EXPECT_FALSE(roots_of(q, &found));
    // Missing roots are caught above degree 2 as well: one linear factor
    // times the irreducible quadratic, and two irreducible quadratics.
    const F r = random_distinct_nonzero<F>(rng, 1)[0];
    const Poly<F> x_r = Poly<F>::linear(F::one(), r);
    EXPECT_FALSE(roots_of(q * x_r, &found));
    // c + r^2 + r also has trace one, so this is a second irreducible.
    const Poly<F> q2(std::vector<F>{c + r.square() + r, F::one(), F::one()});
    EXPECT_FALSE(roots_of(q * q2 * x_r *
                              Poly<F>::linear(F::one(), r + F::one()),
                          &found));
  }
}

TYPED_TEST(DecoderTest, ZeroRootRejected) {
  using F = TypeParam;
  SplitMix64 rng(28);
  auto roots = random_distinct_nonzero<F>(rng, 4);
  roots.push_back(F::zero());
  std::vector<F> found;
  EXPECT_FALSE(roots_of(poly_from_roots<F>(roots), &found));
}

TYPED_TEST(DecoderTest, ConstantAndLinearPolys) {
  using F = TypeParam;
  std::vector<F> found;
  EXPECT_TRUE(roots_of(Poly<F>::constant(F::one()), &found));
  EXPECT_TRUE(found.empty());
  // The zero polynomial and non-monic inputs are caller errors.
  EXPECT_THROW(roots_of(Poly<F>::zero(), &found), std::invalid_argument);
  EXPECT_THROW(roots_of(Poly<F>::linear(F(2), F(1)), &found),
               std::invalid_argument);
  const F r(42);
  ASSERT_TRUE(roots_of(Poly<F>::linear(F::one(), r), &found));  // x + r
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0], r);
}

// End-to-end: syndromes -> BM -> reciprocal locator -> roots == support.
TYPED_TEST(DecoderTest, FullPipelineRecoversSupport) {
  using F = TypeParam;
  SplitMix64 rng(27);
  std::vector<F> sigma, prev, found;
  RootScratch<F> ws;
  for (unsigned t : {1u, 2u, 4u, 7u}) {
    for (int it = 0; it < 10; ++it) {
      auto xs = random_distinct_nonzero<F>(rng, t);
      const auto s = power_sums(xs, 2 * t);
      const int deg = berlekamp_massey(std::span<const F>(s), sigma, prev);
      ASSERT_EQ(deg, static_cast<int>(t));
      // sigma*(z) = z^t sigma(1/z) = prod (z + x).
      std::vector<F> locator(sigma.begin(), sigma.begin() + deg + 1);
      std::reverse(locator.begin(), locator.end());
      ASSERT_TRUE(find_roots<F>(locator, ws, found));
      std::sort(xs.begin(), xs.end());
      EXPECT_EQ(found, xs);
    }
  }
}

// ---------------------------------------------------------------------------
// Structured root sets.

// The GF(2)-span of `basis` minus zero: 2^|basis| - 1 roots. Each
// Tr(beta_i .) is GF(2)-linear on the span, so a split on beta_i cuts it
// along a hyperplane or not at all: every dimension needs its own basis
// element, which exercises the advance to i + 1.
template <typename F>
std::vector<F> span_minus_zero(const std::vector<F>& basis) {
  std::vector<F> out;
  for (std::uint64_t mask = 1; mask < (std::uint64_t{1} << basis.size());
       ++mask) {
    F v = F::zero();
    for (std::size_t i = 0; i < basis.size(); ++i) {
      if ((mask >> i) & 1) v += basis[i];
    }
    out.push_back(v);
  }
  return out;
}

TYPED_TEST(DecoderTest, FindRootsSubspaceMinusZero) {
  using F = TypeParam;
  RootScratch<F> ws;
  // Low monomials: the 63 IDs 1..63.
  std::vector<F> low;
  for (unsigned i = 0; i < 6; ++i) low.push_back(F::basis_element(i));
  expect_roots(span_minus_zero(low), ws);
  // Monomials spread over the word, then random dense vectors.
  std::vector<F> spread;
  for (unsigned i = 0; i < 6; ++i) {
    spread.push_back(F::basis_element(i * (F::kBits / 6)));
  }
  expect_roots(span_minus_zero(spread), ws);
  SplitMix64 rng(29);
  for (int it = 0; it < 3; ++it) {
    const auto basis = random_distinct_nonzero<F>(rng, 5);
    const auto roots = span_minus_zero(basis);
    // Dependent draws collapse the span; keep only a true 5-dim one.
    if (std::set<F>(roots.begin(), roots.end()).size() != roots.size() ||
        std::count(roots.begin(), roots.end(), F::zero()) != 0) {
      continue;
    }
    expect_roots(roots, ws);
  }
}

// EdgeCode IDs of the non-tree edges of a real auxiliary graph, in
// canonical order by endpoint tins: a window of consecutive IDs has
// consecutive tins and shares endpoints, like a fragment boundary.
template <typename F>
std::vector<F> aux_graph_edge_ids(std::uint64_t seed) {
  const graph::Graph g = graph::random_connected(300, 900, seed);
  const graph::SpanningTree t = graph::bfs_spanning_tree(g, 0);
  const graph::AuxGraph aux = graph::build_aux_graph(g, t);
  const graph::EulerTour et = graph::euler_tour(aux.t2);
  const graph::AncestryLabeling anc(aux.t2, et);
  std::vector<std::pair<graph::AncestryLabel, graph::AncestryLabel>> ends;
  for (graph::EdgeId e = 0; e < aux.g2.num_edges(); ++e) {
    if (aux.t2.is_tree_edge[e]) continue;
    graph::AncestryLabel a = anc.label(aux.g2.edge(e).u);
    graph::AncestryLabel b = anc.label(aux.g2.edge(e).v);
    if (b.tin < a.tin) std::swap(a, b);
    ends.emplace_back(a, b);
  }
  std::sort(ends.begin(), ends.end(), [](const auto& x, const auto& y) {
    return std::pair(x.first.tin, x.second.tin) <
           std::pair(y.first.tin, y.second.tin);
  });
  std::vector<F> ids;
  for (const auto& [a, b] : ends) ids.push_back(core::EdgeCode<F>::encode(a, b));
  return ids;
}

template <typename F>
void expect_edge_code_windows(unsigned max_degree) {
  const std::vector<F> ids = aux_graph_edge_ids<F>(31);
  ASSERT_GE(ids.size(), 2 * max_degree);
  RootScratch<F> ws;
  for (unsigned d = 1; d <= max_degree; d = d < 16 ? d + 1 : 2 * d) {
    for (const std::size_t start :
         {std::size_t{0}, ids.size() / 3, ids.size() - d}) {
      expect_roots(std::vector<F>(ids.begin() + start,
                                  ids.begin() + start + d),
                   ws);
    }
  }
}

TEST(FindRootsEdgeCode, WindowsUpToDegree128OverGF64) {
  expect_edge_code_windows<GF2_64>(128);
}

TEST(FindRootsEdgeCode, WindowsUpToDegree64OverGF128) {
  expect_edge_code_windows<GF2_128>(64);
}

TEST(FindRootsEdgeCode, SubspaceDegree127OverGF64) {
  using F = GF2_64;
  RootScratch<F> ws;
  std::vector<F> basis;
  for (unsigned i = 0; i < 7; ++i) basis.push_back(F::basis_element(9 * i));
  expect_roots(span_minus_zero(basis), ws);
}

}  // namespace
}  // namespace ftc::gf
