// Tests for the GF(2^m) field implementations: modulus irreducibility,
// carry-less multiply consistency, field axioms, Frobenius structure,
// the Artin-Schreier / quadratic solvers used by the root finder, and
// the eight-lane Lanes<F> type against the scalar field operators.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "gf/clmul.hpp"
#include "gf/clmul_lanes.hpp"
#include "gf/gf2.hpp"
#include "gf/modulus_check.hpp"
#include "util/common.hpp"

namespace ftc::gf {
namespace {

TEST(ModulusCheck, AllStandardModuliAreIrreducible) {
  EXPECT_TRUE(standard_modulus_is_irreducible(16));
  EXPECT_TRUE(standard_modulus_is_irreducible(32));
  EXPECT_TRUE(standard_modulus_is_irreducible(64));
  EXPECT_TRUE(standard_modulus_is_irreducible(128));
}

TEST(Clmul, IntrinsicMatchesPortable) {
  SplitMix64 rng(42);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t a = rng.next();
    const std::uint64_t b = rng.next();
    const U128 x = clmul(a, b);
    const U128 y = clmul_portable(a, b);
    ASSERT_EQ(x.lo, y.lo);
    ASSERT_EQ(x.hi, y.hi);
  }
}

TEST(Clmul, KnownValues) {
  // (x + 1) * (x + 1) = x^2 + 1 (carry-less).
  const U128 p = clmul(0b11, 0b11);
  EXPECT_EQ(p.lo, 0b101u);
  EXPECT_EQ(p.hi, 0u);
  // x^63 * x^63 = x^126.
  const U128 q = clmul(1ULL << 63, 1ULL << 63);
  EXPECT_EQ(q.lo, 0u);
  EXPECT_EQ(q.hi, 1ULL << 62);
}

template <typename F>
class FieldTest : public ::testing::Test {
 public:
  static F random_elem(SplitMix64& rng) {
    if constexpr (F::kWords == 2) {
      return F(rng.next(), F::kBits > 64 ? rng.next() : 0);
    } else {
      return F(rng.next());
    }
  }
  static F random_nonzero(SplitMix64& rng) {
    F v;
    do {
      v = random_elem(rng);
    } while (v.is_zero());
    return v;
  }
};

using FieldTypes = ::testing::Types<GF2_16, GF2_32, GF2_64, GF2_128>;
TYPED_TEST_SUITE(FieldTest, FieldTypes);

TYPED_TEST(FieldTest, AdditiveGroupAxioms) {
  using F = TypeParam;
  SplitMix64 rng(1);
  for (int i = 0; i < 500; ++i) {
    const F a = this->random_elem(rng);
    const F b = this->random_elem(rng);
    const F c = this->random_elem(rng);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a + F::zero(), a);
    EXPECT_TRUE((a + a).is_zero());  // characteristic 2
    EXPECT_EQ(a - b, a + b);
  }
}

TYPED_TEST(FieldTest, MultiplicativeAxioms) {
  using F = TypeParam;
  SplitMix64 rng(2);
  for (int i = 0; i < 300; ++i) {
    const F a = this->random_elem(rng);
    const F b = this->random_elem(rng);
    const F c = this->random_elem(rng);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * F::one(), a);
    EXPECT_TRUE((a * F::zero()).is_zero());
    EXPECT_EQ(a * (b + c), a * b + a * c);  // distributivity
  }
}

// The Itoh-Tsujii inverse on random elements, every basis element x^i
// and the all-ones element, also against the definition
// a^(2^m - 2) = prod_{i=1}^{m-1} a^(2^i).
TYPED_TEST(FieldTest, InverseAndDivision) {
  using F = TypeParam;
  const auto by_definition = [](F a) {
    F r = F::one();
    for (unsigned i = 1; i < F::kBits; ++i) {
      a = a.square();
      r *= a;
    }
    return r;
  };
  EXPECT_EQ(inverse(F::one()), F::one());
  std::vector<F> elems;
  F ones = F::zero();
  for (unsigned i = 0; i < F::kBits; ++i) {
    elems.push_back(F::basis_element(i));
    ones += F::basis_element(i);
  }
  elems.push_back(ones);
  SplitMix64 rng(3);
  for (int i = 0; i < 200; ++i) elems.push_back(this->random_nonzero(rng));
  for (const F& a : elems) {
    const F inv = inverse(a);
    ASSERT_EQ(a * inv, F::one());
    ASSERT_EQ(inverse(inv), a);
    ASSERT_EQ(inv, by_definition(a));
  }
  EXPECT_THROW(inverse(F::zero()), std::invalid_argument);
}

// The inverse chain's table-driven x^(2^k) against k squarings.
TYPED_TEST(FieldTest, FrobeniusPowerMatchesRepeatedSquaring) {
  using F = TypeParam;
  SplitMix64 rng(31);
  std::vector<F> elems = {F::zero(), F::one()};
  for (int i = 0; i < 50; ++i) elems.push_back(this->random_elem(rng));
  for (const unsigned k : {0u, 1u, 7u, F::kBits - 1}) {
    const detail::FrobeniusPower<F> frob(k);
    for (const F& a : elems) {
      F want = a;
      for (unsigned s = 0; s < k; ++s) want = want.square();
      ASSERT_EQ(frob(a), want) << "k " << k;
    }
  }
}

TYPED_TEST(FieldTest, FrobeniusHasOrderM) {
  // a^(2^m) == a certifies the ring has 2^m elements acting like a field.
  using F = TypeParam;
  SplitMix64 rng(4);
  for (int i = 0; i < 50; ++i) {
    const F a = this->random_elem(rng);
    F b = a;
    for (unsigned j = 0; j < F::kBits; ++j) b = b.square();
    EXPECT_EQ(b, a);
  }
}

TYPED_TEST(FieldTest, SquareAndSqrt) {
  using F = TypeParam;
  SplitMix64 rng(5);
  for (int i = 0; i < 200; ++i) {
    const F a = this->random_elem(rng);
    EXPECT_EQ(a.square(), a * a);
    EXPECT_EQ(sqrt(a.square()), a);
    EXPECT_EQ(sqrt(a).square(), a);
    const F b = this->random_elem(rng);
    // Freshman's dream: (a+b)^2 = a^2 + b^2 in characteristic 2.
    EXPECT_EQ((a + b).square(), a.square() + b.square());
  }
}

TYPED_TEST(FieldTest, PowBasics) {
  using F = TypeParam;
  SplitMix64 rng(6);
  for (int i = 0; i < 100; ++i) {
    const F a = this->random_nonzero(rng);
    EXPECT_EQ(pow(a, 0), F::one());
    EXPECT_EQ(pow(a, 1), a);
    EXPECT_EQ(pow(a, 5), a * a * a * a * a);
    EXPECT_EQ(pow(a, 6), pow(a, 3).square());
  }
}

TYPED_TEST(FieldTest, TraceIsGF2LinearAndBalanced) {
  using F = TypeParam;
  SplitMix64 rng(7);
  int ones = 0;
  const int kSamples = 400;
  for (int i = 0; i < kSamples; ++i) {
    const F a = this->random_elem(rng);
    const F b = this->random_elem(rng);
    const F ta = trace(a);
    EXPECT_TRUE(ta == F::zero() || ta == F::one());
    EXPECT_EQ(trace(a + b), trace(a) + trace(b));
    EXPECT_EQ(trace(a.square()), trace(a));  // Tr is Frobenius-invariant
    if (ta == F::one()) ++ones;
  }
  // Exactly half the field has trace one; allow generous sampling slack.
  EXPECT_GT(ones, kSamples / 4);
  EXPECT_LT(ones, 3 * kSamples / 4);
}

TYPED_TEST(FieldTest, TraceMaskMatchesFrobeniusSum) {
  // trace() reads a precomputed GF(2)-linear mask; it must agree with the
  // definition Tr(a) = a + a^2 + ... + a^(2^(m-1)).
  using F = TypeParam;
  SplitMix64 rng(10);
  for (int i = 0; i < 200; ++i) {
    const F a = this->random_elem(rng);
    EXPECT_EQ(trace(a), detail::trace_by_frobenius(a));
  }
  for (unsigned k = 0; k < F::kBits; ++k) {
    const F e = F::basis_element(k);
    EXPECT_EQ(trace(e), detail::trace_by_frobenius(e)) << "x^" << k;
  }
}

TYPED_TEST(FieldTest, ArtinSchreierSolver) {
  using F = TypeParam;
  SplitMix64 rng(8);
  for (int i = 0; i < 200; ++i) {
    const F a = this->random_elem(rng);
    const F c = a.square() + a;  // guaranteed Tr(c) = 0
    F y;
    ASSERT_TRUE(solve_artin_schreier(c, &y));
    EXPECT_EQ(y.square() + y, c);
    EXPECT_TRUE(y == a || y == a + F::one());
  }
  // Unsolvable side: Tr(c) = 1 has no solution.
  for (int i = 0; i < 200; ++i) {
    const F c = this->random_elem(rng);
    if (trace(c) == F::one()) {
      F y;
      EXPECT_FALSE(solve_artin_schreier(c, &y));
    }
  }
}

TYPED_TEST(FieldTest, QuadraticSolver) {
  using F = TypeParam;
  SplitMix64 rng(9);
  for (int i = 0; i < 200; ++i) {
    const F r1 = this->random_nonzero(rng);
    F r2 = this->random_nonzero(rng);
    if (r1 == r2) continue;
    // (x + r1)(x + r2) = x^2 + (r1 + r2) x + r1 r2.
    F out[2];
    ASSERT_EQ(solve_quadratic(r1 + r2, r1 * r2, out), 2u);
    std::vector<F> roots(out, out + 2);
    std::sort(roots.begin(), roots.end());
    std::vector<F> expect{r1, r2};
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(roots, expect);
  }
  // Double root: x^2 + c = (x + sqrt(c))^2.
  for (int i = 0; i < 50; ++i) {
    const F c = this->random_elem(rng);
    F roots[2];
    ASSERT_EQ(solve_quadratic(F::zero(), c, roots), 1u);
    EXPECT_EQ(roots[0].square(), c);
  }
}

TYPED_TEST(FieldTest, BasisElementsAreDistinctAndNonzero) {
  using F = TypeParam;
  for (unsigned i = 0; i < F::kBits; ++i) {
    EXPECT_FALSE(F::basis_element(i).is_zero());
    for (unsigned j = i + 1; j < F::kBits; ++j) {
      EXPECT_NE(F::basis_element(i), F::basis_element(j));
    }
  }
}

template <typename F>
std::array<F, Lanes<F>::kWidth> lanes_of(const Lanes<F>& x) {
  std::array<F, Lanes<F>::kWidth> out;
  x.store(out.data());
  return out;
}

// Lanes<F> against F's own operators: products, squares, sums, unreduced
// dot products, and the lane moves the root finder uses. Every ordered
// pair of the edge values 0, 1, all-ones and the top bit x^(m-1) sits in
// some lane, next to random lanes.
TYPED_TEST(FieldTest, LanesMatchScalarOps) {
  using F = TypeParam;
  using L = Lanes<F>;
  constexpr unsigned kW = L::kWidth;
  F all_ones;
  if constexpr (F::kWords == 2) {
    all_ones = F(~std::uint64_t{0}, ~std::uint64_t{0});
  } else {
    all_ones = F(~std::uint64_t{0});
  }
  const F edges[4] = {F::zero(), F::one(), all_ones,
                      F::basis_element(F::kBits - 1)};
  SplitMix64 rng(2026);
  std::vector<std::array<F, kW>> as, bs;
  for (unsigned base = 0; base < 16; base += kW) {
    std::array<F, kW> a, b;
    for (unsigned i = 0; i < kW; ++i) {
      a[i] = edges[(base + i) / 4];
      b[i] = edges[(base + i) % 4];
    }
    as.push_back(a);
    bs.push_back(b);
  }
  for (int it = 0; it < 500; ++it) {
    std::array<F, kW> a, b;
    for (unsigned i = 0; i < kW; ++i) {
      a[i] = rng.next_below(4) == 0 ? edges[rng.next_below(4)]
                                    : TestFixture::random_elem(rng);
      b[i] = rng.next_below(4) == 0 ? edges[rng.next_below(4)]
                                    : TestFixture::random_elem(rng);
    }
    as.push_back(a);
    bs.push_back(b);
  }
  for (std::size_t c = 0; c < as.size(); ++c) {
    const auto& a = as[c];
    const auto& b = bs[c];
    const auto& a2 = as[(c + 1) % as.size()];
    const auto& b2 = bs[(c + 1) % as.size()];
    const L la = L::load(a.data());
    const L lb = L::load(b.data());
    const auto prod = lanes_of(la * lb);
    const auto sq = lanes_of(la.square());
    const auto sum = lanes_of(la + lb);
    typename L::Wide wide = L::mul_wide(la, lb);
    wide ^= L::mul_wide(L::load(a2.data()), L::load(b2.data()));
    const auto dot = lanes_of(L::reduce(wide));
    for (unsigned i = 0; i < kW; ++i) {
      ASSERT_EQ(prod[i], a[i] * b[i]) << "case " << c << " lane " << i;
      ASSERT_EQ(sq[i], a[i] * a[i]) << "case " << c << " lane " << i;
      ASSERT_EQ(sum[i], a[i] + b[i]) << "case " << c << " lane " << i;
      ASSERT_EQ(dot[i], a[i] * b[i] + a2[i] * b2[i])
          << "case " << c << " lane " << i;
      const auto bl = lanes_of(la.broadcast_lane(i));
      for (unsigned j = 0; j < kW; ++j) ASSERT_EQ(bl[j], a[i]);
    }
    for (unsigned half = 0; half < 2; ++half) {
      for (unsigned n = 0; n <= kW; ++n) {
        const auto sp = lanes_of(la.spread_even(half, n));
        for (unsigned j = 0; j < kW; ++j) {
          const F want = j % 2 == 0 && j < n ? a[4 * half + j / 2] : F::zero();
          ASSERT_EQ(sp[j], want) << "half " << half << " n " << n;
        }
      }
    }
  }
}

// A partial load zeroes the lanes past n; a partial compare looks only
// at lanes below n, so it is true when they match and false when the
// last of them differs.
TYPED_TEST(FieldTest, LanesPartialLoadAndCompare) {
  using F = TypeParam;
  using L = Lanes<F>;
  constexpr unsigned kW = L::kWidth;
  SplitMix64 rng(7);
  std::array<F, kW> a;
  for (F& x : a) x = TestFixture::random_nonzero(rng);
  const L full = L::load(a.data());
  for (unsigned n = 0; n <= kW; ++n) {
    const auto part = lanes_of(L::load(a.data(), n));
    for (unsigned j = 0; j < kW; ++j) {
      EXPECT_EQ(part[j], j < n ? a[j] : F::zero()) << "n " << n;
    }
    std::array<F, kW> b = a;
    for (unsigned j = n; j < kW; ++j) b[j] += F::one();
    EXPECT_TRUE(full.equals(b.data(), n)) << "n " << n;
    if (n > 0) {
      b[n - 1] += F::one();
      EXPECT_FALSE(full.equals(b.data(), n)) << "n " << n;
    }
  }
  for (const F& x : lanes_of(L::broadcast(a[3]))) EXPECT_EQ(x, a[3]);
  for (const F& x : lanes_of(L::zero())) EXPECT_TRUE(x.is_zero());
}

TEST(GF2_64Known, ReductionSpotChecks) {
  // x^63 * x = x^64 == x^4 + x^3 + x + 1 = 0x1B.
  EXPECT_EQ((GF2_64(1ULL << 63) * GF2_64(2)).value(), 0x1BULL);
  // x^63 * x^2 = x^65 == x * 0x1B.
  EXPECT_EQ((GF2_64(1ULL << 63) * GF2_64(4)).value(), 0x1BULL << 1);
}

TEST(GF2_128Known, ReductionSpotChecks) {
  // x^127 * x = x^128 == x^7 + x^2 + x + 1 = 0x87.
  const GF2_128 a(0, 1ULL << 63);
  EXPECT_EQ(a * GF2_128(2), GF2_128(0x87));
  // x^64 * x^64 = x^128 == 0x87.
  const GF2_128 b(0, 1);
  EXPECT_EQ(b * b, GF2_128(0x87));
}

}  // namespace
}  // namespace ftc::gf
