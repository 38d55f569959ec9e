// Tests for the GF(2^m) field implementations: modulus irreducibility,
// carry-less multiply consistency, field axioms, Frobenius structure,
// and the Artin-Schreier / quadratic solvers used by the root finder.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "gf/clmul.hpp"
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

TYPED_TEST(FieldTest, InverseAndDivision) {
  using F = TypeParam;
  SplitMix64 rng(3);
  EXPECT_EQ(inverse(F::one()), F::one());
  for (int i = 0; i < 200; ++i) {
    const F a = this->random_nonzero(rng);
    EXPECT_EQ(a * inverse(a), F::one());
    EXPECT_EQ(inverse(inverse(a)), a);
  }
  EXPECT_THROW(inverse(F::zero()), std::invalid_argument);
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
