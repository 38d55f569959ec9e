// Tests for the deterministic k-threshold set sketch (RsSketch), the
// paper's replacement for randomized graph sketches (Proposition 2 and
// Proposition 6 / Appendix B adaptivity).
#include <gtest/gtest.h>

#include <set>
#include <span>
#include <utility>

#include "sketch/rs_sketch.hpp"
#include "util/common.hpp"

namespace ftc::sketch {
namespace {

using gf::GF2_128;
using gf::GF2_64;

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

template <typename F>
class RsSketchTest : public ::testing::Test {};

using FieldTypes = ::testing::Types<GF2_64, GF2_128>;
TYPED_TEST_SUITE(RsSketchTest, FieldTypes);

TYPED_TEST(RsSketchTest, DecodeExactForAllSizesUpToK) {
  using F = TypeParam;
  const unsigned k = 12;
  SplitMix64 rng(31);
  for (unsigned size = 0; size <= k; ++size) {
    for (int it = 0; it < 5; ++it) {
      auto xs = random_distinct_nonzero<F>(rng, size);
      RsSketch<F> sk(k);
      for (const F& x : xs) sk.toggle(x);
      auto dec = sk.decode(k);
      ASSERT_TRUE(dec.has_value()) << "size " << size;
      std::sort(xs.begin(), xs.end());
      EXPECT_EQ(*dec, xs);
    }
  }
}

TYPED_TEST(RsSketchTest, ToggleTwiceErases) {
  using F = TypeParam;
  RsSketch<F> sk(8);
  const F a(123456789);
  sk.toggle(a);
  EXPECT_FALSE(sk.is_zero());
  sk.toggle(a);
  EXPECT_TRUE(sk.is_zero());
  EXPECT_THROW(sk.toggle(F::zero()), std::invalid_argument);
}

TYPED_TEST(RsSketchTest, MergeIsSymmetricDifference) {
  using F = TypeParam;
  const unsigned k = 16;
  SplitMix64 rng(32);
  for (int it = 0; it < 20; ++it) {
    const auto pool = random_distinct_nonzero<F>(rng, 20);
    // A = pool[0..11], B = pool[6..17]; A xor B = pool[0..5] + pool[12..17].
    RsSketch<F> a(k), b(k);
    for (int i = 0; i < 12; ++i) a.toggle(pool[i]);
    for (int i = 6; i < 18; ++i) b.toggle(pool[i]);
    a.merge(b);
    auto dec = a.decode(k);
    ASSERT_TRUE(dec.has_value());
    std::vector<F> expect;
    for (int i = 0; i < 6; ++i) expect.push_back(pool[i]);
    for (int i = 12; i < 18; ++i) expect.push_back(pool[i]);
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(*dec, expect);
  }
}

TYPED_TEST(RsSketchTest, PrefixIsSmallerThresholdSketch) {
  // Proposition 6: the first k' syndromes are the k'-threshold sketch.
  using F = TypeParam;
  const unsigned k = 16;
  SplitMix64 rng(33);
  auto xs = random_distinct_nonzero<F>(rng, 5);
  RsSketch<F> sk(k);
  for (const F& x : xs) sk.toggle(x);
  RsSketch<F> direct(6);
  for (const F& x : xs) direct.toggle(x);
  const RsSketch<F> pre = sk.prefix(6);
  EXPECT_TRUE(std::equal(pre.syndromes().begin(), pre.syndromes().end(),
                         direct.syndromes().begin()));
  auto dec = pre.decode(6);
  ASSERT_TRUE(dec.has_value());
  std::sort(xs.begin(), xs.end());
  EXPECT_EQ(*dec, xs);
}

TYPED_TEST(RsSketchTest, AdaptiveDecodeMatchesFull) {
  using F = TypeParam;
  const unsigned k = 32;
  SplitMix64 rng(34);
  for (unsigned size : {0u, 1u, 2u, 3u, 9u, 31u}) {
    auto xs = random_distinct_nonzero<F>(rng, size);
    RsSketch<F> sk(k);
    for (const F& x : xs) sk.toggle(x);
    auto a = sk.decode_adaptive();
    auto b = sk.decode(k);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(*a, *b);
  }
}

TYPED_TEST(RsSketchTest, OverCapacityFailsStop) {
  // With |X| > k the decoder must not fabricate an answer: on random
  // instances it returns nullopt (full-syndrome verification).
  using F = TypeParam;
  const unsigned k = 8;
  SplitMix64 rng(35);
  for (unsigned size : {9u, 10u, 12u, 16u}) {
    for (int it = 0; it < 10; ++it) {
      const auto xs = random_distinct_nonzero<F>(rng, size);
      RsSketch<F> sk(k);
      for (const F& x : xs) sk.toggle(x);
      EXPECT_EQ(sk.decode(k), std::nullopt) << "size " << size;
      EXPECT_EQ(sk.decode_adaptive(), std::nullopt) << "size " << size;
    }
  }
}

TYPED_TEST(RsSketchTest, DeterministicAcrossRebuilds) {
  using F = TypeParam;
  SplitMix64 rng(36);
  auto xs = random_distinct_nonzero<F>(rng, 7);
  RsSketch<F> a(10), b(10);
  for (const F& x : xs) a.toggle(x);
  // Insert in reverse order: syndromes are order-independent.
  for (auto it = xs.rbegin(); it != xs.rend(); ++it) b.toggle(*it);
  EXPECT_TRUE(std::equal(a.syndromes().begin(), a.syndromes().end(),
                         b.syndromes().begin()));
}

TYPED_TEST(RsSketchTest, SizeAccounting) {
  using F = TypeParam;
  RsSketch<F> sk(24);
  EXPECT_EQ(sk.size_bits(), 24u * F::kBits);
  EXPECT_EQ(sk.k(), 24u);
}

TYPED_TEST(RsSketchTest, DecodeRespectsThresholdArgument) {
  using F = TypeParam;
  const unsigned k = 16;
  SplitMix64 rng(37);
  auto xs = random_distinct_nonzero<F>(rng, 6);
  RsSketch<F> sk(k);
  for (const F& x : xs) sk.toggle(x);
  // t smaller than |X|: must fail (verification), not fabricate.
  EXPECT_EQ(sk.decode(3), std::nullopt);
  auto dec = sk.decode(6);
  ASSERT_TRUE(dec.has_value());
  std::sort(xs.begin(), xs.end());
  EXPECT_EQ(*dec, xs);
  EXPECT_THROW(sk.decode(k + 1), std::invalid_argument);
}

TEST(OddPowerSums, MatchesDirectComputation) {
  using F = GF2_64;
  SplitMix64 rng(38);
  const auto xs = random_distinct_nonzero<F>(rng, 5);
  const auto syn = odd_power_sums<F>(xs, 4);
  for (unsigned j = 0; j < 4; ++j) {
    F expect = F::zero();
    for (const F& x : xs) expect += gf::pow(x, 2 * j + 1);
    EXPECT_EQ(syn[j], expect);
  }
}

// The lane walk's blocks against pow(): windows from 0 and from j0 off
// a multiple of 8 (as a builder worker's column range starts), tails of
// 1..7 past the last full 8-lane step, and windows of more than one
// builder block. The blocks must tile [j0, j1) in order, all but the
// last kOddPowerBlock long.
TYPED_TEST(RsSketchTest, OddPowerBlocksMatchPow) {
  using F = TypeParam;
  constexpr unsigned B = kOddPowerBlock;
  SplitMix64 rng(91);
  const auto xs = random_distinct_nonzero<F>(rng, 3);
  const std::pair<unsigned, unsigned> ranges[] = {
      {0, 0},          {5, 5},          {0, 1},          {0, 7},
      {0, 8},          {0, 9},          {3, 4},          {3, 10},
      {5, 6},          {3, 11},         {13, 30},        {7, 21},
      {100, 131},      {0, B},          {0, B + 1},      {1, B + 8},
      {11, 11 + B},    {9, 9 + 2 * B + 7}, {0, 3 * B + 3}, {200, 476}};
  for (const F& x : xs) {
    for (const auto& [j0, j1] : ranges) {
      SCOPED_TRACE(testing::Message() << "window [" << j0 << ", " << j1 << ")");
      unsigned next = j0;
      odd_power_blocks(x, j0, j1, [&](unsigned j, std::span<const F> p) {
        EXPECT_EQ(j, next);
        ASSERT_FALSE(p.empty());
        if (j + p.size() < j1) EXPECT_EQ(p.size(), B);
        for (std::size_t i = 0; i < p.size(); ++i) {
          EXPECT_EQ(p[i], gf::pow(x, 2 * std::uint64_t{j + i} + 1))
              << "j=" << j + i;
        }
        next = j + static_cast<unsigned>(p.size());
      });
      EXPECT_EQ(next, j1);
    }
  }
}

// The fail-stop verify walk compares every syndrome below w exactly: one
// flipped bit in any of them is caught, in every lane of every 8-syndrome
// step and in every length of the masked tail, for supports of one group
// of 8 elements or several, and across the walk's 512-syndrome blocks. A
// flip at or past w must not change the verdict.
TYPED_TEST(RsSketchTest, VerifyWalkCatchesEveryFlippedSyndrome) {
  using F = TypeParam;
  SplitMix64 rng(47);
  for (const unsigned d : {1u, 2u, 3u, 7u, 8u, 9u, 33u}) {
    const auto xs = random_distinct_nonzero<F>(rng, d);
    // w mod 8 takes every value 1..7, and 16 ends on a full step.
    for (const unsigned w : {1u, 2u, 3u, 4u, 13u, 16u, 230u, 231u, 517u}) {
      std::vector<F> syn = odd_power_sums<F>(xs, w + 9);
      ASSERT_TRUE(power_sums_match<F>(xs, syn, w)) << "d " << d << " w " << w;
      for (unsigned j = 0; j < syn.size(); ++j) {
        const F good = syn[j];
        syn[j] += F::basis_element(j % F::kBits);
        ASSERT_EQ(power_sums_match<F>(xs, syn, w), j >= w)
            << "d " << d << " w " << w << " flipped syndrome " << j;
        syn[j] = good;
      }
    }
  }
}

}  // namespace
}  // namespace ftc::sketch
