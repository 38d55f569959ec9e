// Binary extension fields GF(2^m) for m in {16, 32, 64, 128}.
//
// These fields are the algebraic substrate of the paper's deterministic
// graph sketch (Section 4.2 / 7.4): edge IDs are embedded as nonzero field
// elements and the k-threshold outdetect label is a vector of Reed-Solomon
// power-sum syndromes over the field.
//
// Moduli are standard low-weight irreducible polynomials (verified
// irreducible by tests/test_gf2.cpp via Rabin's criterion):
//   m = 16 : x^16 + x^5 + x^3 + x + 1
//   m = 32 : x^32 + x^7 + x^3 + x^2 + 1
//   m = 64 : x^64 + x^4 + x^3 + x + 1
//   m = 128: x^128 + x^7 + x^2 + x + 1   (the GCM polynomial)
//
// All types are trivially-copyable value types; addition is XOR;
// multiplication uses carry-less multiply with reduction folds.
#pragma once

#include <array>
#include <bit>
#include <compare>
#include <cstdint>
#include <functional>

#include "gf/clmul.hpp"
#include "util/common.hpp"

namespace ftc::gf {

// --------------------------------------------------------------------------
// GF(2^Bits) for Bits <= 32, single machine word storage.
// ReducerPoly encodes the modulus minus its leading term, i.e. the
// congruence x^Bits == ReducerPoly(x).
// --------------------------------------------------------------------------
template <unsigned Bits, std::uint64_t ReducerPoly>
class GF2Small {
  static_assert(Bits >= 8 && Bits <= 32);

 public:
  static constexpr unsigned kBits = Bits;
  static constexpr unsigned kWords = 1;
  static constexpr std::uint64_t kMask =
      (Bits == 64) ? ~std::uint64_t{0} : ((std::uint64_t{1} << Bits) - 1);

  constexpr GF2Small() = default;
  explicit constexpr GF2Small(std::uint64_t v) : v_(v & kMask) {}

  static constexpr GF2Small zero() { return GF2Small(0); }
  static constexpr GF2Small one() { return GF2Small(1); }
  // i-th standard-basis element (the monomial x^i viewed as a GF(2)-basis
  // vector of the field). Used by the Berlekamp trace algorithm.
  static constexpr GF2Small basis_element(unsigned i) {
    return GF2Small(std::uint64_t{1} << i);
  }

  constexpr bool is_zero() const { return v_ == 0; }
  constexpr std::uint64_t value() const { return v_; }
  constexpr std::uint64_t word(unsigned) const { return v_; }

  friend constexpr GF2Small operator+(GF2Small a, GF2Small b) {
    return GF2Small(a.v_ ^ b.v_);
  }
  friend constexpr GF2Small operator-(GF2Small a, GF2Small b) {
    return a + b;  // characteristic 2
  }
  GF2Small& operator+=(GF2Small o) {
    v_ ^= o.v_;
    return *this;
  }

  // Unreduced product. Reduction is GF(2)-linear, so an XOR-sum of wide
  // products reduces to the sum of the field products: a dot product pays
  // for one reduction, not one per term.
  using Wide = U128;
  static Wide mul_wide(GF2Small a, GF2Small b) { return clmul(a.v_, b.v_); }
  static GF2Small reduce(Wide w) {
    std::uint64_t p = w.lo;  // Bits <= 32: the product fits one word
    for (int rep = 0; rep < 2; ++rep) {
      const std::uint64_t hi = p >> Bits;
      p = (p & kMask) ^ clmul(hi, ReducerPoly).lo;
    }
    return GF2Small(p);
  }

  friend GF2Small operator*(GF2Small a, GF2Small b) {
    return reduce(mul_wide(a, b));
  }
  GF2Small& operator*=(GF2Small o) {
    *this = *this * o;
    return *this;
  }

  GF2Small square() const { return *this * *this; }

  friend constexpr bool operator==(GF2Small a, GF2Small b) = default;
  friend constexpr auto operator<=>(GF2Small a, GF2Small b) = default;

 private:
  std::uint64_t v_ = 0;
};

using GF2_16 = GF2Small<16, 0x2B>;   // x^5 + x^3 + x + 1
using GF2_32 = GF2Small<32, 0x8D>;   // x^7 + x^3 + x^2 + 1

// --------------------------------------------------------------------------
// GF(2^64)
// --------------------------------------------------------------------------
class GF2_64 {
 public:
  static constexpr unsigned kBits = 64;
  static constexpr unsigned kWords = 1;
  static constexpr std::uint64_t kReducer = 0x1B;  // x^4 + x^3 + x + 1

  constexpr GF2_64() = default;
  explicit constexpr GF2_64(std::uint64_t v) : v_(v) {}

  static constexpr GF2_64 zero() { return GF2_64(0); }
  static constexpr GF2_64 one() { return GF2_64(1); }
  static constexpr GF2_64 basis_element(unsigned i) {
    return GF2_64(std::uint64_t{1} << i);
  }

  constexpr bool is_zero() const { return v_ == 0; }
  constexpr std::uint64_t value() const { return v_; }
  constexpr std::uint64_t word(unsigned) const { return v_; }

  friend constexpr GF2_64 operator+(GF2_64 a, GF2_64 b) {
    return GF2_64(a.v_ ^ b.v_);
  }
  friend constexpr GF2_64 operator-(GF2_64 a, GF2_64 b) { return a + b; }
  GF2_64& operator+=(GF2_64 o) {
    v_ ^= o.v_;
    return *this;
  }

  // Unreduced product; see GF2Small::Wide.
  using Wide = U128;
  static Wide mul_wide(GF2_64 a, GF2_64 b) { return clmul(a.v_, b.v_); }
  static GF2_64 reduce(Wide p) {
    // Fold the high word: x^64 == kReducer (degree 4), two folds suffice.
    const U128 t = clmul(p.hi, kReducer);
    std::uint64_t lo = p.lo ^ t.lo;
    lo ^= clmul(t.hi, kReducer).lo;
    return GF2_64(lo);
  }

  friend GF2_64 operator*(GF2_64 a, GF2_64 b) {
    return reduce(mul_wide(a, b));
  }
  GF2_64& operator*=(GF2_64 o) {
    *this = *this * o;
    return *this;
  }

  GF2_64 square() const { return *this * *this; }

  friend constexpr bool operator==(GF2_64 a, GF2_64 b) = default;
  friend constexpr auto operator<=>(GF2_64 a, GF2_64 b) = default;

 private:
  std::uint64_t v_ = 0;
};

// --------------------------------------------------------------------------
// GF(2^128), two-word storage, Karatsuba carry-less multiply with GCM-style
// reduction by x^128 + x^7 + x^2 + x + 1.
// --------------------------------------------------------------------------
class GF2_128 {
 public:
  static constexpr unsigned kBits = 128;
  static constexpr unsigned kWords = 2;
  static constexpr std::uint64_t kReducer = 0x87;  // x^7 + x^2 + x + 1

  constexpr GF2_128() = default;
  explicit constexpr GF2_128(std::uint64_t lo, std::uint64_t hi = 0)
      : lo_(lo), hi_(hi) {}

  static constexpr GF2_128 zero() { return GF2_128(0, 0); }
  static constexpr GF2_128 one() { return GF2_128(1, 0); }
  static constexpr GF2_128 basis_element(unsigned i) {
    return i < 64 ? GF2_128(std::uint64_t{1} << i, 0)
                  : GF2_128(0, std::uint64_t{1} << (i - 64));
  }

  constexpr bool is_zero() const { return lo_ == 0 && hi_ == 0; }
  constexpr std::uint64_t lo() const { return lo_; }
  constexpr std::uint64_t hi() const { return hi_; }
  constexpr std::uint64_t word(unsigned i) const { return i == 0 ? lo_ : hi_; }

  friend constexpr GF2_128 operator+(GF2_128 a, GF2_128 b) {
    return GF2_128(a.lo_ ^ b.lo_, a.hi_ ^ b.hi_);
  }
  friend constexpr GF2_128 operator-(GF2_128 a, GF2_128 b) { return a + b; }
  GF2_128& operator+=(GF2_128 o) {
    lo_ ^= o.lo_;
    hi_ ^= o.hi_;
    return *this;
  }

  // Unreduced 256-bit product, little-endian words; see GF2Small::Wide.
  struct Wide {
    std::uint64_t w0 = 0, w1 = 0, w2 = 0, w3 = 0;

    Wide& operator^=(const Wide& o) {
      w0 ^= o.w0;
      w1 ^= o.w1;
      w2 ^= o.w2;
      w3 ^= o.w3;
      return *this;
    }
  };
  static Wide mul_wide(GF2_128 a, GF2_128 b) {
    // Karatsuba: 3 carry-less multiplies for the 128x128 -> 256 product.
    const U128 p0 = clmul(a.lo_, b.lo_);
    const U128 p2 = clmul(a.hi_, b.hi_);
    const U128 pm = clmul(a.lo_ ^ a.hi_, b.lo_ ^ b.hi_);
    return {p0.lo, p0.hi ^ pm.lo ^ p0.lo ^ p2.lo,
            p2.lo ^ pm.hi ^ p0.hi ^ p2.hi, p2.hi};
  }
  static GF2_128 reduce(Wide p) {
    // Reduce 256 -> 128 bits. x^192 == kReducer * x^64, x^128 == kReducer.
    std::uint64_t w0 = p.w0;
    std::uint64_t w1 = p.w1;
    const U128 d = clmul(p.w3, kReducer);
    w1 ^= d.lo;
    w0 ^= clmul(d.hi, kReducer).lo;
    const U128 e = clmul(p.w2, kReducer);
    w0 ^= e.lo;
    w1 ^= e.hi;
    return GF2_128(w0, w1);
  }

  friend GF2_128 operator*(GF2_128 a, GF2_128 b) {
    return reduce(mul_wide(a, b));
  }
  GF2_128& operator*=(GF2_128 o) {
    *this = *this * o;
    return *this;
  }

  GF2_128 square() const { return *this * *this; }

  friend constexpr bool operator==(GF2_128 a, GF2_128 b) = default;
  friend constexpr auto operator<=>(GF2_128 a, GF2_128 b) = default;

 private:
  std::uint64_t lo_ = 0;
  std::uint64_t hi_ = 0;
};

// --------------------------------------------------------------------------
// Generic field helpers (work for any of the field types above).
// --------------------------------------------------------------------------

// a^e by square-and-multiply.
template <typename F>
F pow(F a, std::uint64_t e) {
  F r = F::one();
  while (e != 0) {
    if (e & 1) r *= a;
    a = a.square();
    e >>= 1;
  }
  return r;
}

namespace detail {

// x -> x^(2^k) is GF(2)-linear, so it is the sum of the images of x's
// 4-bit nibbles: image[i][v] = (v x^(4i))^(2^k). One lookup per nibble
// (16 over GF(2^64), from a 2 KiB table) stands in for k dependent
// squarings.
template <typename F>
struct FrobeniusPower {
  static constexpr unsigned kNibbles = F::kBits / 4;
  std::array<std::array<F, 16>, kNibbles> image{};

  FrobeniusPower() = default;
  explicit FrobeniusPower(unsigned k) {
    for (unsigned i = 0; i < kNibbles; ++i) {
      for (unsigned b = 0; b < 4; ++b) {
        F p = F::basis_element(4 * i + b);
        for (unsigned s = 0; s < k; ++s) p = p.square();
        for (unsigned v = 0; v < 16; ++v) {
          if ((v >> b) & 1) image[i][v] += p;
        }
      }
    }
  }

  F operator()(F x) const {
    F r = F::zero();
    for (unsigned i = 0; i < kNibbles; ++i) {
      r += image[i][(x.word(i / 16) >> (4 * (i % 16))) & 15];
    }
    return r;
  }
};

// The Itoh-Tsujii chain of inverse() below: b_k = a^(2^k - 1) satisfies
// b_(i+j) = b_i^(2^j) b_j, so walking the bits of m - 1 from the top
// (k -> 2k, then k -> k + 1 on a set bit) reaches b_(m-1). Step j of the
// walk raises b_k to 2^k through frobenius[j]. Built once per field.
template <typename F>
struct InverseChain {
  static constexpr unsigned kE = F::kBits - 1;
  static constexpr unsigned kSteps = std::bit_width(kE) - 1;
  std::array<FrobeniusPower<F>, kSteps> frobenius;

  InverseChain() {
    unsigned k = 1;
    for (unsigned j = 0; j < kSteps; ++j) {
      frobenius[j] = FrobeniusPower<F>(k);
      k = 2 * k + ((kE >> (kSteps - 1 - j)) & 1);
    }
  }
};

template <typename F>
const InverseChain<F>& inverse_chain() {
  static const InverseChain<F> chain;
  return chain;
}

}  // namespace detail

// Multiplicative inverse a^(2^m - 2) = (a^(2^(m-1) - 1))^2, by the
// Itoh-Tsujii chain (detail::InverseChain): per bit of m - 1 below the
// top one table-driven Frobenius power, at most two multiplies and one
// squaring. Over GF(2^64) that is 5 lookups, 10 multiplies and 6
// squarings in one dependent chain, not 63 squarings; the root finder's
// quadratic and gcd steps each invert once.
template <typename F>
F inverse(F a) {
  FTC_REQUIRE(!a.is_zero(), "inverse of zero");
  using Chain = detail::InverseChain<F>;
  const Chain& chain = detail::inverse_chain<F>();
  F b = a;  // b_k, k = 1
  for (unsigned j = 0; j < Chain::kSteps; ++j) {
    b = chain.frobenius[j](b) * b;
    if ((Chain::kE >> (Chain::kSteps - 1 - j)) & 1) b = b.square() * a;
  }
  return b.square();
}

// Square root (unique in characteristic 2): x^(2^(m-1)).
template <typename F>
F sqrt(F x) {
  for (unsigned i = 0; i + 1 < F::kBits; ++i) x = x.square();
  return x;
}

namespace detail {

// Tr(x) = x + x^2 + x^4 + ... + x^(2^(m-1)), by its definition.
template <typename F>
F trace_by_frobenius(F x) {
  F acc = x;
  F cur = x;
  for (unsigned i = 1; i < F::kBits; ++i) {
    cur = cur.square();
    acc += cur;
  }
  return acc;
}

// The trace and the Artin-Schreier solution are both GF(2)-linear in
// their argument, so each is fixed by its values on the monomial basis
// x^k. Built once per field: Tr(c) is then a masked parity and S(c) an
// XOR of one table row per set bit of c.
template <typename F>
struct TraceTables {
  // Bit k is Tr(x^k), so Tr(c) is the parity of c & mask.
  std::uint64_t mask[2] = {0, 0};
  // as_image[k] = S(x^k) for the linear map
  //   S(c) = sum_{i=0}^{m-2} c^(2^i) * sum_{j=i+1}^{m-1} theta^(2^j),
  // where Tr(theta) = 1. S(c)^2 + S(c) = c + Tr(c) theta, so S solves
  // y^2 + y = c whenever Tr(c) = 0.
  std::array<F, F::kBits> as_image{};

  TraceTables() {
    F theta = F::zero();
    for (unsigned k = 0; k < F::kBits; ++k) {
      if (trace_by_frobenius(F::basis_element(k)) == F::one()) {
        mask[k / 64] |= std::uint64_t{1} << (k % 64);
        if (theta.is_zero()) theta = F::basis_element(k);
      }
    }
    FTC_CHECK(!theta.is_zero(),
              "no trace-one element found (modulus not irreducible?)");
    std::array<F, F::kBits> theta_pow{};  // theta^(2^j)
    theta_pow[0] = theta;
    for (unsigned j = 1; j < F::kBits; ++j) {
      theta_pow[j] = theta_pow[j - 1].square();
    }
    std::array<F, F::kBits + 1> suffix{};  // sum_{j >= i} theta^(2^j)
    for (unsigned j = F::kBits; j-- > 0;) {
      suffix[j] = suffix[j + 1] + theta_pow[j];
    }
    for (unsigned k = 0; k < F::kBits; ++k) {
      F y = F::zero();
      F cpow = F::basis_element(k);  // (x^k)^(2^i)
      for (unsigned i = 0; i + 1 < F::kBits; ++i) {
        y += cpow * suffix[i + 1];
        cpow = cpow.square();
      }
      as_image[k] = y;
    }
  }
};

template <typename F>
const TraceTables<F>& trace_tables() {
  static const TraceTables<F> tables;
  return tables;
}

}  // namespace detail

// Absolute trace Tr: F -> GF(2) (returned as the field's 0 or 1 element).
template <typename F>
F trace(F x) {
  const auto& t = detail::trace_tables<F>();
  unsigned parity = 0;
  for (unsigned w = 0; w < F::kWords; ++w) {
    parity ^= static_cast<unsigned>(__builtin_popcountll(x.word(w) & t.mask[w]));
  }
  return (parity & 1) != 0 ? F::one() : F::zero();
}

// Solves y^2 + y = c. Returns true and writes a solution to *out iff
// Tr(c) = 0 (the solvability criterion); the other solution is *out + 1.
template <typename F>
bool solve_artin_schreier(F c, F* out) {
  if (trace(c) != F::zero()) return false;
  const auto& t = detail::trace_tables<F>();
  F y = F::zero();
  for (unsigned w = 0; w < F::kWords; ++w) {
    for (std::uint64_t bits = c.word(w); bits != 0; bits &= bits - 1) {
      y += t.as_image[w * 64 + static_cast<unsigned>(__builtin_ctzll(bits))];
    }
  }
  FTC_CHECK(y.square() + y == c, "Artin-Schreier solver self-check failed");
  *out = y;
  return true;
}

// Roots of x^2 + b*x + c over F, written to out[0..n) where n is the
// return value: 0 (no root in F), 1 (b = 0: the double root sqrt(c),
// reported once) or 2 (distinct roots).
template <typename F>
unsigned solve_quadratic(F b, F c, F out[2]) {
  if (b.is_zero()) {
    out[0] = sqrt(c);  // (x + sqrt(c))^2
    return 1;
  }
  // x = b*y turns the equation into y^2 + y = c / b^2.
  F y;
  if (!solve_artin_schreier(c * inverse(b * b), &y)) return 0;
  out[0] = b * y;
  out[1] = out[0] + b;
  return 2;
}

}  // namespace ftc::gf

namespace std {
template <unsigned Bits, uint64_t R>
struct hash<ftc::gf::GF2Small<Bits, R>> {
  size_t operator()(const ftc::gf::GF2Small<Bits, R>& x) const noexcept {
    return std::hash<uint64_t>{}(x.value());
  }
};
template <>
struct hash<ftc::gf::GF2_64> {
  size_t operator()(const ftc::gf::GF2_64& x) const noexcept {
    return std::hash<uint64_t>{}(x.value());
  }
};
template <>
struct hash<ftc::gf::GF2_128> {
  size_t operator()(const ftc::gf::GF2_128& x) const noexcept {
    return std::hash<uint64_t>{}(x.lo() * 0x9e3779b97f4a7c15ULL ^ x.hi());
  }
};
}  // namespace std
