// Eight field elements at once: the lane type of the decoder's verify walk
// (sketch::power_sums_match) and of the root finder's trace walk
// (gf::detail::trace_mod_lanes).
//
// Lanes<F> holds 8 elements of F and adds, multiplies and compares them
// lane by lane. The body is picked at compile time only, like clmul.hpp's:
//  * GF(2^64) with VPCLMULQDQ and AVX-512F: one zmm register. A multiply
//    is two VPCLMULQDQ (even and odd lanes), two unpacks and a shift-XOR
//    fold by x^64 = x^4 + x^3 + x + 1 (GF2_64::reduce done with shifts);
//    loads and compares of a partial vector are masked, so a tail of
//    n < 8 lanes reads nothing past its n-th element.
//  * GF(2^64) without them: 8 GF2_64 multiplies, each the PCLMUL scalar
//    body of clmul() or, without PCLMUL, its portable body.
//  * GF(2^128) and the small fields keep their scalar multiply: the
//    primary template is 8 F values and every operation is a loop.
// Every body gives the same bits as F's own operators (tests/test_gf2.cpp).
// kVector says whether the vector body is in use. The root finder pads
// its rows to whole vectors and runs trace_mod_lanes only when it is, and
// its scalar trace_mod otherwise (see split_factor in trace_roots.hpp).
#pragma once

#include <array>
#include <cstdint>

#include "gf/gf2.hpp"

#if defined(__VPCLMULQDQ__) && defined(__AVX512F__)
#include <immintrin.h>
#define FTC_HAVE_VPCLMUL_LANES 1
#else
#define FTC_HAVE_VPCLMUL_LANES 0
#endif

namespace ftc::gf {

template <typename F>
struct Lanes {
  static constexpr unsigned kWidth = 8;
  static constexpr bool kVector = false;

  std::array<F, kWidth> v{};

  static Lanes zero() { return {}; }
  static Lanes broadcast(F x) {
    Lanes r;
    r.v.fill(x);
    return r;
  }
  // Lanes 0..n-1 from p[0..n), the rest zero (n <= 8).
  static Lanes load(const F* p, unsigned n = kWidth) {
    Lanes r;
    for (unsigned i = 0; i < n; ++i) r.v[i] = p[i];
    return r;
  }
  // Writes all 8 lanes to p[0..8).
  void store(F* p) const {
    for (unsigned i = 0; i < kWidth; ++i) p[i] = v[i];
  }
  // Every lane set to lane i.
  Lanes broadcast_lane(unsigned i) const { return broadcast(v[i]); }
  // Lane 2m is lane 4 * half + m (m < 4, half < 2) when 2m < n; every
  // other lane is zero.
  Lanes spread_even(unsigned half, unsigned n) const {
    Lanes r;
    for (unsigned m = 0; m < kWidth / 2 && 2 * m < n; ++m) {
      r.v[2 * m] = v[4 * half + m];
    }
    return r;
  }
  // True iff lanes 0..n-1 equal p[0..n) (n <= 8); reads only those n.
  bool equals(const F* p, unsigned n) const {
    for (unsigned i = 0; i < n; ++i) {
      if (v[i] != p[i]) return false;
    }
    return true;
  }

  Lanes& operator+=(const Lanes& o) {
    for (unsigned i = 0; i < kWidth; ++i) v[i] += o.v[i];
    return *this;
  }
  friend Lanes operator+(Lanes a, const Lanes& b) { return a += b; }

  // Unreduced lane products; see GF2Small::Wide.
  struct Wide {
    std::array<typename F::Wide, kWidth> w{};

    Wide& operator^=(const Wide& o) {
      for (unsigned i = 0; i < kWidth; ++i) w[i] ^= o.w[i];
      return *this;
    }
  };
  static Wide mul_wide(const Lanes& a, const Lanes& b) {
    Wide r;
    for (unsigned i = 0; i < kWidth; ++i) r.w[i] = F::mul_wide(a.v[i], b.v[i]);
    return r;
  }
  static Lanes reduce(const Wide& p) {
    Lanes r;
    for (unsigned i = 0; i < kWidth; ++i) r.v[i] = F::reduce(p.w[i]);
    return r;
  }

  friend Lanes operator*(const Lanes& a, const Lanes& b) {
    Lanes r;
    for (unsigned i = 0; i < kWidth; ++i) r.v[i] = a.v[i] * b.v[i];
    return r;
  }
  // In place, from a copy of o (which may be *this). GCC -O2 leaves this
  // loop rolled for GF(2^128). Unrolled, BM_VerifyWalk on a PCLMUL-only
  // build ran 1.2-1.3x faster over GF(2^128) but 12-17% slower over
  // GF(2^64) at d >= 2, so only elements wider than a word are unrolled.
  Lanes& operator*=(const Lanes& o) {
    const Lanes b = o;
    if constexpr (sizeof(F) > sizeof(std::uint64_t)) {
#pragma GCC unroll 8
      for (unsigned i = 0; i < kWidth; ++i) v[i] *= b.v[i];
    } else {
      for (unsigned i = 0; i < kWidth; ++i) v[i] *= b.v[i];
    }
    return *this;
  }
  Lanes square() const { return *this * *this; }
};

#if FTC_HAVE_VPCLMUL_LANES

static_assert(sizeof(GF2_64) == sizeof(std::uint64_t),
              "Lanes<GF2_64> loads and stores GF2_64 arrays as 64-bit words");

template <>
struct Lanes<GF2_64> {
  static constexpr unsigned kWidth = 8;
  static constexpr bool kVector = true;

  __m512i v;

  static __mmask8 first(unsigned n) {
    return static_cast<__mmask8>(0xFFu >> (kWidth - n));
  }

  static Lanes zero() { return {_mm512_setzero_si512()}; }
  static Lanes broadcast(GF2_64 x) {
    return {_mm512_set1_epi64(static_cast<long long>(x.value()))};
  }
  static Lanes load(const GF2_64* p, unsigned n = kWidth) {
    return {_mm512_maskz_loadu_epi64(first(n), p)};
  }
  void store(GF2_64* p) const { _mm512_storeu_si512(p, v); }
  Lanes broadcast_lane(unsigned i) const {
    return {_mm512_permutexvar_epi64(_mm512_set1_epi64(i), v)};
  }
  Lanes spread_even(unsigned half, unsigned n) const {
    const long long b = 4 * static_cast<long long>(half);
    const __m512i idx = _mm512_set_epi64(0, b + 3, 0, b + 2, 0, b + 1, 0, b);
    return {_mm512_maskz_permutexvar_epi64(
        static_cast<__mmask8>(0x55 & first(n)), idx, v)};
  }
  bool equals(const GF2_64* p, unsigned n) const {
    const __mmask8 m = first(n);
    const __m512i o = _mm512_maskz_loadu_epi64(m, p);
    return _mm512_mask_cmpneq_epu64_mask(m, v, o) == 0;
  }

  Lanes& operator+=(const Lanes& o) {
    v = _mm512_xor_si512(v, o.v);
    return *this;
  }
  friend Lanes operator+(Lanes a, const Lanes& b) { return a += b; }

  // The raw VPCLMULQDQ outputs: `even` holds the 128-bit products of
  // lanes 0, 2, 4, 6 and `odd` those of lanes 1, 3, 5, 7. XOR-sums of
  // them reduce like a sum of field products.
  struct Wide {
    __m512i even = _mm512_setzero_si512();
    __m512i odd = _mm512_setzero_si512();

    Wide& operator^=(const Wide& o) {
      even = _mm512_xor_si512(even, o.even);
      odd = _mm512_xor_si512(odd, o.odd);
      return *this;
    }
  };
  static Wide mul_wide(const Lanes& a, const Lanes& b) {
    return {_mm512_clmulepi64_epi128(a.v, b.v, 0x00),
            _mm512_clmulepi64_epi128(a.v, b.v, 0x11)};
  }
  static Lanes reduce(const Wide& p) {
    constexpr int kXor3 = 0x96;  // a ^ b ^ c
    const __m512i lo = _mm512_unpacklo_epi64(p.even, p.odd);
    const __m512i hi = _mm512_unpackhi_epi64(p.even, p.odd);
    // hi * (x^4 + x^3 + x + 1): its low word, and the <= 4 bits that
    // overflow it, which fold once more without overflowing.
    __m512i r = _mm512_ternarylogic_epi64(lo, hi, _mm512_slli_epi64(hi, 1),
                                          kXor3);
    r = _mm512_ternarylogic_epi64(r, _mm512_slli_epi64(hi, 3),
                                  _mm512_slli_epi64(hi, 4), kXor3);
    const __m512i o = _mm512_ternarylogic_epi64(_mm512_srli_epi64(hi, 63),
                                                _mm512_srli_epi64(hi, 61),
                                                _mm512_srli_epi64(hi, 60),
                                                kXor3);
    r = _mm512_ternarylogic_epi64(r, o, _mm512_slli_epi64(o, 1), kXor3);
    r = _mm512_ternarylogic_epi64(r, _mm512_slli_epi64(o, 3),
                                  _mm512_slli_epi64(o, 4), kXor3);
    return {r};
  }

  friend Lanes operator*(const Lanes& a, const Lanes& b) {
    return reduce(mul_wide(a, b));
  }
  Lanes& operator*=(const Lanes& o) { return *this = *this * o; }
  Lanes square() const { return *this * *this; }
};

#endif  // FTC_HAVE_VPCLMUL_LANES

}  // namespace ftc::gf
