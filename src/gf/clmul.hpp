// Carry-less (polynomial over GF(2)) 64x64 -> 128 multiplication.
//
// Uses the PCLMULQDQ instruction when available, with a portable
// shift-and-xor fallback that is bit-identical (verified in tests).
#pragma once

#include <cstdint>

#if defined(__PCLMUL__)
#include <wmmintrin.h>
#define FTC_HAVE_CLMUL 1
#else
#define FTC_HAVE_CLMUL 0
#endif

namespace ftc::gf {

// 128-bit carry-less product, little-endian words.
struct U128 {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  U128& operator^=(U128 o) {
    lo ^= o.lo;
    hi ^= o.hi;
    return *this;
  }
};

inline U128 clmul_portable(std::uint64_t a, std::uint64_t b) {
  U128 r;
  while (b != 0) {
    const int i = __builtin_ctzll(b);
    b &= b - 1;
    r.lo ^= a << i;
    if (i != 0) r.hi ^= a >> (64 - i);
  }
  return r;
}

#if FTC_HAVE_CLMUL
inline U128 clmul(std::uint64_t a, std::uint64_t b) {
  const __m128i va = _mm_set_epi64x(0, static_cast<long long>(a));
  const __m128i vb = _mm_set_epi64x(0, static_cast<long long>(b));
  const __m128i p = _mm_clmulepi64_si128(va, vb, 0x00);
  U128 r;
  r.lo = static_cast<std::uint64_t>(_mm_cvtsi128_si64(p));
  r.hi = static_cast<std::uint64_t>(_mm_cvtsi128_si64(_mm_srli_si128(p, 8)));
  return r;
}
#else
inline U128 clmul(std::uint64_t a, std::uint64_t b) {
  return clmul_portable(a, b);
}
#endif

}  // namespace ftc::gf
