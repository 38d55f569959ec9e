// CRC-64/XZ: slice-by-8 tables (always compiled) and the PCLMULQDQ fold.
//
// Notation. The CRC is reflected: byte 0 bit 0 is the message's highest
// power of x, and a little-endian u64 load of bytes [i, i + 8) holds
// coefficients x^63 .. x^0 of that 64-bit block in bits 0 .. 63. A raw
// CRC (register seeded 0, no final invert) of a message M is
// M * x^64 mod P. Seeding the register with S is the same as XORing S
// into the first eight message bytes, which is how the fold path
// starts.
//
// Fold kernel. A 16-byte lane (lo qword A, hi qword B) stands for
// A * x^64 + B. Moving it T bits forward multiplies it by x^T, which
// mod P is A * (x^(T+64) mod P) + B * (x^T mod P): two 64x64 carry-less
// products, each under 128 bits. A reflected carry-less product comes
// out multiplied by one extra x, so the constants are x^(T+63) and
// x^(T-1) mod P. Four lanes fold by T = 512 bits; at the end lanes 0..2
// fold into lane 3 by 384, 256 and 128 bits, whole 16-byte blocks fold
// in by 128 bits, and one Barrett step reduces the last 128-bit lane to
// the 64-bit register. Bytes past the last whole block go through the
// tables.
#include "util/digest.hpp"

#include <array>

#include "gf/clmul.hpp"

#if FTC_HAVE_CLMUL
#include <emmintrin.h>
#endif

namespace ftc::util {
namespace {

// P = x^64 + kPoly; kPolyRef is kPoly bit-reversed (the reflected form).
constexpr std::uint64_t kPoly = 0x42F0E1EBA9EA3693ULL;
constexpr std::uint64_t kPolyRef = 0xC96C5795D7870F42ULL;

constexpr std::uint64_t reverse64(std::uint64_t v) {
  std::uint64_t r = 0;
  for (int i = 0; i < 64; ++i) {
    r = (r << 1) | (v & 1);
    v >>= 1;
  }
  return r;
}
static_assert(reverse64(kPoly) == kPolyRef);

using Table = std::array<std::array<std::uint64_t, 256>, 8>;

// kTables[0][b] is the raw CRC of the single byte b; kTables[j][b] is
// the raw CRC of b followed by j zero bytes, so eight lookups advance
// the register by one 8-byte word.
constexpr Table make_tables() {
  Table t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint64_t c = b;
    for (int i = 0; i < 8; ++i) c = (c >> 1) ^ ((c & 1) != 0 ? kPolyRef : 0);
    t[0][b] = c;
  }
  for (std::size_t j = 1; j < 8; ++j) {
    for (std::size_t b = 0; b < 256; ++b) {
      const std::uint64_t c = t[j - 1][b];
      t[j][b] = (c >> 8) ^ t[0][c & 0xff];
    }
  }
  return t;
}
constexpr Table kTables = make_tables();

// Raw register update over `n` bytes (no seed or final invert).
std::uint64_t crc64_table(const std::uint8_t* p, std::size_t n,
                          std::uint64_t crc) {
  for (; n >= 8; p += 8, n -= 8) {
    crc ^= read_u64_le(p);
    crc = kTables[7][crc & 0xff] ^ kTables[6][(crc >> 8) & 0xff] ^
          kTables[5][(crc >> 16) & 0xff] ^ kTables[4][(crc >> 24) & 0xff] ^
          kTables[3][(crc >> 32) & 0xff] ^ kTables[2][(crc >> 40) & 0xff] ^
          kTables[1][(crc >> 48) & 0xff] ^ kTables[0][crc >> 56];
  }
  for (; n > 0; ++p, --n) crc = kTables[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
  return crc;
}

#if FTC_HAVE_CLMUL

// x^n mod P, reflected.
constexpr std::uint64_t xpow_mod_ref(unsigned n) {
  std::uint64_t v = 1;  // normal (unreflected) representation
  for (unsigned i = 0; i < n; ++i) {
    v = (v << 1) ^ ((v >> 63) != 0 ? kPoly : 0);
  }
  return reverse64(v);
}

// floor(x^128 / P) minus its x^64 term, reflected (the Barrett constant).
constexpr std::uint64_t barrett_mu_ref() {
  // After the x^64 quotient term, the remainder is kPoly * x^64; each
  // further quotient bit x^(d-64) cancels remainder term x^d.
  unsigned __int128 r = static_cast<unsigned __int128>(kPoly) << 64;
  std::uint64_t q = 0;
  for (int d = 127; d >= 64; --d) {
    if (((r >> d) & 1) != 0) {
      q |= std::uint64_t{1} << (d - 64);
      r ^= (static_cast<unsigned __int128>(1) << d) ^
           (static_cast<unsigned __int128>(kPoly) << (d - 64));
    }
  }
  return reverse64(q);
}

// Fold constants for distance T: lo qword multiplies lane qword A, hi
// qword multiplies lane qword B.
template <unsigned T>
inline __m128i fold_constants() {
  constexpr std::uint64_t kA = xpow_mod_ref(T + 63);
  constexpr std::uint64_t kB = xpow_mod_ref(T - 1);
  return _mm_set_epi64x(static_cast<long long>(kB), static_cast<long long>(kA));
}

inline __m128i fold(__m128i lane, __m128i k, __m128i next) {
  const __m128i a = _mm_clmulepi64_si128(lane, k, 0x00);
  const __m128i b = _mm_clmulepi64_si128(lane, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(a, b), next);
}

inline __m128i load(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Raw register update over n >= 64 bytes; returns the register and
// advances p/n past every whole 16-byte block.
std::uint64_t crc64_fold(const std::uint8_t*& p, std::size_t& n,
                         std::uint64_t crc) {
  const __m128i k512 = fold_constants<512>();
  const __m128i k128 = fold_constants<128>();
  constexpr std::uint64_t kX127 = xpow_mod_ref(127);
  constexpr std::uint64_t kMu = barrett_mu_ref();

  __m128i x0 = _mm_xor_si128(load(p),
                             _mm_set_epi64x(0, static_cast<long long>(crc)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x0 = fold(x0, k512, load(p));
    x1 = fold(x1, k512, load(p + 16));
    x2 = fold(x2, k512, load(p + 32));
    x3 = fold(x3, k512, load(p + 48));
  }
  __m128i x = fold(x0, fold_constants<384>(), x3);
  x = fold(x1, fold_constants<256>(), x);
  x = fold(x2, k128, x);
  for (; n >= 16; p += 16, n -= 16) x = fold(x, k128, load(p));

  // 128 -> 64. The register is (A * x^64 + B) * x^64 mod P. Fold A by
  // x^128 into Z = Zh * x^64 + Zl (B lands in Zh), then Barrett:
  // q = Zh + floor(Zh * mu' / x^64) and the result is Zl + (q * P' mod
  // x^64). The shifts undo the extra x of each reflected product.
  const auto a = static_cast<std::uint64_t>(_mm_cvtsi128_si64(x));
  const auto b = static_cast<std::uint64_t>(
      _mm_cvtsi128_si64(_mm_unpackhi_epi64(x, x)));
  const gf::U128 z = gf::clmul(a, kX127);
  const std::uint64_t zh = z.lo ^ b;
  const std::uint64_t q = zh ^ (gf::clmul(zh, kMu).lo << 1);
  const gf::U128 d = gf::clmul(q, kPolyRef);
  return z.hi ^ ((d.hi << 1) | (d.lo >> 63));
}

#endif  // FTC_HAVE_CLMUL

}  // namespace

std::uint64_t crc64_portable(std::span<const std::uint8_t> bytes,
                             std::uint64_t prev) {
  return ~crc64_table(bytes.data(), bytes.size(), ~prev);
}

std::uint64_t crc64(std::span<const std::uint8_t> bytes, std::uint64_t prev) {
#if FTC_HAVE_CLMUL
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  std::uint64_t crc = ~prev;
  if (n >= 64) crc = crc64_fold(p, n, crc);
  return ~crc64_table(p, n, crc);
#else
  return crc64_portable(bytes, prev);
#endif
}

}  // namespace ftc::util
