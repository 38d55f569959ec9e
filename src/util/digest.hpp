// The digests every artifact format shares: FNV-1a and CRC-64/XZ.
//
// Container headers (label_store.hpp), sharded manifests
// (sharded_store.hpp), deletion-journal frame chains (journal.hpp), the
// manifest params hash and the remote cache's blob keys (shard_cache.hpp)
// digest bytes with 64-bit FNV-1a: those inputs are small or chained.
// Container *payloads* (format v3) use CRC-64/XZ, which folds 64 bytes per
// step with the carry-less multiply instead of one dependent multiply per
// byte; store::payload_digest (label_store.hpp) picks between the two by
// container version. Both are seedable so checksums can be streamed.
// Keeping the constants and the loops here — plus the little-endian field
// readers the binary parsers share — is what guarantees a digest computed
// by one layer (say, a shard writer) verifies in another (say, the cache
// publishing a fetched shard against its manifest record).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>

namespace ftc::util {

inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

// FNV-1a over a byte range, seedable with a previous digest so
// checksums can be streamed (journal frame chains seed each frame with
// the previous frame's running digest).
inline std::uint64_t fnv1a(std::span<const std::uint8_t> bytes,
                           std::uint64_t h = kFnvBasis) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

// CRC-64/XZ (reflected polynomial 0x42F0E1EBA9EA3693, init and final
// XOR all ones; crc64("123456789") == 0x995DC9BBDF1939FA). `prev` is the
// CRC of the bytes before these (0 for none), so crc64(b, crc64(a)) ==
// crc64(a ++ b) wherever the chunk boundary falls. Built with PCLMUL
// (-march=native on x86-64) it runs a 4-lane carry-less fold; otherwise
// it is crc64_portable, the slice-by-8 table loop, which gives the same
// value and is always compiled.
std::uint64_t crc64(std::span<const std::uint8_t> bytes,
                    std::uint64_t prev = 0);
std::uint64_t crc64_portable(std::span<const std::uint8_t> bytes,
                             std::uint64_t prev = 0);

// Unchecked little-endian field reads and writes for binary codecs that
// have already bounds-checked the enclosing region (header copies,
// validated section scans, sized label buffers). The store formats are
// LE regardless of host order: each access is one unaligned load or
// store, byte-swapped only on big-endian hosts.
inline std::uint64_t to_le(std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    return __builtin_bswap64(v);
  }
  return v;
}

inline std::uint32_t to_le(std::uint32_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    return __builtin_bswap32(v);
  }
  return v;
}

inline std::uint64_t read_u64_le(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return to_le(v);
}

inline std::uint32_t read_u32_le(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return to_le(v);
}

inline void write_u64_le(std::uint8_t* p, std::uint64_t v) {
  v = to_le(v);
  std::memcpy(p, &v, sizeof v);
}

inline void write_u32_le(std::uint8_t* p, std::uint32_t v) {
  v = to_le(v);
  std::memcpy(p, &v, sizeof v);
}

}  // namespace ftc::util
