// Word-level GF(2) kernels for the decoder hot path.
//
// Everything the serving path accumulates — RS-sketch power sums over
// GF(2^64)/GF(2^128), AGM l0-sampler cells, cycle-space bit vectors and
// the fragment sets' cut bitsets — is addition in characteristic 2, i.e.
// XOR of flattened std::uint64_t arrays. Keeping the kernels here, as
// plain restrict-qualified word loops, lets the compiler auto-vectorize
// one implementation shared by the core decoder (core/ftc_query.cpp:
// merging cut bitsets, and summing a fragment set's level row from the
// clamped payloads of the faults in its cut) and the dp21 backends
// (dp21/*, sketch/agm_sketch.cpp). ftcbench's outage workload and the
// query latency of bench_serving measure the result.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/digest.hpp"

namespace ftc {

// dst[i] ^= src[i]. The ranges must not overlap.
inline void xor_words(std::uint64_t* __restrict dst,
                      const std::uint64_t* __restrict src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= src[i];
}

// The same over little-endian words at any byte offset, the layout of
// the label blobs the builders fold into in place (graph/subtree_xor.hpp):
// word i of row ^= v, and dst[i] ^= src[i] over n words. The ranges must
// not overlap.
inline void xor_le_word(std::uint8_t* row, std::size_t i, std::uint64_t v) {
  std::uint8_t* p = row + 8 * i;
  util::write_u64_le(p, util::read_u64_le(p) ^ v);
}
inline void xor_le_words(std::uint8_t* __restrict dst,
                         const std::uint8_t* __restrict src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    util::write_u64_le(dst + 8 * i, util::read_u64_le(dst + 8 * i) ^
                                        util::read_u64_le(src + 8 * i));
  }
}

// Population count of an n-word bitset.
inline unsigned popcount_words(const std::uint64_t* w, std::size_t n) {
  unsigned c = 0;
  for (std::size_t i = 0; i < n; ++i) {
    c += static_cast<unsigned>(__builtin_popcountll(w[i]));
  }
  return c;
}

// True iff any of the n words is nonzero (word-level zero scan: the
// decoder's per-level emptiness test never materializes field elements).
inline bool any_word_nonzero(const std::uint64_t* w, std::size_t n) {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) acc |= w[i];
  return acc != 0;
}

}  // namespace ftc
