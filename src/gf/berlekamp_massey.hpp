// Berlekamp-Massey: minimal LFSR synthesis over GF(2^m).
//
// Given the power-sum syndrome sequence S_1, ..., S_{2t} of an unknown
// support set X (|X| <= t), finds the error-locator polynomial
//   sigma(z) = prod_{x in X} (1 - x z),
// i.e. the minimal connection polynomial with sigma(0) = 1 whose
// coefficients satisfy sum_j sigma_j S_{i-j} = 0 for all i > deg sigma.
// This is the O(k^2)-time half of Proposition 2's decoder.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "gf/gf2.hpp"

namespace ftc::gf {

// s[0..N-1] holds S_1..S_N. Writes the connection polynomial into
// sigma[0..N] (sigma[0] = 1, higher coefficients zero-padded) and returns
// its degree, the index of its highest nonzero coefficient. prev is
// scratch. Both buffers are sized to N + 1 and swapped, never copied, so
// reused buffers make this allocation-free. If the sequence is not
// generated by an LFSR of length <= N/2 the result is unspecified
// (callers must verify).
//
// The iteration is inversion-free: where textbook BM adds
// (d / bb) x^m prev to sigma, this sets sigma <- bb sigma + d x^m prev, a
// nonzero multiple of the textbook polynomial with the same discrepancies
// up to scale, hence the same decisions. One inversion at the end makes
// sigma[0] = 1, and none is needed when sigma[0] is already 1 — always
// so for a support of size 1, the common case.
template <typename F>
int berlekamp_massey(std::span<const F> s, std::vector<F>& sigma,
                     std::vector<F>& prev) {
  const std::size_t n_total = s.size();
  sigma.assign(n_total + 1, F::zero());
  prev.assign(n_total + 1, F::zero());
  sigma[0] = F::one();
  prev[0] = F::one();
  // Invariants at step n: deg sigma <= l and m + deg prev <= n + 1 - l,
  // so x^m prev never reaches past x^max(l, n + 1 - l), and every
  // coefficient written below has index <= N.
  unsigned l = 0;   // current LFSR length
  unsigned m = 1;   // steps since the last length change
  F bb = F::one();  // discrepancy at that change

  for (std::size_t n = 0; n < n_total; ++n) {
    // Discrepancy d = sum_{i=0}^{l} sigma_i * S_{n+1-i}.
    F d = sigma[0] * s[n];
    for (unsigned i = 1; i <= l && i <= n; ++i) d += sigma[i] * s[n - i];
    if (d.is_zero()) {
      ++m;
      continue;
    }
    if (2 * l <= n) {
      // bb sigma + d x^m prev, built over prev from the top down so each
      // prev coefficient is read before it is overwritten; the old sigma
      // becomes prev by a swap.
      const unsigned nl = static_cast<unsigned>(n + 1 - l);
      for (unsigned i = nl + 1; i-- > 0;) {
        prev[i] = i >= m ? bb * sigma[i] + d * prev[i - m] : bb * sigma[i];
      }
      std::swap(sigma, prev);
      l = nl;
      bb = d;
      m = 1;
    } else {
      for (unsigned i = 0; i < m; ++i) sigma[i] *= bb;
      for (unsigned i = m; i <= l; ++i) {
        sigma[i] = bb * sigma[i] + d * prev[i - m];
      }
      ++m;
    }
  }
  int deg = static_cast<int>(l);
  while (deg > 0 && sigma[deg].is_zero()) --deg;
  if (sigma[0] != F::one()) {
    const F inv = inverse(sigma[0]);
    for (int i = 0; i <= deg; ++i) sigma[i] *= inv;
  }
  return deg;
}

}  // namespace ftc::gf
