// Deterministic k-threshold set sketch (the paper's first key technique,
// Sections 4.2 and 7.4).
//
// A sketch of a set X of nonzero field elements stores the k odd power
// sums S_1, S_3, ..., S_{2k-1} with S_j = sum_{x in X} x^j — exactly the
// syndrome of X's characteristic vector under the parity-check matrix of a
// Reed-Solomon/BCH code with designed distance 2k+1. Because the
// characteristic vector is binary and char(F) = 2, the even power sums are
// squares of earlier ones (S_{2j} = S_j^2), so k field elements suffice:
// this is the O(k log n)-bit label of Proposition 2.
//
// Properties (all verified by tests):
//  * XOR-homomorphic: merge(a, b) sketches the symmetric difference.
//  * Decodable: if |X| <= k, decode() recovers X exactly in O(k^2) field
//    operations (Berlekamp-Massey + Berlekamp trace root finding).
//  * Prefix-adaptive (Proposition 6 / Appendix B): the first k' syndromes
//    are precisely the k'-threshold sketch of the same set, so a decoder
//    may start small and grow.
//  * Fail-stop: decode() re-verifies every stored syndrome against the
//    recovered support; if |X| > k it returns nullopt or falls through —
//    by the minimum-distance argument it never mis-reports a set of size
//    <= k.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "gf/berlekamp_massey.hpp"
#include "gf/clmul_lanes.hpp"
#include "gf/gf2.hpp"
#include "gf/trace_roots.hpp"
#include "util/common.hpp"

namespace ftc::sketch {

// Calls sink(j, x^(2j+1)) for j = j0, ..., j1 - 1: the terms element x
// adds to syndromes j0..j1-1. One chain p *= x^2 is latency-bound, each
// multiply waiting on the last; this walk runs 8 independent chains,
// chain c starting at x^(2(j0+c)+1) (the first from gf::pow) and
// stepping by x^16, so the carry-less multiplies overlap. Every builder
// and sketch update takes its odd powers from here.
template <typename F, typename Sink>
void for_each_odd_power(const F& x, unsigned j0, unsigned j1, Sink&& sink) {
  constexpr unsigned kChains = 8;
  if (j0 >= j1) return;
  const F x2 = x.square();
  std::array<F, kChains> p{};
  p[0] = gf::pow(x, 2 * std::uint64_t{j0} + 1);
  for (unsigned c = 1; c < std::min(kChains, j1 - j0); ++c) {
    p[c] = p[c - 1] * x2;
  }
  const F stride = x2.square().square().square();  // x^16
  unsigned j = j0;
  for (; j1 - j >= kChains; j += kChains) {
    for (unsigned c = 0; c < kChains; ++c) {
      sink(j + c, p[c]);
      p[c] *= stride;
    }
  }
  for (unsigned c = 0; j < j1; ++j, ++c) sink(j, p[c]);
}

// Odd power sums S_1, S_3, ..., S_{2k-1} of xs, into a reused buffer.
template <typename F>
void odd_power_sums_into(std::span<const F> xs, unsigned k,
                         std::vector<F>& syn) {
  syn.assign(k, F::zero());
  for (const F& x : xs) {
    for_each_odd_power(x, 0, k, [&](unsigned j, const F& p) { syn[j] += p; });
  }
}

// Odd power sums S_1, S_3, ..., S_{2k-1} of xs.
template <typename F>
std::vector<F> odd_power_sums(std::span<const F> xs, unsigned k) {
  std::vector<F> syn;
  odd_power_sums_into(xs, k, syn);
  return syn;
}

namespace detail {

// Walks the odd power sums of the elements of xs (at most kMax) over
// syndromes base .. base + 8 * steps, calling step(s, sum) with the 8
// sums of syndromes base + 8s .. base + 8s + 7 (lanes past the caller's
// width hold the next powers and are ignored by it). Element x is one
// lane vector of 8 stripes, x^(2(base+c)+1) in lane c, that steps by
// x^16, so its 8 multiplies run as one; the elements' vectors are
// independent chains. Stops and returns false when step does.
template <unsigned kMax, typename F, typename Step>
bool walk_odd_powers(std::span<const F> xs, unsigned base, unsigned steps,
                     Step&& step) {
  using L = gf::Lanes<F>;
  const unsigned n = static_cast<unsigned>(xs.size());
  std::array<L, kMax> p{};
  std::array<L, kMax> stride{};
  for (unsigned i = 0; i < n; ++i) {
    const F x = xs[i];
    const F x2 = x.square();
    const F x4 = x2.square();
    const F x8 = x4.square();
    const F x3 = x * x2;
    const F x5 = x * x4;
    const F x7 = x3 * x4;
    const F pw[L::kWidth] = {x, x3, x5, x7, x * x8, x3 * x8, x5 * x8, x7 * x8};
    p[i] = L::load(pw);
    if (base != 0) p[i] *= L::broadcast(gf::pow(x2, base));
    stride[i] = L::broadcast(x8.square());
  }
  for (unsigned s = 0; s < steps; ++s) {
    L sum = L::zero();
    for (unsigned i = 0; i < n; ++i) {
      sum += p[i];
      p[i] *= stride[i];
    }
    if (!step(s, sum)) return false;
  }
  return true;
}

// walk_odd_powers for a group of at most 8 elements. A lone element (most
// decoded supports) gets its own instance, whose one chain stays in
// registers: BM_VerifyWalk d = 1 takes 0.7-0.8x the time of the 8-element
// instance on the zmm body.
template <typename F, typename Step>
bool walk_group(std::span<const F> xs, unsigned base, unsigned steps,
                Step&& step) {
  if (xs.size() == 1) return walk_odd_powers<1>(xs, base, steps, step);
  return walk_odd_powers<gf::Lanes<F>::kWidth>(xs, base, steps, step);
}

}  // namespace detail

// Check that the odd power sums of xs equal syn[0 .. w), every one of
// the w syndromes compared exactly. This is the decoder's fail-stop
// verification, so it runs on every accepted decode and its constant
// matters: it is one gf::Lanes walk (8 syndromes per step, a masked
// compare for the last w mod 8), and exits on the first mismatched step.
// A support of more than 8 elements is walked 8 elements at a time in
// blocks of 512 syndromes, summing the groups' steps before comparing.
template <typename F>
bool power_sums_match(std::span<const F> xs, std::span<const F> syn,
                      unsigned w) {
  using L = gf::Lanes<F>;
  constexpr unsigned kGroup = L::kWidth;
  constexpr unsigned kSteps = 64;  // steps per block of syndromes
  const std::size_t d = xs.size();
  for (unsigned base = 0; base < w; base += kSteps * L::kWidth) {
    const unsigned steps =
        std::min(kSteps, (w - base + L::kWidth - 1) / L::kWidth);
    const auto matches = [&](unsigned s, const L& sum) {
      const unsigned j = base + s * L::kWidth;
      return sum.equals(syn.data() + j, std::min(L::kWidth, w - j));
    };
    if (d <= kGroup) {
      if (!detail::walk_group(xs, base, steps, matches)) return false;
      continue;
    }
    std::array<L, kSteps> acc;
    const std::size_t last = (d - 1) / kGroup * kGroup;
    for (std::size_t g = 0; g < last; g += kGroup) {
      detail::walk_group(xs.subspan(g, kGroup), base, steps,
                         [&](unsigned s, const L& sum) {
                           acc[s] = g == 0 ? sum : acc[s] + sum;
                           return true;
                         });
    }
    const auto closes = [&](unsigned s, const L& sum) {
      return matches(s, sum + acc[s]);
    };
    if (!detail::walk_group(xs.subspan(last), base, steps, closes)) {
      return false;
    }
  }
  return true;
}

// Reusable scratch for the span-based decoders below. Owning one of these
// per worker thread (the decoder keeps one in DecoderWorkspace) makes the
// query-time decode allocation-free after warm-up: the expanded power-sum
// table, the locator polynomials, the root finder's factor stack, the
// candidate support and the verification syndromes all live in buffers
// that are recycled across calls instead of re-allocated per sketch.
template <typename F>
struct SketchDecodeScratch {
  std::vector<F> syn;      // staging: syndromes gathered from raw words
  std::vector<F> s;        // expanded S_1..S_2k (index 1-based)
  std::vector<F> sigma;    // Berlekamp-Massey connection polynomial
  std::vector<F> aux;      // BM's previous polynomial, then sigma*
  gf::RootScratch<F> roots;
  std::vector<F> support;  // decoded support — the decoders' output
};

// Span-based core of RsSketch::decode: attempts to recover the set
// sketched by `syn` assuming its size is <= t (t <= syn.size()). On
// success returns true with the sorted support in scratch.support; on
// failure returns false (fail-stop, never mis-reports a set of size <= k).
// Allocation-free given a warm scratch: no polynomial object is built,
// Berlekamp-Massey and the root finder work in the scratch buffers.
template <typename F>
bool decode_syndromes(std::span<const F> syn, unsigned t,
                      SketchDecodeScratch<F>& scratch) {
  const unsigned kk = static_cast<unsigned>(syn.size());
  FTC_REQUIRE(t <= kk, "decode threshold exceeds sketch capacity");
  scratch.support.clear();
  const auto all_zero = [&syn] {
    for (const F& x : syn) {
      if (!x.is_zero()) return false;
    }
    return true;
  };
  if (t == 0) return all_zero();
  // Reconstruct S_1..S_2k: odd entries stored, even entries are squares.
  std::vector<F>& s = scratch.s;
  s.assign(2 * kk + 1, F::zero());  // s[i] = S_i, index 1-based
  for (unsigned i = 1; i <= 2 * kk; ++i) {
    s[i] = (i % 2 == 1) ? syn[(i - 1) / 2] : s[i / 2].square();
  }
  const int deg = gf::berlekamp_massey<F>(
      std::span<const F>(s.data() + 1, 2 * t), scratch.sigma, scratch.aux);
  if (static_cast<unsigned>(deg) > t) return false;
  if (deg == 0) return all_zero();
  const F* sigma = scratch.sigma.data();
  // Cheap consistency filter before the (expensive) root finding: a
  // correct locator annihilates the whole syndrome sequence, so check
  // the LFSR recurrence on the syndromes beyond the 2t used by BM.
  // Wrong-threshold attempts (t < |X|) are rejected here in O(k deg)
  // instead of surviving to the trace algorithm.
  for (unsigned i = 2 * t + 1; i <= 2 * kk; ++i) {
    F acc = s[i];
    for (int j = 1; j <= deg; ++j) acc += sigma[j] * s[i - j];
    if (!acc.is_zero()) return false;
  }
  // sigma(z) = prod (1 - x z), so the reciprocal locator
  // sigma*(z) = z^deg sigma(1/z) = prod (z + x) is monic and its roots are
  // the support itself: no per-root inversion.
  std::vector<F>& locator = scratch.aux;
  locator.resize(static_cast<std::size_t>(deg) + 1);
  for (int i = 0; i <= deg; ++i) locator[i] = sigma[deg - i];
  if (!gf::find_roots<F>(locator, scratch.roots, scratch.support)) {
    return false;
  }
  // Full verification against every stored syndrome (fail-stop).
  if (!power_sums_match<F>(scratch.support, syn, kk)) {
    scratch.support.clear();
    return false;
  }
  return true;  // find_roots returns the support sorted
}

// One field element from its little-endian word representation (the
// flattened layout shared by edge-label payloads, PreparedFaults rows and
// AgmSketch cells: F::kWords std::uint64_t words per element).
template <typename F>
F element_from_words(const std::uint64_t* w) {
  if constexpr (F::kWords == 1) {
    return F(w[0]);
  } else {
    return F(w[0], w[1]);
  }
}

// Word-lazy windowed adaptive decoder — the query hot path's entry point.
//
// `words` is a flattened array of k syndromes (F::kWords words each).
// Rather than materializing all k field elements and verifying every
// attempt against the full sketch (O(k) field operations per attempt even
// for tiny sets), this exploits the prefix property (Proposition 6): the
// first w syndromes are exactly the w-threshold sketch of the same set,
// so each doubling attempt at threshold t decodes the w = 4t prefix and
// verifies against it alone.
//
// Fail-stop is preserved EXACTLY: a candidate support S (|S| = d) is
// accepted only after it also matches the first w* >= (k + d) / 2
// syndromes. Matching w* odd power sums pins S_1..S_{2w*} (even sums are
// squares in characteristic 2), so by the BCH minimum-distance argument
// X != S would need |X Δ S| >= 2w* + 1 > k + d >= |X| + |S| — impossible
// for any true set X of size <= k. Hence, like the full decoder, a set
// within capacity is never mis-reported; sets exceeding capacity fail
// (false). Cost: a set of size d pays O(d^2) per failed attempt and one
// O(d * k/2) closure verification, and only ~k/2 of the k elements are
// ever gathered. The query path passes a level's clamped width
// min(k, bound_l) as k, so a sound per-level population bound shrinks
// both.
//
// start_hint seeds the doubling threshold (0 = start at 1). Any value is
// sound — every attempt is exact and closure-verified — so callers pass
// the previous decode's support size: fragment boundaries change slowly
// across merges within one query, making the first attempt usually the
// last.
template <typename F>
bool decode_sketch_words(const std::uint64_t* words, unsigned k,
                         SketchDecodeScratch<F>& scratch, bool adaptive,
                         unsigned start_hint = 0) {
  std::vector<F>& syn = scratch.syn;
  syn.clear();
  const auto gather = [&](unsigned upto) {
    const std::size_t have = syn.size();
    if (upto <= have) return;
    syn.resize(upto);
    for (std::size_t j = have; j < upto; ++j) {
      syn[j] = element_from_words<F>(words + j * F::kWords);
    }
  };
  if (!adaptive) {
    // Ablation path (QueryOptions::adaptive = false): the plain decode at
    // the full width k the caller passes (a level's k_b on the query
    // path), verified against every syndrome.
    gather(k);
    return decode_syndromes<F>(syn, k, scratch);
  }
  unsigned t = std::max(1u, std::min(k, start_hint));
  while (true) {
    const unsigned w = std::min(k, 4 * t);
    gather(w);
    // An empty support from a zero window can only be trusted at full
    // width (a nonzero sketch with a zero w*-prefix means |X| > k): keep
    // doubling so the t = k round gives the exact bounded-width answer.
    if (decode_syndromes<F>(std::span<const F>(syn.data(), w), t, scratch) &&
        (!scratch.support.empty() || w == k)) {
      const unsigned d = static_cast<unsigned>(scratch.support.size());
      const unsigned w_star = std::min(k, std::max(w, (k + d + 1) / 2));
      if (w_star <= w) return true;  // the attempt window already closes it
      gather(w_star);
      if (!scratch.support.empty() &&
          power_sums_match<F>(scratch.support,
                              std::span<const F>(syn.data(), w_star),
                              w_star)) {
        return true;
      }
      // A window-w collision from a set larger than w: keep doubling —
      // at t = k this becomes the exact bounded-width decode.
      scratch.support.clear();
    }
    if (t == k) return false;
    t = std::min(2 * t, k);
  }
}

// Doubling search over thresholds (the adaptive decoding of Section 6 /
// Appendix B), span form: total cost is dominated by the final successful
// attempt, so a set of size d decodes in ~O(d^2) instead of O(k^2).
template <typename F>
bool decode_syndromes_adaptive(std::span<const F> syn,
                               SketchDecodeScratch<F>& scratch,
                               unsigned start = 1) {
  const unsigned kk = static_cast<unsigned>(syn.size());
  bool nonzero = false;
  for (const F& x : syn) {
    if (!x.is_zero()) {
      nonzero = true;
      break;
    }
  }
  if (!nonzero) {
    scratch.support.clear();
    return true;
  }
  unsigned t = std::max(1u, std::min(start, kk));
  while (true) {
    if (decode_syndromes<F>(syn, t, scratch)) return true;
    if (t == kk) return false;
    t = std::min(2 * t, kk);
  }
}

template <typename F>
class RsSketch {
 public:
  using Field = F;

  RsSketch() = default;
  explicit RsSketch(unsigned k) : syn_(k, F::zero()) {}
  explicit RsSketch(std::vector<F> syndromes) : syn_(std::move(syndromes)) {}

  unsigned k() const { return static_cast<unsigned>(syn_.size()); }
  std::span<const F> syndromes() const { return syn_; }

  // Toggles membership of x (insert if absent, erase if present).
  void toggle(F x) {
    FTC_REQUIRE(!x.is_zero(), "sketch elements must be nonzero");
    for_each_odd_power(x, 0, k(),
                       [&](unsigned j, const F& p) { syn_[j] += p; });
  }

  // After merging, this sketches the symmetric difference of the two sets.
  void merge(const RsSketch& o) {
    FTC_REQUIRE(o.k() == k(), "merging sketches of different capacity");
    for (unsigned j = 0; j < k(); ++j) syn_[j] += o.syn_[j];
  }

  bool is_zero() const {
    for (const F& s : syn_) {
      if (!s.is_zero()) return false;
    }
    return true;
  }

  // The k'-threshold sketch of the same set (Proposition 6).
  RsSketch prefix(unsigned k2) const {
    FTC_REQUIRE(k2 <= k(), "prefix larger than sketch");
    return RsSketch(std::vector<F>(syn_.begin(), syn_.begin() + k2));
  }

  // Attempts to recover the sketched set assuming |X| <= t (t <= k). Uses
  // only the first t stored syndromes for locator synthesis but verifies
  // the candidate support against all k stored syndromes. Returns the
  // sorted support on success. Owning convenience over decode_syndromes();
  // hot paths pass a long-lived SketchDecodeScratch instead.
  std::optional<std::vector<F>> decode(unsigned t) const {
    SketchDecodeScratch<F> scratch;
    if (!decode_syndromes<F>(syn_, t, scratch)) return std::nullopt;
    return std::move(scratch.support);
  }

  // Doubling search over thresholds (the adaptive decoding of Section 6 /
  // Appendix B): total cost is dominated by the final successful attempt,
  // so a set of size d decodes in ~O(d^2) instead of O(k^2).
  std::optional<std::vector<F>> decode_adaptive(unsigned start = 1) const {
    SketchDecodeScratch<F> scratch;
    if (!decode_syndromes_adaptive<F>(syn_, scratch, start)) {
      return std::nullopt;
    }
    return std::move(scratch.support);
  }

  std::size_t size_bits() const { return syn_.size() * F::kBits; }

 private:
  std::vector<F> syn_;
};

}  // namespace ftc::sketch
