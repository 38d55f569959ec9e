// Deterministic root finding over GF(2^m): the Berlekamp trace algorithm
// on flat, caller-owned buffers.
//
// This is the second half of the k-threshold outdetect decoder
// (Proposition 2). The decoder hands it the reciprocal error locator
// sigma*(z) = z^d sigma(1/z) = prod_{x in X} (z + x): monic, with the
// sketched support X itself as its roots. A decode can only succeed when
// sigma* splits over F into d distinct nonzero linear factors, so the
// contract is all or nothing: find_roots returns exactly those d roots, or
// false.
//
// A factor g of degree >= 3 is split on T(x) = Tr(beta_i x) mod g, which
// m - 1 squarings modulo g itself produce. Every root r of g has
// T(r) = Tr(beta_i r) in GF(2), so gcd(g, T) collects the roots of trace
// zero. Since {beta_i} is a GF(2)-basis, two distinct roots disagree on
// some Tr(beta_i .); both parts of a split on beta_i are constant on
// beta_0..beta_i, so they resume at i + 1 and the search stays
// deterministic. The basis is beta_i = gamma e_i, with e_i the field's
// i-th monomial basis element (F::basis_element(i)) and one fixed dense
// gamma: edge IDs are structured bit fields that the e_i alone separate
// only late. Degrees 1 and 2 take closed forms (the constant term; the
// Artin-Schreier table of gf2.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "gf/gf2.hpp"
#include "util/common.hpp"

namespace ftc::gf {

// Reusable buffers for find_roots. After one call at the largest degree
// it will see, find_roots allocates nothing.
template <typename F>
struct RootScratch {
  struct Factor {
    unsigned offset;  // first coefficient in `pending`
    unsigned degree;
    unsigned basis;   // first trace-basis index still worth trying
  };
  // Monic factors waiting to be split, as a stack. They are disjoint
  // factors of the input, so their degrees add up to at most d; each is
  // stored without its leading 1.
  std::vector<F> pending;
  std::vector<Factor> factors;
  std::vector<F> g;     // the factor being split, leading 1 included
  std::vector<F> rows;  // x^(2i) mod g, the squaring table of g
  std::vector<F> t;     // Tr(beta x) mod g
  std::vector<F> u;     // (beta x)^(2^j) mod g
  std::vector<typename F::Wide> acc;  // u^2 mod g before reduction
  std::vector<F> a, b;  // Euclid remainders
};

namespace detail {

// beta_i = gamma e_i, with gamma fixed, dense and nonzero in every field.
template <typename F>
F trace_basis(unsigned i) {
  constexpr std::uint64_t kLo = 0x9E3779B97F4A7C15ULL;
  constexpr std::uint64_t kHi = 0xC2B2AE3D27D4EB4FULL;
  if constexpr (F::kWords == 1) {
    return F(kLo) * F::basis_element(i);
  } else {
    return F(kLo, kHi) * F::basis_element(i);
  }
}

// rows[(i - h) * d ..][0..d) = x^(2i) mod g for h = ceil(d/2) <= i < d:
// the squaring table of the monic g of degree d. x^e for e < d needs no
// reduction, so these are the only rows squaring modulo g reads.
template <typename F>
void squaring_rows(const F* g, unsigned d, F* rows, F* r) {
  const unsigned h = (d + 1) / 2;
  std::copy(g, g + d, r);  // x^d = g[0] + ... + g[d-1] x^(d-1) (char 2)
  for (unsigned e = d; e <= 2 * d - 2; ++e) {
    if (e % 2 == 0) std::copy(r, r + d, rows + (e / 2 - h) * d);
    const F top = r[d - 1];  // x^(e+1) = x * x^e
    for (unsigned k = d; k-- > 1;) r[k] = r[k - 1] + top * g[k];
    r[0] = top * g[0];
  }
}

// t[0..d) = Tr(beta x) mod g for the monic g of degree d >= 2, summing
// (beta x)^(2^j) mod g over j as each term is squared out of the last:
// (sum u_i x^i)^2 = sum u_i^2 x^(2i) in characteristic 2. Each new
// coefficient is a dot product with the squaring rows, accumulated
// unreduced. u and acc hold d elements each.
template <typename F>
void trace_mod(unsigned d, const F* rows, F beta, F* t, F* u,
               typename F::Wide* acc) {
  const unsigned h = (d + 1) / 2;
  std::fill(u, u + d, F::zero());
  u[1] = beta;
  std::copy(u, u + d, t);
  for (unsigned j = 1; j < F::kBits; ++j) {
    std::fill(acc, acc + d, typename F::Wide{});
    for (unsigned i = 0; i < h; ++i) acc[2 * i] = F::mul_wide(u[i], u[i]);
    for (unsigned i = h; i < d; ++i) {
      const F c = u[i].square();
      if (c.is_zero()) continue;
      const F* row = rows + (i - h) * d;
      for (unsigned k = 0; k < d; ++k) acc[k] ^= F::mul_wide(c, row[k]);
    }
    for (unsigned k = 0; k < d; ++k) {
      u[k] = F::reduce(acc[k]);
      t[k] += u[k];
    }
  }
}

// gcd of the monic g (degree d) and t (degree dt, 1 <= dt < d), made
// monic. Euclid runs inverse-free: a <- lc(b) a + lc(a) x^(da - db) b
// keeps every remainder an F-multiple of the true one, so the only
// inversion is the final one. a and b need d + 1 elements each. Returns
// the degree; for a degree >= 1 result *out points at its coefficients
// (inside a or b).
template <typename F>
unsigned monic_gcd(const F* g, unsigned d, const F* t, unsigned dt, F* a,
                   F* b, F** out) {
  std::copy(g, g + d + 1, a);
  std::copy(t, t + dt + 1, b);
  int da = static_cast<int>(d);
  int db = static_cast<int>(dt);
  while (true) {
    while (da >= db) {
      const F la = a[da];
      const F lb = b[db];
      const int s = da - db;
      for (int k = 0; k < s; ++k) a[k] *= lb;
      for (int k = s; k < da; ++k) a[k] = a[k] * lb + la * b[k - s];
      --da;
      while (da >= 0 && a[da].is_zero()) --da;
    }
    if (da < 0) break;      // b divides a: b is the gcd
    if (da == 0) return 0;  // a nonzero constant remainder: coprime
    std::swap(a, b);
    std::swap(da, db);
  }
  const F inv = inverse(b[db]);
  for (int k = 0; k < db; ++k) b[k] *= inv;
  b[db] = F::one();
  *out = b;
  return static_cast<unsigned>(db);
}

template <typename F>
void push_factor(RootScratch<F>& ws, const F* coeffs, unsigned degree,
                 unsigned basis) {
  ws.factors.push_back({static_cast<unsigned>(ws.pending.size()), degree,
                        basis});
  ws.pending.insert(ws.pending.end(), coeffs, coeffs + degree);
}

// Splits the monic factor ws.g of degree d >= 3 on the first trace-basis
// element from `basis` on which its roots disagree, and pushes both
// parts. False when g cannot have d distinct roots in F: no basis element
// splits it, or a nonconstant T shares no factor with it (on d distinct
// roots in F, T takes only the values 0 and 1, so gcd(g, T) = 1 would
// force T = 1 mod g).
template <typename F>
bool split_factor(RootScratch<F>& ws, unsigned d, unsigned basis) {
  F* g = ws.g.data();
  F* t = ws.t.data();
  squaring_rows(g, d, ws.rows.data(), ws.u.data());
  for (unsigned i = basis; i < F::kBits; ++i) {
    trace_mod(d, ws.rows.data(), trace_basis<F>(i), t, ws.u.data(),
              ws.acc.data());
    unsigned dt = d - 1;
    while (dt > 0 && t[dt].is_zero()) --dt;
    if (dt == 0) continue;  // T constant mod g: all roots share this trace
    F* h = nullptr;
    const unsigned dh = monic_gcd(g, d, t, dt, ws.a.data(), ws.b.data(), &h);
    if (dh == 0) return false;
    // g / h in place: quotient coefficient j lands in g[dh + j] and the
    // (zero) remainder in g[0..dh).
    for (unsigned top = d + 1; top-- > dh;) {
      const F q = g[top];
      if (q.is_zero()) continue;
      F* row = g + (top - dh);
      for (unsigned k = 0; k < dh; ++k) row[k] += q * h[k];
    }
    push_factor(ws, h, dh, i + 1);
    push_factor(ws, g + dh, d - dh, i + 1);
    return true;
  }
  return false;
}

template <typename T>
void grow(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
}

}  // namespace detail

// Roots of the monic f = f[0] + f[1] x + ... + x^d. Returns true with
// exactly d distinct nonzero roots, sorted ascending, in `roots`; returns
// false (and empty `roots`) when f has a repeated root, the root zero, or
// a root outside F. A constant f has no roots and returns true.
template <typename F>
bool find_roots(std::span<const F> f, RootScratch<F>& ws,
                std::vector<F>& roots) {
  roots.clear();
  FTC_REQUIRE(!f.empty() && f.back() == F::one(),
              "find_roots needs a monic polynomial");
  const unsigned d = static_cast<unsigned>(f.size() - 1);
  if (d == 0) return true;
  if (f[0].is_zero()) return false;  // zero is a root
  roots.reserve(d);
  ws.pending.reserve(d);
  ws.factors.reserve(d);
  detail::grow(ws.g, d + 1);
  detail::grow(ws.rows, static_cast<std::size_t>(d / 2) * d);
  detail::grow(ws.t, d);
  detail::grow(ws.u, d);
  detail::grow(ws.acc, d);
  detail::grow(ws.a, d + 1);
  detail::grow(ws.b, d + 1);
  ws.pending.assign(f.begin(), f.end() - 1);
  ws.factors.assign(1, {0, d, 0});
  const auto fail = [&roots] {
    roots.clear();
    return false;
  };
  while (!ws.factors.empty()) {
    const auto fac = ws.factors.back();
    ws.factors.pop_back();
    F* g = ws.g.data();
    std::copy_n(ws.pending.begin() + fac.offset, fac.degree, g);
    g[fac.degree] = F::one();
    ws.pending.resize(fac.offset);
    if (fac.degree == 1) {
      roots.push_back(g[0]);  // x + c has the root c in characteristic 2
    } else if (fac.degree == 2) {
      F r[2];
      if (solve_quadratic(g[1], g[0], r) != 2) return fail();
      roots.push_back(r[0]);
      roots.push_back(r[1]);
    } else if (!detail::split_factor(ws, fac.degree, fac.basis)) {
      return fail();
    }
  }
  // A repeated root can survive the splits as two equal linear factors.
  std::sort(roots.begin(), roots.end());
  if (std::adjacent_find(roots.begin(), roots.end()) != roots.end()) {
    return fail();
  }
  return true;
}

}  // namespace ftc::gf
