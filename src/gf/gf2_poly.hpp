// Dense univariate polynomials over a GF(2^m) field: value-type reference
// arithmetic that allocates per operation.
//
// The syndrome decoder of the k-threshold outdetect labeling scheme
// (paper Section 7.4) does not use this class: Berlekamp-Massey and root
// finding work in place on flat buffers (berlekamp_massey.hpp,
// trace_roots.hpp). Tests and benchmarks use it to build polynomials with
// known roots (poly_from_roots) and to check the in-place algebra.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "util/common.hpp"

namespace ftc::gf {

template <typename F>
class Poly {
 public:
  Poly() = default;
  explicit Poly(std::vector<F> coeffs) : c_(std::move(coeffs)) { normalize(); }

  static Poly zero() { return Poly(); }
  static Poly constant(F v) { return Poly(std::vector<F>{v}); }
  static Poly x() { return Poly(std::vector<F>{F::zero(), F::one()}); }
  // c1 * x + c0
  static Poly linear(F c1, F c0) { return Poly(std::vector<F>{c0, c1}); }

  // Degree; -1 for the zero polynomial.
  int degree() const { return static_cast<int>(c_.size()) - 1; }
  bool is_zero() const { return c_.empty(); }

  F coeff(int i) const {
    return (i >= 0 && i < static_cast<int>(c_.size())) ? c_[i] : F::zero();
  }
  F leading() const {
    FTC_REQUIRE(!c_.empty(), "leading coefficient of zero polynomial");
    return c_.back();
  }
  std::span<const F> coeffs() const { return c_; }

  friend Poly operator+(const Poly& a, const Poly& b) {
    std::vector<F> r(std::max(a.c_.size(), b.c_.size()), F::zero());
    for (std::size_t i = 0; i < a.c_.size(); ++i) r[i] += a.c_[i];
    for (std::size_t i = 0; i < b.c_.size(); ++i) r[i] += b.c_[i];
    return Poly(std::move(r));
  }
  friend Poly operator-(const Poly& a, const Poly& b) { return a + b; }

  friend Poly operator*(const Poly& a, const Poly& b) {
    if (a.is_zero() || b.is_zero()) return zero();
    std::vector<F> r(a.c_.size() + b.c_.size() - 1, F::zero());
    for (std::size_t i = 0; i < a.c_.size(); ++i) {
      if (a.c_[i].is_zero()) continue;
      for (std::size_t j = 0; j < b.c_.size(); ++j) r[i + j] += a.c_[i] * b.c_[j];
    }
    return Poly(std::move(r));
  }

  Poly scaled(F s) const {
    std::vector<F> r(c_);
    for (F& v : r) v *= s;
    return Poly(std::move(r));
  }

  // Multiplies by x^k.
  Poly shifted(unsigned k) const {
    if (is_zero()) return zero();
    std::vector<F> r(c_.size() + k, F::zero());
    for (std::size_t i = 0; i < c_.size(); ++i) r[i + k] = c_[i];
    return Poly(std::move(r));
  }

  // Euclidean division: returns {quotient, remainder}.
  friend std::pair<Poly, Poly> divmod(const Poly& a, const Poly& b) {
    FTC_REQUIRE(!b.is_zero(), "polynomial division by zero");
    if (a.degree() < b.degree()) return {zero(), a};
    std::vector<F> rem(a.c_);
    // Monic divisors (the common case in gcd/mod chains) skip the
    // ~m-operation field inversion.
    const F lead_inv =
        b.leading() == F::one() ? F::one() : inverse(b.leading());
    const int db = b.degree();
    std::vector<F> quot(a.degree() - db + 1, F::zero());
    for (int i = a.degree(); i >= db; --i) {
      const F q = rem[i] * lead_inv;
      if (q.is_zero()) continue;
      quot[i - db] = q;
      for (int j = 0; j <= db; ++j) rem[i - db + j] += q * b.c_[j];
    }
    return {Poly(std::move(quot)), Poly(std::move(rem))};
  }

  friend Poly operator%(const Poly& a, const Poly& b) {
    return divmod(a, b).second;
  }
  friend Poly operator/(const Poly& a, const Poly& b) {
    return divmod(a, b).first;
  }

  friend bool operator==(const Poly& a, const Poly& b) { return a.c_ == b.c_; }

  F eval(F x) const {  // Horner
    F r = F::zero();
    for (std::size_t i = c_.size(); i-- > 0;) r = r * x + c_[i];
    return r;
  }

  // Formal derivative. In characteristic 2 only odd-degree terms survive.
  Poly derivative() const {
    if (c_.size() <= 1) return zero();
    std::vector<F> r(c_.size() - 1, F::zero());
    for (std::size_t i = 1; i < c_.size(); i += 2) r[i - 1] = c_[i];
    return Poly(std::move(r));
  }

  Poly monic() const {
    FTC_REQUIRE(!is_zero(), "monic of zero polynomial");
    if (leading() == F::one()) return *this;
    return scaled(inverse(leading()));
  }

 private:
  void normalize() {
    while (!c_.empty() && c_.back().is_zero()) c_.pop_back();
  }

  std::vector<F> c_;  // little-endian coefficients, no trailing zeros
};

template <typename F>
Poly<F> gcd(Poly<F> a, Poly<F> b) {
  while (!b.is_zero()) {
    Poly<F> r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a.is_zero() ? a : a.monic();
}

// prod (x - r) over roots (== prod (x + r) in characteristic 2).
template <typename F>
Poly<F> poly_from_roots(std::span<const F> roots) {
  Poly<F> p = Poly<F>::constant(F::one());
  for (const F& r : roots) p = p * Poly<F>::linear(F::one(), r);
  return p;
}

}  // namespace ftc::gf
