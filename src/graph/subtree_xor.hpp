// The subtree-XOR kernel every label builder shares.
//
// Every label this library builds is a subtree sum in characteristic 2:
// the core edge sketch is the field sum of the outdetect labels below
// sigma(e)'s lower endpoint (Lemma 1 / Proposition 4), and the
// Dory-Parter cycle-space vectors and AGM sketches are the same sum over
// other cells. The subtree of v is the contiguous Euler-tin range
// [tin(v), tout(v)], and addition is word-XOR, so instead of a serial
// bottom-up fold the kernel indexes one flat word accumulator by tin and
// takes a prefix scan:
//     P[t]        = XOR of the contributions of tins <= t
//     subtree(v)  = P[tout(v)] ^ P[tin(v) - 1]     (tin(v) >= 1)
// Every stage partitions the tin axis into one stripe per worker:
//   1. accumulate: each worker zeroes its stripe, then, for every edge
//      with an endpoint whose tin it owns, calls add(e, row_u, row_v)
//      with that endpoint's row and a null row for an endpoint another
//      stripe owns (an edge spanning two stripes is visited once per
//      side — bounded 2x duplication, no communication);
//   2. scan: stripe-local inclusive XOR scan;
//   3. carry: a serial chain of per-stripe totals (one row per stripe),
//      then a parallel carry application;
//   4. emit: emit(v, hi, lo) for every non-root v, from the stripe
//      holding vertex ID v, where v's subtree sum is the word-wise XOR
//      of the rows hi = P[tout(v)] and lo = P[tin(v) - 1] (valid during
//      the call only). Handing over both rows lets the caller form the
//      sum as it writes it, in one pass; a separate sum row adds a second
//      pass that measurably slows this memory-bound write-out. Emit
//      targets are the caller's, and must be disjoint per v (parent_edge
//      is injective over non-root vertices).
// XOR makes every accumulation order produce identical bits, so the
// result is byte-identical to the serial (1-stripe) build for any worker
// count — the contract test_parallel_build enforces.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/ancestry.hpp"
#include "graph/graph.hpp"
#include "util/common.hpp"
#include "util/worker_pool.hpp"
#include "util/xor_kernel.hpp"

namespace ftc::graph {

class SubtreeXor {
 public:
  // The tree is given by its ancestry labeling (tin, tout per vertex) and
  // root. Rows of every later run() are at most max_row_words wide; the
  // accumulator is sized once here, so a builder that scans several
  // times (one run per hierarchy level) reuses it.
  SubtreeXor(util::WorkerPool& pool, const AncestryLabeling& anc,
             VertexId root, std::size_t max_row_words)
      : pool_(pool),
        root_(root),
        n_(anc.num_vertices()),
        max_row_words_(max_row_words),
        stripes_(static_cast<unsigned>(std::min<std::size_t>(
            pool.default_active(), std::max<std::size_t>(n_, 1)))),
        tin_(n_),
        tout_(n_),
        bounds_(stripes_ + 1),
        acc_(std::make_unique_for_overwrite<std::uint64_t[]>(
            static_cast<std::size_t>(n_) * max_row_words)),
        carry_(static_cast<std::size_t>(stripes_) * max_row_words) {
    for (VertexId v = 0; v < n_; ++v) {
      tin_[v] = anc.label(v).tin;
      tout_[v] = anc.label(v).tout;
    }
    for (unsigned b = 0; b <= stripes_; ++b) {
      bounds_[b] = static_cast<std::size_t>(n_) * b / stripes_;
    }
  }

  // One scan over rows of row_words words: folds add() over `edges` (IDs
  // of g, whose endpoints are vertices of the tree), then emits every
  // non-root subtree sum.
  template <typename Add, typename Emit>
  void run(const Graph& g, std::span<const EdgeId> edges,
           std::size_t row_words, Add&& add, Emit&& emit) {
    FTC_CHECK(row_words <= max_row_words_, "subtree-XOR row too wide");
    const std::size_t w = row_words;
    std::uint64_t* acc = acc_.get();
    // Stages 1 + 2 in one dispatch: a worker only touches rows in its own
    // tin stripe.
    pool_.run(stripes_, [&](unsigned b) {
      const std::size_t lo = bounds_[b];
      const std::size_t hi = bounds_[b + 1];
      std::fill(acc + lo * w, acc + hi * w, std::uint64_t{0});
      for (const EdgeId e : edges) {
        const Edge& ed = g.edge(e);
        const std::size_t tu = tin_[ed.u];
        const std::size_t tv = tin_[ed.v];
        const bool own_u = tu >= lo && tu < hi;
        const bool own_v = tv >= lo && tv < hi;
        if (!own_u && !own_v) continue;
        add(e, own_u ? acc + tu * w : nullptr,
            own_v ? acc + tv * w : nullptr);
      }
      for (std::size_t t = lo + 1; t < hi; ++t) {
        xor_words(acc + t * w, acc + (t - 1) * w, w);
      }
    });
    // Stage 3a, serial: carry[b] = XOR of the stripe totals before b (a
    // stripe's total after the local scan is its last row).
    std::fill(carry_.begin(), carry_.begin() + static_cast<std::ptrdiff_t>(w),
              std::uint64_t{0});
    for (unsigned b = 1; b < stripes_; ++b) {
      std::uint64_t* cb = carry_.data() + b * w;
      std::copy_n(cb - w, w, cb);
      xor_words(cb, acc + (bounds_[b] - 1) * w, w);
    }
    // Stage 3b: apply the carries; acc now holds the global prefix P[t].
    pool_.run(stripes_, [&](unsigned b) {
      if (b == 0) return;
      const std::uint64_t* cb = carry_.data() + b * w;
      for (std::size_t t = bounds_[b]; t < bounds_[b + 1]; ++t) {
        xor_words(acc + t * w, cb, w);
      }
    });
    // Stage 4: emit. The root is the unique tin-0 vertex, so every
    // emitted v has a row at tin(v) - 1.
    pool_.run(stripes_, [&](unsigned b) {
      for (VertexId v = static_cast<VertexId>(bounds_[b]);
           v < static_cast<VertexId>(bounds_[b + 1]); ++v) {
        if (v == root_) continue;
        const std::uint64_t* hi = acc + std::size_t{tout_[v]} * w;
        const std::uint64_t* lo = acc + (std::size_t{tin_[v]} - 1) * w;
        emit(v, hi, lo);
      }
    });
  }

 private:
  util::WorkerPool& pool_;
  const VertexId root_;
  const VertexId n_;
  const std::size_t max_row_words_;
  const unsigned stripes_;
  std::vector<std::uint32_t> tin_;
  std::vector<std::uint32_t> tout_;
  std::vector<std::size_t> bounds_;  // stripe b owns tins [bounds_[b], bounds_[b+1])
  std::unique_ptr<std::uint64_t[]> acc_;  // n_ rows, indexed by tin
  std::vector<std::uint64_t> carry_;      // one row per stripe
};

}  // namespace ftc::graph
