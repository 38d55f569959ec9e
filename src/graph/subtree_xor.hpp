// The subtree-XOR kernel every label builder shares.
//
// Every label this library builds is a subtree sum in characteristic 2:
// the core edge sketch is the field sum of the outdetect labels below
// sigma(e)'s lower endpoint (Lemma 1 / Proposition 4), and the
// Dory-Parter cycle-space vectors and AGM sketches are the same sum over
// other cells. Addition is word-XOR, so the kernel folds in place, in
// the label blobs themselves. The builder names where vertex v's row
// sits (row_of(v): a byte pointer into the blob of v's parent edge,
// zero on entry); the root gets one scratch row of the kernel's own,
// which never reaches a blob. Then
//   1. add: add(e, c0, c1, row_u, row_v) XORs columns [c0, c1) of edge
//      e's contribution into the rows of its endpoints u and v;
//   2. fold: for v in reverse pre-order (decreasing tin, root last),
//      row(parent(v)) ^= row(v). Every descendant of v has a larger
//      tin, so v's row already holds its whole subtree sum when it is
//      folded upward.
// Before either stage one sequential pass marks every endpoint of the
// run's edges and carries the marks up to the parents in reverse
// pre-order. A vertex whose subtree holds no endpoint is unmarked: its
// sum is zero, which its row already holds, so the kernel neither asks
// row_of for that row nor reads or writes it, and its fold is skipped.
// Above level 0 a hierarchy level holds a fraction of the edges, so
// most of the tree is unmarked: on ftcbench `steady`'s graph the fold
// of a one-thread core build fell from 21-28 to 8-10 ms (4-vCPU Xeon
// with AVX-512). The marks are written before the workers start and
// only read by them, so they change no byte, whatever the worker count.
// Workers split the columns of each row (col_words words per column: a
// syndrome, an AGM repetition, a cycle-space word), not the vertices.
// Each worker runs both stages for every edge and vertex over its own
// column range, so no two workers write one word, no stage needs a
// carry, and the bytes are the same for any worker count (the contract
// test_parallel_build enforces).
//
// Why in place: the rows land in blob memory the builder writes anyway,
// so the fold needs no second buffer. A tin-indexed accumulator of
// n x widest-row words (about 28 MB on ftcbench `outage`) costs fresh
// page faults (about 2.5 us per 4 KiB page on a 4-vCPU Xeon), a zero
// fill per level, a prefix scan and a copy into the blobs; without it a
// core build takes 20.2K minor faults instead of 27.6K on `outage` and
// 44.6K instead of 54.8K on `steady`, and the rest are the blob pages.
//
// Rows are little-endian words at any byte offset (the cycle-space
// blob's 20-byte header leaves its vector unaligned); add() writes them
// through xor_le_word or xor_le_words (util/xor_kernel.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/ancestry.hpp"
#include "graph/graph.hpp"
#include "graph/spanning_tree.hpp"
#include "util/worker_pool.hpp"
#include "util/xor_kernel.hpp"

namespace ftc::graph {

class SubtreeXor {
 public:
  // The tree and its ancestry labeling (tin is a bijection onto [0, n),
  // the root's is 0) must outlive the kernel.
  SubtreeXor(util::WorkerPool& pool, const SpanningTree& t,
             const AncestryLabeling& anc)
      : pool_(pool),
        parent_(t.parent),
        root_(t.root),
        by_tin_(t.num_vertices()),
        rows_(t.num_vertices()) {
    for (VertexId v = 0; v < t.num_vertices(); ++v) {
      by_tin_[anc.label(v).tin] = v;
    }
  }

  // One fold over rows of cols * col_words words: XORs add() over
  // `edges` (IDs of g, whose endpoints are vertices of the tree) into the
  // rows, then leaves every non-root v's row holding its subtree sum.
  template <typename RowOf, typename Add>
  void run(const Graph& g, std::span<const EdgeId> edges, std::size_t cols,
           std::size_t col_words, RowOf&& row_of, Add&& add) {
    if (cols == 0) return;
    // touched_[v]: v's subtree holds an endpoint of `edges`. Written
    // here, before the workers start, and only read by them.
    touched_.assign(by_tin_.size(), 0);
    for (const EdgeId e : edges) {
      touched_[g.edge(e).u] = 1;
      touched_[g.edge(e).v] = 1;
    }
    for (std::size_t t = by_tin_.size(); t-- > 1;) {
      const VertexId v = by_tin_[t];
      touched_[parent_[v]] |= touched_[v];
    }
    root_row_.assign(8 * cols * col_words, 0);
    for (VertexId v = 0; v < rows_.size(); ++v) {
      if (touched_[v]) rows_[v] = v == root_ ? root_row_.data() : row_of(v);
    }
    const auto parts = static_cast<unsigned>(
        std::min<std::size_t>(pool_.default_active(), cols));
    pool_.run(parts, [&](unsigned c) {
      const std::size_t c0 = cols * c / parts;
      const std::size_t c1 = cols * (c + 1) / parts;
      for (const EdgeId e : edges) {
        const Edge& ed = g.edge(e);
        add(e, c0, c1, rows_[ed.u], rows_[ed.v]);
      }
      const std::size_t at = 8 * c0 * col_words;
      const std::size_t words = (c1 - c0) * col_words;
      for (std::size_t t = by_tin_.size(); t-- > 1;) {
        const VertexId v = by_tin_[t];
        if (!touched_[v]) continue;
        xor_le_words(rows_[parent_[v]] + at, rows_[v] + at, words);
      }
    });
  }

 private:
  util::WorkerPool& pool_;
  const std::vector<VertexId>& parent_;
  const VertexId root_;
  std::vector<VertexId> by_tin_;        // pre-order: by_tin_[tin(v)] = v
  std::vector<std::uint8_t> touched_;   // this run's marks, by vertex
  std::vector<std::uint8_t*> rows_;     // this run's touched rows
  std::vector<std::uint8_t> root_row_;  // the root's scratch row
};

}  // namespace ftc::graph
