// The in-place subtree fold (graph/subtree_xor.hpp) against a naive
// per-vertex subtree sum: random, path and star trees, dense and with
// 1-3 edges; rows at unaligned byte offsets with guard bytes between
// them; worker counts 1, 2, 3 and 8, including more workers than a row
// has columns. A row whose subtree holds no edge endpoint starts as a
// nonzero sentinel and must come back unchanged: the kernel promises
// neither to read nor to write it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/ancestry.hpp"
#include "graph/euler_tour.hpp"
#include "graph/graph.hpp"
#include "graph/spanning_tree.hpp"
#include "graph/subtree_xor.hpp"
#include "util/common.hpp"
#include "util/digest.hpp"
#include "util/worker_pool.hpp"

namespace ftc::graph {
namespace {

constexpr std::uint8_t kGuard = 0xa5;
constexpr std::uint8_t kSentinel = 0x5c;

enum class Shape { kRandom, kPath, kStar };

// A tree of the given shape on n vertices rooted at 0 (its edges are
// 0..n-2), plus the `fixed` non-tree edges and `extra` random ones, the
// kernel's input.
struct Fixture {
  Graph g;
  SpanningTree t;
  AncestryLabeling anc;
  std::vector<EdgeId> edges;  // the non-tree edges

  Fixture(Shape shape, VertexId n, unsigned extra, std::uint64_t seed,
          std::vector<std::pair<VertexId, VertexId>> fixed = {})
      : g(n) {
    SplitMix64 rng(seed);
    std::vector<VertexId> parent(n, 0);
    std::vector<EdgeId> parent_edge(n, kNoEdge);
    for (VertexId v = 1; v < n; ++v) {
      switch (shape) {
        case Shape::kRandom:
          parent[v] = static_cast<VertexId>(rng.next() % v);
          break;
        case Shape::kPath:
          parent[v] = v - 1;
          break;
        case Shape::kStar:
          parent[v] = 0;
          break;
      }
      parent_edge[v] = g.add_edge(parent[v], v);
    }
    for (const auto& [u, v] : fixed) edges.push_back(g.add_edge(u, v));
    for (unsigned i = 0; i < extra; ++i) {
      const auto u = static_cast<VertexId>(rng.next() % n);
      auto v = static_cast<VertexId>(rng.next() % n);
      if (v == u) v = (u + 1) % n;
      edges.push_back(g.add_edge(u, v));
    }
    t = tree_from_parents(g, 0, std::move(parent), std::move(parent_edge));
    anc = AncestryLabeling(t, euler_tour(t));
  }
};

// Folds random contributions of cols x col_words words per edge with
// the kernel's workers into rows at unaligned offsets of one buffer, and
// checks every non-root row against the XOR of the contributions of the
// edge endpoints in its subtree. A row whose subtree holds no endpoint
// is filled with kSentinel and must be neither requested nor changed.
// The root has no row in the buffer; the guard bytes around the rows
// must come out untouched.
void check_fold(const Fixture& fx, SubtreeXor& scan, std::size_t cols,
                std::size_t col_words, std::uint64_t seed) {
  const VertexId n = fx.g.num_vertices();
  const std::size_t words = cols * col_words;
  const std::size_t stride = 8 * words + 5;  // keeps every row unaligned
  std::vector<std::uint8_t> buf(3 + static_cast<std::size_t>(n) * stride,
                                kGuard);
  const auto row_at = [&](VertexId v) { return buf.data() + 3 + v * stride; };
  // touched[v]: v's subtree holds an endpoint of an edge.
  std::vector<bool> touched(n, false);
  for (VertexId v = 0; v < n; ++v) {
    for (const EdgeId e : fx.edges) {
      for (const VertexId x : {fx.g.edge(e).u, fx.g.edge(e).v}) {
        if (is_ancestor_or_self(fx.anc.label(v), fx.anc.label(x))) {
          touched[v] = true;
        }
      }
    }
  }
  for (VertexId v = 1; v < n; ++v) {
    std::fill(row_at(v), row_at(v) + 8 * words,
              touched[v] ? std::uint8_t{0} : kSentinel);
  }
  SplitMix64 rng(seed);
  std::vector<std::uint64_t> contrib(fx.g.num_edges() * words);
  for (std::uint64_t& w : contrib) w = rng.next();

  scan.run(
      fx.g, fx.edges, cols, col_words,
      [&](VertexId v) {
        EXPECT_NE(v, fx.t.root) << "the root's row must stay in the kernel";
        EXPECT_TRUE(touched[v]) << "row of untouched vertex " << v;
        return row_at(v);
      },
      [&](EdgeId e, std::size_t c0, std::size_t c1, std::uint8_t* ru,
          std::uint8_t* rv) {
        EXPECT_LT(c0, c1);
        EXPECT_LE(c1, cols);
        for (std::size_t i = c0 * col_words; i < c1 * col_words; ++i) {
          xor_le_word(ru, i, contrib[e * words + i]);
          xor_le_word(rv, i, contrib[e * words + i]);
        }
      });

  for (VertexId v = 1; v < n; ++v) {
    if (!touched[v]) {
      for (std::size_t b = 0; b < 8 * words; ++b) {
        ASSERT_EQ(row_at(v)[b], kSentinel) << "untouched vertex " << v;
      }
      continue;
    }
    std::vector<std::uint64_t> want(words, 0);
    for (const EdgeId e : fx.edges) {
      for (const VertexId x : {fx.g.edge(e).u, fx.g.edge(e).v}) {
        if (!is_ancestor_or_self(fx.anc.label(v), fx.anc.label(x))) continue;
        for (std::size_t i = 0; i < words; ++i) {
          want[i] ^= contrib[e * words + i];
        }
      }
    }
    for (std::size_t i = 0; i < words; ++i) {
      ASSERT_EQ(util::read_u64_le(row_at(v) + 8 * i), want[i])
          << "vertex " << v << " word " << i;
    }
  }
  for (std::size_t b = 0; b < buf.size(); ++b) {
    const bool in_row = b >= 3 + stride && (b - 3) % stride < 8 * words;
    if (!in_row) {
      ASSERT_EQ(buf[b], kGuard) << "byte " << b;
    }
  }
}

// One kernel per worker count, run over several widths, as the core
// builder runs one per hierarchy level: fewer columns than the 8-worker
// case has workers, one-word and multi-word columns.
void check_all_widths(const Fixture& fx, std::uint64_t& seed) {
  const std::pair<std::size_t, std::size_t> widths[] = {
      {1, 1}, {3, 1}, {5, 2}, {13, 3}};
  for (const unsigned threads : {1u, 2u, 3u, 8u}) {
    util::WorkerPool pool(threads);
    SubtreeXor scan(pool, fx.t, fx.anc);
    for (const auto& [cols, col_words] : widths) {
      SCOPED_TRACE(testing::Message()
                   << "n=" << fx.g.num_vertices() << " edges="
                   << fx.edges.size() << " threads=" << threads
                   << " cols=" << cols << " col_words=" << col_words);
      check_fold(fx, scan, cols, col_words, seed++);
    }
  }
}

TEST(SubtreeXor, InPlaceFoldMatchesNaiveSubtreeSums) {
  std::uint64_t seed = 7;
  check_all_widths(Fixture(Shape::kRandom, 97, 300, seed++), seed);
  check_all_widths(Fixture(Shape::kPath, 64, 100, seed++), seed);
  check_all_widths(Fixture(Shape::kStar, 50, 120, seed++), seed);
  check_all_widths(Fixture(Shape::kRandom, 2, 3, seed++), seed);
}

// Few edges, so most subtrees hold none and their folds are skipped. The
// deep-end path edge marks every vertex only if the marks climb all 62
// levels; the edge near the root leaves the 61 deeper rows untouched.
TEST(SubtreeXor, SparseEdgesSkipOnlyEmptySubtrees) {
  std::uint64_t seed = 70;
  check_all_widths(Fixture(Shape::kPath, 64, 0, seed++, {{62, 63}}), seed);
  check_all_widths(Fixture(Shape::kPath, 64, 0, seed++, {{1, 2}}), seed);
  check_all_widths(Fixture(Shape::kStar, 50, 0, seed++, {{7, 30}}), seed);
  for (const unsigned extra : {1u, 2u, 3u}) {
    check_all_widths(Fixture(Shape::kRandom, 97, extra, seed++), seed);
  }
}

TEST(SubtreeXor, ZeroColumnsTouchNothing) {
  const Fixture fx(Shape::kRandom, 10, 5, 3);
  util::WorkerPool pool(2);
  SubtreeXor scan(pool, fx.t, fx.anc);
  scan.run(
      fx.g, fx.edges, 0, 4,
      [](VertexId) -> std::uint8_t* {
        ADD_FAILURE() << "no row is needed for an empty level";
        return nullptr;
      },
      [](EdgeId, std::size_t, std::size_t, std::uint8_t*, std::uint8_t*) {
        ADD_FAILURE() << "no contribution is needed for an empty level";
      });
}

}  // namespace
}  // namespace ftc::graph
