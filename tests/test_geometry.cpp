// Tests for the geometric machinery: the Lemma 3 cut-region identity, the
// NetFind epsilon-net (Lemmas 11/12), the greedy net, and the
// (S_{f,T}, k)-good hierarchies (Lemma 5 / Proposition 5).
#include <gtest/gtest.h>

#include <set>

#include "geometry/greedy_net.hpp"
#include "geometry/hierarchy.hpp"
#include "geometry/netfind.hpp"
#include "geometry/point_map.hpp"
#include "graph/connectivity.hpp"
#include "graph/euler_tour.hpp"
#include "graph/generators.hpp"
#include "graph/spanning_tree.hpp"
#include "util/common.hpp"

namespace ftc::geometry {
namespace {

using graph::EdgeId;
using graph::VertexId;

std::vector<Point2> random_points(SplitMix64& rng, std::size_t n,
                                  std::uint32_t range) {
  std::vector<Point2> pts;
  std::set<std::pair<std::uint32_t, std::uint32_t>> used;
  while (pts.size() < n) {
    const auto x = static_cast<std::uint32_t>(rng.next_below(range));
    const auto y = static_cast<std::uint32_t>(rng.next_below(range));
    if (!used.insert({x, y}).second) continue;
    pts.push_back(Point2{x, y, static_cast<EdgeId>(pts.size())});
  }
  return pts;
}

TEST(PointMap, Lemma3CutRegionIdentity) {
  // For random graphs, trees and vertex sets S: a non-tree edge crosses S
  // iff its point lies in the symmetric difference of the cut halfspaces.
  SplitMix64 rng(51);
  for (int it = 0; it < 30; ++it) {
    const graph::Graph g = graph::random_connected(30, 75, 900 + it);
    const auto t = graph::bfs_spanning_tree(g, 0);
    const auto et = graph::euler_tour(t);
    const auto pts = map_nontree_edges(g, t, et);
    ASSERT_EQ(pts.size(), g.num_edges() - (g.num_vertices() - 1));

    std::vector<char> in_set(g.num_vertices(), 0);
    in_set[t.root] = 1;  // Lemma 9 convention: S contains the root
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (v != t.root && rng.next_bool()) in_set[v] = 1;
    }
    const auto cuts = directed_cut_positions(t, et, in_set);
    for (const Point2& p : pts) {
      const auto& e = g.edge(p.edge);
      const bool crossing = in_set[e.u] != in_set[e.v];
      EXPECT_EQ(in_cut_region(p, cuts), crossing)
          << "edge (" << e.u << "," << e.v << ")";
    }
  }
}

TEST(PointMap, Lemma3HoldsForComplementToo) {
  // The identity must be invariant under complementing S (cuts are).
  SplitMix64 rng(52);
  const graph::Graph g = graph::random_connected(25, 60, 77);
  const auto t = graph::bfs_spanning_tree(g, 0);
  const auto et = graph::euler_tour(t);
  const auto pts = map_nontree_edges(g, t, et);
  std::vector<char> in_set(g.num_vertices(), 0);
  in_set[t.root] = 1;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (v != t.root && rng.next_bool()) in_set[v] = 1;
  }
  std::vector<char> complement(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) complement[v] = !in_set[v];
  // Complement does not contain the root, so use the root-containing side
  // for the region and check both masks give identical crossings.
  const auto cuts = directed_cut_positions(t, et, in_set);
  const auto cuts2 = directed_cut_positions(t, et, complement);
  EXPECT_EQ(cuts.size(), cuts2.size());
  for (const Point2& p : pts) {
    EXPECT_EQ(in_cut_region(p, cuts), in_cut_region(p, cuts2));
  }
}

TEST(NetFind, HitsAllHeavyCanonicalRects) {
  SplitMix64 rng(53);
  for (const std::size_t n : {30u, 60u}) {
    const auto pts = random_points(rng, n, 200);
    const unsigned gl = 4;  // threshold 12
    const auto net = netfind(pts, gl);
    EXPECT_TRUE(net_hits_all_heavy_rects(pts, net, netfind_threshold(gl)));
    // Net points are input points.
    const std::set<EdgeId> ids = [&] {
      std::set<EdgeId> s;
      for (const auto& p : pts) s.insert(p.edge);
      return s;
    }();
    for (const auto& p : net) EXPECT_TRUE(ids.count(p.edge));
  }
}

TEST(NetFind, HitsRandomHeavyRects) {
  SplitMix64 rng(54);
  const auto pts = random_points(rng, 600, 5000);
  const unsigned gl = provable_group_len(pts.size());
  const auto net = netfind(pts, gl);
  const unsigned thr = netfind_threshold(gl);
  int heavy_seen = 0;
  while (heavy_seen < 50) {
    std::uint32_t x1 = static_cast<std::uint32_t>(rng.next_below(5000));
    std::uint32_t x2 = static_cast<std::uint32_t>(rng.next_below(5000));
    std::uint32_t y1 = static_cast<std::uint32_t>(rng.next_below(5000));
    std::uint32_t y2 = static_cast<std::uint32_t>(rng.next_below(5000));
    if (x1 > x2) std::swap(x1, x2);
    if (y1 > y2) std::swap(y1, y2);
    if (points_in_rect(pts, x1, x2, y1, y2) < thr) continue;
    ++heavy_seen;
    EXPECT_GT(points_in_rect(net, x1, x2, y1, y2), 0u);
  }
}

TEST(NetFind, SizeBoundLemma12) {
  SplitMix64 rng(55);
  for (const std::size_t n : {128u, 512u, 2048u}) {
    const auto pts = random_points(rng, n, 100000);
    const unsigned gl = provable_group_len(n);
    const auto net = netfind(pts, gl);
    // |net| <= 2 |P| ceil(log2 |P|) / group_len = |P|/2 at the provable
    // group length.
    EXPECT_LE(net.size(), n / 2) << "n=" << n;
  }
}

TEST(NetFind, DeterministicAndOrderInvariant) {
  SplitMix64 rng(56);
  auto pts = random_points(rng, 200, 1000);
  const auto net1 = netfind(pts, 8);
  std::reverse(pts.begin(), pts.end());
  const auto net2 = netfind(pts, 8);
  EXPECT_EQ(net1.size(), net2.size());
  for (std::size_t i = 0; i < net1.size(); ++i) {
    EXPECT_EQ(net1[i], net2[i]);
  }
}

TEST(NetFind, SmallInputsYieldEmptyNet) {
  SplitMix64 rng(57);
  const auto pts = random_points(rng, 10, 50);
  // Threshold 3*8 = 24 > 10 points: nothing can be heavy.
  EXPECT_TRUE(netfind(pts, 8).empty());
  EXPECT_THROW(netfind(pts, 1), std::invalid_argument);
}

TEST(GreedyNet, HitsAllHeavyCanonicalRects) {
  SplitMix64 rng(58);
  const auto pts = random_points(rng, 50, 300);
  for (const unsigned thr : {5u, 10u, 20u}) {
    const auto net = greedy_rect_net(pts, thr);
    EXPECT_TRUE(net_hits_all_heavy_rects(pts, net, thr)) << "thr=" << thr;
    EXPECT_LT(net.size(), pts.size());
  }
}

// The greedy net is part of kDeterministicGreedy labels, so its points
// and their order are pinned: recorded from the implementation that
// rescanned all N points for every canonical rectangle. The first
// instance is bench_tables netfind's small-instance comparison; the
// second has many points per row and column.
TEST(GreedyNet, PinnedNets) {
  SplitMix64 bench_rng(5);
  const auto bench_pts = random_points(bench_rng, 100, 4096);
  const std::vector<Point2> bench_net{
      {1703, 1852, 5},  {1158, 1199, 77}, {2176, 2520, 40}, {3236, 1210, 87},
      {835, 2355, 23},  {1427, 2965, 27}, {1593, 747, 30},  {3406, 1775, 18},
      {398, 1509, 64},  {2483, 3382, 76}, {1264, 1626, 29}, {3525, 68, 2},
      {2849, 3883, 3}};
  EXPECT_EQ(greedy_rect_net(bench_pts, 15), bench_net);

  SplitMix64 dense_rng(61);
  const auto dense_pts = random_points(dense_rng, 60, 8);
  const std::vector<Point2> dense_net{
      {3, 4, 37}, {5, 2, 35}, {2, 6, 44}, {1, 1, 38}, {6, 5, 28},
      {4, 0, 41}, {1, 3, 36}, {4, 7, 17}, {7, 3, 25}, {3, 1, 10},
      {0, 6, 9},  {4, 4, 26}, {7, 7, 3}};
  EXPECT_EQ(greedy_rect_net(dense_pts, 6), dense_net);
}

TEST(GreedyNet, RejectsLargeInputs) {
  SplitMix64 rng(59);
  const auto pts = random_points(rng, 300, 10000);
  EXPECT_THROW(greedy_rect_net(pts, 10), std::invalid_argument);
}

TEST(Hierarchy, StructureInvariants) {
  SplitMix64 rng(60);
  const auto pts = random_points(rng, 500, 4096);
  for (const auto kind : {HierarchyKind::kDeterministicNetFind,
                          HierarchyKind::kRandomSampling}) {
    HierarchyConfig cfg;
    cfg.kind = kind;
    const EdgeHierarchy h = build_hierarchy(pts, cfg);
    ASSERT_GE(h.depth(), 2u);
    EXPECT_EQ(h.levels.front().size(), pts.size());
    EXPECT_TRUE(h.levels.back().empty());
    // Nested subsets with strictly decreasing size until empty.
    for (std::size_t i = 0; i + 1 < h.levels.size(); ++i) {
      const std::set<EdgeId> sup(h.levels[i].begin(), h.levels[i].end());
      EXPECT_LT(h.levels[i + 1].size(), std::max<std::size_t>(
                                            h.levels[i].size(), 1));
      for (const EdgeId e : h.levels[i + 1]) {
        EXPECT_TRUE(sup.count(e)) << "level " << i + 1;
      }
    }
    // Depth is logarithmic-ish: generous bound 4 log2 n + 8.
    EXPECT_LE(h.depth(), 4 * ceil_log2(pts.size()) + 8);
  }
}

TEST(Hierarchy, DeterministicNetFindReproducible) {
  SplitMix64 rng(61);
  const auto pts = random_points(rng, 300, 2048);
  HierarchyConfig cfg;
  const EdgeHierarchy a = build_hierarchy(pts, cfg);
  const EdgeHierarchy b = build_hierarchy(pts, cfg);
  ASSERT_EQ(a.depth(), b.depth());
  for (std::size_t i = 0; i < a.levels.size(); ++i) {
    EXPECT_EQ(a.levels[i], b.levels[i]);
  }
}

// Empirical goodness (Definition 1): for the hierarchy over a real graph's
// non-tree edges, every sampled S in S_{f,T} whose boundary is nonempty
// has some level with 0 < |boundary at level| <= k.
TEST(Hierarchy, GoodnessOnSampledFragmentSets) {
  SplitMix64 rng(62);
  const unsigned f = 3;
  const graph::Graph g = graph::random_connected(60, 200, 1234);
  const auto t = graph::bfs_spanning_tree(g, 0);
  const auto et = graph::euler_tour(t);
  const auto pts = map_nontree_edges(g, t, et);

  HierarchyConfig cfg;  // provable NetFind settings
  const EdgeHierarchy h = build_hierarchy(pts, cfg);
  const unsigned k = provable_hierarchy_k(
      f, provable_group_len(pts.size()));

  for (int it = 0; it < 200; ++it) {
    // Random S in S_{f,T}: vertex sets cutting at most f tree edges.
    // Build one by removing up to f random tree edges and taking a random
    // union of the resulting fragments.
    std::vector<EdgeId> tree_edges;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (t.is_tree_edge[e]) tree_edges.push_back(e);
    }
    std::vector<EdgeId> faults;
    for (unsigned i = 0; i < f; ++i) {
      faults.push_back(tree_edges[rng.next_below(tree_edges.size())]);
    }
    const auto comp = graph::components_avoiding(g, faults);
    // Keep only tree edges in the BFS: recompute components of tree only.
    // (components_avoiding uses all edges; rebuild on the tree.)
    graph::Graph tree_only(g.num_vertices());
    std::vector<EdgeId> tree_fault_ids;
    for (const EdgeId e : tree_edges) {
      const auto id = tree_only.add_edge(g.edge(e).u, g.edge(e).v);
      for (const EdgeId fe : faults) {
        if (fe == e) tree_fault_ids.push_back(id);
      }
    }
    const auto tcomp = graph::components_avoiding(tree_only, tree_fault_ids);
    const int num_frag =
        1 + static_cast<int>(*std::max_element(tcomp.begin(), tcomp.end()));
    std::vector<char> frag_in(num_frag, 0);
    for (int c = 0; c < num_frag; ++c) frag_in[c] = rng.next_bool();
    std::vector<char> in_set(g.num_vertices(), 0);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      in_set[v] = frag_in[tcomp[v]];
    }
    (void)comp;

    // Boundary per level; check the goodness condition.
    bool prev_nonempty = true;
    bool found_window = false;
    std::size_t bottom_boundary = 0;
    for (std::size_t lev = 0; lev < h.levels.size(); ++lev) {
      const auto bd = graph::boundary_edges(g, in_set, h.levels[lev]);
      if (lev == 0) bottom_boundary = bd.size();
      if (!bd.empty() && bd.size() <= k) found_window = true;
      if (bd.empty()) {
        prev_nonempty = false;
      } else {
        // Monotonicity: boundaries only shrink up the hierarchy.
        EXPECT_TRUE(prev_nonempty);
      }
    }
    if (bottom_boundary > 0) {
      EXPECT_TRUE(found_window) << "goodness violated";
    }
  }
}

TEST(HierarchyConstants, MatchPaperFormulas) {
  // Lemma 5: k = 3 * group_len * ceil((2f+1)^2 / 2); with the provable
  // group_len = 4 log N this is the paper's 6 (2f+1)^2 log N.
  EXPECT_EQ(provable_group_len(1024), 40u);
  // f=1: threshold 120, rectangles ceil(9/2) = 5 -> k = 600.
  EXPECT_EQ(provable_hierarchy_k(1, 40), 600u);
  EXPECT_EQ(randomized_hierarchy_k(2, 1024), 5u * 2 * 10);
}

}  // namespace
}  // namespace ftc::geometry
