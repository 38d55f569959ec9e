// (S_{f,T}, k)-good hierarchies (Definition 1): nested edge subsets
// E_0 (all non-tree edges) >= E_1 >= ... >= E_h = {} such that any vertex
// set S cutting few tree edges, whose boundary in E_i exceeds k, keeps a
// nonempty boundary in E_{i+1}. Combined with the checkered-region
// argument (Lemma 3), a rectangle epsilon-net of each level yields the
// next level (Lemma 5); random halving does the same with high
// probability (Proposition 5 / Appendix A).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geometry/point_map.hpp"

namespace ftc::util {
class WorkerPool;
}  // namespace ftc::util

namespace ftc::geometry {

enum class HierarchyKind {
  kDeterministicNetFind,  // Lemma 5 via NetFind (Lemma 12)
  kDeterministicGreedy,   // Lemma 5 via the greedy net (Lemma 10 stand-in)
  kRandomSampling,        // Proposition 5: independent halving
};

struct HierarchyConfig {
  HierarchyKind kind = HierarchyKind::kDeterministicNetFind;
  // Greedy-net heaviness threshold; 0 = provable-analogue default.
  unsigned greedy_threshold = 0;
  // Seed for kRandomSampling.
  std::uint64_t seed = 1;
};

struct EdgeHierarchy {
  // levels[i] = edge IDs of E_i, with levels.front() = all input edges and
  // levels.back() = {} (the empty E_h is stored explicitly).
  std::vector<std::vector<graph::EdgeId>> levels;

  unsigned depth() const { return static_cast<unsigned>(levels.size()); }
  std::size_t total_edges() const {
    std::size_t s = 0;
    for (const auto& l : levels) s += l.size();
    return s;
  }
};

// Builds the hierarchy over the given points (one per non-tree edge).
// `pool` parallelizes the per-level net computation (the NetFind
// frontier walk and the canonical sorts); the resulting levels are
// byte-identical for any worker count — see netfind().
EdgeHierarchy build_hierarchy(std::span<const Point2> points,
                              const HierarchyConfig& config,
                              util::WorkerPool* pool = nullptr);

// The k for which the deterministic NetFind hierarchy is provably
// (S_{f,T}, k)-good (Lemma 5): a checkered H_{2f} region decomposes into
// (2f+1)^2/2 rectangles, each heavy one containing >= 3*group_len points.
unsigned provable_hierarchy_k(unsigned f, unsigned group_len);

// The k for which random halving is (S_{f,T}, k)-good whp (Prop. 5).
unsigned randomized_hierarchy_k(unsigned f, std::size_t n);

}  // namespace ftc::geometry
