#include "geometry/hierarchy.hpp"

#include <algorithm>
#include <tuple>

#include "geometry/greedy_net.hpp"
#include "geometry/netfind.hpp"
#include "util/common.hpp"
#include "util/worker_pool.hpp"

namespace ftc::geometry {

namespace {

std::vector<Point2> next_level(const std::vector<Point2>& cur,
                               const HierarchyConfig& config,
                               unsigned level, util::WorkerPool* pool) {
  switch (config.kind) {
    case HierarchyKind::kDeterministicNetFind: {
      std::vector<Point2> net =
          netfind(cur, provable_group_len(cur.size()), pool);
      if (net.size() >= cur.size()) {
        // Not expected at the provable group length (Lemma 12 bounds the
        // net by |P|/2); a guard so the level loop always progresses.
        // Keep every other point.
        std::vector<Point2> half;
        for (std::size_t i = 0; i < net.size(); i += 2) half.push_back(net[i]);
        return half;
      }
      return net;
    }
    case HierarchyKind::kDeterministicGreedy: {
      const unsigned thr =
          config.greedy_threshold != 0
              ? config.greedy_threshold
              : std::max<unsigned>(
                    2, static_cast<unsigned>(cur.size() / 4));
      std::vector<Point2> net = greedy_rect_net(cur, thr);
      std::sort(net.begin(), net.end(),
                [](const Point2& a, const Point2& b) {
                  return std::tie(a.x, a.y, a.edge) <
                         std::tie(b.x, b.y, b.edge);
                });
      net.erase(std::unique(net.begin(), net.end()), net.end());
      if (net.size() >= cur.size()) {
        std::vector<Point2> half;
        for (std::size_t i = 0; i < net.size(); i += 2) half.push_back(net[i]);
        return half;
      }
      return net;
    }
    case HierarchyKind::kRandomSampling: {
      SplitMix64 rng(mix_hash(level + 1, config.seed));
      std::vector<Point2> out;
      for (const Point2& p : cur) {
        if (rng.next_bool()) out.push_back(p);
      }
      if (out.size() == cur.size() && !out.empty()) out.pop_back();
      return out;
    }
  }
  FTC_CHECK(false, "unknown hierarchy kind");
}

}  // namespace

EdgeHierarchy build_hierarchy(std::span<const Point2> points,
                              const HierarchyConfig& config,
                              util::WorkerPool* pool) {
  EdgeHierarchy h;
  std::vector<Point2> cur(points.begin(), points.end());
  // Canonical order so the hierarchy is independent of input order.
  util::parallel_sort(
      cur,
      [](const Point2& a, const Point2& b) {
        return std::tie(a.x, a.y, a.edge) < std::tie(b.x, b.y, b.edge);
      },
      pool);
  while (true) {
    std::vector<graph::EdgeId> ids;
    ids.reserve(cur.size());
    for (const Point2& p : cur) ids.push_back(p.edge);
    h.levels.push_back(std::move(ids));
    if (cur.empty()) break;
    cur = next_level(cur, config, h.depth() - 1, pool);
  }
  return h;
}

unsigned provable_hierarchy_k(unsigned f, unsigned group_len) {
  // H_{2f} regions decompose into at most (2f+1)^2 / 2 rectangles
  // (Section 4.3); a region with more than k points has a rectangle with
  // >= 3 * group_len of them, which the net hits.
  const unsigned rects = ((2 * f + 1) * (2 * f + 1) + 1) / 2;
  return netfind_threshold(group_len) * rects;
}

unsigned randomized_hierarchy_k(unsigned f, std::size_t n) {
  // Proposition 5: k = 5 f log n.
  return 5 * f * std::max(1u, ceil_log2(std::max<std::size_t>(n, 2)));
}

}  // namespace ftc::geometry
