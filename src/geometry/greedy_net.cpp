#include "geometry/greedy_net.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "util/common.hpp"

namespace ftc::geometry {

namespace {

// Subset of points as a bitmask over point indices (N <= 256).
using Mask = std::array<std::uint64_t, 4>;

void mask_set(Mask& m, std::size_t i) { m[i / 64] |= std::uint64_t{1} << (i % 64); }

bool mask_get(const Mask& m, std::size_t i) {
  return (m[i / 64] >> (i % 64)) & 1;
}

// Ranks of each point's `coord` among the distinct values of that
// coordinate; returns how many distinct values there are.
std::size_t coordinate_ranks(std::span<const Point2> points,
                             std::uint32_t Point2::*coord,
                             std::vector<std::uint32_t>& rank) {
  std::vector<std::uint32_t> values;
  for (const auto& p : points) values.push_back(p.*coord);
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  for (const auto& p : points) {
    rank.push_back(static_cast<std::uint32_t>(
        std::lower_bound(values.begin(), values.end(), p.*coord) -
        values.begin()));
  }
  return values.size();
}

}  // namespace

std::vector<Point2> greedy_rect_net(std::span<const Point2> points,
                                    unsigned threshold) {
  const std::size_t n = points.size();
  FTC_REQUIRE(n <= 256, "greedy_rect_net is for small instances (N <= 256)");
  FTC_REQUIRE(threshold >= 1, "threshold must be positive");
  if (n == 0) return {};

  std::vector<std::uint32_t> xrank, yrank;
  const std::size_t num_x = coordinate_ranks(points, &Point2::x, xrank);
  const std::size_t num_y = coordinate_ranks(points, &Point2::y, yrank);
  std::vector<std::vector<std::uint32_t>> column(num_x);
  for (std::size_t p = 0; p < n; ++p) {
    column[xrank[p]].push_back(static_cast<std::uint32_t>(p));
  }

  // The DISTINCT heavy rectangle point-subsets. Every subset is the point
  // set of exactly one tight rectangle — one whose four sides each hold a
  // point of the subset — so enumerating tight rectangles lists each
  // subset once. For each x-range [i, j], rows[y] holds the range's points
  // of y-rank y; each bottom row k grows its mask one occupied row at a
  // time.
  std::vector<Mask> heavy;
  std::vector<std::vector<std::uint32_t>> rows(num_y);
  for (std::size_t i = 0; i < num_x; ++i) {
    for (auto& row : rows) row.clear();
    for (std::size_t j = i; j < num_x; ++j) {
      for (const std::uint32_t p : column[j]) rows[yrank[p]].push_back(p);
      for (std::size_t k = 0; k < num_y; ++k) {
        if (rows[k].empty()) continue;
        Mask m{};
        std::size_t count = 0;
        bool left = false;
        bool right = false;
        for (std::size_t l = k; l < num_y; ++l) {
          if (rows[l].empty()) continue;
          for (const std::uint32_t p : rows[l]) {
            mask_set(m, p);
            ++count;
            left = left || xrank[p] == i;
            right = right || xrank[p] == j;
          }
          if (count >= threshold && left && right) heavy.push_back(m);
        }
      }
    }
  }

  // Greedy: the point hitting the most not-yet-hit heavy rectangles (the
  // first such point on ties). gain[p] counts the live rectangles holding
  // p, so the order of `heavy` does not matter; a chosen point's gain
  // drops to zero.
  std::vector<std::size_t> gain(n, 0);
  for (const Mask& m : heavy) {
    for (std::size_t w = 0; w < m.size(); ++w) {
      for (std::uint64_t bits = m[w]; bits != 0; bits &= bits - 1) {
        ++gain[64 * w + std::countr_zero(bits)];
      }
    }
  }
  std::vector<char> alive(heavy.size(), 1);
  std::size_t remaining = heavy.size();
  std::vector<Point2> net;
  while (remaining > 0) {
    std::size_t best_point = n;
    std::size_t best_gain = 0;
    for (std::size_t p = 0; p < n; ++p) {
      if (gain[p] > best_gain) {
        best_gain = gain[p];
        best_point = p;
      }
    }
    FTC_CHECK(best_point < n, "heavy rectangle with no points");
    net.push_back(points[best_point]);
    for (std::size_t r = 0; r < heavy.size(); ++r) {
      if (!alive[r] || !mask_get(heavy[r], best_point)) continue;
      alive[r] = 0;
      --remaining;
      for (std::size_t w = 0; w < heavy[r].size(); ++w) {
        for (std::uint64_t bits = heavy[r][w]; bits != 0; bits &= bits - 1) {
          --gain[64 * w + std::countr_zero(bits)];
        }
      }
    }
  }
  return net;
}

}  // namespace ftc::geometry
