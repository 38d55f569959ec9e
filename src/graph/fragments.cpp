#include "graph/fragments.hpp"

#include <algorithm>

#include "util/common.hpp"

namespace ftc::graph {

namespace {
using Interval = std::pair<std::uint32_t, std::uint32_t>;

// Sort by lo ascending, hi DESCENDING: enclosing intervals precede nested
// ones, which the nesting-stack decomposition requires.
struct LaminarLess {
  bool operator()(const Interval& a, const Interval& b) const {
    if (a.first != b.first) return a.first < b.first;
    return a.second > b.second;
  }
};
}  // namespace

FragmentLocator::FragmentLocator(std::vector<Interval> intervals) {
  std::vector<Interval> distinct(intervals);
  std::sort(distinct.begin(), distinct.end(), LaminarLess{});
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  sorted_ = std::move(distinct);

  // Laminarity check + parent computation with a nesting stack.
  // parent_[i] is the fragment id of the enclosing fragment (0 = root
  // fragment when interval i is top-level).
  parent_.assign(sorted_.size(), 0);
  std::vector<int> stack;  // indices into sorted_, currently-open intervals
  stack.reserve(sorted_.size());
  for (std::size_t i = 0; i < sorted_.size(); ++i) {
    const auto [lo, hi] = sorted_[i];
    FTC_REQUIRE(lo <= hi, "malformed interval");
    while (!stack.empty() && sorted_[stack.back()].second < lo) {
      stack.pop_back();
    }
    if (!stack.empty()) {
      const auto [plo, phi] = sorted_[stack.back()];
      FTC_REQUIRE(plo <= lo && hi <= phi,
                  "fault intervals are not laminar (not subtree intervals)");
      parent_[i] = stack.back() + 1;  // fragment id of enclosing interval
    }
    stack.push_back(static_cast<int>(i));
  }

  fault_fragment_.reserve(intervals.size());
  for (const auto& iv : intervals) {
    const auto it = std::lower_bound(sorted_.begin(), sorted_.end(), iv,
                                     LaminarLess{});
    FTC_CHECK(it != sorted_.end() && *it == iv, "interval lost in dedup");
    fault_fragment_.push_back(static_cast<int>(it - sorted_.begin()) + 1);
  }
}

int FragmentLocator::locate(std::uint32_t tin) const {
  // Deepest interval containing tin. The predecessor by lo either
  // contains tin or its laminar ancestors do.
  // probe sorts after every interval with lo <= tin under LaminarLess
  // (hi descending), so upper_bound yields the first interval with
  // lo > tin.
  const Interval probe{tin, 0};
  auto it = std::upper_bound(sorted_.begin(), sorted_.end(), probe,
                             LaminarLess{});
  int idx = static_cast<int>(it - sorted_.begin()) - 1;
  while (idx >= 0) {
    if (sorted_[idx].second >= tin) return idx + 1;
    idx = parent_[idx] - 1;  // enclosing interval's index, or -2 at root
  }
  return 0;
}

int FragmentLocator::parent_fragment(int frag) const {
  FTC_REQUIRE(frag >= 0 && frag < fragment_count(), "fragment out of range");
  if (frag == 0) return -1;
  return parent_[frag - 1];
}

std::pair<std::uint32_t, std::uint32_t> FragmentLocator::interval(
    int frag) const {
  FTC_REQUIRE(frag >= 1 && frag < fragment_count(), "fragment out of range");
  return sorted_[frag - 1];
}

}  // namespace ftc::graph
