#include "core/fault_spec.hpp"

#include <algorithm>

namespace ftc::core {

namespace {

template <typename Id>
std::vector<Id> canonical(std::span<const Id> ids) {
  std::vector<Id> out(ids.begin(), ids.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string capacity_message(const std::string& what, std::size_t budget,
                             std::size_t journaled, std::size_t requested) {
  const std::size_t remaining = budget > journaled ? budget - journaled : 0;
  return what + " [requested " + std::to_string(requested) +
         " faults > budget f=" + std::to_string(budget) + "; " +
         std::to_string(journaled) + " journaled deletions, " +
         std::to_string(remaining) + " query-fault slots remaining]";
}

}  // namespace

CapacityError::CapacityError(const std::string& what, std::size_t budget,
                             std::size_t journaled, std::size_t requested)
    : std::invalid_argument(
          capacity_message(what, budget, journaled, requested)),
      budget_(budget),
      journaled_(journaled),
      requested_(requested) {}

FaultSpec FaultSpec::edges(std::span<const graph::EdgeId> edge_faults) {
  return FaultSpec(canonical(edge_faults), {});
}

FaultSpec FaultSpec::vertices(
    std::span<const graph::VertexId> vertex_faults) {
  return FaultSpec({}, canonical(vertex_faults));
}

FaultSpec FaultSpec::of(std::span<const graph::EdgeId> edge_faults,
                        std::span<const graph::VertexId> vertex_faults) {
  return FaultSpec(canonical(edge_faults), canonical(vertex_faults));
}

}  // namespace ftc::core
