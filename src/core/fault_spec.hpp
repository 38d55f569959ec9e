// FaultSpec: the first-class fault model of the query API.
//
// A fault set is no longer "a span of edge IDs": queries may delete whole
// vertices (every incident edge goes down with them — the open-problems
// reduction of Section 1.4, cost Delta * f labels) alongside individual
// edges. FaultSpec is the canonical value type every layer accepts —
// ConnectivityScheme::prepare_faults, BatchQueryEngine sessions and the
// ftc_store CLI — so canonicalization
// (sorting + deduplication) happens exactly once, at construction, and
// every consumer downstream can rely on sorted unique IDs.
//
// Range validation is deliberately NOT done here: a FaultSpec is built
// without reference to any particular scheme, and prepare_faults checks
// the IDs against the scheme's dimensions (std::invalid_argument on
// out-of-range IDs, as before).
//
// Vertex faults need adjacency (the vertex -> incident-edges reduction);
// schemes that carry none — e.g. those loaded from a format-v1 label
// store — throw the typed CapabilityError below.
#pragma once

#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace ftc::core {

// Thrown when a query asks a scheme for something it structurally cannot
// serve (vertex faults without adjacency), as opposed to a malformed
// request. Derives from std::invalid_argument so pre-FaultSpec callers
// that caught the old error type keep working.
class CapabilityError : public std::invalid_argument {
 public:
  explicit CapabilityError(const std::string& what)
      : std::invalid_argument(what) {}
};

// Thrown when journaled deletions plus a query's own fault set would
// exceed the fault budget f the deletion journal was created with
// (journal.hpp): the labels only promise correct answers for fault sets
// of size <= f, so past the budget the scheme refuses typed rather than
// answer wrong. Carries the full accounting so callers (and operators
// reading the message) can see how much budget is left before a
// compaction-and-rebuild is due.
class CapacityError : public std::invalid_argument {
 public:
  // budget: the journal's fault budget f. journaled: distinct journaled
  // deletions. requested: the merged fault count that overflowed
  // (journal union query-fault edges after the vertex reduction).
  CapacityError(const std::string& what, std::size_t budget,
                std::size_t journaled, std::size_t requested);

  std::size_t budget() const { return budget_; }
  std::size_t journaled() const { return journaled_; }
  std::size_t requested() const { return requested_; }
  // Query-fault headroom left next to the journaled deletions.
  std::size_t remaining() const {
    return budget_ > journaled_ ? budget_ - journaled_ : 0;
  }

 private:
  std::size_t budget_ = 0;
  std::size_t journaled_ = 0;
  std::size_t requested_ = 0;
};

class FaultSpec {
 public:
  // The empty fault set (every query answers "connected").
  FaultSpec() = default;

  // Factories canonicalize once: IDs come out sorted and deduplicated.
  static FaultSpec edges(std::span<const graph::EdgeId> edge_faults);
  static FaultSpec vertices(std::span<const graph::VertexId> vertex_faults);
  static FaultSpec of(std::span<const graph::EdgeId> edge_faults,
                      std::span<const graph::VertexId> vertex_faults);

  std::span<const graph::EdgeId> edge_faults() const { return edges_; }
  std::span<const graph::VertexId> vertex_faults() const { return vertices_; }

  bool has_vertex_faults() const { return !vertices_.empty(); }
  bool empty() const { return edges_.empty() && vertices_.empty(); }
  // Total distinct faulty elements (edges + vertices).
  std::size_t size() const { return edges_.size() + vertices_.size(); }

 private:
  FaultSpec(std::vector<graph::EdgeId> edges,
            std::vector<graph::VertexId> vertices)
      : edges_(std::move(edges)), vertices_(std::move(vertices)) {}

  std::vector<graph::EdgeId> edges_;      // sorted, unique
  std::vector<graph::VertexId> vertices_; // sorted, unique
};

}  // namespace ftc::core
