#include "core/connectivity_scheme.hpp"

#include <algorithm>
#include <vector>

#include "core/ftc_scheme.hpp"
#include "core/journal.hpp"
#include "core/label_store.hpp"

namespace ftc::core {

ConnectivityScheme::ConnectivityScheme(std::shared_ptr<const StoreView> view)
    : view_(std::move(view)),
      backend_(view_->info().backend),
      num_vertices_(view_->info().num_vertices),
      num_edges_(view_->info().num_edges) {}

std::size_t ConnectivityScheme::vertex_label_bits() const {
  return view_->info().vertex_label_bits;
}

std::size_t ConnectivityScheme::edge_label_bits() const {
  return view_->info().edge_label_bits;
}

bool ConnectivityScheme::has_adjacency() const {
  return view_->info().has_adjacency;
}

void ConnectivityScheme::prefetch(unsigned threads) const {
  view_->prefetch(threads);
}

// ------------------------------------------------------------------
// Base-class fault model: every public entry point funnels through here,
// so validation, the vertex -> incident-edges reduction and the
// endpoint-deletion rule are identical across all backends and serving
// paths (built, store-served, batch engine, CLI).

std::unique_ptr<ConnectivityScheme::FaultSet>
ConnectivityScheme::prepare_faults(const FaultSpec& spec) const {
  const graph::EdgeId m = num_edges();
  const graph::VertexId n = num_vertices();
  for (const graph::EdgeId e : spec.edge_faults()) {
    FTC_REQUIRE(e < m, "fault edge out of range");
  }
  for (const graph::VertexId v : spec.vertex_faults()) {
    FTC_REQUIRE(v < n, "fault vertex out of range");
  }

  std::vector<graph::EdgeId> edges(spec.edge_faults().begin(),
                                   spec.edge_faults().end());
  if (spec.has_vertex_faults()) {
    if (!has_adjacency()) {
      throw CapabilityError(
          "vertex faults need adjacency, which this scheme does not carry "
          "(e.g. it was loaded from a format-v1 label store; rebuild or "
          "re-save as format v2 with the adjacency side-table)");
    }
    // The Section 1.4 reduction: a faulty vertex becomes its incident
    // edges — Delta * f labels in the worst case.
    for (const graph::VertexId v : spec.vertex_faults()) {
      view_->adjacency_append(v, edges);
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  }

  if (journal_ != nullptr) {
    // Fold the journaled deletions in: a deleted edge is a permanent
    // fault, so every query answers against journal union query faults
    // — sound from the unchanged labels as long as the merged set stays
    // within the fault budget f the journal was created with. Past it,
    // refuse typed (the labels promise nothing there) instead of
    // risking a wrong answer.
    const auto del = journal_->deleted_edges();
    FTC_REQUIRE(del.empty() || del.back() < m,
                "journaled deletion out of range for this scheme");
    edges.insert(edges.end(), del.begin(), del.end());
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    if (edges.size() > journal_->fault_budget()) {
      throw CapacityError(
          "query faults plus journaled deletions exceed the fault budget",
          journal_->fault_budget(), journal_->occupancy(), edges.size());
    }
  }

  auto fault_set = prepare_edge_faults(edges);
  FTC_CHECK(fault_set != nullptr, "backend returned a null fault set");
  fault_set->vertex_faults_.assign(spec.vertex_faults().begin(),
                                   spec.vertex_faults().end());
  return fault_set;
}

bool ConnectivityScheme::query(graph::VertexId s, graph::VertexId t,
                               const FaultSet& faults, Workspace& workspace,
                               const QueryOptions& options) const {
  FTC_REQUIRE(s < num_vertices() && t < num_vertices(),
              "query vertex out of range");
  // A vertex is connected to itself even when deleted; a deleted
  // endpoint is disconnected from everything else.
  if (s == t) return true;
  const auto deleted = [&](graph::VertexId v) {
    const auto vf = faults.vertex_faults();
    return std::binary_search(vf.begin(), vf.end(), v);
  };
  if (deleted(s) || deleted(t)) return false;
  return query_edges(s, t, faults, workspace, options);
}

bool ConnectivityScheme::connected(graph::VertexId s, graph::VertexId t,
                                   const FaultSpec& spec,
                                   const QueryOptions& options) const {
  const auto faults = prepare_faults(spec);
  const auto workspace = make_workspace();
  return query(s, t, *faults, *workspace, options);
}

namespace {

store::ResidentLabels build_labels(const graph::Graph& g,
                                   const SchemeConfig& config) {
  switch (config.backend) {
    case BackendKind::kCoreFtc:
      return FtcScheme::build(g, config.ftc).release_labels();
    case BackendKind::kDp21CycleSpace:
      return dp21::CycleSpaceFtc::build(g, config.cycle);
    case BackendKind::kDp21Agm:
      return dp21::AgmFtc::build(g, config.agm);
  }
  FTC_REQUIRE(false, "unknown BackendKind");
  return {};  // unreachable
}

}  // namespace

std::unique_ptr<ConnectivityScheme> make_scheme(const graph::Graph& g,
                                                const SchemeConfig& config) {
  // Built labels are served exactly like stored ones: through a resident
  // view and the backend's one scheme class.
  return load_scheme(open_resident_view(build_labels(g, config), g));
}

BackendKind parse_backend(std::string_view name) {
  for (const BackendKind b : kAllBackends) {
    if (name == backend_name(b)) return b;
  }
  if (name == "ftc" || name == "core") return BackendKind::kCoreFtc;
  if (name == "cycle" || name == "cs") return BackendKind::kDp21CycleSpace;
  if (name == "agm") return BackendKind::kDp21Agm;
  FTC_REQUIRE(false, "unknown backend name: " + std::string(name) +
                         " (expected core-ftc | dp21-cycle | dp21-agm)");
  return BackendKind::kCoreFtc;  // unreachable
}

}  // namespace ftc::core
