// Quickstart: build f-FTC labels for a graph, then answer connectivity
// queries under edge faults from the labels alone.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "core/batch_engine.hpp"
#include "core/ftc_scheme.hpp"
#include "graph/generators.hpp"

int main() {
  using namespace ftc;

  // 1. A connected graph (here: random, 64 vertices, 160 edges).
  const graph::Graph g = graph::random_connected(64, 160, /*seed=*/7);

  // 2. Build the deterministic f-FTC labeling for up to f = 3 faults.
  core::FtcConfig config;
  config.f = 3;
  config.kind = core::SchemeKind::kDeterministic;  // Theorem 1, NetFind
  const core::FtcScheme scheme = core::FtcScheme::build(g, config);

  std::printf("built labels: %u-bit field, k=%u syndromes x %u levels\n",
              scheme.params().field_bits, scheme.params().k,
              scheme.params().num_levels);
  std::printf("label sizes: %zu bits per vertex, %zu bits per edge\n",
              scheme.vertex_label_bits(), scheme.edge_label_bits());

  // 3. Take some labels. In a distributed deployment these are the only
  //    things a node would store or receive.
  const core::VertexLabel s = scheme.vertex_label(3);
  const core::VertexLabel t = scheme.vertex_label(42);
  std::vector<core::EdgeLabel> faults{scheme.edge_label(10),
                                      scheme.edge_label(57),
                                      scheme.edge_label(98)};

  // 4. Decode: the decoder sees labels only — never the graph.
  core::QueryStats stats;
  const bool connected = core::FtcDecoder::connected(s, t, faults,
                                                     core::QueryOptions{},
                                                     &stats);
  std::printf("vertex 3 %s vertex 42 under faults {10, 57, 98}\n",
              connected ? "IS connected to" : "is NOT connected to");
  std::printf("query internals: %u fragments, %u sketch decodes, %u merges\n",
              stats.fragments, stats.outdetect_calls, stats.merges);

  // 5. The same query can run against any of the three labeling
  //    backends through the polymorphic ConnectivityScheme factory —
  //    and a BatchQueryEngine session amortizes the fault-set setup
  //    across many queries.
  for (const core::BackendKind backend : core::kAllBackends) {
    core::SchemeConfig sc;
    sc.backend = backend;
    sc.set_f(3);
    const auto backend_scheme = core::make_scheme(g, sc);
    core::BatchQueryEngine session(
        *backend_scheme,
        core::FaultSpec::edges(std::vector<graph::EdgeId>{10, 57, 98}));
    std::printf("[%-10s] 3 %s 42 | vertex label %zu b, edge label %zu b\n",
                core::backend_name(backend),
                session.connected(3, 42) ? "<-> " : "-/->",
                backend_scheme->vertex_label_bits(),
                backend_scheme->edge_label_bits());
  }
  return 0;
}
