// bench_label_store: the serving-from-disk story in numbers.
//
// For each backend: build labels once, save() them as a container, then
// measure the serving paths —
//   resident    the built labels' own resident view (what make_scheme
//               serves; no file, no SIGBUS guard),
//   mmap        the saved container, zero-copy, optionally without the
//               payload-checksum pass —
// reporting cold-load latency, first-query latency (fault prep + one
// decode on cold caches) and steady-state sequential query throughput,
// with every answer parity-checked against the built scheme.
//
// Output: a human table plus BENCH_label_store.json (a JsonRecords dump)
// in the working directory.
//
//   bench_label_store [backend|all] [n] [queries]
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/batch_engine.hpp"
#include "core/connectivity_scheme.hpp"
#include "core/label_store.hpp"

namespace ftc::bench {
namespace {

struct LoadVariant {
  const char* name;
  bool resident;
  bool verify_checksum;
};

void run_backend(core::BackendKind backend, const graph::Graph& g, unsigned f,
                 std::size_t num_queries, Table& table, JsonRecords& json) {
  core::SchemeConfig config;
  config.backend = backend;
  config.set_f(f);

  Timer build_timer;
  const auto scheme = core::make_scheme(g, config);
  const double build_ms = build_timer.millis();

  const std::string path = "bench_label_store_" +
                           std::string(core::backend_name(backend)) + ".ftcs";
  Timer save_timer;
  scheme->save(path);
  const double save_ms = save_timer.millis();
  std::size_t file_bytes = 0;
  {
    const auto view = core::LabelStoreView::open(path);
    file_bytes = view->info().file_bytes;
  }

  // One fixed fault set and query stream per backend, shared by every
  // variant so the comparison is apples-to-apples.
  SplitMix64 rng(99);
  std::vector<graph::EdgeId> faults;
  for (unsigned i = 0; i < f; ++i) {
    faults.push_back(static_cast<graph::EdgeId>(rng.next_below(g.num_edges())));
  }
  std::vector<core::BatchQueryEngine::Query> queries;
  queries.reserve(num_queries);
  for (std::size_t i = 0; i < num_queries; ++i) {
    queries.push_back(
        {static_cast<graph::VertexId>(rng.next_below(g.num_vertices())),
         static_cast<graph::VertexId>(rng.next_below(g.num_vertices()))});
  }
  core::BatchQueryEngine reference(*scheme, core::FaultSpec::edges(faults));
  const auto expected = reference.run_sequential(queries);

  const LoadVariant variants[] = {
      {"resident", true, false},
      {"mmap", false, true},
      {"mmap-noverify", false, false},
  };
  for (const LoadVariant& variant : variants) {
    Timer load_timer;
    auto loaded =
        variant.resident
            ? core::load_scheme(scheme->store_view())
            : core::load_scheme(
                  path, {.verify_checksum = variant.verify_checksum});
    const double load_ms = load_timer.millis();

    Timer first_timer;
    core::BatchQueryEngine session(std::move(loaded),
                                   core::FaultSpec::edges(faults));
    const bool first = session.connected(queries[0].s, queries[0].t);
    const double first_ms = first_timer.millis();
    if (first != expected[0]) {
      std::fprintf(stderr, "PARITY FAILURE (%s/%s, first query)\n",
                   core::backend_name(backend), variant.name);
      std::exit(1);
    }

    Timer query_timer;
    const auto results = session.run_sequential(queries);
    const double steady_s = query_timer.seconds();
    if (results != expected) {
      std::fprintf(stderr, "PARITY FAILURE (%s/%s, batch)\n",
                   core::backend_name(backend), variant.name);
      std::exit(1);
    }
    const double qps = static_cast<double>(queries.size()) / steady_s;

    table.add_row({core::backend_name(backend), variant.name,
                   fmt(static_cast<double>(file_bytes) / 1048576.0, "%.2f"),
                   fmt(load_ms, "%.3f"), fmt(first_ms, "%.3f"),
                   fmt(qps / 1e3, "%.0f")});
    json.add();
    json.field("backend", core::backend_name(backend));
    json.field("variant", variant.name);
    json.field("n", g.num_vertices());
    json.field("m", g.num_edges());
    json.field("f", f);
    json.field("file_bytes", file_bytes);
    json.field("build_ms", build_ms);
    json.field("save_ms", save_ms);
    json.field("cold_load_ms", load_ms);
    json.field("first_query_ms", first_ms);
    json.field("steady_qps", qps);
    json.field("queries", queries.size());
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ftc::bench

int main(int argc, char** argv) {
  using namespace ftc;

  const std::string backend_arg = argc > 1 ? argv[1] : "all";
  const graph::VertexId n =
      argc > 2 ? static_cast<graph::VertexId>(std::stoul(argv[2])) : 2048;
  const std::size_t num_queries =
      argc > 3 ? static_cast<std::size_t>(std::stoull(argv[3])) : 10000;

  const graph::EdgeId m = 3 * n;
  const unsigned f = 4;
  const graph::Graph g = graph::random_connected(n, m, 17);
  std::printf("bench_label_store: n=%u m=%u f=%u, %zu queries per variant\n",
              n, m, f, num_queries);

  bench::Table table({"backend", "load path", "file MiB", "cold load ms",
                      "first query ms", "kqueries/s"});
  bench::JsonRecords json;
  if (backend_arg == "all") {
    for (const core::BackendKind b : core::kAllBackends) {
      bench::run_backend(b, g, f, num_queries, table, json);
    }
  } else {
    bench::run_backend(core::parse_backend(backend_arg), g, f, num_queries,
                       table, json);
  }
  table.print();
  json.print("JSON");
  std::ofstream out("BENCH_label_store.json", std::ios::trunc);
  out << json.dump() << "\n";
  std::printf("wrote BENCH_label_store.json\n");
  return 0;
}
