// Build-scaling bench: wall-clock construction time vs worker threads,
// across graph families and all three backends — the measurement side
// of the parallel build pipeline's contract.
//
// Two numbers per (family, backend, threads) cell:
//   build_ms      — full make_scheme wall clock at that thread count;
//   speedup       — serial build_ms / this build_ms.
// For the core-ftc backend the BuildStats phase split (hierarchy_ms,
// sketch_ms — wall-clock on the coordinating thread) of that same timed
// build is also recorded, since the hierarchy phase is the scaling
// target; the phases must fit inside build_ms.
//
// HARD correctness gate: every parallel build's container digest
// (store::digest_container — file size + payload checksum, no I/O) must
// equal the serial build's. A digest mismatch aborts the bench with a
// nonzero exit — timing output from a non-deterministic build would be
// meaningless.
//
// Speedups are only meaningful on a multicore host; the JSON records
// hardware_concurrency so readers can tell a 1-core CI box (speedup
// ~1.0 everywhere, expected) from a real regression. See
// OPERATIONS.md's build runbook for interpretation and regeneration.
//
// Usage: bench_build_scaling [backend|all] [--smoke]
#include <fstream>
#include <thread>

#include "bench_util.hpp"
#include "core/connectivity_scheme.hpp"
#include "core/ftc_scheme.hpp"
#include "core/label_store.hpp"

namespace ftc::bench {
namespace {

using graph::EdgeId;
using graph::Graph;
using graph::VertexId;

struct Family {
  std::string name;
  Graph g;
};

std::vector<Family> make_families(bool smoke) {
  std::vector<Family> families;
  if (smoke) {
    families.push_back({"random", graph::random_connected(160, 520, 11)});
    families.push_back({"grid", graph::grid(10, 12)});
  } else {
    families.push_back({"random", graph::random_connected(3000, 12000, 11)});
    families.push_back({"grid", graph::grid(48, 52)});
    families.push_back(
        {"pref_attach", graph::preferential_attachment(2500, 4, 3)});
  }
  return families;
}

core::SchemeConfig scaling_config(core::BackendKind backend, unsigned f,
                                  unsigned threads) {
  core::SchemeConfig cfg;
  cfg.backend = backend;
  cfg.set_f(f);
  cfg.ftc.k_scale = 2.0;
  cfg.cycle.scale = 3.0;
  cfg.agm.scale = 1.5;
  cfg.set_build_threads(threads);
  return cfg;
}

void run_family(const Family& family, core::BackendKind backend, unsigned f,
                const std::vector<unsigned>& thread_counts, Table& table,
                JsonRecords& json) {
  const Graph& g = family.g;
  core::store::ContainerDigest serial_digest{};
  double serial_ms = 0;

  // Untimed warm-up: the first build of a family pays the allocator's
  // page-fault bill (multi-GB sketch arrays for dp21-agm); later builds
  // reuse warm heap pages. Without this, whichever thread count runs
  // first looks arbitrarily slower.
  (void)core::make_scheme(g, scaling_config(backend, f, 1));

  for (const unsigned threads : thread_counts) {
    const auto cfg = scaling_config(backend, f, threads);
    // Phase split from BuildStats — core-ftc only (the dp21 backends
    // keep no phase accounting). The core build is timed as make_scheme
    // runs it, so the split belongs to the build it is reported with.
    double hierarchy_ms = 0;
    double sketch_ms = 0;
    Timer tb;
    std::unique_ptr<core::ConnectivityScheme> scheme;
    if (backend == core::BackendKind::kCoreFtc) {
      core::FtcScheme ftc = core::FtcScheme::build(g, cfg.ftc);
      const core::BuildStats stats = ftc.build_stats();
      scheme = core::load_scheme(
          core::open_resident_view(std::move(ftc).release_labels(), g));
      hierarchy_ms = stats.hierarchy_seconds * 1e3;
      sketch_ms = stats.sketch_seconds * 1e3;
    } else {
      scheme = core::make_scheme(g, cfg);
    }
    const double build_ms = tb.millis();
    FTC_REQUIRE(hierarchy_ms + sketch_ms <= build_ms,
                "build phases exceed the build they were measured in");

    const core::store::ContainerDigest digest = core::store::digest_container(
        *scheme, 0, g.num_vertices(), 0, g.num_edges(),
        /*include_adjacency=*/true);
    if (threads == thread_counts.front()) {
      serial_digest = digest;
      serial_ms = build_ms;
    }
    // The determinism gate: any divergence from the serial bytes is a
    // correctness bug, not a data point.
    FTC_REQUIRE(digest.file_bytes == serial_digest.file_bytes &&
                    digest.payload_checksum == serial_digest.payload_checksum,
                "parallel build digest differs from serial build");

    const double speedup = build_ms > 0 ? serial_ms / build_ms : 1.0;
    table.add_row({family.name, std::string(core::backend_name(backend)),
                   std::to_string(threads), fmt(build_ms, "%.2f"),
                   fmt(hierarchy_ms, "%.2f"), fmt(sketch_ms, "%.2f"),
                   fmt(speedup, "%.2f")});
    json.add();
    json.field("family", family.name);
    json.field("n", g.num_vertices());
    json.field("m", g.num_edges());
    json.field("f", f);
    json.field("backend", std::string(core::backend_name(backend)));
    json.field("threads", threads);
    json.field("build_ms", build_ms);
    json.field("hierarchy_ms", hierarchy_ms);
    json.field("sketch_ms", sketch_ms);
    json.field("speedup_vs_serial", speedup);
    json.field("digest_matches_serial", true);
    json.field("hardware_concurrency", std::thread::hardware_concurrency());
  }
}

}  // namespace
}  // namespace ftc::bench

int main(int argc, char** argv) {
  using namespace ftc;

  bool smoke = false;
  std::string backend_arg = "all";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else {
      backend_arg = arg;
    }
  }

  const unsigned f = 4;
  // Serial first: its digest and wall clock anchor every other row.
  const std::vector<unsigned> thread_counts = smoke
                                                  ? std::vector<unsigned>{1, 2,
                                                                          8}
                                                  : std::vector<unsigned>{
                                                        1, 2, 4, 8};
  const auto families = bench::make_families(smoke);
  std::printf("bench_build_scaling: f=%u, hardware_concurrency=%u%s\n", f,
              std::thread::hardware_concurrency(), smoke ? " [smoke]" : "");

  bench::Table table({"family", "backend", "threads", "build ms",
                      "hierarchy ms", "sketch ms", "speedup"});
  bench::JsonRecords json;
  const auto run_backend = [&](core::BackendKind b) {
    for (const auto& family : families) {
      bench::run_family(family, b, f, thread_counts, table, json);
    }
  };
  if (backend_arg == "all") {
    for (const core::BackendKind b : core::kAllBackends) run_backend(b);
  } else {
    run_backend(core::parse_backend(backend_arg));
  }
  table.print();
  json.print("JSON");
  std::ofstream out("BENCH_build_scaling.json", std::ios::trunc);
  out << json.dump() << "\n";
  std::printf("wrote BENCH_build_scaling.json\n");
  return 0;
}
