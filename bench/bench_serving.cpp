// bench_serving: the serving-path benchmark. One measurement loop runs
// over a matrix of backend x serving path x fault model, and over extra
// rows for the write (delta push) and robustness (retry, degraded) costs.
//
// The loop (rounds() in bench_util.hpp) runs every timed operation on
// this one thread: warm-up rounds first, whose timings are dropped, then
// the measured samples, reported as median, p99 and sample count. Every
// timed answer is compared with BFS ground truth
// (graph::connected_avoiding, edge- and vertex-avoiding); a mismatch or
// a failed gate is reported on stderr and makes the program exit 1. The
// library's own threads are not the loop's: save_sharded writes shards
// in parallel, swap_store prefetches in parallel, and the remote paths
// talk to an in-process server thread.
//
// Matrix cells (kind "cell"), per backend and fault set:
//   paths    resident (make_scheme's own labels), flat (the mmapped
//            container), sharded K=4 lazy, sharded K=4 after prefetch,
//            and remote (the K=4 store over a loopback ShardHttpServer)
//            with a cold and with a warm shard cache;
//   faults   edge |F| in {4, 16, 64}, and vertex |F_v| in {1, 4, 16}
//            whose reduction to incident edges is recorded as `reduced`;
//   metrics  open (load the labels; the prefetched and remote paths
//            include prefetch), first (a fresh session over the opened
//            labels: prepare plus its first query), prepare
//            (reset_faults), query p50/p99, run_sequential q/s and the
//            one-shot ConnectivityScheme::connected().
// Each scheme is built on one thread with capacity f = |F| (edge) or
// reduced + 4 (vertex). dp21-agm labels grow ~f^2, so its cells stop at
// f = 64; skipped cells are logged.
//
// Extra rows, per backend, over the |F| = 4 scheme:
//   push      full save and save_sharded against save_sharded_delta for
//             c in {0, 1, K/2, K} changed shards (shards and bytes
//             written and reused), then swap_store(child) on a warm
//             session (shards adopted and remapped, answers re-checked);
//   retry     strict open + prefetch of the K-shard store, clean and
//             with one transient EAGAIN injected into a shard open;
//   degraded  one shard truncated behind a live session: query latency
//             on the healthy ranges, and the cost of the DegradedError
//             throw on the dead one.
//
// Usage: bench_serving [backend|all] [--smoke]
// Output: human tables and one `JSON [...]` line of records tagged
// with "kind" (cell, push, retry, degraded).
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/batch_engine.hpp"
#include "core/shard_cache.hpp"
#include "core/shard_server.hpp"
#include "core/sharded_store.hpp"
#include "flip_edges.hpp"
#include "util/failpoint.hpp"

namespace ftc::bench {
namespace {

namespace fs = std::filesystem;
using graph::EdgeId;
using graph::Graph;
using graph::VertexId;
using Query = core::BatchQueryEngine::Query;

constexpr unsigned kShards = 4;
constexpr unsigned kAgmMaxF = 64;

// Measured samples per series (warm-up rounds come on top).
struct Sizes {
  VertexId n = 256;
  std::size_t opens = 10;
  std::size_t prepares = 20;
  std::size_t queries = 1000;
  std::size_t seq_passes = 10;
  std::size_t oneshots = 32;
  std::size_t pushes = 5;
  std::size_t throws = 200;
};

// ------------------------------------------------------------ workloads

// One fault set plus a query stream with BFS ground truth.
struct Workload {
  const char* model = "edge";  // or "vertex"
  unsigned size = 0;           // |F| or |F_v|
  core::FaultSpec spec;
  std::vector<EdgeId> edges;  // sorted fault edges after the reduction
  unsigned f_build = 0;
  std::vector<Query> queries;
  std::vector<bool> truth;
};

Workload make_workload(const Graph& g, bool vertex, unsigned size,
                       std::size_t num_queries) {
  SplitMix64 rng(0x5e41 + 2 * size + (vertex ? 1 : 0));
  Workload w;
  w.model = vertex ? "vertex" : "edge";
  w.size = size;
  std::vector<EdgeId> edges;
  std::vector<VertexId> vertices;
  if (vertex) {
    while (vertices.size() < size) {
      const auto v = static_cast<VertexId>(rng.next_below(g.num_vertices()));
      if (std::find(vertices.begin(), vertices.end(), v) == vertices.end()) {
        vertices.push_back(v);
        const auto inc = g.incident_edges(v);
        w.edges.insert(w.edges.end(), inc.begin(), inc.end());
      }
    }
  } else {
    while (edges.size() < size) {
      const auto e = static_cast<EdgeId>(rng.next_below(g.num_edges()));
      if (std::find(edges.begin(), edges.end(), e) == edges.end()) {
        edges.push_back(e);
        w.edges.push_back(e);
      }
    }
  }
  std::sort(w.edges.begin(), w.edges.end());
  w.edges.erase(std::unique(w.edges.begin(), w.edges.end()), w.edges.end());
  w.f_build = vertex ? static_cast<unsigned>(w.edges.size()) + 4 : size;
  w.spec = core::FaultSpec::of(edges, vertices);
  for (std::size_t i = 0; i < num_queries; ++i) {
    const auto s = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    const auto t = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    w.queries.push_back({s, t});
    w.truth.push_back(graph::connected_avoiding(g, s, t, edges, vertices));
  }
  return w;
}

core::SchemeConfig bench_config(core::BackendKind backend, unsigned f) {
  core::SchemeConfig cfg;
  cfg.backend = backend;
  cfg.set_f(f);
  cfg.ftc.k_scale = 2.0;
  cfg.cycle.scale = 3.0;
  cfg.agm.scale = 1.5;
  cfg.set_build_threads(1);
  return cfg;
}

// A scheme's saved artifacts in the scratch directory the loopback
// server serves.
struct Store {
  fs::path dir;
  std::string url;  // base URL of the server over `dir`
  std::string flat() const { return dir / "store.ftcs"; }
  std::string manifest() const { return dir / "store.ftcm"; }
};

void remove_sharded(const std::string& manifest) {
  for (unsigned k = 0; k < kShards; ++k) {
    fs::remove(manifest + ".shard" + std::to_string(k) + ".ftcs");
  }
  fs::remove(manifest);
}

// ------------------------------------------------------------ the matrix

enum Path {
  kResident,
  kFlat,
  kShardedLazy,
  kShardedPrefetch,
  kRemoteCold,
  kRemoteWarm,
  kNumPaths
};
constexpr const char* kPathNames[kNumPaths] = {
    "resident",         "flat",        "sharded-lazy",
    "sharded-prefetch", "remote-cold", "remote-warm"};

// Opens the labels `p` serves from; `cache` is the remote paths' shard
// cache.
std::unique_ptr<core::ConnectivityScheme> open_path(
    Path p, const core::ConnectivityScheme& built, const Store& store,
    const std::shared_ptr<core::ShardCache>& cache) {
  if (p == kResident) return core::load_scheme(built.store_view());
  if (p == kFlat) return core::load_scheme(store.flat());
  auto scheme = p == kRemoteCold || p == kRemoteWarm
                    ? core::load_scheme(core::RemoteStoreView::open(
                          store.url + "store.ftcm", true, nullptr, cache))
                    : core::load_scheme(store.manifest());
  if (p != kShardedLazy) scheme->prefetch(1);
  return scheme;
}

void run_cell(const core::ConnectivityScheme& built, const Workload& w,
              Path path, const Store& store, double build_ms,
              const Sizes& sz, Table& table, JsonRecords& json) {
  const std::string where = std::string(built.name()) + " " +
                            kPathNames[path] + " " + w.model + "=" +
                            std::to_string(w.size);
  const std::size_t nq = w.queries.size();
  const fs::path cold_dir = store.dir / "cold";
  const fs::path warm_dir = store.dir / "warm";
  const auto warm_cache =
      path == kRemoteWarm
          ? std::make_shared<core::ShardCache>(warm_dir, 0)
          : nullptr;

  // Open and first query: a fresh open (the cold-cache path also gets a
  // fresh, empty cache) and a fresh session per round. The warm path's
  // warm-up round is what fills its cache.
  Series open, first, prepare, query, seq, oneshot;
  std::unique_ptr<core::BatchQueryEngine> engine;
  rounds(sz.opens, [&](std::size_t i, bool keep) {
    auto cache = path == kRemoteCold
                     ? std::make_shared<core::ShardCache>(
                           cold_dir / std::to_string(i), 0)
                     : warm_cache;
    engine.reset();
    Timer t_open;
    auto scheme = open_path(path, built, store, cache);
    open.add(t_open, keep);
    Timer t_first;
    engine = std::make_unique<core::BatchQueryEngine>(std::move(scheme),
                                                      w.spec);
    const bool got = engine->connected(w.queries[0].s, w.queries[0].t);
    first.add(t_first, keep);
    check(got, w.truth[0], where, "first query");
  });
  rounds(sz.prepares, [&](std::size_t, bool keep) {
    Timer t;
    engine->reset_faults(w.spec);
    prepare.add(t, keep);
  });
  rounds(sz.queries, [&](std::size_t i, bool keep) {
    const Query& q = w.queries[i % nq];
    Timer t;
    const bool got = engine->connected(q.s, q.t);
    query.add(t, keep);
    check(got, w.truth[i % nq], where, "query");
  });
  rounds(sz.seq_passes, [&](std::size_t, bool keep) {
    Timer t;
    const std::vector<bool> got = engine->run_sequential(w.queries);
    seq.add(t, keep);
    for (std::size_t j = 0; j < nq; ++j) {
      check(got[j], w.truth[j], where, "run_sequential");
    }
  });
  rounds(sz.oneshots, [&](std::size_t i, bool keep) {
    const Query& q = w.queries[i % nq];
    Timer t;
    const bool got = engine->scheme().connected(q.s, q.t, w.spec);
    oneshot.add(t, keep);
    check(got, w.truth[i % nq], where, "one-shot connected()");
  });
  const double seq_qps = static_cast<double>(nq) / (seq.at(0.5) * 1e-6);
  engine.reset();
  fs::remove_all(cold_dir);
  fs::remove_all(warm_dir);

  table.add_row({std::string(built.name()), kPathNames[path],
                 std::string(w.model) + " " + std::to_string(w.size),
                 std::to_string(w.edges.size()), std::to_string(w.f_build),
                 fmt(open.at(0.5), "%.0f"), fmt(first.at(0.5), "%.0f"),
                 fmt(prepare.at(0.5), "%.1f"), fmt(query.at(0.5), "%.2f"),
                 fmt(query.at(0.99), "%.2f"), std::to_string(query.us.size()),
                 fmt(seq_qps, "%.0f"), fmt(oneshot.at(0.5), "%.1f")});
  json.add();
  json.field("kind", "cell");
  json.field("backend", core::backend_name(built.backend()));
  json.field("path", kPathNames[path]);
  json.field("model", w.model);
  json.field("faults", w.size);
  json.field("reduced", w.edges.size());
  json.field("f", w.f_build);
  json.field("n", built.num_vertices());
  json.field("m", built.num_edges());
  json.field("build_ms", build_ms);
  put(json, "open_us", open);
  put(json, "first_us", first);
  put(json, "prepare_us", prepare);
  put(json, "query_us", query);
  put(json, "seq_pass_us", seq);
  json.field("seq_qps", seq_qps);
  json.field("seq_queries", nq);
  put(json, "oneshot_us", oneshot);
}

// ------------------------------------------------------------ extra rows

void run_push(const Graph& g, const core::ConnectivityScheme& scheme,
              const Workload& w, const Store& store, const Sizes& sz,
              Table& table, JsonRecords& json) {
  const std::string flat = store.dir / "push.ftcs";
  const std::string parent = store.dir / "parent.ftcm";
  const std::string child = store.dir / "child.ftcm";
  const std::string where = std::string(scheme.name()) + " push";
  for (const unsigned changed : {0u, 1u, kShards / 2, kShards}) {
    // One dirtied edge label per changed shard, never a fault edge, so
    // the answers must survive the swap.
    std::vector<EdgeId> flips;
    for (unsigned j = 0; j < changed; ++j) {
      auto e =
          static_cast<EdgeId>(std::uint64_t{g.num_edges()} * j / kShards);
      while (std::binary_search(w.edges.begin(), w.edges.end(), e)) ++e;
      flips.push_back(e);
    }
    const auto pushee = test_support::flip_edges(scheme, g, flips);

    Series save, save_sharded, delta, swap;
    core::DeltaPushStats stats;
    std::size_t adopted = 0;
    rounds(sz.pushes, [&](std::size_t, bool keep) {
      remove_sharded(child);
      Timer t_save;
      scheme.save(flat);
      save.add(t_save, keep);
      Timer t_sharded;
      core::save_sharded(scheme, parent, kShards);
      save_sharded.add(t_sharded, keep);
      Timer t_delta;
      stats = core::save_sharded_delta(*pushee, child, parent);
      delta.add(t_delta, keep);

      core::BatchQueryEngine session(core::load_scheme(parent), w.spec);
      session.scheme().prefetch(1);
      const auto before = session.run_sequential(w.queries);
      Timer t_swap;
      session.swap_store(child);
      swap.add(t_swap, keep);
      const auto view =
          std::dynamic_pointer_cast<const core::ShardedStoreView>(
              session.scheme().store_view());
      adopted = view ? view->shards_adopted() : 0;
      const auto after = session.run_sequential(w.queries);
      for (std::size_t j = 0; j < w.queries.size(); ++j) {
        check(before[j], w.truth[j], where, "before swap");
        check(after[j], w.truth[j], where, "after swap");
      }
    });
    if (stats.shards_written != changed) {
      fail(where + ": " + std::to_string(stats.shards_written) +
           " shards written for " + std::to_string(changed) + " changed");
    }
    if (kShards - adopted != changed) {
      fail(where + ": swap remapped " + std::to_string(kShards - adopted) +
           " shards for " + std::to_string(changed) + " changed");
    }

    table.add_row({std::string(scheme.name()),
                   std::to_string(changed) + "/" + std::to_string(kShards),
                   fmt(save.at(0.5) / 1e3, "%.2f"),
                   fmt(save_sharded.at(0.5) / 1e3, "%.2f"),
                   fmt(delta.at(0.5) / 1e3, "%.2f"),
                   std::to_string(stats.shards_written),
                   std::to_string(stats.shards_reused),
                   fmt(static_cast<double>(stats.bytes_written) / 1e6, "%.3f"),
                   fmt(static_cast<double>(stats.bytes_reused) / 1e6, "%.3f"),
                   fmt(swap.at(0.5) / 1e3, "%.2f"), std::to_string(adopted),
                   std::to_string(kShards - adopted)});
    json.add();
    json.field("kind", "push");
    json.field("backend", core::backend_name(scheme.backend()));
    json.field("k_shards", kShards);
    json.field("shards_changed", changed);
    json.field("f", w.f_build);
    put(json, "save_us", save);
    put(json, "save_sharded_us", save_sharded);
    put(json, "delta_us", delta);
    json.field("shards_written", stats.shards_written);
    json.field("shards_reused", stats.shards_reused);
    json.field("bytes_written", stats.bytes_written);
    json.field("bytes_reused", stats.bytes_reused);
    json.field("manifest_bytes", stats.manifest_bytes);
    put(json, "swap_us", swap);
    json.field("shards_adopted", adopted);
    json.field("shards_remapped", kShards - adopted);
  }
  remove_sharded(child);
  remove_sharded(parent);
  fs::remove(flat);
}

void run_retry(const core::ConnectivityScheme& scheme, const Store& store,
               const Sizes& sz, Table& table, JsonRecords& json) {
  const std::string where = std::string(scheme.name()) + " retry";
  const core::RetryPolicy prior = core::default_retry_policy();
  core::default_retry_policy() = {3, std::chrono::microseconds(50)};
  const auto open_all = [&](Series& series, bool keep) {
    Timer t;
    const auto view = core::ShardedStoreView::open(store.manifest());
    (void)view->prefetch(1);
    series.add(t, keep);
    if (view->shards_open() != kShards || view->shards_quarantined() != 0) {
      fail(where + ": strict open lost a shard");
    }
  };
  Series clean, retried;
  rounds(sz.opens, [&](std::size_t, bool keep) {
    open_all(clean, keep);
    // Hit 1 maps the manifest, hit 2 the first shard.
    failpoint::Scoped fp("store.map.open", "nth:2:EAGAIN");
    open_all(retried, keep);
    if (fp.hits() < 2) fail(where + ": the injected failure never fired");
  });
  core::default_retry_policy() = prior;

  table.add_row({std::string(scheme.name()), "strict open + prefetch",
                 fmt(clean.at(0.5), "%.0f"), fmt(clean.at(0.99), "%.0f"),
                 std::to_string(clean.us.size())});
  table.add_row({std::string(scheme.name()), "  with one EAGAIN retried",
                 fmt(retried.at(0.5), "%.0f"), fmt(retried.at(0.99), "%.0f"),
                 std::to_string(retried.us.size())});
  json.add();
  json.field("kind", "retry");
  json.field("backend", core::backend_name(scheme.backend()));
  json.field("k_shards", kShards);
  put(json, "open_clean_us", clean);
  put(json, "open_retry_us", retried);
}

void run_degraded(const Graph& g, const core::ConnectivityScheme& scheme,
                  const Workload& w, const Store& store, const Sizes& sz,
                  Table& table, JsonRecords& json) {
  const std::string where = std::string(scheme.name()) + " degraded";
  const std::string manifest = store.dir / "degraded.ftcm";
  core::save_sharded(scheme, manifest, kShards);
  // Faults in the first and middle edge ranges, clear of the shard
  // about to die.
  const std::vector<EdgeId> faults{3, g.num_edges() / 2};
  const auto spec = core::FaultSpec::edges(faults);
  core::BatchQueryEngine session(core::load_scheme(manifest), spec);
  session.scheme().prefetch(1);
  const auto view = std::dynamic_pointer_cast<const core::ShardedStoreView>(
      session.scheme().store_view());
  const std::size_t dead = kShards - 1;
  const auto dead_begin =
      static_cast<VertexId>(view->shards()[dead].vertex_begin);
  fs::resize_file(manifest + ".shard" + std::to_string(dead) + ".ftcs", 0);

  const auto throws = [&] {
    try {
      (void)session.connected(dead_begin, 0);
    } catch (const core::DegradedError&) {
      return true;
    }
    return false;
  };
  if (!throws() || view->shards_quarantined() != 1) {
    fail(where + ": a truncated shard did not quarantine");
  }

  std::vector<Query> healthy;
  std::vector<bool> truth;
  for (const Query& q : w.queries) {
    if (q.s >= dead_begin || q.t >= dead_begin) continue;
    healthy.push_back(q);
    truth.push_back(graph::connected_avoiding(g, q.s, q.t, faults));
  }
  Series query, throw_cost;
  rounds(sz.queries, [&](std::size_t i, bool keep) {
    const Query& q = healthy[i % healthy.size()];
    Timer t;
    const bool got = session.connected(q.s, q.t);
    query.add(t, keep);
    check(got, truth[i % healthy.size()], where, "healthy query");
  });
  rounds(sz.throws, [&](std::size_t, bool keep) {
    Timer t;
    const bool threw = throws();
    throw_cost.add(t, keep);
    if (!threw) fail(where + ": the dead range answered");
  });

  table.add_row({std::string(scheme.name()), "healthy query, 1 shard dead",
                 fmt(query.at(0.5), "%.2f"), fmt(query.at(0.99), "%.2f"),
                 std::to_string(query.us.size())});
  table.add_row({std::string(scheme.name()), "DegradedError throw",
                 fmt(throw_cost.at(0.5), "%.2f"),
                 fmt(throw_cost.at(0.99), "%.2f"),
                 std::to_string(throw_cost.us.size())});
  json.add();
  json.field("kind", "degraded");
  json.field("backend", core::backend_name(scheme.backend()));
  json.field("k_shards", kShards);
  json.field("shards_quarantined", view->shards_quarantined());
  put(json, "healthy_query_us", query);
  put(json, "degraded_throw_us", throw_cost);
}

// ------------------------------------------------------------ driver

struct Report {
  Table cells{{"backend", "path", "faults", "reduced", "f", "open us",
               "first us", "prep us", "query p50", "p99", "n", "seq q/s",
               "one-shot us"}};
  Table push{{"backend", "changed", "save ms", "save_sharded ms", "delta ms",
              "wrote", "reused", "MB written", "MB reused", "swap ms",
              "adopted", "remapped"}};
  Table robust{{"backend", "measurement", "p50 us", "p99 us", "n"}};
  JsonRecords json;
};

void run_backend(core::BackendKind backend, const Graph& g,
                 const std::vector<Workload>& workloads, const Store& store,
                 const Sizes& sz, Report& report) {
  for (const Workload& w : workloads) {
    if (backend == core::BackendKind::kDp21Agm && w.f_build > kAgmMaxF) {
      std::printf("skipping %s %s=%u (f=%u): dp21-agm labels stop at f=%u\n",
                  core::backend_name(backend), w.model, w.size, w.f_build,
                  kAgmMaxF);
      continue;
    }
    Timer t_build;
    const auto scheme = core::make_scheme(g, bench_config(backend, w.f_build));
    const double build_ms = t_build.millis();
    scheme->save(store.flat());
    core::save_sharded(*scheme, store.manifest(), kShards);
    for (int path = 0; path < kNumPaths; ++path) {
      run_cell(*scheme, w, static_cast<Path>(path), store, build_ms, sz,
               report.cells, report.json);
    }
    if (&w == &workloads.front()) {
      run_push(g, *scheme, w, store, sz, report.push, report.json);
      run_retry(*scheme, store, sz, report.robust, report.json);
      run_degraded(g, *scheme, w, store, sz, report.robust, report.json);
    }
  }
}

}  // namespace
}  // namespace ftc::bench

int main(int argc, char** argv) {
  using namespace ftc;
  namespace fs = std::filesystem;

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
  bench::Sizes sz;
  std::vector<unsigned> edge_sizes{4, 16, 64};
  std::vector<unsigned> vertex_sizes{1, 4, 16};
  if (smoke) {
    sz = {96, 3, 4, 256, 2, 4, 2, 8};
    edge_sizes = {4, 16};
    vertex_sizes = {1, 4};
  }
  const std::vector<core::BackendKind> backends =
      backend_arg == "all"
          ? std::vector<core::BackendKind>(std::begin(core::kAllBackends),
                                           std::end(core::kAllBackends))
          : std::vector<core::BackendKind>{core::parse_backend(backend_arg)};

  const graph::Graph g = graph::random_connected(sz.n, 3 * sz.n, 17);
  std::vector<bench::Workload> workloads;
  for (const unsigned f : edge_sizes) {
    workloads.push_back(bench::make_workload(g, false, f, sz.queries));
  }
  for (const unsigned fv : vertex_sizes) {
    workloads.push_back(bench::make_workload(g, true, fv, sz.queries));
  }
  std::printf("bench_serving: n=%u m=%u, K=%u shards, one thread%s\n", sz.n,
              g.num_edges(), bench::kShards, smoke ? " [smoke]" : "");

  const fs::path dir =
      fs::absolute("bench_serving." + std::to_string(::getpid()));
  fs::create_directories(dir);
  bench::Report report;
  int rc = 0;
  try {
    core::ShardHttpServer server(dir);
    server.start();
    const bench::Store store{dir, server.base_url()};
    for (const core::BackendKind b : backends) {
      bench::run_backend(b, g, workloads, store, sz, report);
    }
    server.stop();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_serving: %s\n", e.what());
    rc = 1;
  }
  fs::remove_all(dir);

  report.cells.print();
  std::printf("\n");
  report.push.print();
  std::printf("\n");
  report.robust.print();
  report.json.print("JSON");
  std::printf("bench_serving: %zu answers checked against BFS, %zu failed "
              "checks\n",
              bench::g_checked, bench::g_failures);
  return rc != 0 || bench::g_failures != 0 ? 1 : 0;
}
