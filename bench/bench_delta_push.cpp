// Content-addressed delta-push cost, per backend and per number of
// changed shards.
//
// For each backend and c in {0, 1, K/2, K} changed shards of a K-shard
// store:
//   full ms   — a full save_sharded of the generation (the rebuild
//               baseline a delta push replaces);
//   delta ms  — save_sharded_delta against the parent manifest;
//   wrote/reu — shards rewritten vs hard-link-reused by the push;
//   MBw/MBr   — payload bytes written vs reused (the tentpole claim:
//               bytes written scale with the CHANGED shards, not the
//               store);
//   swap ms   — BatchQueryEngine::swap_store(child path) on a warm
//               session over the parent (loads, adopts, prefetches,
//               re-prepares faults, installs the epoch);
//   adopt/map — shards adopted from the serving generation vs freshly
//               mapped by that swap (adopted + mapped == K).
// The c=1 row is load-bearing: the bench REQUIRES exactly one shard
// written and K-1 adopted, and that answers do not move across the
// swap.
//
// Usage: bench_delta_push [backend|all] [--smoke]
// Output: a human table, one `JSON [...]` line, and
// BENCH_delta_push.json (checked-in baseline at the repo root;
// regenerate with scripts/bench_all.sh).
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/batch_engine.hpp"
#include "core/sharded_store.hpp"

namespace ftc::bench {
namespace {

using graph::EdgeId;
using graph::Graph;
using graph::VertexId;

constexpr std::size_t kBatchSize = 64;
constexpr unsigned kBatchThreads = 4;

struct Sizes {
  VertexId n = 256;
  unsigned f = 8;
  unsigned k_shards = 8;
  std::size_t num_queries = 200;
};

core::SchemeConfig bench_config(core::BackendKind backend, unsigned f) {
  core::SchemeConfig cfg;
  cfg.backend = backend;
  cfg.set_f(f);
  cfg.ftc.k_scale = 2.0;
  cfg.cycle.scale = 3.0;
  cfg.agm.scale = 1.5;
  return cfg;
}

// A copy of `scheme`'s labels (built over g) with every byte of the
// blobs of `flips` (sorted) inverted, served from a resident view — the
// cheapest way to dirty exactly the shards that own those edges.
std::unique_ptr<core::ConnectivityScheme> flip_edges(
    const core::ConnectivityScheme& scheme, const Graph& g,
    const std::vector<EdgeId>& flips) {
  const core::StoreView& view = *scheme.store_view();
  core::store::ResidentLabels labels;
  labels.backend = scheme.backend();
  const auto params = view.params_blob();
  labels.params.assign(params.begin(), params.end());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto rec = view.vertex_blob(v);
    labels.vertex_records.insert(labels.vertex_records.end(), rec.begin(),
                                 rec.end());
  }
  labels.assign_edge_blobs(g.num_edges(), view.edge_blob(0).size());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto blob = view.edge_blob(e);
    const bool flip = std::binary_search(flips.begin(), flips.end(), e);
    for (std::size_t i = 0; i < blob.size(); ++i) {
      labels.edge_blob(e)[i] = flip ? ~blob[i] : blob[i];
    }
  }
  return core::load_scheme(core::open_resident_view(std::move(labels), g));
}

void remove_artifact(const std::string& path, unsigned k_shards) {
  for (unsigned k = 0; k < k_shards; ++k) {
    std::remove((path + ".shard" + std::to_string(k) + ".ftcs").c_str());
  }
  std::remove(path.c_str());
}

void run_case(const core::ConnectivityScheme& scheme, const Graph& g,
              unsigned changed, const Sizes& sz, Table& table,
              JsonRecords& json) {
  const unsigned K = sz.k_shards;
  const std::string stem = "bench_delta_push_" + std::to_string(::getpid()) +
                           "_c" + std::to_string(changed);
  const std::string parent_path = stem + "_parent.ftcm";
  const std::string child_path = stem + "_child.ftcm";

  Timer full_timer;
  core::save_sharded(scheme, parent_path, K);
  const double full_save_ms = full_timer.millis();

  // One dirtied edge per changed shard: the first edge of shard j's
  // range, so the write set is exactly `changed` shards.
  const EdgeId m = g.num_edges();
  std::vector<EdgeId> flips;
  for (unsigned j = 0; j < changed; ++j) {
    flips.push_back(static_cast<EdgeId>(
        static_cast<std::uint64_t>(m) * j / K));
  }
  const auto pushee = flip_edges(scheme, g, flips);

  Timer delta_timer;
  const core::DeltaPushStats stats =
      core::save_sharded_delta(*pushee, child_path, parent_path);
  const double delta_push_ms = delta_timer.millis();
  FTC_REQUIRE(stats.shards_written == changed,
              "delta push rewrote a shard whose bytes did not change");

  // Serving-side cut-over: a warm session on the parent swaps to the
  // child by path. Fault set and queries avoid the flipped edge labels,
  // so answers must not move across the swap.
  SplitMix64 rng(0x7e + static_cast<unsigned>(scheme.backend()));
  std::vector<EdgeId> faults;
  while (faults.size() < sz.f / 2) {
    const auto e = static_cast<EdgeId>(rng.next_below(m));
    if (!std::binary_search(flips.begin(), flips.end(), e) &&
        std::find(faults.begin(), faults.end(), e) == faults.end()) {
      faults.push_back(e);
    }
  }
  std::vector<core::BatchQueryEngine::Query> batch;
  for (std::size_t i = 0; i < std::min(kBatchSize, sz.num_queries); ++i) {
    batch.push_back({static_cast<VertexId>(rng.next_below(g.num_vertices())),
                     static_cast<VertexId>(rng.next_below(g.num_vertices()))});
  }
  core::BatchQueryEngine session(core::load_scheme(parent_path),
                                 core::FaultSpec::edges(faults));
  const auto before = session.run_parallel(batch, kBatchThreads);

  Timer swap_timer;
  session.swap_store(child_path);
  const double swap_ms = swap_timer.millis();
  const auto view = std::dynamic_pointer_cast<const core::ShardedStoreView>(
      session.scheme().store_view());
  FTC_REQUIRE(view != nullptr, "swap did not install the sharded child");
  const std::size_t adopted = view->shards_adopted();
  const std::size_t remapped = K - adopted;
  FTC_REQUIRE(remapped == changed,
              "swap remapped shards the delta push did not change");
  const auto after = session.run_parallel(batch, kBatchThreads);
  FTC_REQUIRE(before == after, "answers moved across a delta swap");

  remove_artifact(child_path, K);
  remove_artifact(parent_path, K);

  table.add_row({core::backend_name(scheme.backend()),
                 std::to_string(changed) + "/" + std::to_string(K),
                 fmt(full_save_ms, "%.1f"), fmt(delta_push_ms, "%.1f"),
                 std::to_string(stats.shards_written),
                 std::to_string(stats.shards_reused),
                 fmt(static_cast<double>(stats.bytes_written) / 1e6, "%.2f"),
                 fmt(static_cast<double>(stats.bytes_reused) / 1e6, "%.2f"),
                 fmt(swap_ms, "%.2f"), std::to_string(adopted),
                 std::to_string(remapped)});
  json.add();
  json.field("backend", core::backend_name(scheme.backend()));
  json.field("k_shards", K);
  json.field("shards_changed", changed);
  json.field("n", g.num_vertices());
  json.field("m", g.num_edges());
  json.field("f", sz.f);
  json.field("epoch", stats.epoch);
  json.field("full_save_ms", full_save_ms);
  json.field("delta_push_ms", delta_push_ms);
  json.field("shards_written", stats.shards_written);
  json.field("shards_reused", stats.shards_reused);
  json.field("bytes_written", stats.bytes_written);
  json.field("bytes_reused", stats.bytes_reused);
  json.field("manifest_bytes", stats.manifest_bytes);
  json.field("swap_ms", swap_ms);
  json.field("shards_adopted", adopted);
  json.field("shards_remapped", remapped);
  json.field("batch_size", batch.size());
  json.field("batch_threads", kBatchThreads);
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

  bench::Sizes sz;
  if (smoke) {
    sz = {96, 4, 4, 64};
  }
  const std::vector<unsigned> changed_counts{0, 1, sz.k_shards / 2,
                                             sz.k_shards};
  const graph::EdgeId m = 3 * sz.n;
  const graph::Graph g = graph::random_connected(sz.n, m, 47);
  std::printf("bench_delta_push: n=%u m=%u f=%u, K=%u shards%s\n", sz.n, m,
              sz.f, sz.k_shards, smoke ? " [smoke]" : "");

  bench::Table table({"backend", "changed", "full ms", "delta ms", "wrote",
                      "reused", "MB written", "MB reused", "swap ms",
                      "adopted", "mapped"});
  bench::JsonRecords json;
  const auto run_backend = [&](core::BackendKind b) {
    const auto scheme = core::make_scheme(g, bench::bench_config(b, sz.f));
    for (const unsigned c : changed_counts) {
      bench::run_case(*scheme, g, c, sz, table, json);
    }
  };
  if (backend_arg == "all") {
    for (const core::BackendKind b : core::kAllBackends) run_backend(b);
  } else {
    run_backend(core::parse_backend(backend_arg));
  }
  table.print();
  json.print("JSON");
  std::ofstream out("BENCH_delta_push.json", std::ios::trunc);
  out << json.dump() << "\n";
  std::printf("wrote BENCH_delta_push.json\n");
  return 0;
}
