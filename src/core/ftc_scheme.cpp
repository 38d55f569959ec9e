#include "core/ftc_scheme.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <span>

#include "core/edge_code.hpp"
#include "core/label_store.hpp"
#include "geometry/netfind.hpp"
#include "geometry/point_map.hpp"
#include "graph/aux_graph.hpp"
#include "graph/euler_tour.hpp"
#include "graph/spanning_tree.hpp"
#include "graph/subtree_xor.hpp"
#include "sketch/rs_sketch.hpp"
#include "util/worker_pool.hpp"

namespace ftc::core {

using graph::EdgeId;
using graph::VertexId;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

geometry::HierarchyConfig hierarchy_config(const FtcConfig& cfg) {
  geometry::HierarchyConfig h;
  switch (cfg.kind) {
    case SchemeKind::kDeterministic:
      h.kind = geometry::HierarchyKind::kDeterministicNetFind;
      break;
    case SchemeKind::kDeterministicGreedy:
      h.kind = geometry::HierarchyKind::kDeterministicGreedy;
      break;
    case SchemeKind::kRandomized:
      h.kind = geometry::HierarchyKind::kRandomSampling;
      h.seed = cfg.seed;
      break;
  }
  return h;
}

unsigned resolve_k(const FtcConfig& cfg, std::size_t n_aux,
                   std::size_t num_points) {
  if (cfg.k_override != 0) return cfg.k_override;
  if (cfg.k_mode == KMode::kProvable) {
    if (cfg.kind == SchemeKind::kRandomized) {
      return geometry::randomized_hierarchy_k(cfg.f, n_aux);
    }
    return geometry::provable_hierarchy_k(
        cfg.f,
        geometry::provable_group_len(std::max<std::size_t>(num_points, 2)));
  }
  const unsigned logn =
      std::max(1u, ceil_log2(std::max<std::size_t>(n_aux, 2)));
  const double k = cfg.k_scale * (cfg.f + 1) * logn;
  return std::max(4u, static_cast<unsigned>(k));
}

// row's LE words ^= the words of p. On a little-endian host an F's
// object bytes already are its LE words (a GF(2^128) element is lo, hi),
// so the block XORs in as one word run.
template <typename F>
void xor_le_elements(std::uint8_t* row, std::span<const F> p) {
  static_assert(sizeof(F) == 8 * F::kWords);
  if constexpr (std::endian::native == std::endian::little) {
    xor_le_words(row, reinterpret_cast<const std::uint8_t*>(p.data()),
                 p.size() * F::kWords);
  } else {
    for (std::size_t j = 0; j < p.size(); ++j) {
      for (unsigned i = 0; i < F::kWords; ++i) {
        xor_le_word(row, j * F::kWords + i, p[j].word(i));
      }
    }
  }
}

}  // namespace

struct FtcScheme::Impl {
  LabelParams params;
  BuildStats stats;
  VertexId orig_n = 0;
  EdgeId orig_m = 0;
  // The labels, held once and in container layout (label_store.hpp), so
  // release_labels() hands them to a resident view without a copy. Where
  // an edge blob's parts sit is serialize.cpp's to say.
  store::ResidentLabels labels;
  // Built from the level populations, so layout.widths holds each
  // level's edge population clamped to k (a sound boundary-size bound).
  store::CoreEdgeLayout layout;

  // Computes, per hierarchy level, every T'-vertex's outdetect label (the
  // odd power sums of its incident level-edge IDs) and the subtree sum
  // below every non-root vertex; the sum below sigma(e)'s lower endpoint
  // is e's level sketch (Lemma 1 / Proposition 4). Level l is computed at
  // its stored width w = layout.width(l) only: the first w power sums
  // are the w-threshold sketch (Proposition 6), bit-identical to the
  // first w of a k-wide one, and an empty level (w = 0) is skipped. The
  // subtree sums are folded in place into each level's syndromes of the
  // parent-edge blobs by the kernel all builders share
  // (graph/subtree_xor.hpp), one syndrome per column.
  template <typename F>
  void build_sketches(const graph::AuxGraph& aux,
                      const graph::AncestryLabeling& anc2,
                      const geometry::EdgeHierarchy& hier,
                      util::WorkerPool& pool) {
    constexpr unsigned wpe = F::kWords;
    labels.assign_edge_blobs(orig_m, layout.blob_bytes());

    // Map T'-tree-edge -> original edge (sigma is a bijection onto T').
    std::vector<EdgeId> sigma_inv(aux.g2.num_edges(), graph::kNoEdge);
    for (EdgeId e = 0; e < orig_m; ++e) sigma_inv[aux.sigma[e]] = e;
    const auto blob_below = [&](VertexId v) {
      const EdgeId eo = sigma_inv[aux.t2.parent_edge[v]];
      FTC_CHECK(eo != graph::kNoEdge, "T' tree edge without sigma preimage");
      return labels.edge_blob(eo);
    };

    graph::SubtreeXor scan(pool, aux.t2, anc2);
    for (unsigned lev = 0; lev < params.num_levels; ++lev) {
      scan.run(
          aux.g2, hier.levels[lev], layout.width(lev), wpe,
          [&](VertexId v) {
            return store::core_edge_level_words(blob_below(v), layout, lev);
          },
          // Own contributions: odd powers j0..j1-1 of the edge ID, one
          // lane chain, XORed into both endpoint rows a block at a time.
          [&](EdgeId e2, std::size_t j0, std::size_t j1, std::uint8_t* ru,
              std::uint8_t* rv) {
            const auto& ed = aux.g2.edge(e2);
            const F id =
                EdgeCode<F>::encode(anc2.label(ed.u), anc2.label(ed.v));
            sketch::odd_power_blocks(
                id, static_cast<unsigned>(j0), static_cast<unsigned>(j1),
                [&](unsigned j, std::span<const F> p) {
                  xor_le_elements(ru + 8 * wpe * j, p);
                  xor_le_elements(rv + 8 * wpe * j, p);
                });
          });
    }
  }
};

FtcScheme FtcScheme::build(const graph::Graph& g, const FtcConfig& config) {
  FTC_REQUIRE(g.num_vertices() >= 1, "empty graph");
  FTC_REQUIRE(graph::is_connected(g), "input graph must be connected");
  const auto t0 = std::chrono::steady_clock::now();

  auto impl = std::make_unique<Impl>();
  impl->orig_n = g.num_vertices();
  impl->orig_m = g.num_edges();

  // One parked pool for the whole build; every phase partitions its
  // output disjointly (or folds XOR-commutative sums), so the store
  // bytes are independent of the worker count.
  util::WorkerPool pool(util::WorkerPool::resolve_threads(config.build_threads));
  impl->stats.threads = pool.default_active();

  const graph::SpanningTree t = graph::bfs_spanning_tree(g, 0);
  const graph::AuxGraph aux = graph::build_aux_graph(g, t);
  const graph::EulerTour et2 = graph::euler_tour(aux.t2);
  const graph::AncestryLabeling anc2(aux.t2, et2);
  const std::uint32_t n_aux = aux.g2.num_vertices();

  // Field selection.
  FieldKind field = config.field;
  if (field == FieldKind::kAuto) {
    field = EdgeCode<gf::GF2_64>::fits(n_aux) ? FieldKind::kGF64
                                              : FieldKind::kGF128;
  }
  if (field == FieldKind::kGF64) {
    FTC_REQUIRE(EdgeCode<gf::GF2_64>::fits(n_aux),
                "auxiliary graph too large for GF(2^64) edge IDs");
  } else {
    FTC_REQUIRE(EdgeCode<gf::GF2_128>::fits(n_aux),
                "auxiliary graph too large for GF(2^128) edge IDs");
  }

  // Hierarchy over the auxiliary graph's non-tree edges.
  const auto th = std::chrono::steady_clock::now();
  const auto points = geometry::map_nontree_edges(aux.g2, aux.t2, et2);
  geometry::EdgeHierarchy hier =
      geometry::build_hierarchy(points, hierarchy_config(config), &pool);
  // Drop the trailing empty level: it carries no sketch content.
  FTC_CHECK(!hier.levels.empty() && hier.levels.back().empty(),
            "hierarchy must terminate with the empty set");
  if (hier.levels.size() > 1 || !points.empty()) {
    hier.levels.pop_back();
  }
  if (hier.levels.empty()) {
    hier.levels.push_back({});  // tree input: keep one (empty) level
  }
  impl->stats.hierarchy_seconds = seconds_since(th);

  impl->params.field_bits = (field == FieldKind::kGF64) ? 64 : 128;
  impl->params.n_aux = n_aux;
  impl->params.k = resolve_k(config, n_aux, points.size());
  impl->params.num_levels = static_cast<std::uint32_t>(hier.levels.size());
  impl->params.kind = static_cast<std::uint8_t>(config.kind);
  std::vector<std::uint32_t> level_pops;
  level_pops.reserve(hier.levels.size());
  for (const auto& level : hier.levels) {
    level_pops.push_back(static_cast<std::uint32_t>(
        std::min<std::size_t>(level.size(), impl->params.k)));
  }

  // Ancestry parts of the labels.
  impl->labels.write_vertex_records(anc2, impl->orig_n);
  impl->layout = store::core_edge_layout(impl->params, level_pops);
  impl->labels.backend = BackendKind::kCoreFtc;
  store::ByteWriter pw;
  store::encode_core_params(impl->params, impl->layout.widths, pw);
  impl->labels.params = pw.take();

  // Sketch payload (allocates the edge blobs).
  // Wall-clock on the coordinating thread (NOT summed per-worker CPU):
  // parallel and serial builds report comparable phase timings.
  const auto ts = std::chrono::steady_clock::now();
  if (field == FieldKind::kGF64) {
    impl->build_sketches<gf::GF2_64>(aux, anc2, hier, pool);
  } else {
    impl->build_sketches<gf::GF2_128>(aux, anc2, hier, pool);
  }
  impl->stats.sketch_seconds = seconds_since(ts);

  // Each edge blob opens with its sigma-image endpoint records.
  for (EdgeId e = 0; e < impl->orig_m; ++e) {
    const EdgeId te = aux.sigma[e];
    const VertexId lo = aux.t2.lower_endpoint(aux.g2, te);
    const VertexId up = aux.t2.parent[lo];
    store::write_edge_endpoints_at(impl->labels.edge_blob(e), anc2.label(up),
                                   anc2.label(lo));
  }

  impl->stats.k = impl->params.k;
  impl->stats.num_levels = impl->params.num_levels;
  impl->stats.field_bits = impl->params.field_bits;
  impl->stats.n_aux = n_aux;
  impl->stats.hierarchy_edges = hier.total_edges();
  impl->stats.total_seconds = seconds_since(t0);
  return FtcScheme(std::move(impl));
}

FtcScheme::FtcScheme(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
FtcScheme::FtcScheme(FtcScheme&&) noexcept = default;
FtcScheme& FtcScheme::operator=(FtcScheme&&) noexcept = default;
FtcScheme::~FtcScheme() = default;

VertexLabel FtcScheme::vertex_label(VertexId v) const {
  FTC_REQUIRE(v < impl_->orig_n, "vertex out of range");
  return VertexLabel{impl_->params,
                     store::decode_vertex_record_at(
                         impl_->labels.vertex_records.data() +
                         static_cast<std::size_t>(v) *
                             store::kVertexRecordBytes)};
}

EdgeLabel FtcScheme::edge_label(EdgeId e) const {
  FTC_REQUIRE(e < impl_->orig_m, "edge out of range");
  const store::ResidentLabels& labels = impl_->labels;
  store::ByteReader r({labels.edge_blob(e), labels.edge_blob_bytes});
  return store::decode_core_edge(r, impl_->params, impl_->layout);
}

store::ResidentLabels FtcScheme::release_labels() && {
  return std::move(impl_->labels);
}

std::span<const std::uint32_t> FtcScheme::level_populations() const {
  return impl_->layout.widths;
}

graph::VertexId FtcScheme::num_vertices() const { return impl_->orig_n; }
graph::EdgeId FtcScheme::num_edges() const { return impl_->orig_m; }
const LabelParams& FtcScheme::params() const { return impl_->params; }
const BuildStats& FtcScheme::build_stats() const { return impl_->stats; }

std::size_t FtcScheme::vertex_label_bits() const {
  return VertexLabel{impl_->params, {}}.size_bits();
}

std::size_t FtcScheme::edge_label_bits() const {
  EdgeLabel label;
  label.params = impl_->params;
  label.level_widths = impl_->layout.widths;
  return label.size_bits();
}

std::size_t FtcScheme::total_label_bits() const {
  return vertex_label_bits() * impl_->orig_n +
         edge_label_bits() * impl_->orig_m;
}

}  // namespace ftc::core
