#include "core/ftc_scheme.hpp"

#include <algorithm>
#include <chrono>

#include "core/edge_code.hpp"
#include "core/label_store.hpp"
#include "geometry/netfind.hpp"
#include "geometry/point_map.hpp"
#include "graph/aux_graph.hpp"
#include "graph/euler_tour.hpp"
#include "graph/spanning_tree.hpp"
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
      h.group_len = cfg.group_len;
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
    const unsigned gl =
        cfg.group_len != 0
            ? cfg.group_len
            : geometry::provable_group_len(std::max<std::size_t>(num_points, 2));
    return geometry::provable_hierarchy_k(cfg.f, gl);
  }
  const unsigned logn =
      std::max(1u, ceil_log2(std::max<std::size_t>(n_aux, 2)));
  const double k = cfg.k_scale * (cfg.f + 1) * logn;
  return std::max(4u, static_cast<unsigned>(k));
}

}  // namespace

struct FtcScheme::Impl {
  LabelParams params;
  BuildStats stats;
  VertexId orig_n = 0;
  EdgeId orig_m = 0;
  // The labels, held once and in container layout (label_store.hpp), so
  // release_labels() hands them to a resident view without a copy:
  //   vertex_records  per original vertex, its T'-ancestry record;
  //   edge_words      per original edge, one layout.blob_bytes()-wide
  //                   blob (a whole number of words): the upper and
  //                   lower sigma-image endpoint records, then level l's
  //                   first layout.width(l) syndromes at payload word
  //                   layout.offset(l), as LE words, F::kWords each.
  std::vector<std::uint8_t> vertex_records;
  std::vector<std::uint64_t> edge_words;
  // Built from the level populations, so layout.widths holds each
  // level's edge population clamped to k (a sound boundary-size bound).
  store::CoreEdgeLayout layout;
  static constexpr std::size_t kSketchWord = 2 * store::kVertexRecordBytes / 8;

  std::size_t blob_words() const { return layout.blob_bytes() / 8; }
  std::uint8_t* blob(EdgeId e) {
    return reinterpret_cast<std::uint8_t*>(
        edge_words.data() + static_cast<std::size_t>(e) * blob_words());
  }

  // Computes, per hierarchy level, every T'-vertex's outdetect label (XOR
  // of incident level-edge IDs) and the subtree sum below every non-root
  // vertex; the sum below sigma(e)'s lower endpoint is recorded as e's
  // level sketch (Lemma 1 / Proposition 4). Level l is computed at its
  // stored width w = layout.width(l) only: the first w power sums are
  // the w-threshold sketch (Proposition 6), bit-identical to the first w
  // of a k-wide one, and an empty level (w = 0) is skipped.
  //
  // Parallel formulation. The subtree of v is the contiguous Euler-tin
  // range [tin(v), tout(v)], and all sums live in a characteristic-2
  // field where addition is word-XOR — so instead of the serial
  // bottom-up fold, index the accumulator by tin and take a prefix scan:
  //     P[t]          = XOR of own-contributions of tins <= t
  //     subtree(v)    = P[tout(v)] ^ P[tin(v) - 1]     (tin(v) >= 1)
  // Every stage partitions the tin axis into one stripe per worker:
  //   1. accumulate: each worker zeroes its stripe, then folds the
  //      power-sum contributions of exactly the edge endpoints whose tin
  //      it owns (an edge spanning two stripes recomputes its w power
  //      sums once per side — bounded 2x duplication, no communication);
  //   2. scan: stripe-local inclusive XOR scan;
  //   3. carry: a serial chain of per-stripe totals (w field elements
  //      per stripe — negligible), then a parallel carry application;
  //   4. write-out: per-vertex sketch rows; target rows are disjoint
  //      because parent_edge is injective over non-root vertices.
  // XOR makes every accumulation order produce identical bits, so the
  // result is byte-identical to the serial (1-stripe) build for any
  // worker count — the contract test_parallel_build enforces.
  template <typename F>
  void build_sketches(const graph::AuxGraph& aux,
                      const graph::AncestryLabeling& anc2,
                      const geometry::EdgeHierarchy& hier,
                      util::WorkerPool& pool) {
    const VertexId n2 = aux.g2.num_vertices();
    const unsigned levels = params.num_levels;
    constexpr unsigned wpe = F::kWords;
    edge_words.assign(static_cast<std::size_t>(orig_m) * blob_words(), 0);

    // Map T'-tree-edge -> original edge (sigma is a bijection onto T').
    std::vector<EdgeId> sigma_inv(aux.g2.num_edges(), graph::kNoEdge);
    for (EdgeId e = 0; e < orig_m; ++e) sigma_inv[aux.sigma[e]] = e;

    std::vector<std::uint32_t> tin(n2), tout(n2);
    for (VertexId v = 0; v < n2; ++v) {
      const graph::AncestryLabel l = anc2.label(v);
      tin[v] = l.tin;
      tout[v] = l.tout;
    }

    const unsigned stripes = static_cast<unsigned>(std::min<std::size_t>(
        pool.default_active(), static_cast<std::size_t>(n2)));
    std::vector<std::size_t> bounds(stripes + 1);
    for (unsigned b = 0; b <= stripes; ++b) {
      bounds[b] = static_cast<std::size_t>(n2) * b / stripes;
    }

    unsigned max_width = 0;
    for (unsigned lev = 0; lev < levels; ++lev) {
      max_width = std::max(max_width, layout.width(lev));
    }
    // Indexed by tin; at each level, rows are that level's width wide.
    std::vector<F> acc(static_cast<std::size_t>(n2) * max_width);
    std::vector<F> carry(static_cast<std::size_t>(stripes) * max_width);
    for (unsigned lev = 0; lev < levels; ++lev) {
      const unsigned w = layout.width(lev);
      if (w == 0) continue;
      // Stages 1 + 2 in one dispatch: a worker only touches rows in its
      // own tin stripe.
      pool.run(stripes, [&](unsigned b) {
        const std::size_t lo = bounds[b];
        const std::size_t hi = bounds[b + 1];
        std::fill(acc.begin() + static_cast<std::ptrdiff_t>(lo * w),
                  acc.begin() + static_cast<std::ptrdiff_t>(hi * w),
                  F::zero());
        // Own contributions: odd power sums of incident edge IDs.
        for (const EdgeId e2 : hier.levels[lev]) {
          const auto& ed = aux.g2.edge(e2);
          const std::size_t tu = tin[ed.u];
          const std::size_t tv = tin[ed.v];
          const bool own_u = tu >= lo && tu < hi;
          const bool own_v = tv >= lo && tv < hi;
          if (!own_u && !own_v) continue;
          const F id = EdgeCode<F>::encode(anc2.label(ed.u), anc2.label(ed.v));
          const F id2 = id.square();
          F p = id;
          F* au = own_u ? &acc[tu * w] : nullptr;
          F* av = own_v ? &acc[tv * w] : nullptr;
          for (unsigned j = 0; j < w; ++j) {
            if (au != nullptr) au[j] += p;
            if (av != nullptr) av[j] += p;
            p *= id2;
          }
        }
        // Stripe-local inclusive XOR scan over the tin axis.
        for (std::size_t t = lo + 1; t < hi; ++t) {
          const F* prev = &acc[(t - 1) * w];
          F* curr = &acc[t * w];
          for (unsigned j = 0; j < w; ++j) curr[j] += prev[j];
        }
      });
      // Stage 3a, serial: carry[b] = XOR of stripe totals before b (a
      // stripe's total after the local scan is its last row).
      for (unsigned j = 0; j < w; ++j) carry[j] = F::zero();
      for (unsigned b = 1; b < stripes; ++b) {
        const F* last = &acc[(bounds[b] - 1) * w];
        for (unsigned j = 0; j < w; ++j) {
          carry[static_cast<std::size_t>(b) * w + j] =
              carry[static_cast<std::size_t>(b - 1) * w + j] + last[j];
        }
      }
      // Stage 3b: apply carries; acc now holds the global prefix P[t].
      pool.run(stripes, [&](unsigned b) {
        if (b == 0) return;
        const F* cb = &carry[static_cast<std::size_t>(b) * w];
        for (std::size_t t = bounds[b]; t < bounds[b + 1]; ++t) {
          F* row = &acc[t * w];
          for (unsigned j = 0; j < w; ++j) row[j] += cb[j];
        }
      });
      // Stage 4: per-vertex write-out. Non-root v has tin >= 1 (the root
      // is the unique tin-0 vertex), and each writes a distinct edge row.
      pool.run(stripes, [&](unsigned b) {
        for (VertexId v = static_cast<VertexId>(bounds[b]);
             v < static_cast<VertexId>(bounds[b + 1]); ++v) {
          if (v == aux.t2.root) continue;
          const F* hi_row = &acc[static_cast<std::size_t>(tout[v]) * w];
          const F* lo_row = &acc[(static_cast<std::size_t>(tin[v]) - 1) * w];
          const EdgeId eo = sigma_inv[aux.t2.parent_edge[v]];
          FTC_CHECK(eo != graph::kNoEdge,
                    "T' tree edge without sigma preimage");
          std::uint64_t* out =
              &edge_words[static_cast<std::size_t>(eo) * blob_words() +
                          kSketchWord + layout.offset(lev)];
          for (unsigned j = 0; j < w; ++j) {
            F s = hi_row[j];
            s += lo_row[j];
            for (unsigned i = 0; i < wpe; ++i) {
              out[j * wpe + i] = util::to_le(s.word(i));
            }
          }
        }
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
  impl->vertex_records.resize(static_cast<std::size_t>(impl->orig_n) *
                              store::kVertexRecordBytes);
  for (VertexId v = 0; v < impl->orig_n; ++v) {
    store::write_vertex_record_at(
        impl->vertex_records.data() +
            static_cast<std::size_t>(v) * store::kVertexRecordBytes,
        anc2.label(v));
  }
  impl->layout = store::core_edge_layout(impl->params, level_pops);

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
    store::write_vertex_record_at(impl->blob(e), anc2.label(up));
    store::write_vertex_record_at(impl->blob(e) + store::kVertexRecordBytes,
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
                         impl_->vertex_records.data() +
                         static_cast<std::size_t>(v) *
                             store::kVertexRecordBytes)};
}

EdgeLabel FtcScheme::edge_label(EdgeId e) const {
  FTC_REQUIRE(e < impl_->orig_m, "edge out of range");
  store::ByteReader r({impl_->blob(e), impl_->layout.blob_bytes()});
  return store::decode_core_edge(r, impl_->params, impl_->layout);
}

store::ResidentLabels FtcScheme::release_labels() && {
  store::ResidentLabels out;
  out.backend = BackendKind::kCoreFtc;
  store::ByteWriter params;
  store::encode_core_params(impl_->params, impl_->layout.widths, params);
  out.params = params.take();
  out.vertex_records = std::move(impl_->vertex_records);
  out.edge_words = std::move(impl_->edge_words);
  out.edge_blob_bytes = impl_->layout.blob_bytes();
  return out;
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
