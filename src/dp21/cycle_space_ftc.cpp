#include "dp21/cycle_space_ftc.hpp"

#include <algorithm>

#include "core/label_store.hpp"
#include "graph/euler_tour.hpp"
#include "graph/fragments.hpp"
#include "graph/spanning_tree.hpp"
#include "graph/subtree_xor.hpp"
#include "util/common.hpp"
#include "util/worker_pool.hpp"
#include "util/xor_kernel.hpp"

namespace ftc::dp21 {

using graph::EdgeId;
using graph::VertexId;

namespace {

// Cycle-space vectors add over GF(2); route through the shared word-XOR
// kernel (util/xor_kernel.hpp) like every other merge on the query path.
void xor_into(std::vector<std::uint64_t>& dst,
              const std::vector<std::uint64_t>& src) {
  FTC_REQUIRE(dst.size() == src.size(), "vector width mismatch");
  xor_words(dst.data(), src.data(), dst.size());
}

bool is_zero(const std::vector<std::uint64_t>& v) {
  return !any_word_nonzero(v.data(), v.size());
}

}  // namespace

core::store::ResidentLabels CycleSpaceFtc::build(
    const graph::Graph& g, const CycleSpaceConfig& config) {
  FTC_REQUIRE(graph::is_connected(g), "input graph must be connected");
  const VertexId n = g.num_vertices();
  const EdgeId m = g.num_edges();
  const unsigned logn = std::max(1u, ceil_log2(std::max<VertexId>(n, 2)));

  core::store::CycleParams params;
  params.coord_bits = logn;
  params.vector_bits =
      config.bits_override != 0
          ? config.bits_override
          : std::max<unsigned>(
                8, static_cast<unsigned>(
                       config.scale *
                       (config.full_support
                            ? static_cast<double>(config.f) * logn
                            : static_cast<double>(config.f) + logn)));
  const std::size_t words = params.vector_words();
  const std::uint64_t top_mask =
      (params.vector_bits % 64 == 0)
          ? ~std::uint64_t{0}
          : ((std::uint64_t{1} << (params.vector_bits % 64)) - 1);

  const graph::SpanningTree t = graph::bfs_spanning_tree(g, 0);
  const graph::EulerTour et = graph::euler_tour(t);
  const graph::AncestryLabeling anc(t, et);

  core::store::ResidentLabels out;
  out.backend = core::BackendKind::kDp21CycleSpace;
  core::store::ByteWriter pw;
  core::store::encode_cycle_params(params, pw);
  out.params = pw.take();
  out.write_vertex_records(anc, n);
  out.assign_edge_blobs(m, core::store::cycle_edge_blob_bytes(params));

  // Pass 1 (always serial): lambda draws per non-tree edge in edge-ID
  // order — the RNG stream is position-dependent, so this order IS the
  // determinism contract and must not depend on the thread count. Each
  // lambda is drawn straight into its non-tree edge's blob, which is then
  // final.
  SplitMix64 rng(config.seed);
  std::vector<EdgeId> nontree;
  for (EdgeId e = 0; e < m; ++e) {
    if (t.is_tree_edge[e] != 0) continue;
    nontree.push_back(e);
    std::uint8_t* blob = out.edge_blob(e);
    core::store::write_cycle_edge_at(blob, /*is_tree=*/false,
                                     anc.label(g.edge(e).u),
                                     anc.label(g.edge(e).v));
    std::uint8_t* vec = core::store::cycle_edge_vector_words(blob);
    for (std::size_t i = 0; i < words; ++i) {
      const std::uint64_t w = rng.next();
      util::write_u64_le(vec + 8 * i, i + 1 == words ? w & top_mask : w);
    }
  }

  // Pass 2: a tree edge (p, v) is crossed by exactly the non-tree edges
  // with an odd number of endpoints below v, i.e. the XOR of their lambda
  // rows over v's subtree, folded in place into the tree edges' blobs
  // (graph/subtree_xor.hpp), one vector word per column.
  util::WorkerPool pool(
      util::WorkerPool::resolve_threads(config.build_threads));
  for (VertexId v = 0; v < n; ++v) {
    if (v == t.root) continue;
    core::store::write_cycle_edge_at(out.edge_blob(t.parent_edge[v]),
                                     /*is_tree=*/true, anc.label(t.parent[v]),
                                     anc.label(v));
  }
  graph::SubtreeXor scan(pool, t, anc);
  scan.run(
      g, nontree, words, 1,
      [&](VertexId v) {
        return core::store::cycle_edge_vector_words(
            out.edge_blob(t.parent_edge[v]));
      },
      [&](EdgeId e, std::size_t w0, std::size_t w1, std::uint8_t* ru,
          std::uint8_t* rv) {
        const std::uint8_t* lambda =
            core::store::cycle_edge_vector_words(out.edge_blob(e));
        for (std::size_t i = w0; i < w1; ++i) {
          const std::uint64_t w = util::read_u64_le(lambda + 8 * i);
          xor_le_word(ru, i, w);
          xor_le_word(rv, i, w);
        }
      });
  return out;
}

// All fault-set-only work — fragment structure, per-fragment cut
// vectors, and the GF(2) kernel of the fragment-vector matrix — happens
// here, once per session. Queries never mutate any of it.
CycleSpaceFtc::Prepared CycleSpaceFtc::Prepared::prepare(
    std::span<const CsEdgeLabel> faults) {
  Prepared prep;
  if (faults.empty()) return prep;

  // Distinct tree faults, identified by the lower endpoint's tin.
  std::vector<const CsEdgeLabel*> tree_faults;
  for (const CsEdgeLabel& f : faults) {
    if (f.is_tree) tree_faults.push_back(&f);
  }
  std::sort(tree_faults.begin(), tree_faults.end(),
            [](const CsEdgeLabel* x, const CsEdgeLabel* y) {
              return x->b.tin < y->b.tin;
            });
  tree_faults.erase(std::unique(tree_faults.begin(), tree_faults.end(),
                                [](const CsEdgeLabel* x,
                                   const CsEdgeLabel* y) {
                                  return x->b.tin == y->b.tin;
                                }),
                    tree_faults.end());
  if (tree_faults.empty()) return prep;  // the spanning tree survives
  prep.trivial_ = false;

  std::vector<std::pair<std::uint32_t, std::uint32_t>> intervals;
  intervals.reserve(tree_faults.size());
  for (const auto* f : tree_faults) intervals.push_back({f->b.tin, f->b.tout});
  graph::FragmentLocator loc(std::move(intervals));
  const int num_frag = loc.fragment_count();

  const std::size_t words = tree_faults[0]->vec.size();
  std::vector<std::vector<std::uint64_t>> vec(
      num_frag, std::vector<std::uint64_t>(words, 0));
  // Sigma over the fragment's tree cut: XOR of lambda over the non-tree
  // edges leaving the fragment.
  for (std::size_t j = 0; j < tree_faults.size(); ++j) {
    const int below = loc.fragment_of_fault(j);
    const int above = loc.parent_fragment(below);
    xor_into(vec[below], tree_faults[j]->vec);
    xor_into(vec[above], tree_faults[j]->vec);
  }
  // Remove the faulty non-tree edges themselves (dedup by endpoint pair).
  std::vector<const CsEdgeLabel*> nontree;
  for (const CsEdgeLabel& f : faults) {
    if (!f.is_tree) nontree.push_back(&f);
  }
  std::sort(nontree.begin(), nontree.end(),
            [](const CsEdgeLabel* x, const CsEdgeLabel* y) {
              return std::make_pair(x->a.tin, x->b.tin) <
                     std::make_pair(y->a.tin, y->b.tin);
            });
  nontree.erase(std::unique(nontree.begin(), nontree.end(),
                            [](const CsEdgeLabel* x, const CsEdgeLabel* y) {
                              return x->a.tin == y->a.tin &&
                                     x->b.tin == y->b.tin;
                            }),
                nontree.end());
  for (const auto* f : nontree) {
    FTC_REQUIRE(f->vec.size() == words, "label width mismatch");
    const int fu = loc.locate(f->a.tin);
    const int fv = loc.locate(f->b.tin);
    if (fu == fv) continue;  // does not cross any fragment boundary
    xor_into(vec[fu], f->vec);
    xor_into(vec[fv], f->vec);
  }

  // Kernel of the fragment-vector matrix over GF(2): whp it is spanned by
  // the component indicator vectors. Gaussian elimination over columns;
  // combos track which fragments participate.
  std::vector<std::vector<std::uint64_t>> basis;      // reduced vectors
  std::vector<std::vector<std::uint64_t>> combos;     // their fragment sets
  std::vector<std::vector<std::uint64_t>> kernel;     // kernel combos
  const std::size_t combo_words = (num_frag + 63) / 64;
  for (int i = 0; i < num_frag; ++i) {
    std::vector<std::uint64_t> v = vec[i];
    std::vector<std::uint64_t> combo(combo_words, 0);
    combo[i / 64] |= std::uint64_t{1} << (i % 64);
    for (std::size_t b = 0; b < basis.size(); ++b) {
      // Reduce on the leading bit of basis[b].
      const auto lead = [](const std::vector<std::uint64_t>& x) -> int {
        for (int w = static_cast<int>(x.size()) - 1; w >= 0; --w) {
          if (x[w] != 0) return w * 64 + 63 - __builtin_clzll(x[w]);
        }
        return -1;
      };
      const int lb = lead(basis[b]);
      const int lv = lead(v);
      if (lv == lb && lv >= 0) {
        xor_into(v, basis[b]);
        xor_into(combo, combos[b]);
      }
    }
    if (is_zero(v)) {
      kernel.push_back(combo);
    } else {
      basis.push_back(std::move(v));
      combos.push_back(std::move(combo));
      // Keep basis sorted by leading bit descending for stable reduction.
      for (std::size_t b = basis.size(); b-- > 1;) {
        const auto lead_of = [](const std::vector<std::uint64_t>& x) -> int {
          for (int w = static_cast<int>(x.size()) - 1; w >= 0; --w) {
            if (x[w] != 0) return w * 64 + 63 - __builtin_clzll(x[w]);
          }
          return -1;
        };
        if (lead_of(basis[b]) > lead_of(basis[b - 1])) {
          std::swap(basis[b], basis[b - 1]);
          std::swap(combos[b], combos[b - 1]);
        } else {
          break;
        }
      }
    }
  }

  prep.kernel_ = std::move(kernel);
  prep.loc_ = std::move(loc);
  return prep;
}

bool CycleSpaceFtc::connected(const CsVertexLabel& s, const CsVertexLabel& t,
                              const Prepared& prepared) {
  if (s.anc == t.anc) return true;
  if (prepared.trivial_) return true;
  const int fs = prepared.loc_.locate(s.anc.tin);
  const int ft = prepared.loc_.locate(t.anc.tin);
  if (fs == ft) return true;
  // Fragments are in the same component of G - F iff they agree on every
  // kernel basis vector.
  const auto bit = [](const std::vector<std::uint64_t>& m, int i) -> bool {
    return (m[i / 64] >> (i % 64)) & 1;
  };
  for (const auto& kv : prepared.kernel_) {
    if (bit(kv, fs) != bit(kv, ft)) return false;
  }
  return true;
}

}  // namespace ftc::dp21
