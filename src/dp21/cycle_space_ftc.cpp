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

// Index of the highest set bit, or -1 for the zero vector.
int leading_bit(const std::vector<std::uint64_t>& x) {
  for (int w = static_cast<int>(x.size()) - 1; w >= 0; --w) {
    if (x[w] != 0) return w * 64 + 63 - __builtin_clzll(x[w]);
  }
  return -1;
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

CycleSpaceFtc::Prepared::Builder::Builder(
    const core::store::CycleParams& params, std::size_t capacity)
    : blob_bytes_(core::store::cycle_edge_blob_bytes(params)),
      words_(params.vector_words()),
      vec_(capacity * words_) {
  rows_.reserve(capacity);
}

void CycleSpaceFtc::Prepared::Builder::add(std::span<const std::uint8_t> blob) {
  if (blob.size() != blob_bytes_) {
    throw core::StoreError("dp21-cycle edge blob has the wrong size");
  }
  FTC_REQUIRE(rows_.size() < rows_.capacity(),
              "more faults than the builder was sized for");
  Row row;
  row.is_tree = core::store::read_cycle_edge_at(
      blob.data(), words_, row.a, row.b, vec_.data() + rows_.size() * words_);
  rows_.push_back(row);
}

// All fault-set-only work — fragment structure, per-fragment cut
// vectors, and the GF(2) kernel of the fragment-vector matrix — happens
// here, once per session. Queries never mutate any of it.
CycleSpaceFtc::Prepared CycleSpaceFtc::Prepared::Builder::finish() && {
  Prepared prep;
  prep.num_faults_ = rows_.size();
  const auto vec = [&](std::size_t i) { return vec_.data() + i * words_; };

  // Tree faults by the lower endpoint's interval (the locator maps
  // duplicates to one fragment); non-tree faults by endpoint pair.
  std::vector<std::size_t> tree, nontree;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> intervals;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (rows_[i].is_tree) {
      tree.push_back(i);
      intervals.push_back({rows_[i].b.tin, rows_[i].b.tout});
    } else {
      nontree.push_back(i);
    }
  }
  if (tree.empty()) return prep;  // the spanning tree survives
  prep.trivial_ = false;

  graph::FragmentLocator loc(std::move(intervals));
  const int num_frag = loc.fragment_count();
  std::vector<std::uint64_t> frag_vec(num_frag * words_, 0);
  const auto xor_frag = [&](int fr, std::size_t i) {
    xor_words(frag_vec.data() + fr * words_, vec(i), words_);
  };
  // Sigma over the fragment's tree cut: XOR of lambda over the non-tree
  // edges leaving the fragment.
  std::vector<char> seen(num_frag, 0);
  for (std::size_t j = 0; j < tree.size(); ++j) {
    const int below = loc.fragment_of_fault(j);
    if (seen[below] != 0) continue;  // a duplicate edge
    seen[below] = 1;
    xor_frag(below, tree[j]);
    xor_frag(loc.parent_fragment(below), tree[j]);
  }
  // Remove the faulty non-tree edges themselves, each once. A duplicate
  // has the same endpoints and lambda; parallel edges differ in lambda.
  const auto less = [&](std::size_t x, std::size_t y) {
    const auto kx = std::make_pair(rows_[x].a.tin, rows_[x].b.tin);
    const auto ky = std::make_pair(rows_[y].a.tin, rows_[y].b.tin);
    return kx != ky ? kx < ky
                    : std::lexicographical_compare(vec(x), vec(x) + words_,
                                                   vec(y), vec(y) + words_);
  };
  std::sort(nontree.begin(), nontree.end(), less);
  nontree.erase(std::unique(nontree.begin(), nontree.end(),
                            [&](std::size_t x, std::size_t y) {
                              return !less(x, y) && !less(y, x);
                            }),
                nontree.end());
  for (const std::size_t i : nontree) {
    const int fu = loc.locate(rows_[i].a.tin);
    const int fv = loc.locate(rows_[i].b.tin);
    if (fu == fv) continue;  // does not cross any fragment boundary
    xor_frag(fu, i);
    xor_frag(fv, i);
  }

  // Kernel of the fragment-vector matrix over GF(2): whp it is spanned by
  // the component indicator vectors. Gaussian elimination over columns;
  // combos track which fragments participate.
  std::vector<std::vector<std::uint64_t>> basis;      // reduced vectors
  std::vector<std::vector<std::uint64_t>> combos;     // their fragment sets
  std::vector<std::vector<std::uint64_t>> kernel;     // kernel combos
  const std::size_t combo_words = (num_frag + 63) / 64;
  for (int i = 0; i < num_frag; ++i) {
    std::vector<std::uint64_t> v(frag_vec.begin() + i * words_,
                                 frag_vec.begin() + (i + 1) * words_);
    std::vector<std::uint64_t> combo(combo_words, 0);
    combo[i / 64] |= std::uint64_t{1} << (i % 64);
    for (std::size_t b = 0; b < basis.size(); ++b) {
      // Reduce on the leading bit of basis[b].
      const int lb = leading_bit(basis[b]);
      if (leading_bit(v) == lb && lb >= 0) {
        xor_words(v.data(), basis[b].data(), words_);
        xor_words(combo.data(), combos[b].data(), combo_words);
      }
    }
    if (!any_word_nonzero(v.data(), words_)) {
      kernel.push_back(combo);
    } else {
      basis.push_back(std::move(v));
      combos.push_back(std::move(combo));
      // Keep basis sorted by leading bit descending for stable reduction.
      for (std::size_t b = basis.size();
           b-- > 1 && leading_bit(basis[b]) > leading_bit(basis[b - 1]);) {
        std::swap(basis[b], basis[b - 1]);
        std::swap(combos[b], combos[b - 1]);
      }
    }
  }

  prep.kernel_ = std::move(kernel);
  prep.loc_ = std::move(loc);
  return prep;
}

bool CycleSpaceFtc::connected(const graph::AncestryLabel& s,
                              const graph::AncestryLabel& t,
                              const Prepared& prepared) {
  if (s == t) return true;
  if (prepared.trivial_) return true;
  const int fs = prepared.loc_.locate(s.tin);
  const int ft = prepared.loc_.locate(t.tin);
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
