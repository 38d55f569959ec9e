#include "dp21/agm_ftc.hpp"

#include <algorithm>

#include "core/ftc_labels.hpp"
#include "core/label_store.hpp"
#include "graph/aux_graph.hpp"
#include "graph/euler_tour.hpp"
#include "graph/fragments.hpp"
#include "graph/spanning_tree.hpp"
#include "graph/subtree_xor.hpp"
#include "graph/union_find.hpp"
#include "sketch/agm_sketch.hpp"
#include "util/common.hpp"
#include "util/worker_pool.hpp"
#include "util/xor_kernel.hpp"

namespace ftc::dp21 {

using graph::AncestryLabel;
using graph::EdgeId;
using graph::VertexId;
using sketch::AgmSketch;
using sketch::PackedId;

namespace {

// Pack an endpoint pair of ancestry labels into a 128-bit ID (32-bit
// coordinates; the canonical endpoint order is by tin).
PackedId pack_id(const AncestryLabel& x, const AncestryLabel& y) {
  const AncestryLabel& a = x.tin < y.tin ? x : y;
  const AncestryLabel& b = x.tin < y.tin ? y : x;
  return PackedId{std::uint64_t{a.tin} | (std::uint64_t{a.tout} << 32),
                  std::uint64_t{b.tin} | (std::uint64_t{b.tout} << 32)};
}

std::pair<AncestryLabel, AncestryLabel> unpack_id(const PackedId& id) {
  AncestryLabel a{static_cast<std::uint32_t>(id.lo & 0xffffffffULL),
                  static_cast<std::uint32_t>(id.lo >> 32)};
  AncestryLabel b{static_cast<std::uint32_t>(id.hi & 0xffffffffULL),
                  static_cast<std::uint32_t>(id.hi >> 32)};
  return {a, b};
}

}  // namespace

core::store::ResidentLabels AgmFtc::build(const graph::Graph& g,
                                          const AgmFtcConfig& config) {
  FTC_REQUIRE(graph::is_connected(g), "input graph must be connected");
  const graph::SpanningTree t = graph::bfs_spanning_tree(g, 0);
  const graph::AuxGraph aux = graph::build_aux_graph(g, t);
  const graph::EulerTour et2 = graph::euler_tour(aux.t2);
  const graph::AncestryLabeling anc2(aux.t2, et2);
  const VertexId n2 = aux.g2.num_vertices();
  const unsigned logn = std::max(1u, ceil_log2(std::max<VertexId>(n2, 2)));

  unsigned reps = config.reps_override;
  if (reps == 0) {
    reps = std::max(2u, static_cast<unsigned>(config.scale * logn));
    if (config.full_support) reps *= (config.f + 1);
  }
  const unsigned levels = 2 * logn + 2;

  core::store::AgmParams params;
  params.coord_bits = logn;
  params.levels = levels;
  params.reps = reps;
  params.seed = config.seed;
  core::store::ResidentLabels out;
  out.backend = core::BackendKind::kDp21Agm;
  core::store::ByteWriter pw;
  core::store::encode_agm_params(params, pw);
  out.params = pw.take();
  out.write_vertex_records(anc2, g.num_vertices());

  // Each tree edge's sketch is the merge of the per-T'-vertex sketches of
  // incident non-tree edges over its lower endpoint's subtree. AGM cells
  // are XOR fingerprints (toggle == merge == word XOR), so the shared
  // kernel (graph/subtree_xor.hpp) folds the sketches in place into the
  // tree edges' blobs, one repetition's cells per column.
  util::WorkerPool pool(
      util::WorkerPool::resolve_threads(config.build_threads));
  std::vector<EdgeId> nontree;
  for (EdgeId e2 = 0; e2 < aux.g2.num_edges(); ++e2) {
    if (!aux.t2.is_tree_edge[e2]) nontree.push_back(e2);
  }
  std::vector<EdgeId> sigma_inv(aux.g2.num_edges(), graph::kNoEdge);
  for (EdgeId e = 0; e < g.num_edges(); ++e) sigma_inv[aux.sigma[e]] = e;
  out.assign_edge_blobs(g.num_edges(),
                        core::store::agm_edge_blob_bytes(params));
  const auto blob_below = [&](VertexId v) {
    const EdgeId eo = sigma_inv[aux.t2.parent_edge[v]];
    FTC_CHECK(eo != graph::kNoEdge, "T' tree edge without sigma preimage");
    return out.edge_blob(eo);
  };
  for (VertexId v = 0; v < n2; ++v) {
    if (v == aux.t2.root) continue;
    core::store::write_edge_endpoints_at(
        blob_below(v), anc2.label(aux.t2.parent[v]), anc2.label(v));
  }

  graph::SubtreeXor scan(pool, aux.t2, anc2);
  scan.run(
      aux.g2, nontree, reps, std::size_t{3} * levels,
      [&](VertexId v) {
        return core::store::agm_edge_sketch_words(blob_below(v));
      },
      [&](EdgeId e2, std::size_t r0, std::size_t r1, std::uint8_t* ru,
          std::uint8_t* rv) {
        const auto& ed = aux.g2.edge(e2);
        const PackedId id = pack_id(anc2.label(ed.u), anc2.label(ed.v));
        const std::uint64_t f = AgmSketch::fingerprint(id.lo, id.hi,
                                                       config.seed);
        for (std::size_t r = r0; r < r1; ++r) {
          const std::size_t c = AgmSketch::cell_offset(
              id, static_cast<unsigned>(r), levels, config.seed);
          for (std::uint8_t* row : {ru, rv}) {
            xor_le_word(row, c, id.lo);
            xor_le_word(row, c + 1, id.hi);
            xor_le_word(row, c + 2, f);
          }
        }
      });
  return out;
}

AgmFtc::Prepared::Builder::Builder(const core::store::AgmParams& params,
                                   std::size_t capacity)
    : blob_bytes_(core::store::agm_edge_blob_bytes(params)),
      words_(params.sketch_words()),
      seed_(params.seed),
      sketch_(capacity * words_) {
  intervals_.reserve(capacity);
}

void AgmFtc::Prepared::Builder::add(std::span<const std::uint8_t> blob) {
  if (blob.size() != blob_bytes_) {
    throw core::StoreError("dp21-agm edge blob has the wrong size");
  }
  FTC_REQUIRE(intervals_.size() < intervals_.capacity(),
              "more faults than the builder was sized for");
  const AncestryLabel lower = core::store::read_agm_edge_at(
      blob.data(), words_, sketch_.data() + intervals_.size() * words_);
  intervals_.push_back({lower.tin, lower.tout});
}

// Fault-set-only work: dedup, fragment structure, and the initial
// per-fragment sketches (Proposition 4), flattened to one word row per
// fragment so queries can seed their mutable state with a single copy
// and merge through the shared word-XOR kernel.
AgmFtc::Prepared AgmFtc::Prepared::Builder::finish() && {
  Prepared prep;
  const std::size_t rows = intervals_.size();
  prep.num_faults_ = rows;
  if (rows == 0) return prep;

  // The locator maps duplicate faults to one fragment.
  graph::FragmentLocator loc(std::move(intervals_));
  prep.num_frag_ = loc.fragment_count();
  prep.seed_ = seed_;
  prep.words_per_frag_ = words_;
  prep.frag_words_.assign(
      static_cast<std::size_t>(prep.num_frag_) * words_, 0);
  std::vector<char> seen(prep.num_frag_, 0);
  for (std::size_t i = 0; i < rows; ++i) {
    const int below = loc.fragment_of_fault(i);
    if (seen[below] != 0) continue;  // a duplicate edge
    seen[below] = 1;
    const int above = loc.parent_fragment(below);
    for (const int fr : {below, above}) {
      xor_words(prep.frag_words_.data() + fr * words_,
                sketch_.data() + i * words_, words_);
    }
  }
  prep.loc_ = std::move(loc);
  return prep;
}

bool AgmFtc::connected(const AncestryLabel& s, const AncestryLabel& t,
                       const Prepared& prepared, Workspace& workspace) {
  if (s == t) return true;
  if (prepared.trivial()) return true;

  const graph::FragmentLocator& loc = prepared.loc_;
  const int fs = loc.locate(s.tin);
  const int ft = loc.locate(t.tin);
  if (fs == ft) return true;

  const std::size_t num_frag = static_cast<std::size_t>(prepared.num_frag_);
  const std::size_t wpf = prepared.words_per_frag_;
  // Seed the mutable state from the immutable session rows. assign()
  // reuses the workspace buffers' capacity, so steady-state queries are
  // allocation-free.
  workspace.frag_words_.assign(prepared.frag_words_.begin(),
                               prepared.frag_words_.end());
  workspace.uf_.reset(num_frag);
  graph::UnionFind& uf = workspace.uf_;
  const auto frag_row = [&](std::size_t fr) {
    return workspace.frag_words_.data() + fr * wpf;
  };

  // Source-first growth, as in DP21: grow the set containing s. Every
  // sample must be certified: an edge of the grown set's boundary has
  // exactly one endpoint in it. A sample that does not cross, or that
  // joins two other sets, is a sketch failure (a hash collision or too
  // few repetitions for this cut) and is refused, never merged or read
  // as "disconnected". Each certified sample merges one more fragment
  // in, so at most num_frag - 1 rounds run.
  const std::size_t src = static_cast<std::size_t>(fs);
  for (std::size_t merges = 0; merges + 1 < num_frag; ++merges) {
    const std::size_t cur = uf.find(src);
    const auto sample = sketch::AgmSketch::sample_words(
        std::span<const std::uint64_t>(frag_row(cur), wpf), prepared.seed_);
    // Empty (whp) -> the component of s is complete without t.
    if (!sample.has_value()) return false;
    const auto [a, b] = unpack_id(*sample);
    const std::size_t fa = uf.find(loc.locate(a.tin));
    const std::size_t fb = uf.find(loc.locate(b.tin));
    if ((fa == cur) == (fb == cur)) {
      throw core::FtcCapacityError(
          fa == fb ? "dp21-agm: sampled edge does not cross the grown set"
                   : "dp21-agm: sampled edge joins two other sets");
    }
    const std::size_t other = fa == cur ? fb : fa;
    uf.unite(cur, other);
    const std::size_t root = uf.find(cur);
    xor_words(frag_row(root), frag_row(root == cur ? other : cur), wpf);
    if (uf.find(src) == uf.find(static_cast<std::size_t>(ft))) return true;
  }
  throw core::FtcCapacityError(
      "dp21-agm: growth exceeded num_frag - 1 merges");
}

}  // namespace ftc::dp21
