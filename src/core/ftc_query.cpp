#include "core/ftc_query.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "core/edge_code.hpp"
#include "core/label_store.hpp"
#include "graph/fragments.hpp"
#include "graph/union_find.hpp"
#include "sketch/rs_sketch.hpp"
#include "util/xor_kernel.hpp"

namespace ftc::core {

namespace {

// Source of PreparedFaults::Impl::serial. 0 is never handed out, so it
// can mark a workspace that holds no session.
std::atomic<std::uint64_t> g_next_serial{0};

}  // namespace

// Fault-set context shared by all queries: parameters, the fragment
// locator, per-fragment cut bitsets, and every deduplicated fault's
// k_b-clamped payload, kept as raw std::uint64_t words so the XOR kernels
// (util/xor_kernel.hpp) apply without knowing the field type. Fragment fr
// owns cut[fr * cut_words ..]. Fault j — the one whose lower endpoint
// defines fragment j + 1, and bit j of every cut — has its payload at
// fault_row[j], in `layout`: level-major, layout.width(lev) syndromes of
// level lev at word layout.offset(lev), field_bits/64 words per syndrome.
struct PreparedFaults::Impl {
  // Process-unique identity of this fault set. A workspace keys its
  // carried session on it, never on the address: a freed fault set's
  // address can be reused by the next one while the workspace lives on.
  std::uint64_t serial = 0;
  LabelParams params;
  graph::FragmentLocator loc{std::vector<std::pair<std::uint32_t, std::uint32_t>>{}};
  std::size_t cut_words = 0;  // bitset words per fragment
  int num_frag = 0;           // deduplicated fault count + 1
  std::vector<std::uint64_t> cut;
  // Initial |cut| per fragment, precomputed so the merge heap seeds
  // without re-popcounting prepared rows on every query.
  std::vector<unsigned> init_cut_size;
  // The kept prefixes: the current container layout of the bounds.
  store::CoreEdgeLayout layout;
  // One row per added fault, duplicates included, left uninitialized
  // until add()'s caller fills it; fault_row picks one row per distinct
  // fault.
  std::unique_ptr<std::uint64_t[]> payload;
  std::vector<const std::uint64_t*> fault_row;
  // Builder state: the lower-endpoint interval of each added row.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> intervals;
};

// Scratch reused across queries on one thread, plus the merge state of
// the current session: the queries against one PreparedFaults (`serial`)
// under one QueryOptions (`options`). The union-find forest, the cut
// rows, the closed flags, the heap with its versions and decode_hint all
// survive from one query of a session to the next, so a session walks
// its merge sequence once, however many queries it serves. A query with
// another key starts a new session, which copies the prepared cut rows.
// The word buffers carry no type, so one workspace serves either field
// width and any number of distinct PreparedFaults objects.
struct DecoderWorkspace::Impl {
  std::uint64_t serial = 0;  // session's PreparedFaults; 0 = no session
  QueryOptions options;
  // Decode start hint: the previous decode's support size in this session
  // (boundaries change slowly across merges), seeding the adaptive
  // doubling threshold. Reset at session start.
  unsigned decode_hint = 0;
  // Decode rounds run in this session; a session needs at most
  // num_frag - 1 merging rounds and num_frag closing ones.
  unsigned rounds = 0;
  std::vector<std::uint64_t> cut;        // per fragment set: its cut row
  std::vector<std::uint64_t> level_row;  // the one level sum being scanned
  graph::UnionFind uf{0};
  std::vector<char> closed;
  std::vector<std::uint32_t> version;
  // (cut size, fragment, version) min-heap with lazy invalidation. Built
  // only in smallest-cut-first mode; source-first queries never pop it.
  std::vector<std::tuple<unsigned, int, std::uint32_t>> heap;
  // Allocation-free decode: per-field sketch scratch plus the reused
  // decoded-edge buffer decode_outgoing fills, one (fragment of a,
  // fragment of b) pair per decoded edge (a, b).
  sketch::SketchDecodeScratch<gf::GF2_64> scratch64;
  sketch::SketchDecodeScratch<gf::GF2_128> scratch128;
  std::vector<std::pair<int, int>> edges;
};

PreparedFaults::Builder::Builder(const LabelParams& params,
                                 std::span<const std::uint32_t> level_bounds,
                                 std::size_t capacity)
    : impl_(std::make_unique<Impl>()) {
  FTC_REQUIRE(params.field_bits == 64 || params.field_bits == 128,
              "unsupported field width in edge label");
  impl_->params = params;
  impl_->layout = store::core_edge_layout(params, level_bounds);
  impl_->payload = std::make_unique_for_overwrite<std::uint64_t[]>(
      capacity * impl_->layout.payload_words);
  impl_->intervals.reserve(capacity);
}

PreparedFaults::Builder::~Builder() = default;

const LabelParams& PreparedFaults::Builder::params() const {
  return impl_->params;
}

unsigned PreparedFaults::Builder::level_width(unsigned lev) const {
  return impl_->layout.width(lev);
}

std::size_t PreparedFaults::Builder::level_offset(unsigned lev) const {
  return impl_->layout.offset(lev);
}

std::uint64_t* PreparedFaults::Builder::add(const graph::AncestryLabel& lower) {
  Impl& impl = *impl_;
  const std::size_t row = impl.intervals.size();
  FTC_REQUIRE(row < impl.intervals.capacity(),
              "more faults than the builder was sized for");
  impl.intervals.push_back({lower.tin, lower.tout});
  return impl.payload.get() + row * impl.layout.payload_words;
}

PreparedFaults PreparedFaults::Builder::finish() && {
  Impl& impl = *impl_;
  const std::size_t rows = impl.intervals.size();
  if (rows == 0) return PreparedFaults(nullptr);

  // Fragment structure of T' - sigma(F) from the labels alone. The
  // locator dedups the intervals and numbers fragments by increasing tin,
  // so fault j (bit j of every cut) is the one defining fragment j + 1.
  impl.loc = graph::FragmentLocator(std::move(impl.intervals));
  impl.intervals = {};
  impl.num_frag = impl.loc.fragment_count();
  const std::size_t nf = static_cast<std::size_t>(impl.num_frag) - 1;
  impl.cut_words = (nf + 63) / 64;
  impl.serial = g_next_serial.fetch_add(1, std::memory_order_relaxed) + 1;

  // Each fault edge is on the boundary of the fragment below it and the
  // fragment above it (Proposition 4), so it sets its bit in both cuts.
  impl.cut.assign(static_cast<std::size_t>(impl.num_frag) * impl.cut_words,
                  0);
  impl.fault_row.assign(nf, nullptr);
  for (std::size_t i = 0; i < rows; ++i) {
    const int below = impl.loc.fragment_of_fault(i);
    const std::size_t j = static_cast<std::size_t>(below) - 1;
    if (impl.fault_row[j] != nullptr) continue;  // a duplicate edge
    impl.fault_row[j] = impl.payload.get() + i * impl.layout.payload_words;
    const int above = impl.loc.parent_fragment(below);
    FTC_CHECK(above >= 0, "fault fragment without parent");
    for (const int fr : {below, above}) {
      impl.cut[fr * impl.cut_words + j / 64] ^= std::uint64_t{1} << (j % 64);
    }
  }
  impl.init_cut_size.reserve(impl.num_frag);
  for (int fr = 0; fr < impl.num_frag; ++fr) {
    impl.init_cut_size.push_back(
        popcount_words(impl.cut.data() + fr * impl.cut_words, impl.cut_words));
  }
  return PreparedFaults(std::move(impl_));
}

namespace {

template <typename F>
sketch::SketchDecodeScratch<F>& workspace_scratch(DecoderWorkspace::Impl& ws) {
  if constexpr (F::kWords == 1) {
    return ws.scratch64;
  } else {
    return ws.scratch128;
  }
}

// Writes the level-lev sketch sum of the fragment set with cut row `cut`
// into `row` — the XOR of the level's slices of the faults in the cut,
// since internal faults cancel — and returns whether it is nonzero.
bool level_sum(const PreparedFaults::Impl& prep, const std::uint64_t* cut,
               unsigned lev, std::uint64_t* row, std::size_t words) {
  const std::size_t offset = prep.layout.offset(lev);
  bool any = false;
  for (std::size_t w = 0; w < prep.cut_words; ++w) {
    for (std::uint64_t bits = cut[w]; bits != 0; bits &= bits - 1) {
      const std::uint64_t* src =
          prep.fault_row[w * 64 + std::countr_zero(bits)] + offset;
      if (any) {
        xor_words(row, src, words);
      } else {
        std::copy_n(src, words, row);
        any = true;
      }
    }
  }
  return any && any_word_nonzero(row, words);
}

// Decodes the outgoing edges of a fragment set from its cut: scan from
// the sparsest level down; the first level with a nonzero sketch sum is
// the top nonempty boundary, which the hierarchy guarantees to be
// decodable (Lemma 2). A level of width 0 (an empty level) has no sum
// and is skipped. Each level's sum is built at its clamped width k_b in
// the workspace's level row, and field elements only materialize
// (into the workspace scratch) for the one level that actually decodes.
// Fills ws.edges with the fragments of each decoded edge's endpoints;
// empty means no outgoing edge (the component is complete).
template <typename F>
void decode_outgoing(const std::uint64_t* cut,
                     const PreparedFaults::Impl& prep,
                     const QueryOptions& options, DecoderWorkspace::Impl& ws,
                     QueryStats* stats) {
  sketch::SketchDecodeScratch<F>& scratch = workspace_scratch<F>(ws);
  ws.edges.clear();
  for (unsigned lev = prep.params.num_levels; lev-- > 0;) {
    if (stats != nullptr) ++stats->levels_scanned;
    const unsigned width = prep.layout.width(lev);
    if (width == 0) continue;
    const std::size_t words = static_cast<std::size_t>(width) * F::kWords;
    if (!level_sum(prep, cut, lev, ws.level_row.data(), words)) continue;
    if (stats != nullptr) ++stats->outdetect_calls;
    // Every boundary at this level has at most k_b edges (a sound bound),
    // so the k_b-prefix is the whole sketch as far as the decode goes.
    const bool decoded = sketch::decode_sketch_words<F>(
        ws.level_row.data(), width, scratch, options.adaptive,
        ws.decode_hint);
    if (!decoded) {
      throw FtcCapacityError(
          "outdetect sketch failed to decode: boundary exceeds k; rebuild "
          "with larger k (or KMode::kProvable)");
    }
    ws.decode_hint = static_cast<unsigned>(scratch.support.size());
    FTC_CHECK(!scratch.support.empty(),
              "nonzero sketch decoded to the empty set");
    ws.edges.reserve(scratch.support.size());
    for (const F& id : scratch.support) {
      const auto [a, b] = EdgeCode<F>::decode(id);
      if (!EdgeCode<F>::plausible(a, b)) {
        throw FtcCapacityError(
            "decoded edge ID is structurally invalid; sketch capacity "
            "exceeded");
      }
      ws.edges.emplace_back(prep.loc.locate(a.tin), prep.loc.locate(b.tin));
    }
    return;
  }
}

// Starts a new session on `ws`: every fragment a singleton set with its
// prepared cut row, nothing closed, the heap seeded with the initial cut
// sizes. The buffers are only ever grown.
void start_session(const PreparedFaults::Impl& prep,
                   const QueryOptions& options, DecoderWorkspace::Impl& ws) {
  const std::size_t nfrag = static_cast<std::size_t>(prep.num_frag);
  ws.decode_hint = 0;
  ws.rounds = 0;
  ws.cut.assign(prep.cut.begin(), prep.cut.end());
  if (ws.level_row.size() < prep.layout.payload_words) {
    ws.level_row.resize(prep.layout.payload_words);
  }
  ws.uf.reset(nfrag);
  ws.closed.assign(nfrag, 0);
  // Only smallest-cut-first mode ever pops the heap, so only that mode
  // pays for building it.
  if (options.smallest_cut_first) {
    ws.version.assign(nfrag, 0);
    ws.heap.clear();
    ws.heap.reserve(nfrag);
    for (int fr = 0; fr < prep.num_frag; ++fr) {
      ws.heap.push_back({prep.init_cut_size[fr], fr, 0u});
    }
    std::make_heap(ws.heap.begin(), ws.heap.end(), std::greater<>{});
  }
  ws.serial = prep.serial;
  ws.options = options;
}

// Answers from the session state when it already decides (s, t), and
// otherwise continues the session's merge sequence one whole round at a
// time until it does. Rounds always finish, so between queries the state
// sits between two steps of the sequence. In smallest-cut-first order
// the sequence depends on the fault set alone, so every answer and every
// FtcCapacityError equals a fresh session's; in source-first order every
// carried merge and closure is still a fact about G - F.
template <typename F>
bool query_impl(const VertexLabel& s, const VertexLabel& t,
                const PreparedFaults::Impl& prep, DecoderWorkspace::Impl& ws,
                const QueryOptions& options, QueryStats* stats) {
  const std::size_t cut_words = prep.cut_words;
  if (stats != nullptr) stats->fragments = static_cast<unsigned>(prep.num_frag);

  const int fs = prep.loc.locate(s.anc.tin);
  const int ft = prep.loc.locate(t.anc.tin);
  if (fs == ft) return true;  // connected within T' - sigma(F) already

  if (ws.serial != prep.serial || ws.options != options) {
    start_session(prep, options, ws);
  }

  const auto cut_row = [&](std::size_t fr) {
    return ws.cut.data() + fr * cut_words;
  };

  using HeapEntry = std::tuple<unsigned, int, std::uint32_t>;
  const auto heap_push = [&](HeapEntry e) {
    ws.heap.push_back(e);
    std::push_heap(ws.heap.begin(), ws.heap.end(), std::greater<>{});
  };
  const auto heap_pop = [&]() {
    std::pop_heap(ws.heap.begin(), ws.heap.end(), std::greater<>{});
    const HeapEntry e = ws.heap.back();
    ws.heap.pop_back();
    return e;
  };

  graph::UnionFind& uf = ws.uf;
  const unsigned max_rounds = 2 * static_cast<unsigned>(prep.num_frag) - 1;
  while (true) {
    const std::size_t rs = uf.find(fs);
    const std::size_t rt = uf.find(ft);
    if (rs == rt) return true;
    // A closed set is a complete component of G - F. If it holds s or t,
    // the two can no longer meet.
    if (ws.closed[rs] || ws.closed[rt]) return false;

    int fr = static_cast<int>(rs);
    if (options.smallest_cut_first) {
      // Every open root has a live entry: the seed or its last re-push.
      fr = -1;
      while (fr < 0) {
        FTC_CHECK(!ws.heap.empty(), "merge heap lost an open fragment set");
        const auto [sz, cand, ver] = heap_pop();
        (void)sz;
        if (!ws.closed[cand] && ws.version[cand] == ver &&
            uf.find(cand) == static_cast<std::size_t>(cand)) {
          fr = cand;
        }
      }
    }

    // Every round merges or closes a set, so a session that needs more
    // rounds than that is decoding garbage.
    if (ws.rounds == max_rounds) {
      throw FtcCapacityError(
          "decoder session exceeded its round bound; sketch capacity "
          "exceeded");
    }
    ++ws.rounds;
    decode_outgoing<F>(cut_row(fr), prep, options, ws, stats);
    if (ws.edges.empty()) {
      ws.closed[fr] = 1;
      continue;
    }
    // Certify the decode before merging anything: the top nonzero level
    // sum of a set decodes to edges of that set's boundary (Lemma 2), so
    // each decoded edge has exactly one endpoint in the set. An edge
    // inside the set, or one joining two other sets, means the sketch
    // overflowed into a plausible but wrong support.
    for (const auto& [a, b] : ws.edges) {
      if ((uf.find(a) == static_cast<std::size_t>(fr)) ==
          (uf.find(b) == static_cast<std::size_t>(fr))) {
        throw FtcCapacityError(
            "decoded edge does not leave its fragment set; sketch "
            "capacity exceeded");
      }
    }
    for (const auto& [a, b] : ws.edges) {
      const std::size_t fa = uf.find(a);
      const std::size_t fb = uf.find(b);
      if (fa == fb) continue;  // joined by an earlier edge this round
      uf.unite(fa, fb);
      const std::size_t root = uf.find(fa);
      const std::size_t other = root == fa ? fb : fa;
      // Internal faults cancel: the union's cut is the XOR of the two.
      xor_words(cut_row(root), cut_row(other), cut_words);
      if (stats != nullptr) ++stats->merges;
    }
    if (options.smallest_cut_first) {
      const std::size_t root = uf.find(fr);
      ++ws.version[root];
      heap_push({popcount_words(cut_row(root), cut_words),
                 static_cast<int>(root), ws.version[root]});
    }
  }
}

}  // namespace

PreparedFaults::PreparedFaults(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
PreparedFaults::PreparedFaults(PreparedFaults&&) noexcept = default;
PreparedFaults& PreparedFaults::operator=(PreparedFaults&&) noexcept = default;
PreparedFaults::~PreparedFaults() = default;

PreparedFaults PreparedFaults::prepare(
    std::span<const EdgeLabel> faults,
    std::span<const std::uint32_t> level_bounds) {
  if (faults.empty()) return PreparedFaults(nullptr);
  const LabelParams& params = faults[0].params;
  // A label stores no more of a level than a query can read, so the
  // labels' own widths bound what the fault set keeps, too.
  const store::CoreEdgeLayout given =
      store::core_edge_layout(params, level_bounds);
  std::vector<std::uint32_t> bounds(params.num_levels);
  for (unsigned lev = 0; lev < params.num_levels; ++lev) {
    bounds[lev] = given.width(lev);
  }
  std::vector<store::CoreEdgeLayout> stored;
  stored.reserve(faults.size());
  for (const EdgeLabel& f : faults) {
    FTC_REQUIRE(f.params == params, "fault labels from different schemes");
    stored.push_back(store::core_edge_layout(params, f.level_widths));
    FTC_REQUIRE(f.sketch_words.size() == stored.back().payload_words,
                "edge label sketch payload has wrong size");
    for (unsigned lev = 0; lev < params.num_levels; ++lev) {
      bounds[lev] = std::min(bounds[lev], stored.back().width(lev));
    }
  }
  Builder builder(params, bounds, faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    std::uint64_t* row = builder.add(faults[i].lower);
    for (unsigned lev = 0; lev < params.num_levels; ++lev) {
      std::copy_n(faults[i].sketch_words.data() + stored[i].offset(lev),
                  builder.level_width(lev) * params.words_per_elem(),
                  row + builder.level_offset(lev));
    }
  }
  return std::move(builder).finish();
}

bool PreparedFaults::empty() const { return impl_ == nullptr; }

std::size_t PreparedFaults::num_faults() const {
  return impl_ == nullptr ? 0 : impl_->fault_row.size();
}

const LabelParams& PreparedFaults::params() const {
  FTC_REQUIRE(impl_ != nullptr, "empty fault set has no parameters");
  return impl_->params;
}

DecoderWorkspace::DecoderWorkspace() : impl_(std::make_unique<Impl>()) {}
DecoderWorkspace::DecoderWorkspace(DecoderWorkspace&&) noexcept = default;
DecoderWorkspace& DecoderWorkspace::operator=(DecoderWorkspace&&) noexcept =
    default;
DecoderWorkspace::~DecoderWorkspace() = default;

bool FtcDecoder::connected(const VertexLabel& s, const VertexLabel& t,
                           std::span<const EdgeLabel> faults,
                           const QueryOptions& options, QueryStats* stats) {
  if (s.anc == t.anc) return true;  // labels are injective: same vertex
  if (faults.empty()) return true;  // the input graph is connected
  const PreparedFaults prepared = PreparedFaults::prepare(faults);
  DecoderWorkspace workspace;
  return connected(s, t, prepared, workspace, options, stats);
}

bool FtcDecoder::connected(const VertexLabel& s, const VertexLabel& t,
                           const PreparedFaults& faults,
                           DecoderWorkspace& workspace,
                           const QueryOptions& options, QueryStats* stats) {
  if (s.anc == t.anc) return true;  // labels are injective: same vertex
  if (faults.empty()) return true;  // the input graph is connected
  const PreparedFaults::Impl& impl = *faults.impl_;
  FTC_REQUIRE(s.params == impl.params && t.params == impl.params,
              "vertex and edge labels from different schemes");
  DecoderWorkspace::Impl& ws = *workspace.impl_;
  try {
    if (impl.params.field_bits == 64) {
      return query_impl<gf::GF2_64>(s, t, impl, ws, options, stats);
    }
    return query_impl<gf::GF2_128>(s, t, impl, ws, options, stats);
  } catch (...) {
    // A throwing query may leave its round half merged: end the session,
    // so the next query starts fresh.
    ws.serial = 0;
    throw;
  }
}

}  // namespace ftc::core
