#include "core/ftc_query.hpp"

#include <algorithm>
#include <atomic>
#include <tuple>
#include <utility>
#include <vector>

#include "core/edge_code.hpp"
#include "graph/fragments.hpp"
#include "graph/union_find.hpp"
#include "sketch/rs_sketch.hpp"
#include "util/xor_kernel.hpp"

namespace ftc::core {

namespace {

using graph::AncestryLabel;

// Source of PreparedFaults::Impl::serial. 0 is never handed out, so it
// can mark a workspace that holds no session.
std::atomic<std::uint64_t> g_next_serial{0};

}  // namespace

// Fault-set context shared by all queries: parameters, the fragment
// locator, and flattened per-fragment initial state, kept as raw
// std::uint64_t words so the XOR kernels (util/xor_kernel.hpp) apply and
// so the copy-on-write workspace can alias rows without knowing the field
// type. Fragment fr owns cut[fr * cut_words ..] and
// sum_words[fr * words_per_frag ..] (level-major, k syndromes per level,
// field_bits/64 words per syndrome).
struct PreparedFaults::Impl {
  // Process-unique identity of this fault set. A workspace keys its
  // carried session on it, never on the address: a freed fault set's
  // address can be reused by the next one while the workspace lives on.
  std::uint64_t serial = 0;
  LabelParams params;
  graph::FragmentLocator loc{std::vector<std::pair<std::uint32_t, std::uint32_t>>{}};
  std::size_t nf = 0;              // deduplicated fault count
  std::size_t cut_words = 0;       // bitset words per fragment
  std::size_t words_per_frag = 0;  // num_levels * k * (field_bits / 64)
  int num_frag = 0;
  std::vector<std::uint64_t> cut;
  std::vector<std::uint64_t> sum_words;
  // Initial |cut| per fragment, precomputed so the merge heap seeds
  // without re-popcounting prepared rows on every query.
  std::vector<unsigned> init_cut_size;
  // Optional sound per-level boundary-size bounds (empty = none); the
  // windowed decode clamps its capacity to min(k, bound) per level.
  std::vector<std::uint32_t> level_bounds;
};

// Scratch reused across queries on one thread, plus the merge state of
// the current session: the queries against one PreparedFaults (`serial`)
// under one QueryOptions (`options`). The union-find forest, the closed
// flags, the heap with its versions, the materialized rows and
// decode_hint all survive from one query of a session to the next, so a
// session walks its merge sequence once, however many queries it serves.
// A query with another key starts a new session. The fragment rows are
// copy-on-write against PreparedFaults: a fragment's cut/sums row is
// copied into this workspace only when a merge first mutates it
// (frag_epoch[fr] == epoch marks a live materialization); reads of
// untouched fragments go straight to the immutable prepared arrays, and
// bumping `epoch` at session start invalidates every materialization in
// O(1). The word buffers carry no type, so one workspace serves either
// field width and any number of distinct PreparedFaults objects.
struct DecoderWorkspace::Impl {
  std::uint64_t serial = 0;  // session's PreparedFaults; 0 = no session
  QueryOptions options;
  std::uint64_t epoch = 0;
  // Decode start hint: the previous decode's support size in this session
  // (boundaries change slowly across merges), seeding the adaptive
  // doubling threshold. Reset at session start.
  unsigned decode_hint = 0;
  std::vector<std::uint64_t> frag_epoch;  // per fragment: epoch when copied
  std::vector<std::uint64_t> cut;         // materialized cut rows
  std::vector<std::uint64_t> sum_words;   // materialized sum rows
  graph::UnionFind uf{0};
  std::vector<char> closed;
  std::vector<std::uint32_t> version;
  // (cut size, fragment, version) min-heap with lazy invalidation. Built
  // only in smallest-cut-first mode; source-first queries never pop it.
  std::vector<std::tuple<unsigned, int, std::uint32_t>> heap;
  // Allocation-free decode: per-field sketch scratch plus the reused
  // decoded-edge buffer decode_outgoing fills.
  sketch::SketchDecodeScratch<gf::GF2_64> scratch64;
  sketch::SketchDecodeScratch<gf::GF2_128> scratch128;
  std::vector<std::pair<AncestryLabel, AncestryLabel>> edges;
};

namespace {

template <typename F>
sketch::SketchDecodeScratch<F>& workspace_scratch(DecoderWorkspace::Impl& ws) {
  if constexpr (F::kWords == 1) {
    return ws.scratch64;
  } else {
    return ws.scratch128;
  }
}

std::unique_ptr<PreparedFaults::Impl> prepare_any(
    std::span<const EdgeLabel> faults,
    std::span<const std::uint32_t> level_bounds) {
  const LabelParams& params = faults[0].params;
  for (const EdgeLabel& f : faults) {
    FTC_REQUIRE(f.params == params, "fault labels from different schemes");
  }
  const unsigned k = params.k;
  const unsigned num_levels = params.num_levels;
  const std::size_t field_words = params.field_bits / 64;

  // Deduplicate faults: the lower endpoint identifies a tree edge.
  std::vector<const EdgeLabel*> uniq;
  uniq.reserve(faults.size());
  for (const EdgeLabel& f : faults) uniq.push_back(&f);
  std::sort(uniq.begin(), uniq.end(),
            [](const EdgeLabel* a, const EdgeLabel* b) {
              return a->lower.tin < b->lower.tin;
            });
  uniq.erase(std::unique(uniq.begin(), uniq.end(),
                         [](const EdgeLabel* a, const EdgeLabel* b) {
                           return a->lower.tin == b->lower.tin;
                         }),
             uniq.end());
  const std::size_t nf = uniq.size();

  // Fragment structure of T' - sigma(F) from the labels alone.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> intervals;
  intervals.reserve(nf);
  for (const EdgeLabel* f : uniq) {
    intervals.push_back({f->lower.tin, f->lower.tout});
  }
  graph::FragmentLocator loc(std::move(intervals));
  const int num_frag = loc.fragment_count();

  auto impl = std::make_unique<PreparedFaults::Impl>();
  impl->serial = g_next_serial.fetch_add(1, std::memory_order_relaxed) + 1;
  impl->params = params;
  impl->nf = nf;
  impl->cut_words = (nf + 63) / 64;
  impl->words_per_frag =
      static_cast<std::size_t>(num_levels) * k * field_words;
  impl->num_frag = num_frag;

  // Per-fragment cut bitsets and sketch sums (Proposition 4): each fault
  // edge contributes its subtree sketch to the fragment below it and the
  // fragment above it. GF(2^w) addition is XOR, so the whole label
  // payload folds in as one word-level kernel call per fragment.
  impl->cut.assign(static_cast<std::size_t>(num_frag) * impl->cut_words, 0);
  impl->sum_words.assign(
      static_cast<std::size_t>(num_frag) * impl->words_per_frag, 0);
  for (std::size_t j = 0; j < nf; ++j) {
    const int below = loc.fragment_of_fault(j);
    const int above = loc.parent_fragment(below);
    FTC_CHECK(above >= 0, "fault fragment without parent");
    FTC_REQUIRE(uniq[j]->sketch_words.size() == impl->words_per_frag,
                "edge label sketch payload has wrong size");
    for (const int fr : {below, above}) {
      impl->cut[fr * impl->cut_words + j / 64] ^= std::uint64_t{1}
                                                  << (j % 64);
      xor_words(impl->sum_words.data() + fr * impl->words_per_frag,
                uniq[j]->sketch_words.data(), impl->words_per_frag);
    }
  }
  impl->init_cut_size.reserve(num_frag);
  for (int fr = 0; fr < num_frag; ++fr) {
    impl->init_cut_size.push_back(
        popcount_words(impl->cut.data() + fr * impl->cut_words,
                       impl->cut_words));
  }
  impl->loc = std::move(loc);
  if (!level_bounds.empty()) {
    FTC_REQUIRE(level_bounds.size() == num_levels,
                "level bounds inconsistent with the label hierarchy");
    impl->level_bounds.assign(level_bounds.begin(), level_bounds.end());
  }
  return impl;
}

// Decodes the outgoing edges of a fragment set from its per-level sketch
// sums: scan from the sparsest level down; the first level with a nonzero
// sketch is the top nonempty boundary, which the hierarchy guarantees to
// be decodable (Lemma 2). The level scan is a raw word scan — field
// elements only materialize (into the workspace scratch) for the one
// level that actually decodes. Fills ws.edges with endpoint
// ancestry-label pairs; empty means no outgoing edge (the component is
// complete).
template <typename F>
void decode_outgoing(const std::uint64_t* sum_row,
                     const PreparedFaults::Impl& prep,
                     const QueryOptions& options, DecoderWorkspace::Impl& ws,
                     QueryStats* stats) {
  const LabelParams& params = prep.params;
  const unsigned k = params.k;
  const std::size_t level_words =
      static_cast<std::size_t>(k) * F::kWords;
  sketch::SketchDecodeScratch<F>& scratch = workspace_scratch<F>(ws);
  ws.edges.clear();
  for (unsigned lev = params.num_levels; lev-- > 0;) {
    if (stats != nullptr) ++stats->levels_scanned;
    const std::uint64_t* lw = sum_row + lev * level_words;
    if (!any_word_nonzero(lw, level_words)) continue;
    if (stats != nullptr) ++stats->outdetect_calls;
    // A sound per-level population bound (format v2) shrinks the decode
    // capacity and its fail-stop window; 0 / missing means "use k".
    const unsigned bound =
        lev < prep.level_bounds.size() ? prep.level_bounds[lev] : 0;
    const bool decoded = sketch::decode_sketch_words<F>(
        lw, k, scratch, options.adaptive, bound, ws.decode_hint);
    if (decoded) {
      ws.decode_hint = static_cast<unsigned>(scratch.support.size());
    }
    if (!decoded) {
      throw FtcCapacityError(
          "outdetect sketch failed to decode: boundary exceeds k; rebuild "
          "with larger k (or KMode::kProvable)");
    }
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
      ws.edges.emplace_back(a, b);
    }
    return;
  }
}

// Starts a new session on `ws`: every fragment a singleton set, nothing
// closed, the heap seeded with the initial cut sizes. Bumping the epoch
// kills every materialized row of any earlier session (against this or
// any other PreparedFaults) in O(1). The word buffers are only ever
// grown; stale contents are unreachable because frag_epoch gates every
// read.
void start_session(const PreparedFaults::Impl& prep,
                   const QueryOptions& options, DecoderWorkspace::Impl& ws) {
  const std::size_t nfrag = static_cast<std::size_t>(prep.num_frag);
  ++ws.epoch;
  ws.decode_hint = 0;
  if (ws.frag_epoch.size() < nfrag) ws.frag_epoch.resize(nfrag, 0);
  if (ws.cut.size() < nfrag * prep.cut_words) {
    ws.cut.resize(nfrag * prep.cut_words);
  }
  if (ws.sum_words.size() < nfrag * prep.words_per_frag) {
    ws.sum_words.resize(nfrag * prep.words_per_frag);
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
  const std::size_t wpf = prep.words_per_frag;
  const std::size_t cut_words = prep.cut_words;
  if (stats != nullptr) stats->fragments = static_cast<unsigned>(prep.num_frag);

  const int fs = prep.loc.locate(s.anc.tin);
  const int ft = prep.loc.locate(t.anc.tin);
  if (fs == ft) return true;  // connected within T' - sigma(F) already

  if (ws.serial != prep.serial || ws.options != options) {
    start_session(prep, options, ws);
  }

  const auto materialized = [&](std::size_t fr) {
    return ws.frag_epoch[fr] == ws.epoch;
  };
  const auto cut_row = [&](std::size_t fr) -> const std::uint64_t* {
    return (materialized(fr) ? ws.cut.data() : prep.cut.data()) +
           fr * cut_words;
  };
  const auto sum_row = [&](std::size_t fr) -> const std::uint64_t* {
    return (materialized(fr) ? ws.sum_words.data() : prep.sum_words.data()) +
           fr * wpf;
  };
  const auto cut_size = [&](std::size_t fr) {
    // An unmaterialized fragment still holds its initial state.
    return materialized(fr) ? popcount_words(ws.cut.data() + fr * cut_words,
                                             cut_words)
                            : prep.init_cut_size[fr];
  };
  // Copy-on-write merge: the first mutation of `root` materializes it by
  // fusing the copy from the prepared row with the first XOR (one
  // streaming pass); later merges XOR in place.
  const auto merge_state = [&](std::size_t root, std::size_t other) {
    const std::uint64_t* oc = cut_row(other);
    const std::uint64_t* os = sum_row(other);
    if (materialized(root)) {
      xor_words(ws.cut.data() + root * cut_words, oc, cut_words);
      xor_words(ws.sum_words.data() + root * wpf, os, wpf);
    } else {
      xor_words_into(ws.cut.data() + root * cut_words,
                     prep.cut.data() + root * cut_words, oc, cut_words);
      xor_words_into(ws.sum_words.data() + root * wpf,
                     prep.sum_words.data() + root * wpf, os, wpf);
      ws.frag_epoch[root] = ws.epoch;
    }
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

    decode_outgoing<F>(sum_row(fr), prep, options, ws, stats);
    if (ws.edges.empty()) {
      ws.closed[fr] = 1;
      continue;
    }
    for (const auto& [a, b] : ws.edges) {
      const std::size_t fa = uf.find(prep.loc.locate(a.tin));
      const std::size_t fb = uf.find(prep.loc.locate(b.tin));
      if (fa == fb) continue;  // joined by an earlier edge this round
      uf.unite(fa, fb);
      const std::size_t root = uf.find(fa);
      const std::size_t other = root == fa ? fb : fa;
      merge_state(root, other);
      if (stats != nullptr) ++stats->merges;
    }
    if (options.smallest_cut_first) {
      const std::size_t root = uf.find(fr);
      ++ws.version[root];
      heap_push({cut_size(root), static_cast<int>(root), ws.version[root]});
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
  FTC_REQUIRE(faults[0].params.field_bits == 64 ||
                  faults[0].params.field_bits == 128,
              "unsupported field width in edge label");
  return PreparedFaults(prepare_any(faults, level_bounds));
}

bool PreparedFaults::empty() const { return impl_ == nullptr; }

std::size_t PreparedFaults::num_faults() const {
  return impl_ == nullptr ? 0 : impl_->nf;
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
