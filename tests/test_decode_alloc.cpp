// Steady-state query decoding allocates nothing.
//
// DecoderWorkspace owns every buffer a query needs: the copy-on-write
// fragment rows, the merge heap and the sketch-decode scratch, down to
// Berlekamp-Massey's polynomials and the root finder's factor stack. So
// once one pass over a set of queries has grown those buffers, repeating
// the same queries on the same workspace must not call operator new at
// all. A workspace carries its merge state from one query of a fault set
// to the next, so repeated queries on one fault set would soon stop
// decoding; the passes therefore alternate two fault sets, and every pass
// starts a fresh session that decodes again. This file replaces the
// global operator new with a counting one to check exactly that, for
// both field widths, with fault sets whose decodes include a support of
// at least 8 edges inside the counted window.
//
// Preparing a fault set copies every fault's payload into one buffer of
// the fault set, so its allocation count must not grow with |F|: a
// per-fault std::vector anywhere on the store path would show here.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/connectivity_scheme.hpp"
#include "core/ftc_query.hpp"
#include "core/ftc_scheme.hpp"
#include "core/label_store.hpp"
#include "graph/generators.hpp"
#include "graph/spanning_tree.hpp"
#include "sketch/rs_sketch.hpp"
#include "util/common.hpp"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};
std::vector<int>* volatile g_sink = nullptr;
}  // namespace

void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ftc::core {
namespace {

using graph::EdgeId;
using graph::VertexId;

// Size of the support the decoder recovers from a fragment whose only
// boundary fault is this edge: its label's sketch at the top nonzero
// level. 0 if that level does not decode.
template <typename F>
unsigned top_level_support(const EdgeLabel& label) {
  const store::CoreEdgeLayout layout =
      store::core_edge_layout(label.params, label.level_widths);
  sketch::SketchDecodeScratch<F> scratch;
  for (unsigned lev = label.params.num_levels; lev-- > 0;) {
    const unsigned width = layout.width(lev);
    const std::size_t level_words = static_cast<std::size_t>(width) * F::kWords;
    const std::uint64_t* lw = label.sketch_words.data() + layout.offset(lev);
    if (std::all_of(lw, lw + level_words,
                    [](std::uint64_t w) { return w == 0; })) {
      continue;
    }
    if (!sketch::decode_sketch_words<F>(lw, width, scratch, true)) return 0;
    return static_cast<unsigned>(scratch.support.size());
  }
  return 0;
}

template <typename F>
void expect_steady_state_allocation_free(FieldKind field) {
  const graph::Graph g = graph::random_connected(400, 3200, 7);
  FtcConfig cfg;
  cfg.f = 16;
  cfg.field = field;
  const FtcScheme scheme = FtcScheme::build(g, cfg);
  ASSERT_EQ(scheme.params().field_bits, F::kBits);
  const graph::SpanningTree t = graph::bfs_spanning_tree(g, 0);

  // The tree edge whose lone-fault fragment decodes the largest support.
  EdgeId big = graph::kNoEdge;
  unsigned big_support = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!t.is_tree_edge[e]) continue;
    const unsigned d = top_level_support<F>(scheme.edge_label(e));
    if (d > big_support) {
      big = e;
      big_support = d;
    }
  }
  ASSERT_GE(big_support, 8u);

  // Two fault sets, each that edge plus 15 faults outside its subtree,
  // so the fragment below it keeps the edge as its only boundary fault.
  const graph::AncestryLabel big_lower = scheme.edge_label(big).lower;
  SplitMix64 rng(11);
  const auto make_faults = [&] {
    std::vector<EdgeLabel> faults{scheme.edge_label(big)};
    while (faults.size() < cfg.f) {
      const EdgeId e = static_cast<EdgeId>(rng.next_below(g.num_edges()));
      EdgeLabel label = scheme.edge_label(e);
      if (graph::is_ancestor_or_self(big_lower, label.lower)) continue;
      faults.push_back(std::move(label));
    }
    return PreparedFaults::prepare(faults);
  };
  const PreparedFaults fault_sets[2] = {make_faults(), make_faults()};

  // The first query runs from below the big cut to a vertex outside it,
  // so in source-first order a fresh session's first decode is exactly
  // that fragment's. Random pairs follow.
  const VertexId below = t.lower_endpoint(g, big);
  VertexId outside = 0;
  while (graph::is_ancestor_or_self(big_lower,
                                    scheme.vertex_label(outside).anc)) {
    ++outside;
  }
  std::vector<std::pair<VertexLabel, VertexLabel>> queries{
      {scheme.vertex_label(below), scheme.vertex_label(outside)}};
  for (int i = 0; i < 40; ++i) {
    const auto v = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    const auto w = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    queries.emplace_back(scheme.vertex_label(below), scheme.vertex_label(v));
    queries.emplace_back(scheme.vertex_label(v), scheme.vertex_label(w));
  }
  QueryOptions source_first;
  source_first.smallest_cut_first = false;

  DecoderWorkspace ws;
  QueryStats stats;
  // Fault-set passes whose first source-first query decoded; its first
  // decode is the support-of-8+ fragment's.
  unsigned big_decodes = 0;
  const auto run_all = [&] {
    std::size_t answered = 0;
    for (const PreparedFaults& prepared : fault_sets) {
      for (const QueryOptions& options : {source_first, QueryOptions{}}) {
        for (const auto& [s, u] : queries) {
          const unsigned before = stats.outdetect_calls;
          FtcDecoder::connected(s, u, prepared, ws, options, &stats);
          if (answered % queries.size() == 0 && !options.smallest_cut_first) {
            big_decodes += stats.outdetect_calls > before;
          }
          ++answered;
        }
      }
    }
    return answered;
  };
  run_all();  // warm-up: grows every workspace buffer

  stats = QueryStats{};
  big_decodes = 0;
  g_allocations.store(0);
  g_counting.store(true);
  std::size_t answered = 0;
  for (int rep = 0; rep < 3; ++rep) answered += run_all();
  g_counting.store(false);
  EXPECT_EQ(answered, 3 * 2 * 2 * queries.size());
  EXPECT_GT(stats.outdetect_calls, 0u);
  EXPECT_EQ(big_decodes, 3u * 2u);
  EXPECT_EQ(g_allocations.load(), 0u)
      << "heap allocations in " << answered << " steady-state queries";
}

TEST(DecodeAlloc, CounterSeesAllocations) {
  g_allocations.store(0);
  g_counting.store(true);
  g_sink = new std::vector<int>(100);
  g_counting.store(false);
  delete g_sink;
  EXPECT_GE(g_allocations.load(), 2u);
}

TEST(DecodeAlloc, SteadyStateQueriesAllocateNothingGF64) {
  expect_steady_state_allocation_free<gf::GF2_64>(FieldKind::kGF64);
}

TEST(DecodeAlloc, SteadyStateQueriesAllocateNothingGF128) {
  expect_steady_state_allocation_free<gf::GF2_128>(FieldKind::kGF128);
}

// Heap allocations made by one prepare_faults call on `scheme`, after a
// warm-up call on the same spec.
std::size_t prepare_allocations(const ConnectivityScheme& scheme,
                                 const FaultSpec& spec) {
  (void)scheme.prepare_faults(spec);
  g_allocations.store(0);
  g_counting.store(true);
  auto faults = scheme.prepare_faults(spec);
  g_counting.store(false);
  EXPECT_NE(faults, nullptr);
  return g_allocations.load();
}

TEST(DecodeAlloc, PrepareAllocationsDoNotGrowWithFaultCount) {
  const graph::Graph g = graph::random_connected(400, 3200, 5);
  SchemeConfig cfg;
  cfg.set_f(16);
  const std::string path = ::testing::TempDir() + "ftc_decode_alloc_" +
                           std::to_string(::getpid()) + ".ftcs";
  make_scheme(g, cfg)->save(path);
  const auto scheme = load_scheme(path);
  std::remove(path.c_str());  // the mapping stays valid
  ASSERT_TRUE(scheme->store_view()->file_backed());

  SplitMix64 rng(3);
  std::vector<EdgeId> edges;
  while (edges.size() < 16) {
    const auto e = static_cast<EdgeId>(rng.next_below(g.num_edges()));
    if (std::find(edges.begin(), edges.end(), e) == edges.end()) {
      edges.push_back(e);
    }
  }
  const FaultSpec four = FaultSpec::edges(std::span(edges).first(4));
  const FaultSpec sixteen = FaultSpec::edges(edges);
  const std::size_t with_four = prepare_allocations(*scheme, four);
  const std::size_t with_sixteen = prepare_allocations(*scheme, sixteen);
  EXPECT_GT(with_four, 0u);
  EXPECT_EQ(with_four, with_sixteen)
      << "prepare_faults allocations grow with |F|";
}

}  // namespace
}  // namespace ftc::core
