// The universal f-FTC decoder (Sections 3.1, 6 and 7.6).
//
// Given only the labels of s, t and the faulty edges — never the graph —
// the decoder rebuilds the fragment structure of T' - sigma(F), computes
// each fragment's outdetect sketch by XOR-ing fault-edge labels
// (Proposition 4), and merges fragments along decoded outgoing edges until
// s and t meet or a component closes.
//
// Two algorithmic switches reproduce the paper's ablations:
//  * adaptive   — prefix-doubling sketch decoding (Appendix B);
//  * smallest_cut_first — the refined Lemma 6 merge order (min-heap over
//    |cut| with bit-vector cut sets); disabled = the basic Section 3.1
//    source-first order.
//
// Query sessions: everything the decoder derives from the fault labels
// alone (dedup, fragment intervals, initial per-fragment cut bitsets, the
// fault payloads) is independent of (s, t). PreparedFaults materializes
// it once, so a batch of queries against the same fault set skips that
// work. It keeps each deduplicated fault's payload in one word buffer,
// clamped to what a decode can read: by the prefix property
// (Proposition 6) level l of any boundary decodes from its first
// k_b = min(k, bound_l) syndromes, so only those are kept (k without a
// bound). A fragment set's level-l sketch sum (Proposition 4) is the XOR
// of the level-l slices of the faults in its cut bitset — internal
// faults cancel — so no per-fragment sum row is stored anywhere: the
// decoder XORs the one level row it scans into workspace scratch, and
// a merge XORs only the two sets' cut bitsets.
//
// The merges are fault-set work too: in smallest-cut-first order which
// set decodes next depends only on the fault labels, and (s, t) only
// decide when to stop. So DecoderWorkspace carries its merge state
// (union-find forest, closed flags, cut rows, cut heap, decode hint)
// from one query to the next while they use the same PreparedFaults and
// the same QueryOptions. A query first answers from that state — s and t
// already merged, or one of them in a closed component — and otherwise
// continues the merge sequence where the last query stopped, finishing
// every round it starts. Each fault set's merge sequence is thus decoded
// at most once per workspace, not once per query. In smallest-cut-first
// order every answer and every FtcCapacityError equals a fresh
// workspace's. In source-first order the carried merges are still facts
// about G - F, so answers stay exact, though under KMode::kPractical the
// set of refused queries may differ. A query against another fault set
// or with other options starts a new session, which copies the
// prepared cut rows (num_fragments x ceil(|F| / 64) words); so does the
// query after one that threw. One workspace may serve queries against
// any number of PreparedFaults objects, of either field width, in any
// interleaving.
//
// Cost. Building a set's level row costs |cut| x k_b word-XORs. Every
// fault is in at most two cuts, so the open sets' cuts sum to at most
// 2|F|, and with j sets open the smallest cut is at most 2|F| / j. Each
// decode removes at least one open set (it merges or closes), so in
// smallest-cut-first order the decoded cuts of a merge sequence sum to
// at most 2|F| (1 + 1/2 + ... ) = O(|F| log |F|), and the XOR work per
// fault set is O(|F| log |F| x width). Source-first order (an ablation)
// always decodes the set holding s, whose cut can stay Theta(|F|) for
// Theta(|F|) rounds: O(|F|^2 x width).
#pragma once

#include <memory>
#include <span>

#include "core/ftc_labels.hpp"

namespace ftc::core {

struct QueryOptions {
  bool adaptive = true;
  bool smallest_cut_first = true;

  friend bool operator==(const QueryOptions&, const QueryOptions&) = default;
};

// What one connected() call did. `fragments` is set; the other counts
// are incremented by the work of this call only, so a query answered from
// a workspace's carried session state adds nothing to them.
struct QueryStats {
  unsigned fragments = 0;        // |F'| + 1 after dedup
  unsigned outdetect_calls = 0;  // sketch decode invocations
  unsigned merges = 0;           // fragment-set unions performed
  unsigned levels_scanned = 0;   // hierarchy levels inspected
};

// Immutable fault-set context: the fragment locator of T' - sigma(F),
// every fragment's initial cut bitset, and the k_b-clamped payload of
// every deduplicated fault edge. Built once per fault set; any number of
// threads may query against the same PreparedFaults concurrently (it is
// only read after prepare()).
class PreparedFaults {
 public:
  struct Impl;

  // Validates that all fault labels come from the same scheme. An empty
  // fault set is valid (every query answers "connected").
  //
  // level_bounds, when non-empty, must have one entry per hierarchy
  // level: a SOUND upper bound on any fragment boundary's size at that
  // level (e.g. the level's total edge population, as carried by label
  // store format v2). A level bounded below k keeps and decodes only
  // its first k_b = bound syndromes, and fail-stop-verifies against a
  // (k_b + d)/2 window instead of (k + d)/2 — same exact answers, less
  // memory traffic and fewer field operations. A 0 entry marks an empty
  // level, which keeps nothing and is never decoded. An empty span
  // means "no bound". The labels' own level_widths bound each level as
  // well: a label stores only what a query can read.
  static PreparedFaults prepare(std::span<const EdgeLabel> faults,
                                std::span<const std::uint32_t> level_bounds = {});

  // Assembles a fault set one fault at a time, for callers that hold
  // label bytes rather than EdgeLabels: the store-served scheme copies
  // each fault's lower endpoint and level prefixes straight out of its
  // container blob. prepare() is built on it, so both produce the same
  // fault set.
  class Builder {
   public:
    // Room for `capacity` faults. Validates the parameters and bounds
    // as prepare() does.
    Builder(const LabelParams& params,
            std::span<const std::uint32_t> level_bounds,
            std::size_t capacity);
    ~Builder();

    const LabelParams& params() const;
    // Syndromes kept of level `lev`: min(k, bound), or k unbounded
    // (store::core_edge_layout of the bounds).
    unsigned level_width(unsigned lev) const;
    // Word offset of level `lev` within a fault's payload row.
    std::size_t level_offset(unsigned lev) const;

    // Adds a fault edge by the lower endpoint of its tree edge and
    // returns its payload row for the caller to fill: at
    // level_offset(l), the first level_width(l) syndromes of the label's
    // level l, words_per_elem() host-order words each. Allocates nothing
    // (the rows are reserved up front), so the fill may run under a
    // SIGBUS guard. Duplicate edges are fine; finish() keeps one of each.
    std::uint64_t* add(const graph::AncestryLabel& lower);

    // An empty fault set if nothing was added.
    PreparedFaults finish() &&;

   private:
    std::unique_ptr<Impl> impl_;
  };

  PreparedFaults(PreparedFaults&&) noexcept;
  PreparedFaults& operator=(PreparedFaults&&) noexcept;
  ~PreparedFaults();

  bool empty() const;
  std::size_t num_faults() const;  // after tree-edge dedup
  const LabelParams& params() const;

 private:
  explicit PreparedFaults(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;

  friend class FtcDecoder;
};

// Reusable per-thread scratch and session state: the fragment sets' cut
// rows, the union-find forest, closed/version flags, the merge heap, the
// level-row scratch and the sketch-decode buffers. The merge state
// carries over between queries on the same PreparedFaults with the same
// QueryOptions (see "Query sessions" above); it is keyed on the fault
// set's identity, so a new fault set at a freed one's address still
// starts fresh. NOT
// thread-safe — give each worker thread its own workspace and reuse it
// across that thread's queries (against one or many fault sets): queries
// on one fault set then share their decodes, and all of them share the
// buffers.
class DecoderWorkspace {
 public:
  DecoderWorkspace();
  DecoderWorkspace(DecoderWorkspace&&) noexcept;
  DecoderWorkspace& operator=(DecoderWorkspace&&) noexcept;
  ~DecoderWorkspace();

  struct Impl;

 private:
  std::unique_ptr<Impl> impl_;

  friend class FtcDecoder;
};

class FtcDecoder {
 public:
  // Returns s-t connectivity in G - F. Throws FtcCapacityError if a
  // sketch fails to decode within its capacity (never happens under
  // provable parameters), std::invalid_argument on inconsistent labels.
  static bool connected(const VertexLabel& s, const VertexLabel& t,
                        std::span<const EdgeLabel> faults,
                        const QueryOptions& options = {},
                        QueryStats* stats = nullptr);

  // Session form: same answer as above, but the fault-set work is read
  // from `faults` and the scratch lives in `workspace`. This is the hot
  // path of the batch engine.
  static bool connected(const VertexLabel& s, const VertexLabel& t,
                        const PreparedFaults& faults,
                        DecoderWorkspace& workspace,
                        const QueryOptions& options = {},
                        QueryStats* stats = nullptr);
};

}  // namespace ftc::core
