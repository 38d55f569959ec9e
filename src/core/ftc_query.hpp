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
// alone (dedup, fragment intervals, initial per-fragment cut bitsets and
// sketch sums) is independent of (s, t). PreparedFaults materializes it
// once — as flattened std::uint64_t arrays, since GF(2^w) addition is
// XOR — so a batch of queries against the same fault set skips that work.
// The merges are fault-set work too: in smallest-cut-first order which
// set decodes next depends only on the fault labels, and (s, t) only
// decide when to stop. So DecoderWorkspace carries its merge state
// (union-find forest, closed flags, cut heap, merged rows, decode hint)
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
// or with other options starts a new session; so does the query after
// one that threw. Merged rows are copy-on-write against
// PreparedFaults: a fragment's row is materialized into the workspace
// only when a merge first mutates it (epoch-tagged, so a new session
// invalidates all materializations in O(1)), reads of untouched fragments
// fall through to the immutable prepared arrays, and sketch decoding runs
// out of reusable scratch buffers instead of per-call allocations. One
// workspace may serve queries against any number of PreparedFaults
// objects, of either field width, in any interleaving.
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

// Immutable fault-set context: deduplicated fault edges, the fragment
// locator of T' - sigma(F), and every fragment's initial cut bitset and
// per-level sketch sums. Built once per fault set; any number of threads
// may query against the same PreparedFaults concurrently (it is only
// read after prepare()).
class PreparedFaults {
 public:
  // Validates that all fault labels come from the same scheme. An empty
  // fault set is valid (every query answers "connected").
  //
  // level_bounds, when non-empty, must have one entry per hierarchy
  // level: a SOUND upper bound on any fragment boundary's size at that
  // level (e.g. the level's total edge population, as carried by label
  // store format v2). Levels bounded below k decode and fail-stop-verify
  // against a (bound + d)/2 window instead of (k + d)/2 — same exact
  // answers, fewer field operations. An empty span means "no bounds"
  // (every level uses k).
  static PreparedFaults prepare(std::span<const EdgeLabel> faults,
                                std::span<const std::uint32_t> level_bounds = {});

  PreparedFaults(PreparedFaults&&) noexcept;
  PreparedFaults& operator=(PreparedFaults&&) noexcept;
  ~PreparedFaults();

  bool empty() const;
  std::size_t num_faults() const;  // after tree-edge dedup
  const LabelParams& params() const;

  struct Impl;

 private:
  explicit PreparedFaults(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;

  friend class FtcDecoder;
};

// Reusable per-thread scratch and session state: copy-on-write
// fragment-state rows (epoch-tagged against the PreparedFaults being
// queried), the union-find forest, closed/version flags, the merge heap
// and the sketch-decode buffers. The merge state carries over between
// queries on the same PreparedFaults with the same QueryOptions (see
// "Query sessions" above); it is keyed on the fault set's identity, so a
// new fault set at a freed one's address still starts fresh. NOT
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
