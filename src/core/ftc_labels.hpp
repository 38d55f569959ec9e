// The label objects of the f-FTC labeling scheme (Section 7.1/7.2).
//
// A vertex label is its T'-ancestry label (O(log n) bits). An edge label
// carries the ancestry labels of its sigma-image's endpoints in T' plus,
// per hierarchy level, the XOR (field sum) of the outdetect labels of all
// vertices in the subtree below the edge — the quantity Proposition 4
// turns into per-fragment sketch sums at query time.
//
// Labels are self-describing (they embed the scheme parameters), so the
// decoder is universal: it sees only labels, never the graph.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/ancestry.hpp"
#include "util/common.hpp"

namespace ftc::core {

struct LabelParams {
  std::uint8_t field_bits = 64;   // 64 or 128
  std::uint32_t n_aux = 0;        // |V_{G'}|: coordinate domain size
  std::uint32_t k = 0;            // sketch threshold per level
  std::uint32_t num_levels = 0;   // nonempty hierarchy levels
  std::uint8_t kind = 0;          // SchemeKind, informational

  friend bool operator==(const LabelParams&, const LabelParams&) = default;

  unsigned coord_bits() const {
    return n_aux <= 2 ? 1 : ceil_log2(n_aux);
  }
  unsigned words_per_elem() const { return field_bits / 64; }
};

struct VertexLabel {
  LabelParams params;
  graph::AncestryLabel anc;

  // Serialized size in bits (information content; the shared params header
  // is amortized and not charged per label, matching the paper's
  // accounting of per-vertex O(log n) bits).
  std::size_t size_bits() const { return 2 * params.coord_bits(); }
};

struct EdgeLabel {
  LabelParams params;
  graph::AncestryLabel upper;  // endpoint nearer the root in T'
  graph::AncestryLabel lower;  // endpoint whose subtree the edge cuts
  // Syndromes stored per hierarchy level: one entry per level, or empty
  // for k on every level. A level stores its first level_widths[l]
  // syndromes, the k_b-threshold sketch of its boundaries (Proposition
  // 6), and a query never reads past them.
  std::vector<std::uint32_t> level_widths;
  // Sketch payload: each level's stored syndromes, level-major, each as
  // words_per_elem() 64-bit words (little-endian), at the word offsets
  // store::core_edge_layout(params, level_widths) gives.
  std::vector<std::uint64_t> sketch_words;

  // Defined with the layout, in serialize.cpp.
  std::size_t size_bits() const;
};

// Thrown by the decoder when a sketch fails to decode within its capacity
// k — impossible under provable parameters, possible under aggressive
// practical ones. A refusal instead of a silently wrong answer is exact
// only while every boundary the decoder meets has at most about 2k
// edges (the syndromes' code distance is 2k + 1); past that a level sum
// can alias and the answer can be wrong undetected. The practical k is
// floored at 4; only FtcConfig::k_override goes lower (config.hpp).
class FtcCapacityError : public std::runtime_error {
 public:
  explicit FtcCapacityError(const std::string& what)
      : std::runtime_error(what) {}
};

}  // namespace ftc::core
