// Randomized l0-sampler sketch in the style of Ahn-Guha-McGregor (AGM'12),
// the randomized technique the paper de-randomizes (Section 4.1).
//
// Serves as the engine of the Dory-Parter second scheme baseline
// (src/dp21/agm_ftc.*): each cell of the sketch is a 1-sparse recovery
// unit (XOR of IDs + XOR of fingerprints); items are subsampled
// geometrically per level, and independent repetitions drive the failure
// probability down. Guarantees are "with high probability", in contrast
// to the deterministic RsSketch.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace ftc::sketch {

// 128-bit opaque item identifier (edge IDs packed from ancestry labels).
struct PackedId {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  bool is_zero() const { return lo == 0 && hi == 0; }
  friend bool operator==(const PackedId&, const PackedId&) = default;
  friend auto operator<=>(const PackedId&, const PackedId&) = default;
};

class AgmSketch {
 public:
  AgmSketch() = default;
  // levels: geometric subsampling depth (>= log2 of universe size in use);
  // reps: independent repetitions; seed: shared across all sketches that
  // are to be merged with one another.
  AgmSketch(unsigned levels, unsigned reps, std::uint64_t seed);

  void toggle(const PackedId& id);
  void merge(const AgmSketch& o);

  // What toggle(id) does to repetition `rep` of a sketch of `levels`
  // levels, without materializing an AgmSketch (the dp21 builder folds
  // sketches in place in its label blobs): it XORs (id.lo, id.hi,
  // fingerprint(id.lo, id.hi, seed)) into the three words at this offset
  // of the layout below.
  static std::size_t cell_offset(const PackedId& id, unsigned rep,
                                 unsigned levels, std::uint64_t seed);
  static std::uint64_t fingerprint(std::uint64_t lo, std::uint64_t hi,
                                   std::uint64_t seed);

  // Attempts to return some element of the sketched set. Fails (whp only
  // if the set is empty; with small probability also on nonempty sets or
  // returns a bogus ID on adversarial collisions — callers may verify).
  std::optional<PackedId> sample() const;

  // True iff every cell is zero; whp equivalent to the set being empty.
  bool looks_empty() const;

  std::size_t size_bits() const { return words_.size() * 64; }
  unsigned levels() const { return levels_; }
  unsigned reps() const { return reps_; }
  std::uint64_t seed() const { return seed_; }

  // sample() over a raw cell array (3 u64 per cell, words_ below)
  // without materializing an AgmSketch — the dp21 query workspace keeps
  // per-fragment sketches as flat word rows and samples them in place.
  static std::optional<PackedId> sample_words(
      std::span<const std::uint64_t> words, std::uint64_t seed);

 private:
  static std::uint64_t item_hash(const PackedId& id, unsigned rep,
                                 std::uint64_t seed);

  unsigned levels_ = 0;
  unsigned reps_ = 0;
  std::uint64_t seed_ = 0;
  // reps_ x levels_ cells, row-major by rep, 3 words per cell:
  // words_[3 * (rep * levels_ + level) + {0, 1, 2}] = id_lo, id_hi, fp.
  // A flat word array, so merge() is one word-XOR kernel call; a
  // dp21-agm edge blob stores the same words.
  std::vector<std::uint64_t> words_;
};

}  // namespace ftc::sketch
