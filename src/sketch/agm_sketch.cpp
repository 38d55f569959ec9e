#include "sketch/agm_sketch.hpp"

#include "util/common.hpp"
#include "util/xor_kernel.hpp"

namespace ftc::sketch {

AgmSketch::AgmSketch(unsigned levels, unsigned reps, std::uint64_t seed)
    : levels_(levels), reps_(reps), seed_(seed) {
  FTC_REQUIRE(levels >= 1 && reps >= 1, "AgmSketch needs levels, reps >= 1");
  words_.assign(static_cast<std::size_t>(levels_) * reps_ * 3, 0);
}

std::uint64_t AgmSketch::item_hash(const PackedId& id, unsigned rep,
                                   std::uint64_t seed) {
  return mix_hash(id.lo ^ (id.hi * 0x9e3779b97f4a7c15ULL),
                  seed + 0x1000003 * (rep + 1));
}

std::uint64_t AgmSketch::fingerprint(std::uint64_t lo, std::uint64_t hi,
                                     std::uint64_t seed) {
  return mix_hash(lo + 0x6a09e667f3bcc909ULL * hi, seed ^ 0xdeadbeefULL);
}

void AgmSketch::toggle(const PackedId& id) {
  FTC_REQUIRE(!id.is_zero(), "sketch items must be nonzero");
  const std::uint64_t f = fingerprint(id.lo, id.hi, seed_);
  for (unsigned r = 0; r < reps_; ++r) {
    std::uint64_t* c = words_.data() + cell_offset(id, r, levels_, seed_);
    c[0] ^= id.lo;
    c[1] ^= id.hi;
    c[2] ^= f;
  }
}

std::size_t AgmSketch::cell_offset(const PackedId& id, unsigned rep,
                                   unsigned levels, std::uint64_t seed) {
  const std::uint64_t h = item_hash(id, rep, seed);
  unsigned level = h == 0 ? 63u : static_cast<unsigned>(__builtin_ctzll(h));
  if (level >= levels) level = levels - 1;
  return 3 * (static_cast<std::size_t>(rep) * levels + level);
}

void AgmSketch::merge(const AgmSketch& o) {
  FTC_REQUIRE(levels_ == o.levels_ && reps_ == o.reps_ && seed_ == o.seed_,
              "merging incompatible AGM sketches");
  // Every cell field is XOR-additive, so the whole sketch merges as one
  // flat word-XOR kernel call (shared with the core decoder's fragment
  // merges, util/xor_kernel.hpp).
  xor_words(words_.data(), o.words_.data(), words_.size());
}

std::optional<PackedId> AgmSketch::sample() const {
  return sample_words(words_, seed_);
}

std::optional<PackedId> AgmSketch::sample_words(
    std::span<const std::uint64_t> words, std::uint64_t seed) {
  for (std::size_t i = 0; i + 2 < words.size(); i += 3) {
    const std::uint64_t id_lo = words[i];
    const std::uint64_t id_hi = words[i + 1];
    const std::uint64_t fp = words[i + 2];
    if (id_lo == 0 && id_hi == 0 && fp == 0) continue;
    if (fp == fingerprint(id_lo, id_hi, seed)) {
      return PackedId{id_lo, id_hi};
    }
  }
  return std::nullopt;
}

bool AgmSketch::looks_empty() const {
  return !any_word_nonzero(words_.data(), words_.size());
}

}  // namespace ftc::sketch
