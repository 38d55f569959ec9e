// Configuration of the f-FTC labeling schemes (Theorem 1 variants).
#pragma once

#include <cstdint>

#include "geometry/hierarchy.hpp"

namespace ftc::core {

// Which sparsification hierarchy drives the scheme (Table 1 rows):
//  kDeterministic — NetFind epsilon-net (this paper, deterministic, full
//                   query support; near-linear construction).
//  kDeterministicGreedy — greedy-net hierarchy (the poly(n) Lemma 10 slot;
//                   small instances only).
//  kRandomized    — random halving (Prop. 5): the paper's randomized
//                   full-support variant, competitive with Dory-Parter.
enum class SchemeKind : std::uint8_t {
  kDeterministic = 0,
  kDeterministicGreedy = 1,
  kRandomized = 2,
};

// How the sketch threshold k is chosen.
//  kProvable  — the worst-case bound (Lemma 5 / Prop. 5 formulas). Label
//               sizes match the theorems' constants; practical only for
//               small graphs.
//  kPractical — k = max(4, floor(k_scale * (f + 1) * ceil(log2 n'))). The
//               decoder answers correctly or refuses (FtcCapacityError)
//               only while every cut boundary it decodes has at most
//               about 2k edges: a level stores k odd-power syndromes, a
//               code of distance 2k + 1, so a wider boundary can alias
//               to an empty sum or to a plausible single edge and give
//               a wrong answer. resolve_k floors this k at 4; only
//               k_override goes below, and at k = 1 wrong answers have
//               been found. `bench_tables k_tradeoff` measures the
//               refusal rate against k.
enum class KMode : std::uint8_t {
  kProvable = 0,
  kPractical = 1,
};

enum class FieldKind : std::uint8_t {
  kAuto = 0,   // GF(2^64) when the auxiliary graph fits, else GF(2^128)
  kGF64 = 1,   // auxiliary graphs up to 2^16 - 1 vertices
  kGF128 = 2,  // auxiliary graphs up to 2^32 - 1 vertices
};

// Which labeling construction backs the ConnectivityScheme interface
// (connectivity_scheme.hpp). All three share the auxiliary-graph /
// fragment-merging framework but differ in the outdetect engine:
//  kCoreFtc        — this paper's FtcScheme (ftc_scheme.*): deterministic
//                    RS-sketch hierarchy, variant selected by SchemeKind.
//  kDp21CycleSpace — Dory-Parter first scheme (dp21/cycle_space_ftc.*):
//                    cycle-space sampling, smallest labels, whp.
//  kDp21Agm        — Dory-Parter second scheme (dp21/agm_ftc.*): AGM
//                    l0-sampler sketches, whp.
enum class BackendKind : std::uint8_t {
  kCoreFtc = 0,
  kDp21CycleSpace = 1,
  kDp21Agm = 2,
};

inline constexpr BackendKind kAllBackends[] = {
    BackendKind::kCoreFtc,
    BackendKind::kDp21CycleSpace,
    BackendKind::kDp21Agm,
};

constexpr const char* backend_name(BackendKind b) {
  switch (b) {
    case BackendKind::kCoreFtc:
      return "core-ftc";
    case BackendKind::kDp21CycleSpace:
      return "dp21-cycle";
    case BackendKind::kDp21Agm:
      return "dp21-agm";
  }
  return "unknown";
}

struct FtcConfig {
  unsigned f = 2;  // maximum number of faulty edges supported
  SchemeKind kind = SchemeKind::kDeterministic;
  KMode k_mode = KMode::kPractical;
  double k_scale = 4.0;      // multiplier for the practical k
  // Nonzero: use exactly this k, bypassing the floor of 4. "Correct or
  // a refusal" then holds only while the decoded boundaries stay within
  // about 2k edges (see KMode::kPractical); k = 1 has answered wrong.
  unsigned k_override = 0;
  std::uint64_t seed = 1;    // randomized hierarchy seed
  FieldKind field = FieldKind::kAuto;
  // Build worker threads, at least 1. Any value produces byte-identical
  // labels; this is purely a wall-clock knob.
  unsigned build_threads = 1;
};

}  // namespace ftc::core
