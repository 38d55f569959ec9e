// DeletionJournal: a checksummed side-file of journaled edge deletions,
// the zero-rebuild half of serving under topology churn.
//
// The paper's f-FTC semantics make this sound for free: a deleted edge
// is indistinguishable from a permanently faulty one, so as long as the
// journaled deletions plus any query's own fault set stay within the
// fault budget f the scheme was built for, every query can be answered
// from the EXISTING labels — no rebuild, no store rewrite. The journal
// is that deletion set, durably: load_scheme() replays it by attaching
// it to the returned scheme, and ConnectivityScheme::prepare_faults
// folds the journaled edges into every fault set it prepares. Past the
// budget the typed CapacityError (fault_spec.hpp) fires with the
// remaining-budget accounting — never a wrong answer.
//
// Journal file format ("FTCJRNL" frames; all integers little-endian).
// The writer emits exactly one 8-aligned frame holding the whole
// journal; readers also accept a chain of such frames, one per append,
// as builds before the one-frame writer left them:
//
//   0   u64  frame magic "FTCJRNL\0"
//   8   u64  epoch — +1 on every append that adds a deletion;
//            strictly increasing across frames, first >= 1
//   16  u64  store digest — the bound store's payload checksum (header
//            field: container offset 40, manifest v2 offset 80); every
//            frame must carry the same value, and replay refuses a
//            journal whose digest disagrees with the store it sits next
//            to (a journal never outlives a label push)
//   24  u32  fault budget f — the capacity the journal was created
//            with; every frame must agree
//   28  u32  count — edge IDs in this frame (>= 1)
//   32  u32 * count  edge IDs, strictly increasing within the frame
//       (pad with zero bytes to 8)
//   +0  u64  running digest — FNV-1a over this frame's bytes from the
//            frame start up to (not including) this field, seeded with
//            the previous frame's running digest (kFnvBasis for the
//            first frame). Truncation, reordering or any flipped bit
//            fails the first digest at or after the damage.
//
// The journal sits next to its store as "<store-path>.jrnl" (see
// journal_path_for). Every append rewrites the whole file through
// write_file_atomic — journals are bounded by f edge IDs, so the
// rewrite is trivially small and a crash never leaves a torn frame
// under the live name.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/label_store.hpp"

namespace ftc::core {

namespace store {

// "FTCJRNL\0" read as a little-endian u64.
inline constexpr std::uint64_t kJournalMagic = 0x004C4E524A435446ULL;
// Fixed frame prefix: magic, epoch, store digest, budget, count.
inline constexpr std::size_t kJournalFramePrefixBytes = 32;

}  // namespace store

// The journal sidecar path for a store artifact (single container or
// sharded manifest): "<store-path>.jrnl".
std::string journal_path_for(const std::string& store_path);

// An immutable, fully validated deletion journal. open() parses and
// verifies the whole frame chain; accessors never touch the file again.
class DeletionJournal {
 public:
  // True when a journal sidecar exists at `path` (any regular file; a
  // corrupt one still "exists" — open() is where it fails typed).
  static bool exists(const std::string& path);

  // Maps and validates every frame: magic, epoch monotonicity, digest /
  // budget consistency, strictly-increasing IDs per frame, zero
  // padding, the running-digest chain, and no trailing bytes. Throws
  // StoreError on any structural damage and CapacityError when the
  // journaled deletions already exceed the recorded budget (such a
  // journal must never serve — refusing at open is what guarantees
  // "typed error instead of wrong answers").
  static std::shared_ptr<const DeletionJournal> open(const std::string& path);

  // Records `edges` as deleted (creating the file bound to
  // store_digest/fault_budget when absent) by rewriting the journal as
  // one frame: the head epoch + 1 over the sorted union of the
  // journaled and new IDs. When nothing new remains the file is left
  // untouched (idempotent re-appends).
  // Against an existing journal, store_digest must match and
  // fault_budget must be 0 (meaning "use the journal's") or equal to
  // it. Throws CapacityError when the union would exceed the budget —
  // the journal on disk is left unchanged. Returns the epoch now at
  // the journal head.
  static std::uint64_t append(const std::string& path,
                              std::uint64_t store_digest,
                              std::uint32_t fault_budget,
                              std::span<const graph::EdgeId> edges);

  // Epoch of the newest frame.
  std::uint64_t epoch() const { return epoch_; }
  // Payload checksum of the store this journal is bound to.
  std::uint64_t store_digest() const { return store_digest_; }
  // The fault budget f recorded at creation.
  std::uint32_t fault_budget() const { return fault_budget_; }
  // Sorted, deduplicated union of every journaled deletion.
  std::span<const graph::EdgeId> deleted_edges() const { return edges_; }
  // Occupancy accounting for operators: distinct deletions used, and
  // the budget left for them plus any query's own edge faults.
  std::size_t occupancy() const { return edges_.size(); }
  std::size_t remaining() const { return fault_budget_ - edges_.size(); }
  std::size_t file_bytes() const { return file_bytes_; }

  // Binds the journal to an open store: the digest must equal the
  // store's payload checksum and every journaled ID must be a valid
  // edge of it. Throws StoreError naming store_path otherwise.
  void validate_against(const StoreInfo& info,
                        const std::string& store_path) const;

 private:
  DeletionJournal() = default;
  // open() over bytes already read from `path` (named in errors).
  static std::shared_ptr<const DeletionJournal> parse(
      const std::string& path, std::span<const std::uint8_t> bytes);

  std::uint64_t epoch_ = 0;
  std::uint64_t store_digest_ = 0;
  std::uint32_t fault_budget_ = 0;
  std::size_t file_bytes_ = 0;
  std::vector<graph::EdgeId> edges_;  // sorted, unique
};

// Replays the journal sidecar next to `store_path` onto a store-served
// scheme: when replay is on and "<store_path>.jrnl" exists, opens it,
// validates it against the scheme's backing store and attaches it (so
// prepare_faults folds the deletions into every query). Shared by
// load_scheme(path) and BatchQueryEngine::swap_store(path).
void attach_journal_sidecar(ConnectivityScheme& scheme,
                            const std::string& store_path, bool replay);

}  // namespace ftc::core
