#include "core/journal.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <iterator>
#include <utility>

#include "core/shard_source.hpp"
#include "core/sharded_store.hpp"
#include "util/failpoint.hpp"
#include "util/scoped_fd.hpp"

namespace ftc::core {

namespace {

using graph::EdgeId;

// Whole-file read; journals are bounded by f IDs plus frame framing, so
// slurping is the simple and correct choice (no mmap lifetime to manage).
std::vector<std::uint8_t> read_file(const std::string& path) {
  if (const int fe = FTC_FAILPOINT("journal.read")) {
    errno = fe;
    throw StoreIoError("cannot open deletion journal: " + path + " (" +
                       std::strerror(errno) + ")");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw StoreIoError("cannot open deletion journal: " + path + " (" +
                       std::strerror(errno) + ")");
  }
  std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
  if (in.bad()) {
    throw StoreIoError("cannot read deletion journal: " + path);
  }
  return bytes;
}

// Advisory exclusive lock serializing the journal's read-modify-write
// appends across processes. The lock lives on a sidecar
// "<journal>.lock" file: write_file_atomic replaces the journal's inode
// on every rewrite, so flocking the journal itself would hand two
// writers two different inodes and no exclusion.
class JournalLock {
 public:
  explicit JournalLock(const std::string& journal_path) {
    const std::string lock_path = journal_path + ".lock";
    int open_errno = 0;
    if (const int fe = FTC_FAILPOINT("journal.flock")) {
      open_errno = fe;
    } else {
      fd_.reset(::open(lock_path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC,
                       0644));
      open_errno = errno;
    }
    if (!fd_) {
      throw StoreIoError("cannot open journal lock file: " + lock_path +
                         " (" + std::strerror(open_errno) + ")");
    }
    int rc;
    do {
      rc = ::flock(fd_.get(), LOCK_EX);
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) {
      throw StoreIoError("cannot lock journal: " + lock_path + " (" +
                         std::strerror(errno) + ")");
    }
  }
  // Closing the fd releases the flock; the sidecar file stays behind
  // (unlinking it would race a third writer onto a fresh inode).

 private:
  util::ScopedFd fd_;
};

// The whole journal as one frame: `edges` sorted and unique, the
// running digest seeded with kFnvBasis.
void encode_frame(store::ByteWriter& w, std::uint64_t epoch,
                  std::uint64_t store_digest, std::uint32_t fault_budget,
                  std::span<const EdgeId> edges) {
  w.u64(store::kJournalMagic);
  w.u64(epoch);
  w.u64(store_digest);
  w.u32(fault_budget);
  w.u32(static_cast<std::uint32_t>(edges.size()));
  for (const EdgeId e : edges) w.u32(e);
  w.pad_to(8);
  w.u64(store::fnv1a(w.view(), store::kFnvBasis));
}

std::vector<EdgeId> canonical(std::span<const EdgeId> ids) {
  std::vector<EdgeId> out(ids.begin(), ids.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

std::string journal_path_for(const std::string& store_path) {
  return store_path + ".jrnl";
}

bool DeletionJournal::exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

std::shared_ptr<const DeletionJournal> DeletionJournal::open(
    const std::string& path) {
  return parse(path, read_file(path));
}

std::shared_ptr<const DeletionJournal> DeletionJournal::parse(
    const std::string& path, std::span<const std::uint8_t> bytes) {
  std::shared_ptr<DeletionJournal> j(new DeletionJournal());
  j->file_bytes_ = bytes.size();

  const auto fail = [&](const char* why) -> StoreError {
    return StoreError(std::string("corrupt deletion journal (") + why +
                      "): " + path);
  };
  if (bytes.empty()) throw fail("empty file");

  store::ByteReader r(bytes);
  std::uint64_t last_epoch = 0;
  std::uint64_t chain = store::kFnvBasis;
  while (r.remaining() > 0) {
    const std::size_t start = r.pos();
    // A tail shorter than any legal frame is truncation, not a frame.
    if (r.remaining() < store::kJournalFramePrefixBytes + 8) {
      throw fail("truncated frame");
    }
    if (r.u64() != store::kJournalMagic) throw fail("bad frame magic");
    const std::uint64_t epoch = r.u64();
    if (epoch <= last_epoch) throw fail("epoch not increasing");
    const std::uint64_t digest = r.u64();
    const std::uint32_t budget = r.u32();
    const std::uint32_t count = r.u32();
    if (budget == 0) throw fail("zero fault budget");
    if (count == 0) throw fail("empty frame");
    if (start == 0) {
      j->store_digest_ = digest;
      j->fault_budget_ = budget;
    } else if (digest != j->store_digest_) {
      throw fail("store digest differs between frames");
    } else if (budget != j->fault_budget_) {
      throw fail("fault budget differs between frames");
    }
    if (count > r.remaining() / 4) throw fail("truncated frame");
    EdgeId prev = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      const EdgeId e = static_cast<EdgeId>(r.u32());
      if (i != 0 && e <= prev) {
        throw fail("duplicate or unsorted edge IDs in frame");
      }
      prev = e;
      j->edges_.push_back(e);
    }
    while ((r.pos() - start) % 8 != 0) {
      if (r.u8() != 0) throw fail("nonzero frame padding");
    }
    const std::uint64_t expected =
        store::fnv1a(bytes.subspan(start, r.pos() - start), chain);
    if (r.remaining() < 8) throw fail("truncated frame");
    if (r.u64() != expected) throw fail("running digest mismatch");
    chain = expected;
    last_epoch = epoch;
  }
  j->epoch_ = last_epoch;

  std::sort(j->edges_.begin(), j->edges_.end());
  j->edges_.erase(std::unique(j->edges_.begin(), j->edges_.end()),
                  j->edges_.end());
  if (j->edges_.size() > j->fault_budget_) {
    throw CapacityError(
        "deletion journal over capacity: " + path, j->fault_budget_,
        j->edges_.size(), j->edges_.size());
  }
  return j;
}

std::uint64_t DeletionJournal::append(const std::string& path,
                                      std::uint64_t store_digest,
                                      std::uint32_t fault_budget,
                                      std::span<const EdgeId> edges) {
  const std::vector<EdgeId> ids = canonical(edges);
  FTC_REQUIRE(!ids.empty(), "journal append needs at least one edge ID");

  // Exclusive for the whole read-modify-write: two appenders serialized
  // here cannot drop each other's deletions.
  const JournalLock lock(path);

  std::uint64_t epoch = 0;
  std::vector<EdgeId> journaled;
  if (exists(path)) {
    const auto prior = open(path);
    if (prior->store_digest() != store_digest) {
      throw StoreError(
          "deletion journal is bound to a different store generation "
          "(digest mismatch; the journal does not survive a label push): " +
          path);
    }
    if (fault_budget != 0 && fault_budget != prior->fault_budget()) {
      throw std::invalid_argument(
          "journal fault budget cannot change after creation: " + path);
    }
    fault_budget = prior->fault_budget();
    epoch = prior->epoch();
    journaled = prior->edges_;
  } else {
    FTC_REQUIRE(fault_budget >= 1,
                "a new journal needs a positive fault budget");
  }

  // Deletions are idempotent: only distinct edges count against the
  // budget, and nothing new leaves the file untouched.
  std::vector<EdgeId> merged;
  std::set_union(journaled.begin(), journaled.end(), ids.begin(), ids.end(),
                 std::back_inserter(merged));
  if (merged.size() == journaled.size()) return epoch;
  if (merged.size() > fault_budget) {
    throw CapacityError("journal append would exceed the fault budget: " +
                            path,
                        fault_budget, journaled.size(), merged.size());
  }

  store::ByteWriter w;
  encode_frame(w, epoch + 1, store_digest, fault_budget, merged);
  store::write_file_atomic(path, w.view());
  return epoch + 1;
}

void DeletionJournal::validate_against(const StoreInfo& info,
                                       const std::string& store_path) const {
  if (store_digest_ != info.payload_checksum) {
    throw StoreError(
        "deletion journal is bound to a different store generation "
        "(digest mismatch — its deletions were journaled against the old "
        "labels; start a fresh journal after a push): " + store_path);
  }
  if (!edges_.empty() && edges_.back() >= info.num_edges) {
    throw StoreError(
        "deletion journal names unknown edge IDs (beyond the store's "
        "edge count): " + store_path);
  }
}

void attach_journal_sidecar(ConnectivityScheme& scheme,
                            const std::string& store_path, bool replay) {
  if (!replay) return;
  // A remote store's sidecar lives next to the manifest on the origin
  // ("<url>.jrnl"); fetch it into the cache and replay the local copy.
  // Validation still names the URL, and the digest binding inside the
  // journal makes a stale cached copy fail loudly rather than replay
  // against the wrong generation.
  const std::string jpath = is_http_url(store_path)
                                ? fetch_remote_journal(store_path)
                                : journal_path_for(store_path);
  if (jpath.empty() || !DeletionJournal::exists(jpath)) return;
  auto journal = DeletionJournal::open(jpath);
  journal->validate_against(scheme.store_view()->info(), store_path);
  scheme.attach_journal(std::move(journal));
}

}  // namespace ftc::core
