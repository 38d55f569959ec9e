#include "core/shard_cache.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/digest.hpp"
#include "util/failpoint.hpp"

namespace ftc::core {

namespace {

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

// mkdir -p, restricted to the absolute/relative prefixes of `dir`.
void make_dirs(const std::string& dir) {
  std::string prefix;
  std::size_t pos = 0;
  while (pos <= dir.size()) {
    std::size_t next = dir.find('/', pos);
    if (next == std::string::npos) next = dir.size();
    prefix = dir.substr(0, next);
    if (!prefix.empty() && ::mkdir(prefix.c_str(), 0755) != 0 &&
        errno != EEXIST) {
      throw StoreIoError("shard cache mkdir failed: " + prefix + ": " +
                         std::strerror(errno));
    }
    pos = next + 1;
  }
}

constexpr const char kShardPrefix[] = "shard-";
constexpr const char kShardSuffix[] = ".ftcs";

}  // namespace

std::string ShardCache::shard_key(const store::ShardRecord& rec) {
  return kShardPrefix + hex16(rec.payload_digest) + "-" +
         std::to_string(rec.file_bytes) + kShardSuffix;
}

ShardCache::ShardCache(std::string dir, std::uint64_t max_bytes)
    : dir_(std::move(dir)), max_bytes_(max_bytes) {
  if (dir_.empty()) dir_ = ".";
  if (dir_.back() != '/') dir_ += '/';
  make_dirs(dir_.substr(0, dir_.size() - 1));

  // Adopt shard files a previous process left behind, oldest access
  // first so they evict before anything this process fetches.
  struct Found {
    std::string key;
    std::uint64_t bytes;
    struct timespec atime;
  };
  std::vector<Found> found;
  if (DIR* d = ::opendir(dir_.c_str())) {
    while (const struct dirent* ent = ::readdir(d)) {
      const std::string key = ent->d_name;
      if (key.rfind(kShardPrefix, 0) != 0) continue;
      if (key.size() < sizeof(kShardSuffix) ||
          key.compare(key.size() - (sizeof(kShardSuffix) - 1),
                      sizeof(kShardSuffix) - 1, kShardSuffix) != 0) {
        continue;
      }
      struct stat st {};
      if (::stat((dir_ + key).c_str(), &st) != 0 || !S_ISREG(st.st_mode)) {
        continue;
      }
      found.push_back({key, static_cast<std::uint64_t>(st.st_size), st.st_atim});
    }
    ::closedir(d);
  }
  std::sort(found.begin(), found.end(), [](const Found& a, const Found& b) {
    if (a.atime.tv_sec != b.atime.tv_sec) return a.atime.tv_sec < b.atime.tv_sec;
    return a.atime.tv_nsec < b.atime.tv_nsec;
  });
  for (auto& f : found) {
    lru_.push_back({f.key, f.bytes});
    index_.emplace(f.key, std::prev(lru_.end()));
    resident_bytes_ += f.bytes;
  }
}

void ShardCache::touch_locked(
    std::unordered_map<std::string, LruList::iterator>::iterator it) {
  lru_.splice(lru_.end(), lru_, it->second);
  it->second = std::prev(lru_.end());
  // Bump the on-disk timestamps so a future process's startup rescan
  // reconstructs the same LRU order.
  ::utimensat(AT_FDCWD, (dir_ + it->first).c_str(), nullptr, 0);
}

void ShardCache::evict_locked(const std::string& keep) {
  if (max_bytes_ == 0) return;
  auto it = lru_.begin();
  while (resident_bytes_ > max_bytes_ && it != lru_.end()) {
    if (it->key == keep) {
      ++it;
      continue;
    }
    // Unlink-under-mmap is safe: a view serving this shard keeps the
    // bytes alive through its mapping; only the directory entry dies.
    ::unlink((dir_ + it->key).c_str());
    resident_bytes_ -= it->bytes;
    counters_.evictions += 1;
    counters_.bytes_evicted += it->bytes;
    index_.erase(it->key);
    it = lru_.erase(it);
  }
}

bool ShardCache::contains(std::uint64_t payload_digest,
                          std::uint64_t file_bytes) const {
  const std::string key = kShardPrefix + hex16(payload_digest) + "-" +
                          std::to_string(file_bytes) + kShardSuffix;
  std::lock_guard<std::mutex> lock(mu_);
  return index_.count(key) != 0;
}

ShardCacheStats ShardCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ShardCacheStats out = counters_;
  out.bytes_resident = resident_bytes_;
  out.entries = lru_.size();
  return out;
}

std::string ShardCache::fetch_shard(const ShardSource& source,
                                    const store::ShardRecord& rec) {
  const std::string key = shard_key(rec);
  const std::string path = dir_ + key;

  {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      const auto it = index_.find(key);
      if (it != index_.end()) {
        counters_.hits += 1;
        touch_locked(it);
        return path;
      }
      if (inflight_.count(key) == 0) break;
      // Another thread is fetching these exact bytes; one transfer
      // serves everyone.
      inflight_cv_.wait(lock);
    }
    inflight_.insert(key);
  }

  // Transfer and verify outside the lock — other keys keep flowing.
  std::vector<std::uint8_t> bytes;
  try {
    bytes = source.fetch(rec.name);
    if (bytes.size() != rec.file_bytes) {
      throw StoreIoError("remote shard size mismatch (got " +
                         std::to_string(bytes.size()) + ", manifest says " +
                         std::to_string(rec.file_bytes) + "): " +
                         source.describe(rec.name));
    }
    // The digest algorithm follows the fetched container's own format
    // version (header offset 8); a corrupt version field either picks
    // the wrong digest (a mismatch below) or fails the open later.
    std::uint64_t digest =
        bytes.size() >= store::kHeaderBytes
            ? store::payload_digest(
                  util::read_u32_le(bytes.data() + 8),
                  std::span<const std::uint8_t>(bytes).subspan(
                      store::kHeaderBytes))
            : 0;
    if (FTC_FAILPOINT("remote.digest") != 0) digest = ~digest;
    if (digest != rec.payload_digest) {
      // Transient by policy: the origin may be mid-republish; a retry
      // can land on a consistent copy. Persistent mismatch exhausts
      // the retry budget and quarantines the shard.
      throw StoreIoError("remote shard digest mismatch: " +
                         source.describe(rec.name));
    }
    store::write_file_atomic(path, bytes);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_.erase(key);
    inflight_cv_.notify_all();
    throw;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_.erase(key);
    inflight_cv_.notify_all();
    if (index_.count(key) == 0) {
      lru_.push_back({key, rec.file_bytes});
      index_.emplace(key, std::prev(lru_.end()));
      resident_bytes_ += rec.file_bytes;
    }
    counters_.misses += 1;
    counters_.bytes_fetched += bytes.size();
    evict_locked(key);
  }
  return path;
}

std::string ShardCache::put_blob(const std::string& stem,
                                 std::span<const std::uint8_t> bytes) {
  const std::string key =
      stem + "-" + hex16(util::fnv1a(bytes)) + "-" +
      std::to_string(bytes.size()) + ".blob";
  const std::string path = dir_ + key;
  struct stat st {};
  if (::stat(path.c_str(), &st) == 0 &&
      static_cast<std::uint64_t>(st.st_size) == bytes.size()) {
    return path;  // content-addressed: same key means same bytes
  }
  store::write_file_atomic(path, bytes);
  return path;
}

// ---------------------------------------------------------------------------
// Process-wide default cache.

namespace {

std::mutex g_default_cache_mu;
std::shared_ptr<ShardCache> g_default_cache;

std::uint64_t parse_bytes_env(const char* value, std::uint64_t fallback) {
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(value, &end, 10);
  if (errno != 0 || end == value || *end != '\0') return fallback;
  return static_cast<std::uint64_t>(v);
}

}  // namespace

std::shared_ptr<ShardCache> default_remote_cache() {
  std::lock_guard<std::mutex> lock(g_default_cache_mu);
  if (!g_default_cache) {
    std::string dir;
    if (const char* env = std::getenv("FTC_CACHE_DIR"); env && *env) {
      dir = env;
    } else {
      const char* tmp = std::getenv("TMPDIR");
      dir = (tmp && *tmp) ? tmp : "/tmp";
      if (dir.back() != '/') dir += '/';
      dir += "ftc-shard-cache-" + std::to_string(::getuid());
    }
    const std::uint64_t budget = parse_bytes_env(
        std::getenv("FTC_CACHE_BYTES"), std::uint64_t{256} << 20);
    g_default_cache = std::make_shared<ShardCache>(dir, budget);
  }
  return g_default_cache;
}

std::shared_ptr<ShardCache> set_default_remote_cache(
    std::shared_ptr<ShardCache> cache) {
  std::lock_guard<std::mutex> lock(g_default_cache_mu);
  g_default_cache.swap(cache);
  return cache;
}

}  // namespace ftc::core
