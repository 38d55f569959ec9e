// ShardSource: the transport abstraction behind remote shard serving.
//
// A sharded label store is a manifest plus K verbatim container files
// (sharded_store.hpp); nothing about serving it requires those files to
// start out on the serving box. A ShardSource is "somewhere shard bytes
// can be fetched from by name": the local directory next to a manifest
// (refactored out of the path-concatenation opens the sharded view used
// to do inline), or an HTTP/1.1 server reached over a plain POSIX
// socket — no libcurl, no new dependencies. RemoteStoreView pulls
// shards through a ShardSource into the digest-verified local cache
// (shard_cache.hpp) and serves them from mmap exactly like a local
// store.
//
// Error taxonomy mirrors the store layer's: transport failures that a
// retry can plausibly cure (connect/read/timeouts/5xx, short bodies)
// throw StoreIoError and flow into the RetryPolicy machinery;
// structural failures (object not found, malformed responses that
// re-reading cannot fix) throw plain StoreError and never retry.
//
// Fault-injection sites (util/failpoint.hpp), for the torture suite and
// the CI remote leg:
//   remote.connect     connect() to the origin fails with the errno
//   remote.read        a socket read fails with the errno
//   remote.short_body  the response body is cut short (transfer
//                      truncated mid-flight)
//   remote.digest      (in shard_cache.cpp) the fetched payload digest
//                      disagrees with the manifest record
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/label_store.hpp"

namespace ftc::core {

// True for paths the store layer routes to the remote tier
// ("http://host[:port]/path/manifest.ftcm").
inline bool is_http_url(const std::string& path) {
  return path.rfind("http://", 0) == 0;
}

// The error a fetch throws for an object whose size is not the expected
// one (a shard's manifest size, or the size a HEAD just reported): the
// retryable StoreIoError, since the origin may be mid-republish.
StoreIoError size_mismatch(std::uint64_t got, std::uint64_t expected,
                           const std::string& where);

// A fetch-by-name byte source. Names are the manifest's shard names:
// relative paths, already validated traversal-free by the manifest
// reader. Implementations are immutable after construction and safe to
// share across threads (prefetch fans fetches out).
class ShardSource {
 public:
  virtual ~ShardSource() = default;
  ShardSource(const ShardSource&) = delete;
  ShardSource& operator=(const ShardSource&) = delete;

  // The whole object. Throws StoreIoError (transient) / StoreError
  // (structural, including "not found"). Objects are only ever fetched
  // whole: the cache checks each one against the manifest's size and
  // CRC-64 digest, which a byte range could not be checked against.
  // With expected_bytes (a shard's manifest size), an object of any
  // other size throws size_mismatch() and no more than about that many
  // bytes are ever buffered. Overrides repeat the default.
  virtual std::vector<std::uint8_t> fetch(
      const std::string& name,
      std::optional<std::uint64_t> expected_bytes = std::nullopt) const = 0;

  // Size probe. Returns false when the object does not exist; throws
  // StoreIoError on transport failure.
  virtual bool stat(const std::string& name, std::uint64_t* size_out) const = 0;

  // Human-readable location of `name` for error messages and logs.
  virtual std::string describe(const std::string& name) const = 0;

 protected:
  ShardSource() = default;
};

// The local-directory source: fetch-by-name over plain file reads from
// one directory, behind the interface the HTTP source implements. No
// serving path uses it: ShardedStoreView opens shard files directly, and
// ftc_store serve (shard_server.hpp) streams each response from an open
// descriptor. It lets the ShardCache tests stage shards without a
// server.
class LocalDirShardSource final : public ShardSource {
 public:
  // dir: directory the names resolve under ("" = current directory; a
  // trailing slash is appended when missing).
  explicit LocalDirShardSource(std::string dir);

  std::vector<std::uint8_t> fetch(
      const std::string& name,
      std::optional<std::uint64_t> expected_bytes = std::nullopt) const override;
  bool stat(const std::string& name, std::uint64_t* size_out) const override;
  std::string describe(const std::string& name) const override;

  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;  // includes the trailing slash ("" = cwd)
};

// A parsed "http://host[:port]/dir/object" URL. `dir` keeps the leading
// and trailing slash ("/" for a root-level object); `object` is the
// last path segment (the manifest file name, typically).
struct HttpEndpoint {
  std::string host;
  std::uint16_t port = 80;
  std::string dir;
  std::string object;
};

// Parses an http:// URL into its endpoint parts. Returns false (leaving
// *out untouched) for anything malformed: wrong scheme, empty host, a
// port that is not a decimal in [1, 65535], or an empty object segment.
bool parse_http_url(const std::string& url, HttpEndpoint* out);

// The HTTP/1.1 client source: one short-lived loopback-friendly TCP
// connection per request (Connection: close — keep-alive buys nothing
// for shard-sized transfers and keeps the client stateless, hence
// thread-safe), GET for fetch, HEAD for stat. Built on
// socket(2)/connect(2)/send(2)/recv(2) only. Content-Length is parsed
// strictly (util::parse_decimal_u64): a malformed or overflowing value
// is a StoreError, and the body buffer grows with the bytes that
// actually arrive, never with what the origin announces. A body longer
// than its Content-Length is a StoreError too (the origin is wrong, not
// flaky); a shorter one is a retryable StoreIoError.
class HttpShardSource final : public ShardSource {
 public:
  // Objects resolve as "http://host:port<dir><name>".
  HttpShardSource(std::string host, std::uint16_t port, std::string dir);

  std::vector<std::uint8_t> fetch(
      const std::string& name,
      std::optional<std::uint64_t> expected_bytes = std::nullopt) const override;
  bool stat(const std::string& name, std::uint64_t* size_out) const override;
  std::string describe(const std::string& name) const override;

 private:
  struct Response {
    int status = 0;
    std::uint64_t content_length = 0;
    bool has_content_length = false;
    std::vector<std::uint8_t> body;
  };
  // One request/response round trip. want_body=false (HEAD) or a status
  // other than 200 stops after the headers; a body past expected_bytes
  // stops the read.
  Response round_trip(const std::string& name, const char* method,
                      bool want_body,
                      std::optional<std::uint64_t> expected_bytes) const;

  std::string host_;
  std::uint16_t port_;
  std::string dir_;  // leading and trailing slash
};

}  // namespace ftc::core
