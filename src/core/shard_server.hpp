// ShardHttpServer: a minimal HTTP/1.1 static file server for shard
// directories — the origin half of the remote tier, built (like the
// client in shard_source.hpp) on plain POSIX sockets with no new
// dependencies.
//
// It exists for two callers: `ftc_store serve <dir> --port N` (a
// self-contained demo/e2e origin), and in-process tests/benches that
// need a loopback origin without forking. It binds 127.0.0.1 ONLY —
// this is a test and intranet-demo origin, not a hardened edge server;
// production serving belongs behind a real static file server, which
// works just as well because the protocol surface the client needs is
// exactly GET/HEAD + Content-Length: shards are always fetched whole,
// so no Range support is needed on either side.
//
// Supported: GET and HEAD (200 with the whole object; a Range header is
// ignored, which RFC 9110 permits), 404 for absent objects, keep-alive
// with `Connection: close` honored. The request parser reads no
// numbers. Object names resolve under the served directory with the
// same traversal rules as manifest shard names (no "..", no absolute
// paths).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace ftc::core {

class ShardHttpServer {
 public:
  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t not_found = 0;
    std::uint64_t bytes_sent = 0;
  };

  // Serves files under `dir`. port == 0 picks an ephemeral port
  // (read it back with port() after start()).
  explicit ShardHttpServer(std::string dir, std::uint16_t port = 0);
  ~ShardHttpServer();

  ShardHttpServer(const ShardHttpServer&) = delete;
  ShardHttpServer& operator=(const ShardHttpServer&) = delete;

  // Binds, listens and starts the accept thread. Throws StoreIoError
  // when the port cannot be bound.
  void start();
  // Stops accepting, closes live connections and joins all threads.
  // Idempotent; also called by the destructor.
  void stop();

  std::uint16_t port() const { return port_; }
  // "http://127.0.0.1:<port>/" — prepend to an object name or pass a
  // "<base_url><manifest name>" URL straight to open_store_view.
  std::string base_url() const;

  Stats stats() const;

 private:
  void accept_loop();
  void serve_connection(int fd);

  std::string dir_;  // includes trailing slash
  std::uint16_t port_;

  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::atomic<bool> running_{false};

  mutable std::mutex mu_;  // guards conn_threads_, conn_fds_, stats_
  std::vector<std::thread> conn_threads_;
  std::vector<int> conn_fds_;
  Stats stats_;
};

}  // namespace ftc::core
