#include "core/shard_server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstring>
#include <sstream>

#include "core/label_store.hpp"
#include "util/common.hpp"
#include "util/scoped_fd.hpp"

namespace ftc::core {

namespace {

// Same traversal discipline as manifest shard names: reject anything
// that could escape the served directory.
bool safe_object_name(const std::string& name) {
  if (name.empty() || name.front() == '/') return false;
  if (name.find('\0') != std::string::npos) return false;
  std::size_t pos = 0;
  while (pos <= name.size()) {
    std::size_t next = name.find('/', pos);
    if (next == std::string::npos) next = name.size();
    const std::string_view seg(name.data() + pos, next - pos);
    if (seg.empty() || seg == "." || seg == "..") return false;
    pos = next + 1;
  }
  return true;
}

bool send_all(int fd, const char* data, std::size_t len) {
  std::size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

struct Request {
  std::string method;
  std::string target;
  bool close = false;
};

// Reads and parses one request's head. Returns false on EOF or a
// malformed request (caller closes the connection either way).
bool read_request(int fd, std::string* carry, Request* out) {
  std::string& head = *carry;
  std::size_t end;
  while ((end = head.find("\r\n\r\n")) == std::string::npos) {
    char buf[4096];
    ssize_t n;
    do {
      n = ::recv(fd, buf, sizeof(buf), 0);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return false;
    head.append(buf, static_cast<std::size_t>(n));
    if (head.size() > 64 * 1024) return false;
  }

  Request req;
  const std::size_t line_end = head.find("\r\n");
  {
    const std::string line = head.substr(0, line_end);
    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 = line.rfind(' ');
    if (sp1 == std::string::npos || sp2 <= sp1) return false;
    req.method = line.substr(0, sp1);
    req.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    if (line.compare(sp2 + 1, std::string::npos, "HTTP/1.1") != 0 &&
        line.compare(sp2 + 1, std::string::npos, "HTTP/1.0") != 0) {
      return false;
    }
  }
  std::size_t pos = line_end + 2;
  while (pos < end) {
    const std::size_t eol = head.find("\r\n", pos);
    const std::size_t colon = head.find(':', pos);
    if (colon != std::string::npos && colon < eol) {
      std::string key = head.substr(pos, colon - pos);
      for (char& c : key) c = static_cast<char>(std::tolower(c));
      if (key == "connection") {
        std::size_t v = colon + 1;
        while (v < eol && head[v] == ' ') ++v;
        std::string value = head.substr(v, eol - v);
        for (char& c : value) c = static_cast<char>(std::tolower(c));
        if (value == "close") req.close = true;
      }
    }
    pos = eol + 2;
  }

  head.erase(0, end + 4);
  *out = std::move(req);
  return true;
}

}  // namespace

ShardHttpServer::ShardHttpServer(std::string dir, std::uint16_t port)
    : dir_(std::move(dir)), port_(port) {
  if (dir_.empty()) dir_ = ".";
  if (dir_.back() != '/') dir_ += '/';
}

ShardHttpServer::~ShardHttpServer() { stop(); }

std::string ShardHttpServer::base_url() const {
  return "http://127.0.0.1:" + std::to_string(port_) + "/";
}

ShardHttpServer::Stats ShardHttpServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void ShardHttpServer::start() {
  FTC_CHECK(!running_.load(), "server already started");
  util::ScopedFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd) {
    throw StoreIoError(std::string("serve: socket failed: ") +
                       std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port_);
  if (::bind(fd.get(), reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw StoreIoError("serve: bind to 127.0.0.1:" + std::to_string(port_) +
                       " failed: " + std::strerror(errno));
  }
  if (::listen(fd.get(), 64) != 0) {
    throw StoreIoError(std::string("serve: listen failed: ") +
                       std::strerror(errno));
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd.get(), reinterpret_cast<struct sockaddr*>(&addr),
                    &addr_len) != 0) {
    throw StoreIoError(std::string("serve: getsockname failed: ") +
                       std::strerror(errno));
  }
  port_ = ntohs(addr.sin_port);

  listen_fd_ = fd.release();
  running_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void ShardHttpServer::stop() {
  if (!running_.exchange(false)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  // Unblock accept() with a shutdown, then close. Connection threads
  // are unblocked the same way; each closes its own fd under mu_ on
  // the way out, so a slot that is still >= 0 here is still open.
  ::shutdown(listen_fd_, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const int fd : conn_fds_) {
      if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
    }
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    threads.swap(conn_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void ShardHttpServer::accept_loop() {
  while (running_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (!running_.load()) break;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_.load()) {
      ::close(fd);
      break;
    }
    // Reap finished connections so a long-lived server does not
    // accumulate joinable threads (a finished thread has set its fd
    // slot to -1 and is about to return, so join() is instant).
    for (std::size_t i = 0; i < conn_fds_.size();) {
      if (conn_fds_[i] < 0) {
        if (conn_threads_[i].joinable()) conn_threads_[i].join();
        conn_fds_.erase(conn_fds_.begin() + static_cast<std::ptrdiff_t>(i));
        conn_threads_.erase(conn_threads_.begin() +
                            static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    const std::size_t slot = conn_fds_.size();
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd, slot] {
      serve_connection(fd);
      std::lock_guard<std::mutex> inner(mu_);
      ::close(fd);
      if (slot < conn_fds_.size() && conn_fds_[slot] == fd) {
        conn_fds_[slot] = -1;
      } else {
        // Reaping shifted the slots; find the fd by value.
        for (int& f : conn_fds_) {
          if (f == fd) {
            f = -1;
            break;
          }
        }
      }
    });
  }
}

void ShardHttpServer::serve_connection(int fd) {
  std::string carry;
  for (;;) {
    Request req;
    if (!read_request(fd, &carry, &req)) return;

    const bool is_head = req.method == "HEAD";
    if (!is_head && req.method != "GET") {
      const char resp[] =
          "HTTP/1.1 405 Method Not Allowed\r\nContent-Length: 0\r\n"
          "Connection: close\r\n\r\n";
      send_all(fd, resp, sizeof(resp) - 1);
      return;
    }

    std::string name = req.target;
    if (!name.empty() && name.front() == '/') name.erase(0, 1);
    const std::size_t query = name.find('?');
    if (query != std::string::npos) name.erase(query);

    std::uint64_t file_size = 0;
    util::ScopedFd file;
    if (safe_object_name(name)) {
      file.reset(::open((dir_ + name).c_str(), O_RDONLY | O_CLOEXEC));
      if (file) {
        struct stat st {};
        if (::fstat(file.get(), &st) == 0 && S_ISREG(st.st_mode)) {
          file_size = static_cast<std::uint64_t>(st.st_size);
        } else {
          file.reset();
        }
      }
    }

    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.requests += 1;
      if (!file) stats_.not_found += 1;
    }

    // A Range header is ignored: every GET answers 200 with the whole
    // object, which RFC 9110 permits.
    std::ostringstream head;
    if (!file) {
      head << "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n";
    } else {
      head << "HTTP/1.1 200 OK\r\nContent-Length: " << file_size << "\r\n";
    }
    head << "Content-Type: application/octet-stream\r\n";
    if (req.close) head << "Connection: close\r\n";
    head << "\r\n";
    const std::string head_str = head.str();
    if (!send_all(fd, head_str.data(), head_str.size())) return;

    std::uint64_t sent_body = 0;
    if (!is_head && file_size > 0) {
      char buf[64 * 1024];
      std::uint64_t remaining = file_size;
      while (remaining > 0) {
        const std::size_t want =
            static_cast<std::size_t>(std::min<std::uint64_t>(remaining,
                                                             sizeof(buf)));
        ssize_t n;
        do {
          n = ::read(file.get(), buf, want);
        } while (n < 0 && errno == EINTR);
        if (n <= 0) return;  // file shrank mid-send; drop the connection
        if (!send_all(fd, buf, static_cast<std::size_t>(n))) return;
        remaining -= static_cast<std::uint64_t>(n);
        sent_body += static_cast<std::uint64_t>(n);
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.bytes_sent += head_str.size() + sent_body;
    }
    if (req.close) return;
  }
}

}  // namespace ftc::core
