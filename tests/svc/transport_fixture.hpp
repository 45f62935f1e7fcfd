// Shared support for the socket-transport tests: a blocking NDJSON client,
// and a fixture that serves a fresh Unix socket through either daemon's
// policy of the one connection loop — rfmixd's ServerLoop in this process,
// or a RouterLoop in front of one real rfmixd worker process (RFMIXD_BIN)
// — so a test body can pin that both transports answer with the same
// bytes.
#pragma once

#ifndef _WIN32

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "runtime/thread_pool.hpp"
#include "svc/cache.hpp"
#include "svc/event_loop.hpp"
#include "svc/router.hpp"
#include "svc/server.hpp"
#include "svc/supervisor.hpp"

namespace rfmix::svc::svc_test {

/// A blocking NDJSON test client over a Unix socket.
struct Client {
  int fd = -1;

  ~Client() {
    if (fd >= 0) ::close(fd);
  }

  bool connect_to(const std::string& path) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    return ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }

  bool send_all(const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  void shutdown_write() { ::shutdown(fd, SHUT_WR); }

  /// Read until `n` complete lines arrived (or EOF / timeout). Returns the
  /// lines without their trailing newline.
  std::vector<std::string> read_lines(std::size_t n, int timeout_ms = 120000) {
    std::string buf;
    std::vector<std::string> lines;
    while (lines.size() < n) {
      pollfd p{fd, POLLIN, 0};
      if (::poll(&p, 1, timeout_ms) <= 0) break;  // timeout
      char chunk[65536];
      const ssize_t got = ::recv(fd, chunk, sizeof chunk, 0);
      if (got <= 0) break;  // EOF or error
      buf.append(chunk, static_cast<std::size_t>(got));
      std::size_t pos = 0, nl;
      while ((nl = buf.find('\n', pos)) != std::string::npos) {
        lines.push_back(buf.substr(pos, nl - pos));
        pos = nl + 1;
      }
      buf.erase(0, pos);
    }
    return lines;
  }
};

/// Which daemon's policy serves the socket.
enum class Transport { kRfmixd, kRouter };
inline constexpr Transport kTransports[] = {Transport::kRfmixd, Transport::kRouter};

inline const char* transport_name(Transport via) {
  return via == Transport::kRfmixd ? "rfmixd" : "rfmix-router (one worker)";
}

class TransportFixture : public ::testing::Test {
 protected:
  /// Serve a fresh socket through `via` with `opts`' transport limits.
  /// `threads` sizes rfmixd's in-process pool; the router's worker is a
  /// separate rfmixd process with its default pool.
  void start_transport(Transport via, const ServerLoop::Options& opts, int threads,
                       std::size_t cache_entries, const std::string& tag) {
    static int counter = 0;
    const std::string base = ::testing::TempDir() + "rfmix-" + tag + "-" +
                             std::to_string(::getpid()) + "-" +
                             std::to_string(counter++);
    path_ = base + ".sock";
    ::unlink(path_.c_str());
    pool_ = std::make_unique<runtime::ScopedPool>(threads);
    cache_ = std::make_unique<ResultCache>(cache_entries);
    std::string err;
    if (via == Transport::kRfmixd) {
      session_ = std::make_unique<ServerSession>(*cache_, pool_->pool());
      server_ = std::make_unique<ServerLoop>(*session_, opts);
      ASSERT_TRUE(server_->listen_unix(path_, &err)) << err;
      thread_ = std::thread([this] { server_->run(); });
      return;
    }
    dir_ = base + ".workers";
    ::mkdir(dir_.c_str(), 0700);
    Supervisor::Options sopts;
    sopts.worker_bin = RFMIXD_BIN;
    sopts.workers = 1;
    sopts.socket_dir = dir_;
    sup_ = std::make_unique<Supervisor>(sopts);
    ASSERT_TRUE(sup_->start(&err)) << err;
    RouterLoop::Options ropts;
    static_cast<ConnLoop::Options&>(ropts) = opts;
    router_ = std::make_unique<RouterLoop>(*sup_, *cache_, ropts);
    ASSERT_TRUE(router_->listen_unix(path_, &err)) << err;
    thread_ = std::thread([this] { router_->run(); });
  }

  void request_shutdown() {
    if (server_) server_->request_shutdown();
    if (router_) router_->request_shutdown();
  }

  void TearDown() override {
    request_shutdown();
    if (thread_.joinable()) thread_.join();
    server_.reset();
    router_.reset();
    if (sup_) sup_->shutdown(2000.0);
    sup_.reset();
    session_.reset();
    cache_.reset();
    pool_.reset();
    if (!path_.empty()) ::unlink(path_.c_str());
    if (!dir_.empty()) ::rmdir(dir_.c_str());
  }

  std::unique_ptr<runtime::ScopedPool> pool_;
  std::unique_ptr<ResultCache> cache_;
  std::unique_ptr<ServerSession> session_;
  std::unique_ptr<ServerLoop> server_;
  std::unique_ptr<Supervisor> sup_;
  std::unique_ptr<RouterLoop> router_;
  std::thread thread_;
  std::string path_;
  std::string dir_;  // the router's worker sockets
};

}  // namespace rfmix::svc::svc_test

#endif  // _WIN32
