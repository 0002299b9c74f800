// TCP loopback listener for hartd: accepts connections on 127.0.0.1, reads
// length-prefixed request frames (proto.h), submits them to the service,
// and writes responses back as their shard acks complete (out of order
// across shards; clients correlate by request id).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "server/hartd.h"

namespace hart::server {

class TcpServer {
 public:
  /// Binds 127.0.0.1:`port` (0 = kernel-chosen ephemeral port, see
  /// port()) and starts the accept loop. Throws on bind failure.
  TcpServer(Hartd& db, uint16_t port);
  ~TcpServer();
  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  [[nodiscard]] uint16_t port() const { return port_; }

  /// Stop accepting, shut down every connection, join all threads. Safe to
  /// call before or after Hartd::shutdown; pending acks that arrive after
  /// a connection closed are dropped. Idempotent.
  void stop();

 private:
  // Shared with in-flight ack callbacks: a response writer takes write_mu
  // and checks `open` before using fd, so retire_conn can close the socket
  // without racing a late ack.
  struct Conn {
    int fd = -1;
    common::Mutex write_mu;
    bool open GUARDED_BY(write_mu) = true;
  };

  // A live connection and the thread serving it.
  struct ConnThread {
    std::shared_ptr<Conn> conn;
    std::thread thread;
  };

  void accept_loop();
  void serve(const std::shared_ptr<Conn>& conn);
  /// Closes a finished connection's fd and hands its thread to reaped_.
  void retire_conn(const std::shared_ptr<Conn>& conn);
  /// Joins the threads of connections that have finished.
  void join_reaped();
  static void send_response(const std::shared_ptr<Conn>& conn, uint64_t id,
                            const Response& resp);

  Hartd& db_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  common::Mutex conns_mu_;
  std::vector<ConnThread> conns_ GUARDED_BY(conns_mu_);
  // Threads whose serve() returned; joined by the accept loop and stop(),
  // so neither fds nor thread stacks grow with connection churn.
  std::vector<std::thread> reaped_ GUARDED_BY(conns_mu_);
};

}  // namespace hart::server
