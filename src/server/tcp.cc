#include "server/tcp.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/counters.h"

namespace hart::server {

namespace {
/// write() the whole buffer; MSG_NOSIGNAL so a dead peer yields EPIPE, not
/// SIGPIPE. Returns false on any error (the connection is then abandoned).
bool send_all(int fd, const char* p, size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w <= 0) return false;
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}
}  // namespace

TcpServer::TcpServer(Hartd& db, uint16_t port) : db_(db) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, 128) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("cannot bind/listen on 127.0.0.1:" +
                             std::to_string(port));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  accept_thread_ = std::thread([this] { accept_loop(); });
}

TcpServer::~TcpServer() { stop(); }

void TcpServer::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) return;
      continue;  // transient (EINTR, aborted handshake)
    }
    join_reaped();
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    common::MutexLock lk(conns_mu_);
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    // The thread's own exit path (retire_conn) takes conns_mu_, so it
    // finds its entry complete even if serve() returns at once.
    conns_.push_back(
        {conn, std::thread([this, conn] {
           serve(conn);
           retire_conn(conn);
         })});
  }
}

void TcpServer::retire_conn(const std::shared_ptr<Conn>& conn) {
  {
    // Under write_mu: a late ack sees open == false instead of writing to
    // a closed (possibly reused) descriptor.
    common::MutexLock lk(conn->write_mu);
    conn->open = false;
    ::close(conn->fd);
  }
  common::MutexLock lk(conns_mu_);
  // Not found once stop() has taken the list: stop() joins this thread.
  for (auto& c : conns_) {
    if (c.conn != conn) continue;
    reaped_.push_back(std::move(c.thread));
    c = std::move(conns_.back());
    conns_.pop_back();
    return;
  }
}

void TcpServer::join_reaped() {
  std::vector<std::thread> done;
  {
    common::MutexLock lk(conns_mu_);
    done.swap(reaped_);
  }
  for (auto& t : done) t.join();
}

void TcpServer::send_response(const std::shared_ptr<Conn>& conn, uint64_t id,
                              const Response& resp) {
  std::string frame;
  encode_response(id, resp, &frame);
  common::MutexLock lk(conn->write_mu);
  if (!conn->open) return;  // connection already torn down: drop the ack
  if (!send_all(conn->fd, frame.data(), frame.size())) {
    // Peer vanished; reads will notice too. Leave closing to stop()/serve.
  }
}

void TcpServer::serve(const std::shared_ptr<Conn>& conn) {
  std::string buf;
  std::string body;
  char chunk[4096];
  for (;;) {
    const ssize_t r = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (r <= 0) break;  // EOF, error, or shutdown() from stop()
    buf.append(chunk, static_cast<size_t>(r));
    for (;;) {
      const int got = take_frame(&buf, &body);
      if (got < 0) {
        // Oversized or corrupt length prefix: the stream can't be
        // re-synchronized, so the connection must drop — but tell the
        // peer why first (id 0: the offending frame's id is unknowable).
        obs::Registry::instance()
            .counter("hartd_proto_errors_total")
            .inc();
        send_response(conn, 0, Response{Status::kProtocolError, {}, 0});
        // Actively hang up so the peer sees EOF right away; the fd itself
        // is closed (under write_mu) by retire_conn like every other conn.
        ::shutdown(conn->fd, SHUT_RDWR);
        return;
      }
      if (got == 0) break;
      uint64_t id = 0;
      Request req;
      if (!decode_request(body.data(), body.size(), &id, &req)) {
        // Framing was intact, so the stream stays usable: answer this
        // frame with a protocol error and keep serving. Recover the id
        // when enough of the header arrived to carry one.
        if (id == 0 && body.size() >= sizeof(uint64_t))
          std::memcpy(&id, body.data(), sizeof(uint64_t));
        obs::Registry::instance()
            .counter("hartd_proto_errors_total")
            .inc();
        send_response(conn, id, Response{Status::kProtocolError, {}, 0});
        continue;
      }
      db_.submit(std::move(req), [conn, id](Response resp) {
        send_response(conn, id, resp);
      });
    }
  }
}

void TcpServer::stop() {
  if (stopping_.exchange(true)) return;
  // Wake the accept loop, then join it so no new connections appear.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);

  // Kick every reader out of recv() and join the connection threads; each
  // closes its own fd on the way out (retire_conn). The shutdown checks
  // `open` under write_mu: a connection that already retired has closed
  // its fd, and the number may have been reused.
  std::vector<ConnThread> conns;
  {
    common::MutexLock lk(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& c : conns) {
    common::MutexLock lk(c.conn->write_mu);
    if (c.conn->open) ::shutdown(c.conn->fd, SHUT_RDWR);
  }
  for (auto& c : conns) c.thread.join();
  join_reaped();
}

}  // namespace hart::server
