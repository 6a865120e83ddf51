#include "net/server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace procon::net {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Writes all of `data` to a (possibly non-blocking) socket, waiting for
/// POLLOUT on short writes. Returns false on any terminal error.
bool send_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::send(fd, data + off, size - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{fd, POLLOUT, 0};
      if (::poll(&pfd, 1, 5000) <= 0) return false;  // peer wedged: give up
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

}  // namespace

AnalysisServer::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

AnalysisServer::AnalysisServer(const ServerOptions& opts)
    : service_(opts.service),
      completion_(std::max<std::size_t>(opts.completion_threads, 2)) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) throw NetError("AnalysisServer: pipe failed");
  wake_rd_ = pipe_fds[0];
  wake_wr_ = pipe_fds[1];
  set_nonblocking(wake_rd_);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    ::close(wake_rd_);
    ::close(wake_wr_);
    throw NetError("AnalysisServer: socket failed");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(opts.bind_any ? INADDR_ANY : INADDR_LOOPBACK);
  addr.sin_port = htons(opts.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listen_fd_, opts.backlog) != 0) {
    ::close(listen_fd_);
    ::close(wake_rd_);
    ::close(wake_wr_);
    throw NetError("AnalysisServer: bind/listen failed (port " +
                   std::to_string(opts.port) + ")");
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  set_nonblocking(listen_fd_);

  poll_thread_ = std::thread([this] { loop(); });
}

AnalysisServer::~AnalysisServer() { stop(); }

void AnalysisServer::stop() {
  // The pipe closes here, after the join, never in loop(): an awake loop
  // may see stopping_ and exit before the poke lands, and a pipe it had
  // closed would turn the poke into SIGPIPE or a write to a reused fd.
  // Concurrent callers wait until the first one is done.
  std::call_once(stop_once_, [this] {
    stopping_.store(true);
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_wr_, &byte, 1);
    poll_thread_.join();
    ::close(wake_rd_);
    ::close(wake_wr_);
  });
}

void AnalysisServer::loop() {
  std::vector<pollfd> fds;
  while (!stopping_.load(std::memory_order_relaxed)) {
    fds.clear();
    fds.push_back(pollfd{wake_rd_, POLLIN, 0});
    fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    std::vector<std::shared_ptr<Connection>> polled;
    {
      std::lock_guard<std::mutex> lock(conns_m_);
      polled.reserve(conns_.size());
      for (auto& [fd, conn] : conns_) {
        polled.push_back(conn);
        fds.push_back(pollfd{fd, POLLIN, 0});
      }
    }
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[0].revents & POLLIN) != 0) break;  // stop() poked the pipe

    if ((fds[1].revents & POLLIN) != 0) {
      for (;;) {
        const int cfd = ::accept(listen_fd_, nullptr, nullptr);
        if (cfd < 0) break;
        set_nonblocking(cfd);
        // Request/response frames are small; Nagle would serialise them
        // against delayed ACKs and wreck pipelining latency.
        const int nd = 1;
        ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &nd, sizeof nd);
        std::lock_guard<std::mutex> lock(conns_m_);
        conns_.emplace(cfd, std::make_shared<Connection>(cfd));
      }
    }

    for (std::size_t i = 2; i < fds.size(); ++i) {
      const auto& conn = polled[i - 2];
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      bool drop = (fds[i].revents & (POLLHUP | POLLERR)) != 0 &&
                  (fds[i].revents & POLLIN) == 0;
      if (!drop) {
        std::uint8_t buf[16384];
        for (;;) {
          const ssize_t n = ::recv(conn->fd, buf, sizeof buf, 0);
          if (n > 0) {
            conn->rx.insert(conn->rx.end(), buf, buf + n);
            continue;
          }
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          if (n < 0 && errno == EINTR) continue;
          drop = true;  // orderly close (0) or hard error
          break;
        }
        try {
          while (auto frame = try_extract_frame(conn->rx)) {
            if (!handle_frame(conn, *std::move(frame))) {
              drop = true;
              break;
            }
          }
        } catch (const CodecError&) {
          drop = true;  // corrupt framing: the stream is unrecoverable
        }
      }
      if (drop) disconnect(conn);
    }
  }

  // Shut every connection down: wakes blocked completion writers (their
  // sends fail fast); fds close when the last shared owner drops.
  std::lock_guard<std::mutex> lock(conns_m_);
  for (auto& [fd, conn] : conns_) {
    conn->open.store(false);
    ::shutdown(fd, SHUT_RDWR);
  }
  conns_.clear();
  ::close(listen_fd_);
}

void AnalysisServer::disconnect(const std::shared_ptr<Connection>& conn) {
  conn->open.store(false);
  // shutdown (not close) here: completion tasks may still hold the fd for
  // an in-flight response write; closing now could race a reused fd.
  ::shutdown(conn->fd, SHUT_RDWR);
  std::lock_guard<std::mutex> lock(conns_m_);
  conns_.erase(conn->fd);
}

void AnalysisServer::send_frame(Connection& conn, FrameType type,
                                std::uint64_t request_id,
                                std::span<const std::uint8_t> payload) {
  if (!conn.open.load(std::memory_order_relaxed)) return;
  std::vector<std::uint8_t> out;
  out.reserve(13 + payload.size());
  append_frame(out, type, request_id, payload);
  std::lock_guard<std::mutex> lock(conn.write_m);
  if (!send_all(conn.fd, out.data(), out.size())) conn.open.store(false);
}

void AnalysisServer::send_error(Connection& conn, std::uint64_t request_id,
                                const std::string& message) {
  WireWriter w;
  w.str(message);
  send_frame(conn, FrameType::Error, request_id, w.view());
}

bool AnalysisServer::handle_frame(const std::shared_ptr<Connection>& conn,
                                  Frame frame) {
  switch (frame.type) {
    case FrameType::Hello: {
      try {
        check_hello(frame.payload);
      } catch (const CodecError& e) {
        send_error(*conn, frame.request_id, e.what());
        return false;  // incompatible peer: drop after the explanation
      }
      send_frame(*conn, FrameType::HelloAck, frame.request_id, hello_payload());
      return true;
    }

    case FrameType::RegisterSystem: {
      try {
        WireReader r(frame.payload);
        platform::System sys = decode_system(r);
        r.expect_end();
        const api::SystemId id = service_.register_system(std::move(sys));
        WireWriter w;
        w.u32(id);
        send_frame(*conn, FrameType::RegisterAck, frame.request_id, w.view());
      } catch (const std::exception& e) {
        send_error(*conn, frame.request_id, e.what());
      }
      return true;
    }

    case FrameType::Query: {
      api::QueryTicket ticket;
      try {
        WireReader r(frame.payload);
        const api::SystemId id = r.u32();
        api::QueryDesc desc = decode_query_desc(r);
        r.expect_end();
        ticket = service_.submit(id, std::move(desc));
      } catch (const std::exception& e) {
        send_error(*conn, frame.request_id, e.what());
        return true;
      }
      // Completion runs on the dedicated pool: Ticket::share() blocks until
      // the service finishes, and the poll thread must keep serving.
      auto shared_ticket =
          std::make_shared<api::QueryTicket>(std::move(ticket));
      const std::uint64_t rid = frame.request_id;
      completion_.post([this, conn, rid, shared_ticket] {
        try {
          const std::shared_ptr<const api::QueryValue> value =
              shared_ticket->share();  // zero-copy: aliases the arena slot
          WireWriter w;
          encode_query_value(w, *value);
          send_frame(*conn, FrameType::QueryResult, rid, w.view());
        } catch (const std::exception& e) {
          send_error(*conn, rid, e.what());
        }
      });
      return true;
    }

    case FrameType::StatsRequest: {
      WireStats stats{service_.stats(), service_.transposition_stats()};
      WireWriter w;
      encode_stats(w, stats);
      send_frame(*conn, FrameType::StatsReply, frame.request_id, w.view());
      return true;
    }

    case FrameType::SnapshotRequest: {
      try {
        WireReader r(frame.payload);
        const api::SystemId id = r.u32();
        r.expect_end();
        WireWriter w;
        encode_system(w, service_.system(id));
        send_frame(*conn, FrameType::SnapshotReply, frame.request_id, w.view());
      } catch (const std::exception& e) {
        send_error(*conn, frame.request_id, e.what());
      }
      return true;
    }

    default:
      send_error(*conn, frame.request_id, "unexpected frame type");
      return true;
  }
}

}  // namespace procon::net
