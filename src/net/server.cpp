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

/// Writes as much of `data` as the socket takes without waiting. Returns
/// the bytes written, or -1 on a terminal error.
ssize_t send_now(int fd, std::span<const std::uint8_t> data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return -1;
  }
  return static_cast<ssize_t>(off);
}

/// Writes all of `data`, waiting for POLLOUT whenever the socket is full.
/// Returns false on any terminal error, or when the peer takes nothing for
/// 5 s.
bool send_all(int fd, std::span<const std::uint8_t> data) {
  for (;;) {
    const ssize_t n = send_now(fd, data);
    if (n < 0) return false;
    data = data.subspan(static_cast<std::size_t>(n));
    if (data.empty()) return true;
    pollfd pfd{fd, POLLOUT, 0};
    if (::poll(&pfd, 1, 5000) <= 0) return false;  // peer wedged: give up
  }
}

std::vector<std::uint8_t> frame_bytes(FrameType type, std::uint64_t request_id,
                                      std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  out.reserve(13 + payload.size());
  append_frame(out, type, request_id, payload);
  return out;
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
  // fds[0] is the wake pipe, fds[1] the listening socket and fds[2 + i]
  // the socket of conns[i]. Only this thread adds or drops connections,
  // so both persist across wakes and change only when one comes or goes.
  std::vector<pollfd> fds{{wake_rd_, POLLIN, 0}, {listen_fd_, POLLIN, 0}};
  std::vector<std::shared_ptr<Connection>> conns;
  std::uint8_t buf[16384];
  while (!stopping_.load(std::memory_order_relaxed)) {
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[0].revents & POLLIN) != 0) break;  // stop() poked the pipe

    bool dropped = false;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      const auto& conn = conns[i];
      pollfd& pfd = fds[i + 2];
      if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      bool drop = (pfd.revents & (POLLHUP | POLLERR)) != 0 &&
                  (pfd.revents & POLLIN) == 0;
      if (!drop) {
        try {
          for (;;) {
            const ssize_t n = ::recv(conn->fd, buf, sizeof buf, 0);
            if (n < 0 && errno == EINTR) continue;
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
            if (n <= 0) {
              drop = true;  // orderly close (0) or hard error
              break;
            }
            // Frames are taken out per read, so the buffer never holds
            // more than one read plus a partial frame.
            conn->rx.insert(conn->rx.end(), buf, buf + n);
            while (!drop) {
              auto frame = try_extract_frame(conn->rx);
              if (!frame) break;
              drop = !handle_frame(conn, *std::move(frame));
            }
            // A short read drained the socket; poll is level-triggered, so
            // anything arriving later wakes the next poll.
            if (drop || static_cast<std::size_t>(n) < sizeof buf) break;
          }
        } catch (const CodecError&) {
          drop = true;  // corrupt framing: the stream is unrecoverable
        }
      }
      if (drop) {
        close_stream(*conn);
        pfd.fd = -1;  // poll ignores it until the compaction below
        dropped = true;
      }
    }
    if (dropped) {
      std::size_t kept = 0;
      for (std::size_t i = 0; i < conns.size(); ++i) {
        if (fds[i + 2].fd < 0) continue;
        fds[kept + 2] = fds[i + 2];
        conns[kept++] = std::move(conns[i]);
      }
      conns.resize(kept);
      fds.resize(kept + 2);
    }

    if ((fds[1].revents & POLLIN) != 0) {
      for (;;) {
        const int cfd = ::accept(listen_fd_, nullptr, nullptr);
        if (cfd < 0) break;
        set_nonblocking(cfd);
        // Request/response frames are small; Nagle would serialise them
        // against delayed ACKs and wreck pipelining latency.
        const int nd = 1;
        ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &nd, sizeof nd);
        fds.push_back(pollfd{cfd, POLLIN, 0});
        conns.push_back(std::make_shared<Connection>(cfd));
      }
    }
  }

  // Shut every connection down: wakes blocked completion writers (their
  // sends fail fast); fds close when the last shared owner drops.
  for (const auto& conn : conns) close_stream(*conn);
  ::close(listen_fd_);
}

void AnalysisServer::close_stream(Connection& conn) {
  conn.open.store(false);
  // shutdown (not close) here: completion tasks may still hold the fd for
  // an in-flight response write; closing now could race a reused fd.
  ::shutdown(conn.fd, SHUT_RDWR);
}

void AnalysisServer::reply(const std::shared_ptr<Connection>& conn,
                           FrameType type, std::uint64_t request_id,
                           std::span<const std::uint8_t> payload) {
  if (!conn->open.load(std::memory_order_relaxed)) return;
  const std::vector<std::uint8_t> out = frame_bytes(type, request_id, payload);
  std::unique_lock<std::mutex> write_lock(conn->write_m, std::try_to_lock);
  std::lock_guard<std::mutex> lock(conn->backlog_m);
  std::size_t sent = 0;
  if (write_lock.owns_lock() && conn->backlog.empty()) {
    const ssize_t n = send_now(conn->fd, out);
    if (n < 0) {
      close_stream(*conn);
      return;
    }
    sent = static_cast<std::size_t>(n);
    if (sent == out.size()) return;
  }
  conn->backlog.insert(conn->backlog.end(),
                       out.begin() + static_cast<std::ptrdiff_t>(sent),
                       out.end());
  if (!conn->flush_posted) {
    conn->flush_posted = true;
    completion_.post([conn] {
      std::lock_guard<std::mutex> flush_lock(conn->write_m);
      write_backlog(*conn);
    });
  }
}

void AnalysisServer::reply_error(const std::shared_ptr<Connection>& conn,
                                 std::uint64_t request_id,
                                 const std::string& message) {
  WireWriter w;
  w.str(message);
  reply(conn, FrameType::Error, request_id, w.view());
}

bool AnalysisServer::write_backlog(Connection& conn) {
  std::vector<std::uint8_t> out;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(conn.backlog_m);
      if (conn.backlog.empty() || !conn.open.load()) {
        conn.backlog.clear();
        conn.flush_posted = false;
        return conn.open.load();
      }
      out.swap(conn.backlog);  // leaves the backlog empty
    }
    if (!send_all(conn.fd, out)) close_stream(conn);
    out.clear();
  }
}

void AnalysisServer::send_frame(Connection& conn, FrameType type,
                                std::uint64_t request_id,
                                std::span<const std::uint8_t> payload) {
  if (!conn.open.load(std::memory_order_relaxed)) return;
  const std::vector<std::uint8_t> out = frame_bytes(type, request_id, payload);
  std::lock_guard<std::mutex> lock(conn.write_m);
  if (write_backlog(conn) && !send_all(conn.fd, out)) {
    close_stream(conn);
  }
}

bool AnalysisServer::handle_frame(const std::shared_ptr<Connection>& conn,
                                  Frame frame) {
  switch (frame.type) {
    case FrameType::Hello: {
      try {
        check_hello(frame.payload);
      } catch (const CodecError& e) {
        reply_error(conn, frame.request_id, e.what());
        return false;  // incompatible peer: drop after the explanation
      }
      reply(conn, FrameType::HelloAck, frame.request_id, hello_payload());
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
        reply(conn, FrameType::RegisterAck, frame.request_id, w.view());
      } catch (const std::exception& e) {
        reply_error(conn, frame.request_id, e.what());
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
        // A result hit comes back Done: encoding it here costs less than
        // waking a completion worker to do it.
        if (const api::QueryValue* value = ticket.try_get()) {
          WireWriter w;
          encode_query_value(w, *value);
          reply(conn, FrameType::QueryResult, frame.request_id, w.view());
          return true;
        }
      } catch (const std::exception& e) {
        reply_error(conn, frame.request_id, e.what());
        return true;
      }
      // Completion runs on the dedicated pool: Ticket::share() blocks until
      // the service finishes, and the poll thread must keep serving.
      auto shared_ticket =
          std::make_shared<api::QueryTicket>(std::move(ticket));
      const std::uint64_t rid = frame.request_id;
      completion_.post([conn, rid, shared_ticket] {
        try {
          const std::shared_ptr<const api::QueryValue> value =
              shared_ticket->share();  // zero-copy: aliases the arena slot
          WireWriter w;
          encode_query_value(w, *value);
          send_frame(*conn, FrameType::QueryResult, rid, w.view());
        } catch (const std::exception& e) {
          WireWriter w;
          w.str(e.what());
          send_frame(*conn, FrameType::Error, rid, w.view());
        }
      });
      return true;
    }

    case FrameType::StatsRequest: {
      WireStats stats{service_.stats(), service_.transposition_stats()};
      WireWriter w;
      encode_stats(w, stats);
      reply(conn, FrameType::StatsReply, frame.request_id, w.view());
      return true;
    }

    case FrameType::SnapshotRequest: {
      try {
        WireReader r(frame.payload);
        const api::SystemId id = r.u32();
        r.expect_end();
        WireWriter w;
        encode_system(w, service_.system(id));
        reply(conn, FrameType::SnapshotReply, frame.request_id, w.view());
      } catch (const std::exception& e) {
        reply_error(conn, frame.request_id, e.what());
      }
      return true;
    }

    default:
      reply_error(conn, frame.request_id, "unexpected frame type");
      return true;
  }
}

}  // namespace procon::net
