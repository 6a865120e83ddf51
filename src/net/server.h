// net::AnalysisServer — the cluster tier's shard process: a TCP front door
// speaking the net::codec wire protocol into a resident api::AnalysisService.
//
// Architecture (one server = one shard):
//
//   * a poll(2) loop on a dedicated thread owns the listening socket, a
//     self-pipe for shutdown wakeups and every client connection; frames
//     are reassembled per connection (try_extract_frame) and dispatched;
//   * cheap frames (Hello, RegisterSystem, StatsRequest, SnapshotRequest)
//     are answered inline on the poll thread;
//   * Query frames submit to the AnalysisService. A ticket that comes back
//     already Done (a result hit) is encoded and answered inline by the
//     poll thread too; an in-flight one goes to a completion task on a
//     separate util::ThreadPool, which blocks on Ticket::share() and writes
//     the QueryResult frame when the service finishes. So one slow query
//     never stalls the poll loop, a hit never queues behind a slow query,
//     and responses pipeline out of order (request_id correlates them);
//   * the poll thread never waits on a socket: it takes a connection's
//     write lock only with try_lock and writes only with MSG_DONTWAIT.
//     What it cannot write at once (lock busy, EAGAIN, short write) joins
//     the connection's backlog, which keeps frames whole and in order and
//     which a completion task flushes. Completion tasks write with a
//     blocking POLLOUT wait loop, backlog first. A write that fails shuts
//     the socket down, so the poll loop drops the connection and the
//     client's awaiters see it die instead of waiting forever.
//
// Determinism: the server adds no numeric processing — results travel as
// the bitwise encoding of the service's QueryValue, so a routed query's
// payload equals the single-process AnalysisService oracle byte for byte
// (asserted by tests/test_cluster.cpp and the CI cluster-smoke job).
//
// Scope: binds loopback by default (a trusted-network prototype of the
// paper's analysis-as-a-service deployment, not a hardened endpoint).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "api/service.h"
#include "net/codec.h"
#include "util/thread_pool.h"

namespace procon::net {

/// \brief Thrown when socket setup fails (bind, listen, pipe).
class NetError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// \brief Construction options of an AnalysisServer.
struct ServerOptions {
  /// TCP port to listen on; 0 picks an ephemeral port (read it back via
  /// port(); procon_server announces it on stdout for the CI smoke job).
  std::uint16_t port = 0;
  /// Bind 0.0.0.0 instead of loopback. Off by default: the prototype
  /// serves trusted local clients.
  bool bind_any = false;
  /// Listen backlog passed to listen(2).
  int backlog = 64;
  /// Workers of the completion pool (including the caller slot, like
  /// ServiceOptions::threads); clamped to >= 2 so completion tasks always
  /// run on a background worker — they block on Ticket::share() or on a
  /// socket, which must never happen inline on the poll thread. Result
  /// hits do not use the pool.
  std::size_t completion_threads = 4;
  /// The resident analysis service's configuration.
  api::ServiceOptions service;
};

/// \brief One shard: a socket server over a resident AnalysisService.
///
/// Starts listening in the constructor and serves until stop() or
/// destruction. Thread-safe: port()/service()/stop() may be called from
/// any thread.
class AnalysisServer {
 public:
  /// \brief Binds, listens and starts the poll thread.
  /// \param opts port, backlog, pool and service configuration
  /// Throws NetError when the socket cannot be set up.
  explicit AnalysisServer(const ServerOptions& opts = {});

  /// \brief Stops the poll loop, drains in-flight completions and closes
  /// every connection.
  ~AnalysisServer();

  AnalysisServer(const AnalysisServer&) = delete;             ///< unique
  AnalysisServer& operator=(const AnalysisServer&) = delete;  ///< unique

  /// \brief The port actually bound (resolves port 0 to the ephemeral
  /// choice).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// \brief The resident service (e.g. to pre-register tenants or read
  /// stats in-process).
  [[nodiscard]] api::AnalysisService& service() noexcept { return service_; }

  /// \brief Requests shutdown and joins the poll thread. Idempotent;
  /// called by the destructor.
  void stop();

 private:
  /// One client connection. Completion tasks hold shared ownership, so a
  /// disconnecting poll loop shuts the socket down (wakes writers) but the
  /// fd closes only when the last writer drops its reference.
  struct Connection {
    explicit Connection(int socket_fd) : fd(socket_fd) {}
    ~Connection();
    int fd = -1;
    std::vector<std::uint8_t> rx;   ///< receive reassembly buffer
    std::mutex write_m;             ///< held while writing to fd
    std::atomic<bool> open{true};   ///< cleared on disconnect or failed write
    std::mutex backlog_m;           ///< guards backlog and flush_posted
    /// Bytes the poll thread could not write at once: whole frames, in
    /// order (the first may be a partly written one). Written before any
    /// later frame.
    std::vector<std::uint8_t> backlog;
    /// A flush task is posted and has not yet seen the backlog empty;
    /// whenever the backlog holds bytes, this is true.
    bool flush_posted = false;
  };

  void loop();
  /// Dispatches one reassembled frame; returns false to drop the
  /// connection (handshake violation, framing corruption).
  bool handle_frame(const std::shared_ptr<Connection>& conn, Frame frame);
  /// Poll-thread write: never waits on the lock or the socket; what does
  /// not go out at once joins the backlog.
  void reply(const std::shared_ptr<Connection>& conn, FrameType type,
             std::uint64_t request_id, std::span<const std::uint8_t> payload);
  void reply_error(const std::shared_ptr<Connection>& conn,
                   std::uint64_t request_id, const std::string& message);
  /// Completion-task write: blocks for the lock and the socket, writing
  /// the backlog first.
  static void send_frame(Connection& conn, FrameType type,
                         std::uint64_t request_id,
                         std::span<const std::uint8_t> payload);
  /// Writes out the backlog until it is seen empty; the caller holds
  /// conn.write_m. Returns whether the stream is still open.
  static bool write_backlog(Connection& conn);
  /// Ends all traffic on a connection: later writes are skipped, blocked
  /// writers wake, and the poll loop and the peer see the stream end. The
  /// fd closes with the last owner.
  static void close_stream(Connection& conn);

  api::AnalysisService service_;
  int listen_fd_ = -1;
  int wake_rd_ = -1;   ///< self-pipe read end (in the poll set)
  int wake_wr_ = -1;   ///< self-pipe write end (stop() pokes it)
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::once_flag stop_once_;  ///< stop() pokes, joins and closes once
  std::thread poll_thread_;
  // Declared last: destroyed first, so completion tasks drain (finishing
  // their response writes) while connections and the service still live.
  util::ThreadPool completion_;
};

}  // namespace procon::net
