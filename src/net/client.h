// net::ClusterClient — fingerprint-routed, pipelining client of a shard
// fleet of net::AnalysisServers.
//
// The client is the cluster's only coordinator: there is no master. Every
// client derives a tenant's home shard locally from the tenant system's
// O(1) Zobrist fingerprint through the shared net::Router ring, so any
// number of clients with the same endpoint list agree on placement without
// talking to each other — and structurally identical tenants land on one
// shard, where the resident service's fingerprint-keyed session LRU and
// name-free transposition table turn their queries into shared work.
//
// Per shard the client keeps one connection, and queries PIPELINE on it:
// submit() returns a PendingQuery immediately, any number may be in flight
// across (and within) shards, and await() collects results in any order.
// There is no reader thread. The awaiting threads read the socket
// themselves, leader/follower style: whichever awaiter holds the turn
// reads, files every frame into its request's slot by request_id, and
// passes the turn on once its own reply has arrived; the others sleep
// until their slot fills. Each submit first takes in whatever replies are
// already readable, so a client that runs far ahead of its awaits keeps
// its receive buffer empty and cannot deadlock against the server.
//
// Membership change = migration: set_endpoints() rebuilds the ring, and
// every tenant whose home shard changed is moved by the snapshot protocol
// — SnapshotRequest to the old shard returns the tenant's resident system
// in wire encoding, which re-registers verbatim on the new shard. The
// encoding round-trips bitwise, so the rebuilt tenant fingerprints (and
// answers) identically; results are unchanged by any migration history.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/service.h"
#include "net/codec.h"
#include "net/router.h"
#include "net/server.h"  // NetError
#include "platform/system.h"

namespace procon::net {

/// \brief One TCP connection to a shard. Thread-safe: any number of
/// threads may begin()/await() concurrently; awaiters take turns reading
/// the socket (see the file comment). Performs the Hello/HelloAck version
/// handshake at construction (throws NetError/CodecError on failure).
class ShardConnection {
 public:
  /// \brief Connects to "host:port" (empty host = 127.0.0.1) and
  /// handshakes.
  explicit ShardConnection(const std::string& endpoint);
  ~ShardConnection();

  ShardConnection(const ShardConnection&) = delete;             ///< unique
  ShardConnection& operator=(const ShardConnection&) = delete;  ///< unique

  /// \brief Sends one request frame; returns the request_id to await.
  /// First files whatever replies are already readable, without waiting.
  /// Throws NetError when the connection is down.
  std::uint64_t begin(FrameType type, std::span<const std::uint8_t> payload);

  /// \brief Blocks until the response to `request_id` arrives and returns
  /// it (QueryResult, ...Ack, ...Reply or Error — the caller interprets).
  /// Throws NetError when the connection dies first.
  [[nodiscard]] Frame await(std::uint64_t request_id);

  /// \brief begin() + await() in one call.
  [[nodiscard]] Frame roundtrip(FrameType type,
                                std::span<const std::uint8_t> payload);

 private:
  /// Reads the socket and files the complete frames into their slots: one
  /// blocking read, or (wait == false) whatever is readable without
  /// waiting. The caller holds the turn and `lock` on pending_m_, which is
  /// released around each read. Returns whether any frame was filed;
  /// clears alive_ when the stream is dead or corrupt.
  bool read_and_file(std::unique_lock<std::mutex>& lock, bool wait);

  int fd_ = -1;
  std::mutex write_m_;    ///< serialises frame writes
  std::mutex pending_m_;  ///< guards every field below
  std::uint64_t next_id_ = 1;  ///< request_id of the next begin()
  /// Notified when a reply is filed, the turn is freed or the stream dies.
  std::condition_variable filed_;
  bool alive_ = true;     ///< cleared when the stream dies
  bool reading_ = false;  ///< an awaiter (or begin()) holds the turn
  /// Receive reassembly buffer; touched only by the turn holder.
  std::vector<std::uint8_t> rx_;
  /// One slot per request awaiting a reply; filled when it arrives.
  std::unordered_map<std::uint64_t, std::optional<Frame>> pending_;
};

/// \brief Client-local handle of a tenant registered through a
/// ClusterClient (dense, never reused; independent of shard placement).
using TenantId = std::uint32_t;

/// \brief An in-flight routed query; pass to ClusterClient::await.
struct PendingQuery {
  ShardConnection* conn = nullptr;  ///< the home shard's connection
  std::uint64_t request_id = 0;     ///< correlation id on that connection
};

/// \brief Construction options of a ClusterClient.
struct ClusterOptions {
  /// Shard endpoints as "host:port" (empty host = loopback). The same
  /// list, in any order, on every client yields the same routing.
  std::vector<std::string> endpoints;
  /// Ring points per endpoint (see Router).
  std::size_t virtual_nodes = 64;
};

/// \brief The routed front door: registers tenants on their fingerprint-
/// derived home shard, pipelines queries, migrates tenants on membership
/// change.
///
/// Thread-safety: register_system/submit/await/query/stats may be called
/// from any thread concurrently; set_endpoints must be exclusive (no
/// concurrent calls of any kind), as rebuilding the ring tears connections
/// down.
class ClusterClient {
 public:
  /// \brief Connects to every endpoint and handshakes. Throws
  /// NetError/CodecError when any shard is unreachable or incompatible.
  explicit ClusterClient(const ClusterOptions& opts);

  /// \brief Registers a tenant on its home shard.
  /// \param sys the tenant system (encoded onto the wire; the shard's
  ///        decoded copy fingerprints identically)
  /// \return client-local handle for submit()/query()
  /// Throws NetError when the shard rejects the registration (the server's
  /// Error frame message is rethrown).
  TenantId register_system(const platform::System& sys);

  /// \brief Sends one query to the tenant's home shard (pipelined,
  /// non-blocking).
  [[nodiscard]] PendingQuery submit(TenantId tenant, const api::QueryDesc& desc);

  /// \brief Collects a pipelined query's result (decoded QueryValue).
  /// Throws NetError on an Error frame or a dead connection.
  [[nodiscard]] api::QueryValue await(const PendingQuery& pending);

  /// \brief submit() + await(): one synchronous routed query.
  [[nodiscard]] api::QueryValue query(TenantId tenant, const api::QueryDesc& desc);

  /// \brief One shard's service + transposition counters (StatsRequest).
  /// \param shard index into endpoints()
  [[nodiscard]] WireStats stats(std::size_t shard);

  /// \brief The current ring.
  [[nodiscard]] const Router& router() const noexcept { return *router_; }

  /// \brief Number of registered tenants.
  [[nodiscard]] std::size_t tenant_count() const;

  /// \brief The endpoint currently serving a tenant (after migrations).
  [[nodiscard]] const std::string& tenant_endpoint(TenantId tenant) const;

  /// \brief Replaces the shard fleet and migrates displaced tenants.
  ///
  /// Rebuilds the ring over `endpoints`, connects to new shards, then for
  /// every tenant whose home changed: fetches its resident system from the
  /// old shard (SnapshotRequest) and re-registers the returned bytes
  /// verbatim on the new shard. Old shards keep their (now idle) copies —
  /// registration is append-only. Connections to endpoints no longer in
  /// the fleet close after migration. NOT thread-safe against concurrent
  /// queries.
  /// \return number of tenants migrated
  std::size_t set_endpoints(std::vector<std::string> endpoints);

 private:
  struct Tenant {
    std::uint64_t fingerprint = 0;
    std::string endpoint;        ///< current home shard
    api::SystemId remote_id = 0; ///< the shard-local handle
  };

  ShardConnection& connection(const std::string& endpoint);
  /// Registers pre-encoded system bytes on `endpoint`; returns the remote
  /// id (shared by register_system and the migration path).
  api::SystemId register_encoded(const std::string& endpoint,
                                 std::span<const std::uint8_t> encoded);

  std::unique_ptr<Router> router_;
  std::unordered_map<std::string, std::unique_ptr<ShardConnection>> conns_;
  mutable std::mutex tenants_m_;
  std::vector<Tenant> tenants_;
};

}  // namespace procon::net
