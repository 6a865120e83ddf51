#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace procon::net {

namespace {

/// Splits "host:port" (empty host = loopback) and connects a blocking TCP
/// socket. Throws NetError on any failure.
int connect_endpoint(const std::string& endpoint) {
  const std::size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos) {
    throw NetError("ShardConnection: endpoint '" + endpoint +
                   "' is not host:port");
  }
  std::string host = endpoint.substr(0, colon);
  if (host.empty()) host = "127.0.0.1";
  const int port = std::atoi(endpoint.c_str() + colon + 1);
  if (port <= 0 || port > 65535) {
    throw NetError("ShardConnection: bad port in '" + endpoint + "'");
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw NetError("ShardConnection: bad host in '" + endpoint + "'");
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw NetError("ShardConnection: socket failed");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw NetError("ShardConnection: connect to " + endpoint + " failed");
  }
  // Small request frames must leave immediately; Nagle vs delayed ACK
  // would otherwise stall pipelined submits by full RTT multiples.
  const int nd = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nd, sizeof nd);
  return fd;
}

bool send_all_blocking(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::send(fd, data + off, size - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

}  // namespace

// ---- ShardConnection ------------------------------------------------------

ShardConnection::ShardConnection(const std::string& endpoint)
    : fd_(connect_endpoint(endpoint)) {
  // Handshake synchronously: the socket is ours alone here, so a plain
  // blocking read loop suffices.
  std::vector<std::uint8_t> out;
  const auto hello = hello_payload();
  append_frame(out, FrameType::Hello, 0, hello);
  if (!send_all_blocking(fd_, out.data(), out.size())) {
    ::close(fd_);
    throw NetError("ShardConnection: handshake send failed");
  }
  std::optional<Frame> ack;
  std::uint8_t buf[4096];
  while (!(ack = try_extract_frame(rx_))) {
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n <= 0) {
      ::close(fd_);
      throw NetError("ShardConnection: handshake read failed");
    }
    rx_.insert(rx_.end(), buf, buf + n);
  }
  if (ack->type != FrameType::HelloAck) {
    ::close(fd_);
    throw NetError("ShardConnection: server rejected handshake");
  }
  check_hello(ack->payload);
}

ShardConnection::~ShardConnection() { ::close(fd_); }

bool ShardConnection::read_and_file(std::unique_lock<std::mutex>& lock,
                                    bool wait) {
  std::uint8_t buf[16384];
  bool filed = false;
  for (;;) {
    lock.unlock();
    ssize_t n = 0;
    do {
      n = ::recv(fd_, buf, sizeof buf, wait ? 0 : MSG_DONTWAIT);
    } while (n < 0 && errno == EINTR);
    const bool drained =
        n < 0 && !wait && (errno == EAGAIN || errno == EWOULDBLOCK);
    lock.lock();
    if (n <= 0) {
      if (!drained) alive_ = false;  // orderly close (0) or hard error
      return filed;
    }
    rx_.insert(rx_.end(), buf, buf + n);
    try {
      while (auto frame = try_extract_frame(rx_)) {
        const auto it = pending_.find(frame->request_id);
        // Unmatched request_ids are dropped: the awaiter already gave up.
        if (it == pending_.end()) continue;
        it->second = *std::move(frame);
        filed = true;
      }
    } catch (const CodecError&) {
      alive_ = false;  // corrupt framing: the stream is unrecoverable
      return filed;
    }
    // A blocking read returns after one batch; a draining one goes on
    // until a short read says the socket is empty.
    if (wait || static_cast<std::size_t>(n) < sizeof buf) return filed;
  }
}

std::uint64_t ShardConnection::begin(FrameType type,
                                     std::span<const std::uint8_t> payload) {
  std::uint64_t rid = 0;
  {
    std::unique_lock<std::mutex> lock(pending_m_);
    if (!alive_) throw NetError("ShardConnection: connection is down");
    // Take in the replies already readable, so they never pile up in the
    // socket while this thread runs ahead of its awaits. When an awaiter
    // holds the turn, it is reading anyway.
    if (!reading_) {
      reading_ = true;
      read_and_file(lock, /*wait=*/false);
      reading_ = false;
      filed_.notify_all();  // replies filed, or an awaiter wants the turn
      if (!alive_) throw NetError("ShardConnection: connection is down");
    }
    // Register BEFORE sending: another thread may read the reply before
    // this one would get around to registering afterwards.
    rid = next_id_++;
    pending_.emplace(rid, std::nullopt);
  }
  std::vector<std::uint8_t> out;
  out.reserve(13 + payload.size());
  append_frame(out, type, rid, payload);
  bool ok = false;
  {
    std::lock_guard<std::mutex> lock(write_m_);
    ok = send_all_blocking(fd_, out.data(), out.size());
  }
  if (!ok) {
    std::lock_guard<std::mutex> lock(pending_m_);
    pending_.erase(rid);
    throw NetError("ShardConnection: send failed");
  }
  return rid;
}

Frame ShardConnection::await(std::uint64_t request_id) {
  std::unique_lock<std::mutex> lock(pending_m_);
  const auto it = pending_.find(request_id);
  if (it == pending_.end()) {
    throw NetError("ShardConnection: unknown or already-awaited request");
  }
  // unordered_map nodes are stable: the slot stays put while other
  // requests come and go, and only this thread erases it. (Iterators are
  // not: an insert may rehash, so the slot is erased by key below.)
  std::optional<Frame>& slot = it->second;
  while (!slot && alive_) {
    if (reading_) {
      filed_.wait(lock);
      continue;
    }
    // Take the turn and read until this reply arrives, filing the others'
    // on the way; then hand the turn to whoever still waits.
    reading_ = true;
    while (!slot && alive_) {
      if (read_and_file(lock, /*wait=*/true) && !slot) filed_.notify_all();
    }
    reading_ = false;
    filed_.notify_all();
  }
  if (!slot) {
    pending_.erase(request_id);
    throw NetError("ShardConnection: connection died awaiting a reply");
  }
  Frame reply = *std::move(slot);
  pending_.erase(request_id);
  return reply;
}

Frame ShardConnection::roundtrip(FrameType type,
                                 std::span<const std::uint8_t> payload) {
  return await(begin(type, payload));
}

// ---- ClusterClient --------------------------------------------------------

ClusterClient::ClusterClient(const ClusterOptions& opts)
    : router_(std::make_unique<Router>(opts.endpoints, opts.virtual_nodes)) {
  for (const std::string& e : router_->endpoints()) {
    conns_.emplace(e, std::make_unique<ShardConnection>(e));
  }
}

ShardConnection& ClusterClient::connection(const std::string& endpoint) {
  const auto it = conns_.find(endpoint);
  if (it == conns_.end()) {
    throw NetError("ClusterClient: no connection to " + endpoint);
  }
  return *it->second;
}

api::SystemId ClusterClient::register_encoded(
    const std::string& endpoint, std::span<const std::uint8_t> encoded) {
  Frame reply = connection(endpoint).roundtrip(FrameType::RegisterSystem, encoded);
  if (reply.type == FrameType::Error) {
    WireReader r(reply.payload);
    throw NetError("shard " + endpoint + ": " + r.str());
  }
  if (reply.type != FrameType::RegisterAck) {
    throw NetError("ClusterClient: unexpected registration reply");
  }
  WireReader r(reply.payload);
  const api::SystemId id = r.u32();
  r.expect_end();
  return id;
}

TenantId ClusterClient::register_system(const platform::System& sys) {
  const std::uint64_t fp = sys.fingerprint();
  const std::string& endpoint = router_->endpoint_for(fp);
  WireWriter w;
  encode_system(w, sys);
  const api::SystemId remote = register_encoded(endpoint, w.view());
  std::lock_guard<std::mutex> lock(tenants_m_);
  tenants_.push_back(Tenant{fp, endpoint, remote});
  return static_cast<TenantId>(tenants_.size() - 1);
}

PendingQuery ClusterClient::submit(TenantId tenant, const api::QueryDesc& desc) {
  std::string endpoint;
  api::SystemId remote = 0;
  {
    std::lock_guard<std::mutex> lock(tenants_m_);
    const Tenant& t = tenants_.at(tenant);
    endpoint = t.endpoint;
    remote = t.remote_id;
  }
  WireWriter w;
  w.u32(remote);
  encode_query_desc(w, desc);
  ShardConnection& conn = connection(endpoint);
  return PendingQuery{&conn, conn.begin(FrameType::Query, w.view())};
}

api::QueryValue ClusterClient::await(const PendingQuery& pending) {
  if (pending.conn == nullptr) {
    throw NetError("ClusterClient: empty PendingQuery");
  }
  Frame reply = pending.conn->await(pending.request_id);
  if (reply.type == FrameType::Error) {
    WireReader r(reply.payload);
    throw NetError("query failed: " + r.str());
  }
  if (reply.type != FrameType::QueryResult) {
    throw NetError("ClusterClient: unexpected query reply");
  }
  WireReader r(reply.payload);
  api::QueryValue value = decode_query_value(r);
  r.expect_end();
  return value;
}

api::QueryValue ClusterClient::query(TenantId tenant, const api::QueryDesc& desc) {
  return await(submit(tenant, desc));
}

WireStats ClusterClient::stats(std::size_t shard) {
  const std::string& endpoint = router_->endpoints().at(shard);
  Frame reply = connection(endpoint).roundtrip(FrameType::StatsRequest, {});
  if (reply.type != FrameType::StatsReply) {
    throw NetError("ClusterClient: unexpected stats reply");
  }
  WireReader r(reply.payload);
  WireStats stats = decode_stats(r);
  r.expect_end();
  return stats;
}

std::size_t ClusterClient::tenant_count() const {
  std::lock_guard<std::mutex> lock(tenants_m_);
  return tenants_.size();
}

const std::string& ClusterClient::tenant_endpoint(TenantId tenant) const {
  std::lock_guard<std::mutex> lock(tenants_m_);
  return tenants_.at(tenant).endpoint;
}

std::size_t ClusterClient::set_endpoints(std::vector<std::string> endpoints) {
  auto next = std::make_unique<Router>(std::move(endpoints),
                                       64);  // same smoothness as construction
  // Connect new shards first: migration needs both ends live.
  for (const std::string& e : next->endpoints()) {
    if (conns_.find(e) == conns_.end()) {
      conns_.emplace(e, std::make_unique<ShardConnection>(e));
    }
  }

  std::size_t migrated = 0;
  {
    std::lock_guard<std::mutex> lock(tenants_m_);
    for (Tenant& t : tenants_) {
      const std::string& home = next->endpoint_for(t.fingerprint);
      if (home == t.endpoint) continue;
      // Snapshot the resident system off the old shard and replay the
      // returned bytes verbatim on the new one: the codec round-trips
      // bitwise, so the migrated tenant fingerprints and answers
      // identically to the original registration.
      WireWriter w;
      w.u32(t.remote_id);
      Frame snap =
          connection(t.endpoint).roundtrip(FrameType::SnapshotRequest, w.view());
      if (snap.type == FrameType::Error) {
        WireReader r(snap.payload);
        throw NetError("snapshot of tenant on " + t.endpoint + " failed: " +
                       r.str());
      }
      if (snap.type != FrameType::SnapshotReply) {
        throw NetError("ClusterClient: unexpected snapshot reply");
      }
      t.remote_id = register_encoded(home, snap.payload);
      t.endpoint = home;
      ++migrated;
    }
  }

  // Drop connections to shards that left the fleet.
  for (auto it = conns_.begin(); it != conns_.end();) {
    const auto& eps = next->endpoints();
    const bool keep =
        std::find(eps.begin(), eps.end(), it->first) != eps.end();
    it = keep ? std::next(it) : conns_.erase(it);
  }
  router_ = std::move(next);
  return migrated;
}

}  // namespace procon::net
