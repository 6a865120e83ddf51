// End-to-end tests of the net:: cluster tier: loopback AnalysisServers on
// ephemeral ports, a routed ClusterClient, and bitwise identity of every
// routed result against a direct in-process AnalysisService oracle —
// including across a membership change that migrates tenants.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/service.h"
#include "helpers.h"
#include "net/client.h"
#include "net/codec.h"
#include "net/router.h"
#include "net/server.h"

namespace procon::net {
namespace {

platform::System one_app_system(sdf::Graph g) {
  std::vector<sdf::Graph> apps;
  apps.push_back(std::move(g));
  platform::Platform plat = platform::Platform::homogeneous(apps[0].actor_count());
  platform::Mapping map = platform::Mapping::by_index(apps, plat);
  return platform::System(std::move(apps), std::move(plat), std::move(map));
}

std::vector<std::uint8_t> payload_bytes(const api::QueryValue& v) {
  WireWriter w;
  encode_query_payload(w, v);
  return w.take();
}

TEST(Router, DeterministicAndOrderIndependent) {
  const std::vector<std::string> a{":1000", ":2000", ":3000"};
  const std::vector<std::string> b{":3000", ":1000", ":2000"};
  const Router ra(a);
  const Router rb(b);
  for (std::uint64_t fp = 1; fp < 2000; fp += 7) {
    EXPECT_EQ(ra.endpoint_for(fp), rb.endpoint_for(fp));
  }
}

TEST(Router, RejectsEmptyAndDuplicateEndpoints) {
  EXPECT_THROW(Router({}), std::invalid_argument);
  EXPECT_THROW(Router({":1", ":2", ":1"}), std::invalid_argument);
}

TEST(Router, BalancesAndMovesFewKeysOnGrowth) {
  const Router r3({":1", ":2", ":3"});
  const Router r4({":1", ":2", ":3", ":4"});
  std::vector<std::size_t> load(3, 0);
  std::size_t moved = 0;
  const std::size_t keys = 4096;
  for (std::uint64_t fp = 0; fp < keys; ++fp) {
    ++load[r3.shard_for(fp)];
    if (r3.endpoint_for(fp) != r4.endpoint_for(fp)) ++moved;
  }
  // Balance: no shard holds more than 60% of what uniform would triple.
  for (const std::size_t l : load) {
    EXPECT_GT(l, keys / 8);
    EXPECT_LT(l, keys / 2);
  }
  // Consistency: growing 3 -> 4 should move roughly 1/4 of the keys, and
  // certainly far less than a full reshuffle (which moves ~3/4).
  EXPECT_LT(moved, keys / 2);
  EXPECT_GT(moved, keys / 16);
}

TEST(Cluster, RoutedQueriesMatchDirectOracleBitwise) {
  AnalysisServer s1{ServerOptions{}};
  AnalysisServer s2{ServerOptions{}};
  ClusterClient cluster(ClusterOptions{
      .endpoints = {":" + std::to_string(s1.port()),
                    ":" + std::to_string(s2.port())}});
  api::AnalysisService oracle{api::ServiceOptions{}};

  std::vector<platform::System> systems;
  systems.push_back(procon::testing::fig2_system());
  systems.push_back(one_app_system(procon::testing::fig2_graph_a()));
  systems.push_back(one_app_system(procon::testing::fig2_graph_b()));
  systems.push_back(one_app_system(procon::testing::two_actor_cycle(30, 40)));

  std::vector<TenantId> routed;
  std::vector<api::SystemId> direct;
  for (const auto& sys : systems) {
    routed.push_back(cluster.register_system(sys));
    direct.push_back(oracle.register_system(sys));
  }

  // Pipeline a mixed workload over the wire, then compare every decoded
  // result's payload bytes with the in-process oracle.
  std::vector<api::QueryDesc> descs;
  std::vector<PendingQuery> pending;
  std::vector<std::size_t> tenant_of;
  for (std::size_t k = 0; k < 24; ++k) {
    api::QueryDesc d;
    d.kind = static_cast<api::QueryKind>(k % 7);
    d.sim.horizon = 10'000;
    const std::size_t t = k % systems.size();
    descs.push_back(d);
    tenant_of.push_back(t);
    pending.push_back(cluster.submit(routed[t], d));
  }
  for (std::size_t k = 0; k < pending.size(); ++k) {
    const api::QueryValue over_wire = cluster.await(pending[k]);
    const api::QueryValue local =
        oracle.submit(direct[tenant_of[k]], descs[k]).get();
    EXPECT_EQ(payload_bytes(over_wire), payload_bytes(local)) << "query " << k;
  }

  // Every tenant's recorded home agrees with the ring. (Which shard that
  // is depends on the servers' ephemeral port numbers — the endpoint
  // strings seed the ring — so asserting the tenants *spread* would be
  // run-dependent; ring balance is covered by
  // Router.BalancesAndMovesFewKeysOnGrowth above.)
  for (std::size_t t = 0; t < systems.size(); ++t) {
    EXPECT_EQ(cluster.tenant_endpoint(routed[t]),
              cluster.router().endpoint_for(systems[t].fingerprint()));
  }

  // The shards' wire-visible counters account for every routed submit.
  std::uint64_t submitted = 0;
  for (std::size_t s = 0; s < cluster.router().shard_count(); ++s) {
    submitted += cluster.stats(s).service.submitted;
  }
  EXPECT_EQ(submitted, pending.size());
}

TEST(Cluster, IdenticalTenantsShareOneRemoteSession) {
  AnalysisServer server{ServerOptions{}};
  ClusterClient cluster(ClusterOptions{
      .endpoints = {":" + std::to_string(server.port())}});
  // Bitwise-identical systems fingerprint equal, route to the same shard,
  // and share one resident session there.
  const TenantId a = cluster.register_system(procon::testing::fig2_system());
  const TenantId b = cluster.register_system(procon::testing::fig2_system());
  EXPECT_EQ(cluster.tenant_endpoint(a), cluster.tenant_endpoint(b));
  (void)cluster.query(a, api::QueryDesc{});
  (void)cluster.query(b, api::QueryDesc{});
  EXPECT_EQ(server.service().session_count(), 1u);
}

TEST(Cluster, MigrationPreservesResultsBitwise) {
  AnalysisServer s1{ServerOptions{}};
  AnalysisServer s2{ServerOptions{}};
  AnalysisServer s3{ServerOptions{}};
  const std::string e1 = ":" + std::to_string(s1.port());
  const std::string e2 = ":" + std::to_string(s2.port());
  const std::string e3 = ":" + std::to_string(s3.port());

  // Start with one shard; all tenants live there.
  ClusterClient cluster(ClusterOptions{.endpoints = {e1}});
  std::vector<platform::System> systems;
  systems.push_back(procon::testing::fig2_system());
  systems.push_back(one_app_system(procon::testing::fig2_graph_a()));
  systems.push_back(one_app_system(procon::testing::two_actor_cycle(5, 9)));
  std::vector<TenantId> ids;
  std::vector<std::vector<std::uint8_t>> before;
  api::QueryDesc contention;
  contention.kind = api::QueryKind::Contention;
  for (const auto& sys : systems) {
    ids.push_back(cluster.register_system(sys));
    EXPECT_EQ(cluster.tenant_endpoint(ids.back()), e1);
    before.push_back(payload_bytes(cluster.query(ids.back(), contention)));
  }

  // Grow to three shards: displaced tenants ride SnapshotRequest /
  // SnapshotReply / RegisterSystem to their new homes.
  const std::size_t migrated = cluster.set_endpoints({e1, e2, e3});
  std::size_t moved_homes = 0;
  for (const TenantId id : ids) {
    if (cluster.tenant_endpoint(id) != e1) ++moved_homes;
  }
  EXPECT_EQ(migrated, moved_homes);

  // Results after migration are byte-identical to before — for every
  // tenant, wherever it now lives.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(payload_bytes(cluster.query(ids[i], contention)), before[i]);
  }

  // Shrink back to one shard: every tenant returns to e1, still bitwise.
  (void)cluster.set_endpoints({e1});
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(cluster.tenant_endpoint(ids[i]), e1);
    EXPECT_EQ(payload_bytes(cluster.query(ids[i], contention)), before[i]);
  }
}

TEST(Cluster, ServerSendsErrorFrameForUnknownTenant) {
  AnalysisServer server{ServerOptions{}};
  ShardConnection conn(":" + std::to_string(server.port()));
  WireWriter w;
  w.u32(9999);  // never registered
  api::QueryDesc d;
  encode_query_desc(w, d);
  const Frame reply = conn.roundtrip(FrameType::Query, w.view());
  EXPECT_EQ(reply.type, FrameType::Error);
  WireReader r(reply.payload);
  EXPECT_FALSE(r.str().empty());
}

TEST(Cluster, ServerSurvivesGarbagePayloadAndServesNextClient) {
  AnalysisServer server{ServerOptions{}};
  {
    // A well-framed Query whose payload is garbage earns an Error frame —
    // the codec's bounds checks turn it away before it can wedge anything.
    ShardConnection conn(":" + std::to_string(server.port()));
    const std::vector<std::uint8_t> garbage{0xFF, 0xFF, 0xFF, 0x7F};
    const Frame reply = conn.roundtrip(FrameType::Query, garbage);
    EXPECT_EQ(reply.type, FrameType::Error);
  }
  // The next, well-behaved client is served normally.
  ClusterClient cluster(ClusterOptions{
      .endpoints = {":" + std::to_string(server.port())}});
  const TenantId t = cluster.register_system(procon::testing::fig2_system());
  const api::QueryValue v = cluster.query(t, api::QueryDesc{});
  EXPECT_EQ(v.index(), 0u);
}

TEST(Cluster, ResultHitIsNotDelayedByInFlightQueries) {
  // One completion worker: on a server that hands every reply to the
  // completion pool, the hit's reply queues behind the two slow queries'
  // completion tasks, which block until those queries finish.
  AnalysisServer server{ServerOptions{
      .completion_threads = 2, .service = api::ServiceOptions{.threads = 3}}};
  const std::string endpoint = ":" + std::to_string(server.port());
  ClusterClient cluster(ClusterOptions{.endpoints = {endpoint}});
  const TenantId hot = cluster.register_system(procon::testing::fig2_system());
  const TenantId slow_a =
      cluster.register_system(one_app_system(procon::testing::fig2_graph_a()));
  const TenantId slow_b =
      cluster.register_system(one_app_system(procon::testing::fig2_graph_b()));

  const api::QueryDesc warm{};
  const std::vector<std::uint8_t> warm_bytes = payload_bytes(cluster.query(hot, warm));
  ShardConnection probe(endpoint);
  auto executed = [&] {
    const Frame reply = probe.roundtrip(FrameType::StatsRequest, {});
    WireReader r(reply.payload);
    return decode_stats(r).service.executed;
  };
  ASSERT_EQ(executed(), 1u);

  // Two long simulations, one per session, run on the service's two
  // workers for far longer than a round trip takes.
  api::QueryDesc slow;
  slow.kind = api::QueryKind::Simulate;
  slow.sim.horizon = 100'000'000;
  const PendingQuery pa = cluster.submit(slow_a, slow);
  const PendingQuery pb = cluster.submit(slow_b, slow);

  const PendingQuery hit = cluster.submit(hot, warm);
  EXPECT_EQ(payload_bytes(cluster.await(hit)), warm_bytes);
  // StatsRequest is answered inline by the poll thread: `executed` counts
  // a query once it has finished, so neither slow one had when the hit's
  // reply came back.
  EXPECT_EQ(executed(), 1u);

  (void)cluster.await(pa);
  (void)cluster.await(pb);
  EXPECT_EQ(executed(), 3u);
}

TEST(Cluster, ConcurrentAwaitersOutOfOrderMatchOracleBitwise) {
  // No reader thread: the awaiting threads read the shared connections
  // themselves, taking turns, and file each reply into its own slot.
  AnalysisServer s1{ServerOptions{}};
  AnalysisServer s2{ServerOptions{}};
  ClusterClient cluster(ClusterOptions{
      .endpoints = {":" + std::to_string(s1.port()),
                    ":" + std::to_string(s2.port())}});
  api::AnalysisService oracle{api::ServiceOptions{}};

  std::vector<platform::System> systems;
  systems.push_back(procon::testing::fig2_system());
  systems.push_back(one_app_system(procon::testing::fig2_graph_a()));
  systems.push_back(one_app_system(procon::testing::fig2_graph_b()));
  systems.push_back(one_app_system(procon::testing::two_actor_cycle(30, 40)));
  std::vector<TenantId> routed;
  std::vector<api::SystemId> direct;
  for (const auto& sys : systems) {
    routed.push_back(cluster.register_system(sys));
    direct.push_back(oracle.register_system(sys));
  }

  // Each query has its own simulation seed, so most replies are computed,
  // not result hits, and finish in no particular order.
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 12;
  auto desc_of = [](std::size_t q) {
    api::QueryDesc d;
    d.kind = static_cast<api::QueryKind>(q % 7);
    d.sim.horizon = 5'000;
    d.sim.sample_seed = q;
    return d;
  };
  std::vector<std::vector<std::uint8_t>> expected(kThreads * kPerThread);
  for (std::size_t q = 0; q < expected.size(); ++q) {
    expected[q] = payload_bytes(
        oracle.submit(direct[q % systems.size()], desc_of(q)).get());
  }

  std::vector<std::vector<std::uint8_t>> got(expected.size());
  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        std::vector<PendingQuery> pending;
        for (std::size_t i = 0; i < kPerThread; ++i) {
          const std::size_t q = t * kPerThread + i;
          pending.push_back(cluster.submit(routed[q % systems.size()], desc_of(q)));
        }
        // Await out of submission order: odd positions backwards, then
        // even ones, rotated by the thread index.
        std::vector<std::size_t> order;
        for (std::size_t i = kPerThread; i-- > 0;) {
          if (i % 2 == 1) order.push_back(i);
        }
        for (std::size_t i = 0; i < kPerThread; i += 2) order.push_back(i);
        std::rotate(order.begin(), order.begin() + (t % kPerThread), order.end());
        for (const std::size_t i : order) {
          got[t * kPerThread + i] = payload_bytes(cluster.await(pending[i]));
        }
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0u);
  for (std::size_t q = 0; q < expected.size(); ++q) {
    EXPECT_EQ(got[q], expected[q]) << "query " << q;
  }
}

TEST(Cluster, PipeliningPastSocketBuffersDoesNotDeadlock) {
  // One thread submits query after query and awaits none until the end.
  // The replies add up to far more than the loopback socket buffers hold,
  // and the submitting goes on for longer than the server waits on a peer
  // that takes nothing (5 s). Each submit takes in the replies already
  // readable, so the server's writes keep draining; were they left in the
  // socket, the server would find the connection wedged and drop it.
  AnalysisServer server{ServerOptions{}};
  ClusterClient cluster(ClusterOptions{
      .endpoints = {":" + std::to_string(server.port())}});
  api::AnalysisService oracle{api::ServiceOptions{}};
  const TenantId tenant = cluster.register_system(procon::testing::fig2_system());
  const api::SystemId direct = oracle.register_system(procon::testing::fig2_system());

  // A traced simulation: its reply carries every service interval.
  api::QueryDesc traced;
  traced.kind = api::QueryKind::Simulate;
  traced.sim.horizon = 100'000;
  traced.sim.collect_trace = true;
  const std::vector<std::uint8_t> expected =
      payload_bytes(oracle.submit(direct, traced).get());
  ASSERT_GE(expected.size(), std::size_t{64} << 10);
  const std::size_t count = (std::size_t{16} << 20) / expected.size() + 1;

  // A burst that fills the buffers at once, then more submits, spaced out
  // over longer than the server's 5 s.
  std::vector<PendingQuery> pending;
  for (std::size_t i = 0; i < count; ++i) {
    pending.push_back(cluster.submit(tenant, traced));
  }
  const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(7);
  while (std::chrono::steady_clock::now() < until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    pending.push_back(cluster.submit(tenant, traced));
  }
  for (const PendingQuery& p : pending) {
    EXPECT_EQ(payload_bytes(cluster.await(p)), expected);
  }
}

TEST(Cluster, StopWhileServingNeverPokesAClosedWakePipe) {
  // stop() pokes the poll loop's wake pipe. A loop that is already awake
  // can see the stop request and exit before the poke lands, so the pipe
  // must still be open then: a closed read end raises SIGPIPE, which at its
  // default action ends this test.
  const auto previous = std::signal(SIGPIPE, SIG_DFL);
  for (int round = 0; round < 100; ++round) {
    AnalysisServer server{ServerOptions{
        .completion_threads = 2, .service = api::ServiceOptions{.threads = 1}}};
    ShardConnection conn(":" + std::to_string(server.port()));
    std::atomic<bool> stopped{false};
    std::thread client([&] {
      // Keep the loop busy with round trips until the server goes away.
      while (!stopped.load()) {
        try {
          (void)conn.roundtrip(FrameType::StatsRequest, {});
        } catch (const std::exception&) {
          break;
        }
      }
    });
    server.stop();
    stopped.store(true);
    client.join();
    server.stop();  // idempotent
  }
  std::signal(SIGPIPE, previous);
}

}  // namespace
}  // namespace procon::net
