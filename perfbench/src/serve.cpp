// Workload `serve`: the multi-tenant remote path. A net::ClusterClient
// routes queries to 2 in-process loopback net::AnalysisServer shards, each
// running a 2-thread service pool, a 2-thread completion pool and 4
// session slots. 16 tenants (3 generated applications of 3-6 actors each,
// from a fixed generator seed; tenants 13-15 are renamed, structurally
// identical copies of tenants 0-2) outnumber the session slots. 544 query
// keys (use-case-restricted Contention in two methods, Wcrt, Throughput,
// Latency and 20k-horizon Simulate): a request picks a tenant uniformly,
// then a key zipf(1) over the tenant's seeded ranking, or (10%) a one-off
// simulation, so coalescing, the result cache and the transposition table
// all both hit and miss.
//
//   open loop:   a tenth of the run (at least 1 s): seeded Poisson
//                arrivals at a fixed rate well under capacity, from one
//                generator thread; latency is timed from each request's due
//                time, so a stall counts against every request queued
//                behind it.
//   closed loop: the rest of the run: 4 requests outstanding from one
//                thread, in episodes of 8 chunks of 4096 queries, each
//                episode on a freshly built and warmed fleet; completed q/s
//                and latency per chunk.
//
// Within one run the median chunk of one fleet ranged over +-15% from fleet
// to fleet; the episodes spread each run's chunks over a couple of dozen
// fleets, so that no one fleet's state (its warm-up, its cache contents)
// sets the run's figure.
//
// The whole workload (client, shards, their pools) runs on one CPU. On the
// 4-vCPU virtual machine this was tuned on, whenever the host was busy, a
// run spread over several vCPUs lost 5-18% of its time to steal and ten
// runs read 9k-30k closed-loop queries per second (p99 0.4-4.3 ms); every
// hand-off between the layers wakes a thread, and on another vCPU that
// waits for the host. On one vCPU the hand-offs are local context switches,
// steal stayed at 0-1% in the same minutes, and the figures held. The
// workload measures the CPU cost of the routed path, not its parallelism.
//
// Every routed answer is compared byte for byte with a direct in-process
// api::AnalysisService oracle. admission, dse and the design-time sweeps
// are never called.
#include <sched.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/transposition_table.h"
#include "api/service.h"
#include "api/workbench.h"
#include "common.h"
#include "gen/graph_generator.h"
#include "gen/use_cases.h"
#include "net/client.h"
#include "net/codec.h"
#include "net/server.h"
#include "prob/estimator.h"

namespace perfbench {
namespace {

using namespace procon;

/// Confines the calling thread, and so every thread it starts afterwards,
/// to the first CPU it may run on. Returns that CPU, or -1 when the
/// affinity could not be set.
int pin_to_first_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0 ? c : -1;
  }
  return -1;
}

constexpr std::size_t kShards = 2;
// Tenants are generated from a fixed seed, like the design workload's
// system: --seed draws the key ranking and the request streams.
constexpr std::uint64_t kTenantSeed = 2007;
// Shards listen on fixed loopback ports when they are free: the router
// places tenants by hashing "host:port" strings, so ephemeral ports would
// re-deal tenants to shards on every run.
constexpr std::uint16_t kMainPorts = 39400;
constexpr std::uint16_t kReplayPorts = 39410;
constexpr std::size_t kDistinctTenants = 13;
constexpr std::size_t kDuplicateTenants = 3;
constexpr std::size_t kTenants = kDistinctTenants + kDuplicateTenants;
constexpr std::size_t kAppsPerTenant = 3;
constexpr std::size_t kServiceThreads = 2;
constexpr std::size_t kCompletionThreads = 2;
constexpr std::size_t kSessionCapacity = 4;
constexpr sdf::Time kSimHorizon = 20'000;
constexpr double kOpenRate = 8000.0;     // open-loop arrivals per second
constexpr double kOpenShare = 0.1;       // open-loop share of the run
constexpr double kOpenMinS = 1.0;
constexpr double kOpenWindowS = 1.0;     // open-loop window: >= 1000 arrivals
constexpr std::size_t kWindow = 4;       // closed-loop outstanding requests
constexpr std::size_t kReplayQueries = 1500;
constexpr std::size_t kReplayRepeats = 3;  // peel: calls per executed query, levels 3-4
constexpr std::size_t kChunk = 4096;     // closed-loop window: queries
constexpr std::size_t kEpisodeChunks = 8;  // closed-loop chunks per fleet
// Share of requests that are one-off simulations (a fresh sample seed, so a
// key no earlier request had). They keep the service executing, and the
// result cache reclaims by executed queries: without them a repeating key
// space ends up cached whole and the cache stops missing.
constexpr double kUniqueShare = 0.1;

api::ServiceOptions service_options() {
  api::ServiceOptions o;
  o.threads = kServiceThreads;
  o.session_capacity = kSessionCapacity;
  return o;
}

platform::System tenant_system(std::uint64_t seed, std::size_t t) {
  util::Rng rng(util::counter_seed(seed, 0x5E, t));
  gen::GeneratorOptions gopts;
  gopts.min_actors = 3;
  gopts.max_actors = 6;
  auto graphs = gen::generate_graphs(rng, gopts, kAppsPerTenant,
                                     "t" + std::to_string(t) + "_");
  std::size_t max_actors = 0;
  for (const auto& g : graphs) max_actors = std::max(max_actors, g.actor_count());
  platform::Platform plat = platform::Platform::homogeneous(max_actors);
  platform::Mapping map = platform::Mapping::by_index(graphs, plat);
  return platform::System(std::move(graphs), std::move(plat), std::move(map));
}

std::vector<platform::System> make_tenants(std::uint64_t seed) {
  std::vector<platform::System> systems;
  systems.reserve(kTenants);
  for (std::size_t t = 0; t < kDistinctTenants; ++t) systems.push_back(tenant_system(seed, t));
  for (std::size_t d = 0; d < kDuplicateTenants; ++d) {
    // Same structure under other names: a separate session, shared
    // (name-free) transposition entries and the same home shard.
    const platform::System& src = systems[d];
    std::vector<sdf::Graph> graphs(src.apps().begin(), src.apps().end());
    for (auto& g : graphs) g.set_name("copy_" + g.name());
    systems.emplace_back(std::move(graphs), src.platform(), src.mapping());
  }
  return systems;
}

struct Key {
  std::size_t tenant = 0;
  api::QueryDesc desc;
};

/// One request of a stream: key `key`, or, when `seed` is non-zero, the
/// one-off variant of Simulate key `key` with that sample seed. Without
/// stochastic execution times a simulation does not depend on its seed, so
/// the variant's answer is the key's.
struct Request {
  std::size_t key = 0;
  std::uint64_t seed = 0;
};

std::vector<Key> make_keys() {
  std::vector<Key> keys;
  const auto ucs = gen::all_use_cases(kAppsPerTenant);
  for (std::size_t t = 0; t < kTenants; ++t) {
    for (const auto& uc : ucs) {
      for (const prob::Method m : {prob::Method::SecondOrder, prob::Method::Composability}) {
        Key k{t, {}};
        k.desc.kind = api::QueryKind::Contention;
        k.desc.use_case = uc;
        k.desc.estimator.method = m;
        keys.push_back(k);
      }
      Key w{t, {}};
      w.desc.kind = api::QueryKind::Wcrt;
      w.desc.use_case = uc;
      keys.push_back(w);
      Key s{t, {}};
      s.desc.kind = api::QueryKind::Simulate;
      s.desc.use_case = uc;
      s.desc.sim.horizon = kSimHorizon;
      keys.push_back(s);
    }
    for (sdf::AppId a = 0; a < kAppsPerTenant; ++a) {
      for (const api::QueryKind kind : {api::QueryKind::Throughput, api::QueryKind::Latency}) {
        Key k{t, {}};
        k.desc.kind = kind;
        k.desc.app = a;
        keys.push_back(k);
      }
    }
  }
  return keys;
}

/// Per-tenant popularity ranking of the keys (rank 0 hottest). Every
/// tenant's ranks run through the query kinds in one fixed interleaving,
/// proportional to their key counts; the seed picks which use-case or
/// application fills each slot, within a fixed alternation of use-case
/// sizes and methods. Every seed thus gives each tenant the same mix of
/// kinds and sizes at each popularity tier; only the specific keys change.
std::vector<std::vector<std::size_t>> rank_keys(const std::vector<Key>& keys,
                                                std::uint64_t seed) {
  constexpr std::size_t kKinds = 5;
  auto kind_of = [](const api::QueryDesc& d) -> std::size_t {
    switch (d.kind) {
      case api::QueryKind::Contention: return 0;
      case api::QueryKind::Wcrt: return 1;
      case api::QueryKind::Simulate: return 2;
      case api::QueryKind::Throughput: return 3;
      default: return 4;
    }
  };
  util::Rng rng(util::counter_seed(seed, 0x5E, 100));
  // by_kind[t][k]: tenant t's keys of kind k, in seeded order.
  std::vector<std::array<std::vector<std::size_t>, kKinds>> by_kind(kTenants);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    by_kind[keys[i].tenant][kind_of(keys[i].desc)].push_back(i);
  }
  // Within a kind, keys alternate over classes (use-case size, method) in a
  // fixed order; the seed only orders the keys inside each class.
  auto class_of = [&](std::size_t i) {
    const api::QueryDesc& d = keys[i].desc;
    return d.use_case.size() * 8 + static_cast<std::size_t>(d.estimator.method);
  };
  for (auto& t : by_kind) {
    for (auto& k : t) {
      std::map<std::size_t, std::vector<std::size_t>> classes;
      for (const std::size_t i : k) classes[class_of(i)].push_back(i);
      for (auto& [c, members] : classes) rng.shuffle(members);
      k.clear();
      for (std::size_t round = 0;; ++round) {
        bool any = false;
        for (auto& [c, members] : classes) {
          if (round < members.size()) {
            k.push_back(members[round]);
            any = true;
          }
        }
        if (!any) break;
      }
    }
  }
  // Fixed kind interleaving: slot i takes the kind furthest behind its
  // proportional share.
  const std::size_t per_tenant = keys.size() / kTenants;
  std::array<std::size_t, kKinds> count{}, taken{};
  for (std::size_t k = 0; k < kKinds; ++k) count[k] = by_kind[0][k].size();
  std::vector<std::vector<std::size_t>> ranking(kTenants);
  for (std::size_t i = 0; i < per_tenant; ++i) {
    std::size_t best = 0;
    double best_deficit = -1e9;
    for (std::size_t k = 0; k < kKinds; ++k) {
      if (taken[k] == count[k]) continue;
      const double deficit = static_cast<double>(count[k]) * static_cast<double>(i + 1) /
                                 static_cast<double>(per_tenant) -
                             static_cast<double>(taken[k]);
      if (deficit > best_deficit) {
        best_deficit = deficit;
        best = k;
      }
    }
    for (std::size_t t = 0; t < kTenants; ++t) ranking[t].push_back(by_kind[t][best][taken[best]]);
    ++taken[best];
  }
  return ranking;
}

/// Draws requests: a uniformly drawn tenant, then either (kUniqueShare) a
/// one-off simulation of a uniformly drawn use-case, or a key zipf(1) over
/// the tenant's ranking. Tenants are equally popular so that the load each
/// shard's session slots see is fixed by the placement alone.
class RequestStream {
 public:
  RequestStream(const std::vector<Key>& keys,
                const std::vector<std::vector<std::size_t>>& ranking, util::Rng rng,
                std::uint64_t stream)
      : keys_(keys), ranking_(ranking), zipf_(ranking.front().size()), rng_(rng),
        next_seed_(stream << 40), sim_keys_(kTenants) {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (keys[i].desc.kind == api::QueryKind::Simulate) {
        sim_keys_[keys[i].tenant].push_back(i);
      }
    }
  }
  Request next() {
    const auto t = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(kTenants) - 1));
    if (rng_.uniform01() < kUniqueShare) {
      const auto pick = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(sim_keys_[t].size()) - 1));
      return {sim_keys_[t][pick], ++next_seed_};
    }
    return {ranking_[t][zipf_.draw(rng_)], 0};
  }
  /// The descriptor of `q`; one-off variants are built in `scratch`.
  const api::QueryDesc& desc(const Request& q, api::QueryDesc& scratch) const {
    if (q.seed == 0) return keys_[q.key].desc;
    scratch = keys_[q.key].desc;
    scratch.sim.sample_seed = q.seed;
    return scratch;
  }

 private:
  const std::vector<Key>& keys_;
  const std::vector<std::vector<std::size_t>>& ranking_;
  Zipf zipf_;
  util::Rng rng_;
  std::uint64_t next_seed_;
  std::vector<std::vector<std::size_t>> sim_keys_;  // per tenant
};

std::vector<std::uint8_t> payload_bytes(const api::QueryValue& v) {
  net::WireWriter w;
  net::encode_query_payload(w, v);
  return w.take();
}

/// A fleet of loopback shards plus the routing client, tenants registered.
struct Fleet {
  std::vector<std::unique_ptr<net::AnalysisServer>> servers;
  std::unique_ptr<net::ClusterClient> client;
  std::vector<net::TenantId> ids;
  bool fixed_ports = true;

  Fleet(const std::vector<platform::System>& tenants, std::uint16_t first_port) {
    std::vector<std::string> endpoints;
    for (std::size_t s = 0; s < kShards; ++s) {
      net::ServerOptions so;
      so.completion_threads = kCompletionThreads;
      so.service = service_options();
      so.port = static_cast<std::uint16_t>(first_port + s);
      try {
        servers.push_back(std::make_unique<net::AnalysisServer>(so));
      } catch (const net::NetError&) {
        so.port = 0;  // taken: any free port (another placement)
        servers.push_back(std::make_unique<net::AnalysisServer>(so));
        fixed_ports = false;
      }
      endpoints.push_back(":" + std::to_string(servers.back()->port()));
    }
    client = std::make_unique<net::ClusterClient>(net::ClusterOptions{.endpoints = endpoints});
    for (const auto& sys : tenants) ids.push_back(client->register_system(sys));
  }
  ~Fleet() {
    // Servers first, while their poll loops sleep: AnalysisServer::stop()
    // pokes its wake pipe after publishing the stop flag, and a poll loop
    // already awake (say, on a client hang-up) can see the flag and close
    // the pipe before the poke lands, which then raises SIGPIPE.
    for (auto& s : servers) s->stop();
    client.reset();
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Adds the shards' service and transposition counters to the totals.
  void add_stats(api::ServiceStats& svc, analysis::TranspositionTable::Stats& tt) const {
    for (std::size_t s = 0; s < servers.size(); ++s) {
      const net::WireStats w = client->stats(s);
      svc.submitted += w.service.submitted;
      svc.coalesced += w.service.coalesced;
      svc.executed += w.service.executed;
      svc.sessions_built += w.service.sessions_built;
      svc.sessions_evicted += w.service.sessions_evicted;
      svc.result_hits += w.service.result_hits;
      tt.hits += w.table.hits;
      tt.misses += w.table.misses;
      tt.evictions += w.table.evictions;
    }
  }

  /// Shard index serving a tenant.
  [[nodiscard]] std::size_t shard_of(std::size_t tenant) const {
    const std::string& ep = client->tenant_endpoint(ids[tenant]);
    for (std::size_t s = 0; s < servers.size(); ++s) {
      if (ep == ":" + std::to_string(servers[s]->port())) return s;
    }
    throw std::logic_error("serve: tenant endpoint not in the fleet");
  }
};

/// Blocking FIFO handing in-flight requests from the generator to a
/// collector.
template <typename T>
class Channel {
 public:
  void push(T v) {
    {
      std::lock_guard<std::mutex> lock(m_);
      q_.push_back(std::move(v));
    }
    cv_.notify_one();
  }
  void close() {
    {
      std::lock_guard<std::mutex> lock(m_);
      closed_ = true;
    }
    cv_.notify_all();
  }
  /// Next item, or false once closed and drained.
  bool pop(T& out) {
    std::unique_lock<std::mutex> lock(m_);
    cv_.wait(lock, [&] { return closed_ || !q_.empty(); });
    if (q_.empty()) return false;
    out = std::move(q_.front());
    q_.pop_front();
    return true;
  }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  std::deque<T> q_;
  bool closed_ = false;
};

}  // namespace

Result run_serve(const Args& args) {
  Result r;
  // Before the first thread starts: every thread inherits the affinity.
  const int cpu = pin_to_first_cpu();
  if (cpu < 0) throw std::runtime_error("serve: cannot confine the workload to one CPU");
  r.setting("cpu_affinity", "one CPU (cpu " + std::to_string(cpu) + ")");
  r.setting("shards", std::to_string(kShards));
  r.setting("service_threads_per_shard", std::to_string(kServiceThreads));
  r.setting("completion_threads_per_shard", std::to_string(kCompletionThreads));
  r.setting("session_capacity_per_shard", std::to_string(kSessionCapacity));
  r.setting("tenants", std::to_string(kTenants) + " (" + std::to_string(kDuplicateTenants) +
                           " structural copies)");
  r.setting("client_threads", "generator 1 + collectors 2 (open loop); 1 (closed loop)");
  r.setting("open_loop_rate_per_s", std::to_string(kOpenRate));
  r.setting("closed_loop_window", std::to_string(kWindow));
  r.setting("closed_loop_chunk", std::to_string(kChunk));
  r.setting("closed_loop_episode_chunks", std::to_string(kEpisodeChunks));
  r.setting("simulate_horizon", std::to_string(kSimHorizon));

  // ---- set-up: tenant generation + shards + client + registration --------
  // Timed kSetupReps times here and once for every closed-loop episode's
  // fleet (common.h).
  std::vector<platform::System> tenants;
  Samples setup;
  auto set_up = [&](std::unique_ptr<Fleet>& f) {
    f.reset();
    setup.add(seconds_of([&] {
      tenants = make_tenants(kTenantSeed);
      f = std::make_unique<Fleet>(tenants, kMainPorts);
    }));
  };
  std::unique_ptr<Fleet> fleet;
  for (int i = 0; i < kSetupReps; ++i) set_up(fleet);

  bool fixed_ports = fleet->fixed_ports;
  const std::vector<Key> keys = make_keys();
  r.info("serve_key_space", static_cast<double>(keys.size()), "count");

  // The oracle: one direct in-process service; expected payload per key.
  std::vector<std::vector<std::uint8_t>> expected(keys.size());
  {
    api::AnalysisService oracle(api::ServiceOptions{});
    std::vector<api::SystemId> oids;
    for (const auto& sys : tenants) oids.push_back(oracle.register_system(sys));
    std::vector<api::QueryTicket> tickets;
    tickets.reserve(keys.size());
    for (const Key& k : keys) tickets.push_back(oracle.submit(oids[k.tenant], k.desc));
    for (std::size_t i = 0; i < keys.size(); ++i) expected[i] = payload_bytes(tickets[i].get());
  }

  const auto ranking = rank_keys(keys, args.seed);
  auto key_stream = [&](std::uint64_t stream) {
    return RequestStream(keys, ranking, util::counter_rng(args.seed, 0x5E, stream),
                         stream);
  };

  std::mutex fail_m;
  auto check = [&](std::size_t key, const api::QueryValue& v) {
    if (payload_bytes(v) != expected[key]) {
      std::lock_guard<std::mutex> lock(fail_m);
      r.fail("routed answer differs from the in-process oracle");
    }
  };
  auto record_error = [&](const std::exception& e) {
    std::lock_guard<std::mutex> lock(fail_m);
    r.fail(std::string("routed query failed: ") + e.what());
  };

  // Warm-up: every key once, pipelined, tenants interleaved, so sessions,
  // tables and caches are primed as in a long-running server. The burst
  // reaches every tenant while the sessions already built still have
  // queued work, and the service never evicts a busy session: it overflows
  // its session bound instead, and trims the overflow only at a later
  // session miss, which never comes once every tenant is resident. So after
  // this warm-up every tenant keeps its session (service.sessions_evicted
  // stays at the warm-up's count); a quieter warm-up leaves the bound in
  // force, and the run then flips between the two states at random.
  std::vector<std::size_t> warm_order;  // every key, tenants interleaved
  const std::size_t per_tenant = keys.size() / kTenants;
  for (std::size_t j = 0; j < per_tenant; ++j) {
    for (std::size_t t = 0; t < kTenants; ++t) warm_order.push_back(t * per_tenant + j);
  }
  auto warm_fleet = [&](Fleet& f) {
    std::vector<net::PendingQuery> burst;
    for (const std::size_t i : warm_order) {
      burst.push_back(f.client->submit(f.ids[keys[i].tenant], keys[i].desc));
    }
    for (std::size_t b = 0; b < burst.size(); ++b) check(warm_order[b], f.client->await(burst[b]));
  };
  warm_fleet(*fleet);

  // Front-door counters, summed over the shards of every fleet.
  api::ServiceStats svc;
  analysis::TranspositionTable::Stats tt;

  // ---- open loop -----------------------------------------------------------
  const double open_s = std::min(args.seconds / 2.0,
                                 std::max(kOpenMinS, kOpenShare * args.seconds));
  net::ClusterClient& client = *fleet->client;
  struct InFlight {
    Clock::time_point due;
    std::size_t key = 0;
    net::PendingQuery pending;
  };
  Samples window_p50, window_p99, lag_us;
  std::size_t open_samples = 0;
  std::uint64_t open_attempted = 0;
  {
    std::vector<std::unique_ptr<Channel<InFlight>>> lanes;
    for (std::size_t s = 0; s < kShards; ++s) lanes.push_back(std::make_unique<Channel<InFlight>>());
    // Per lane: (due offset in seconds, latency in us).
    std::vector<std::vector<std::pair<double, double>>> lane_lat(kShards);
    const auto open_start = Clock::now();
    std::vector<std::thread> collectors;
    for (std::size_t s = 0; s < kShards; ++s) {
      collectors.emplace_back([&, s] {
        InFlight f;
        while (lanes[s]->pop(f)) {
          const double due_s = seconds_between(open_start, f.due);
          try {
            const api::QueryValue v = client.await(f.pending);
            lane_lat[s].emplace_back(due_s, us_between(f.due, Clock::now()));
            check(f.key, v);
          } catch (const std::exception& e) {
            // A failed request misses every latency limit.
            lane_lat[s].emplace_back(due_s, std::numeric_limits<double>::infinity());
            record_error(e);
          }
        }
      });
    }
    std::thread generator([&] {
      RequestStream requests = key_stream(1);
      util::Rng arrivals = util::counter_rng(args.seed, 0x5E, 2);
      api::QueryDesc scratch;
      std::vector<const void*> conn_lane;
      const auto t0 = open_start;
      double offset_s = 0.0;
      while (true) {
        offset_s += -std::log(1.0 - arrivals.uniform01()) / kOpenRate;
        if (offset_s >= open_s) break;
        const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(offset_s));
        std::this_thread::sleep_until(due);
        const Request q = requests.next();
        const api::QueryDesc& desc = requests.desc(q, scratch);
        lag_us.add(us_between(due, Clock::now()));
        ++open_attempted;
        try {
          net::PendingQuery p = client.submit(fleet->ids[keys[q.key].tenant], desc);
          std::size_t lane = std::find(conn_lane.begin(), conn_lane.end(), p.conn) -
                             conn_lane.begin();
          if (lane == conn_lane.size()) conn_lane.push_back(p.conn);
          lanes[lane % kShards]->push({due, q.key, p});
        } catch (const std::exception& e) {
          record_error(e);
        }
      }
      for (auto& l : lanes) l->close();
    });
    generator.join();
    for (auto& c : collectors) c.join();
    // One window is one second of due times.
    const auto n_windows =
        std::max<std::size_t>(1, static_cast<std::size_t>(open_s / kOpenWindowS));
    std::vector<Samples> windows(n_windows);
    for (const auto& lane : lane_lat) {
      for (const auto& [due_s, us] : lane) {
        const auto w = static_cast<std::size_t>(due_s / kOpenWindowS);
        windows[std::min(w, n_windows - 1)].add(us);
        ++open_samples;
      }
    }
    for (Samples& w : windows) {
      window_p50.add(w.quantile(0.50));
      window_p99.add(w.quantile(0.99));
    }
  }
  fleet->add_stats(svc, tt);
  fleet.reset();

  // ---- closed loop ---------------------------------------------------------
  const double closed_s = args.seconds - open_s;
  std::uint64_t closed_done = 0;
  std::size_t episodes = 0;
  double closed_elapsed = 0.0;
  Samples traced_chunk_s, untraced_chunk_s, submit_us, chunk_p50, chunk_p99;
  {
    RequestStream requests = key_stream(3);
    api::QueryDesc scratch;
    struct Outstanding {
      std::size_t key = 0;
      net::PendingQuery pending;
      Clock::time_point sent;
    };
    Samples latency_us;  // the current chunk's query latencies
    bool traced_turn = false;
    const auto start = Clock::now();
    auto more = [&] { return seconds_between(start, Clock::now()) < closed_s; };
    while (episodes == 0 || more()) {
      set_up(fleet);
      Fleet& f = *fleet;
      fixed_ports = fixed_ports && f.fixed_ports;
      warm_fleet(f);
      ++episodes;
      std::deque<Outstanding> window;
      auto submit_next = [&](bool timed) {
        const Request q = requests.next();
        const api::QueryDesc& desc = requests.desc(q, scratch);
        const auto t0 = Clock::now();
        net::PendingQuery p = f.client->submit(f.ids[keys[q.key].tenant], desc);
        if (timed) submit_us.add(us_between(t0, Clock::now()));
        window.push_back({q.key, p, t0});
      };
      for (std::size_t i = 0; i < kWindow; ++i) submit_next(false);
      std::size_t chunks = 0, in_chunk = 0;
      latency_us = Samples{};
      auto chunk_start = Clock::now();
      while (!window.empty()) {
        const bool go_on = chunks < kEpisodeChunks && more();
        const bool traced = args.trace && traced_turn;
        const Outstanding o = window.front();
        window.pop_front();
        try {
          const api::QueryValue v = f.client->await(o.pending);
          latency_us.add(us_between(o.sent, Clock::now()));
          check(o.key, v);
        } catch (const std::exception& e) {
          latency_us.add(std::numeric_limits<double>::infinity());
          record_error(e);
        }
        ++closed_done;
        if (go_on) submit_next(traced);
        if (++in_chunk == kChunk) {
          (traced ? traced_chunk_s : untraced_chunk_s)
              .add(seconds_between(chunk_start, Clock::now()));
          if (!traced) {
            chunk_p50.add(latency_us.quantile(0.50));
            chunk_p99.add(latency_us.quantile(0.99));
          }
          latency_us = Samples{};
          traced_turn = !traced_turn;
          in_chunk = 0;
          ++chunks;
          chunk_start = Clock::now();
        }
      }
      f.add_stats(svc, tt);
    }
    fleet.reset();
    closed_elapsed = seconds_between(start, Clock::now());
  }
  r.attempted = open_attempted + closed_done;
  r.setting("shard_ports", fixed_ports ? "fixed" : "ephemeral (fixed ports taken)");

  const double p50 = window_p50.trimmed_mean();
  const double p99 = window_p99.trimmed_mean();
  const double closed_p50 = chunk_p50.trimmed_mean();
  const double closed_p99 = chunk_p99.trimmed_mean();
  // End to end: the closed loop, one window per chunk of 4096 queries. The
  // open loop's latencies (from due time) are reported as detail: when the
  // machine is short of CPU the generator thread itself falls behind by
  // milliseconds, and the open-loop tail then measures the machine.
  const double qps = static_cast<double>(kChunk) / untraced_chunk_s.trimmed_mean();
  r.e2e("setup_s", setup.median());
  r.e2e("peak_rss_mb", peak_rss_mb());
  r.e2e("ops_per_s", qps);
  r.e2e("p50_us", closed_p50);
  r.e2e("p99_us", closed_p99);
  r.info("serve_p50_us", p50, "us");
  r.info("serve_p99_us", p99, "us");
  r.info("serve_closed_p50_us", closed_p50, "us");
  r.info("serve_closed_p99_us", closed_p99, "us");
  r.info("serve_qps", qps, "1/s");
  r.info("serve_qps_mean", static_cast<double>(closed_done) / closed_elapsed, "1/s");
  r.info("serve_open_loop_samples", static_cast<double>(open_samples), "count");
  r.info("serve_open_loop_windows", static_cast<double>(window_p50.size()), "count");
  r.info("serve_generator_lag_p99_us", lag_us.quantile(0.99), "us");
  r.info("serve_closed_loop_chunks", static_cast<double>(chunk_p50.size()), "count");
  r.info("serve_closed_loop_episodes", static_cast<double>(episodes), "count");
  r.info("serve_coalesce_ratio",
         svc.submitted ? double(svc.coalesced) / double(svc.submitted) : 0.0, "ratio");
  r.info("serve_result_hit_ratio",
         svc.submitted ? double(svc.result_hits) / double(svc.submitted) : 0.0, "ratio");
  r.info("serve_sessions_built", static_cast<double>(svc.sessions_built), "count");
  r.info("serve_sessions_evicted", static_cast<double>(svc.sessions_evicted), "count");

  if (!args.trace) return r;

  // ---- traced run ------------------------------------------------------------
  r.layer("service.coalesce_ratio",
          svc.submitted ? double(svc.coalesced) / double(svc.submitted) : 0.0);
  r.layer("service.result_hit_ratio",
          svc.submitted ? double(svc.result_hits) / double(svc.submitted) : 0.0);
  r.layer("service.executed", static_cast<double>(svc.executed));
  r.layer("service.sessions_built", static_cast<double>(svc.sessions_built));
  r.layer("service.sessions_evicted", static_cast<double>(svc.sessions_evicted));
  r.layer("analysis.tt_hit_ratio",
          tt.hits + tt.misses ? double(tt.hits) / double(tt.hits + tt.misses) : 0.0);
  r.layer("analysis.tt_evictions", static_cast<double>(tt.evictions));
  r.layer("net.submit_us", submit_us.mean());
  const double tm = traced_chunk_s.trimmed_mean(), um = untraced_chunk_s.trimmed_mean();
  r.layer("trace_overhead_pct", um > 0.0 ? 100.0 * (tm - um) / um : 0.0);

  // Peeling: one seeded query stream replayed serially at four levels,
  // each built fresh and warmed like the live fleet (every key once):
  //   1. routed through a fresh fleet, whose tenant placement the
  //      in-process levels reproduce;
  //   2. the same services in process, one per shard, same options;
  //   3. one Workbench session per tenant, a table per shard;
  //   4. the layers under the Workbench, driven directly (a Latency query
  //      has no entry point there and stays in the Workbench's share).
  // The levels take each query in turn, so the machine's drift moves them
  // alike. Levels 1 and 2 answer most of the stream from the result cache;
  // a query goes on to levels 3 and 4 only when the level-2 service
  // executed it, so each level runs the work the level above hands down
  // and adjacent levels differ by one layer.
  std::vector<Request> stream;
  RequestStream replay = key_stream(4);
  for (std::size_t i = 0; i < kReplayQueries; ++i) stream.push_back(replay.next());
  api::QueryDesc scratch;
  const std::size_t n = stream.size();
  std::vector<double> routed(n), service(n), bench(n, 0.0), lower(n, 0.0);
  std::size_t executed = 0;
  Samples encode_us, decode_us, resp_bytes, submit1_us, svc_submit_us, svc_wait_us;
  Samples wb_us[5];  // contention, wcrt, throughput, latency, simulate
  Samples prob2_us, probc_us, wcrt_us, sim_us, rec_us;
  double prob_s = 0.0, wcrt_s = 0.0, sim_s = 0.0, analysis_s = 0.0;
  std::uint64_t sim_events = 0;
  {
    Fleet f(tenants, kReplayPorts);
    std::vector<std::size_t> shard(kTenants);
    for (std::size_t t = 0; t < kTenants; ++t) shard[t] = f.shard_of(t);
    warm_fleet(f);

    std::vector<std::unique_ptr<api::AnalysisService>> services;
    for (std::size_t s = 0; s < kShards; ++s) {
      services.push_back(std::make_unique<api::AnalysisService>(service_options()));
    }
    std::vector<api::SystemId> sids;
    for (std::size_t t = 0; t < kTenants; ++t) {
      sids.push_back(services[shard[t]]->register_system(tenants[t]));
    }
    {
      std::vector<api::QueryTicket> burst;
      for (const std::size_t i : warm_order) {
        const Key& k = keys[i];
        burst.push_back(services[shard[k.tenant]]->submit(sids[k.tenant], k.desc));
      }
      for (auto& t : burst) t.wait();
    }

    std::vector<std::shared_ptr<analysis::TranspositionTable>> tables;
    for (std::size_t s = 0; s < kShards; ++s) {
      tables.push_back(std::make_shared<analysis::TranspositionTable>());
    }
    std::vector<std::unique_ptr<api::Workbench>> sessions;
    for (std::size_t t = 0; t < kTenants; ++t) {
      sessions.push_back(std::make_unique<api::Workbench>(
          tenants[t], api::WorkbenchOptions{.threads = 1, .table = tables[shard[t]]}));
    }
    auto run_bench = [&](std::size_t tenant, const api::QueryDesc& desc) {
      api::Workbench& wb = *sessions[tenant];
      const auto t0 = Clock::now();
      switch (desc.kind) {
        case api::QueryKind::Contention: (void)wb.contention(desc.use_case, desc.estimator); break;
        case api::QueryKind::Wcrt: (void)wb.wcrt(desc.use_case, desc.wcrt); break;
        case api::QueryKind::Throughput: (void)wb.throughput(desc.app); break;
        case api::QueryKind::Latency: (void)wb.latency(desc.app); break;
        default: (void)wb.simulate(desc.use_case, desc.sim); break;
      }
      return us_between(t0, Clock::now());
    };
    for (const std::size_t i : warm_order) (void)run_bench(keys[i].tenant, keys[i].desc);

    std::vector<std::unique_ptr<LowerLayers>> lv;
    for (const auto& sys : tenants) lv.push_back(std::make_unique<LowerLayers>(sys));
    auto run_lower = [&](std::size_t tenant, const api::QueryDesc& desc,
                         std::uint64_t& events) -> double {
      LowerLayers& L = *lv[tenant];
      switch (desc.kind) {
        case api::QueryKind::Contention:
          return L.estimate(prob::ContentionEstimator(desc.estimator), desc.use_case);
        case api::QueryKind::Wcrt: return L.bounds(desc.wcrt, desc.use_case);
        case api::QueryKind::Throughput: return L.recompute(desc.app);
        case api::QueryKind::Simulate: return L.simulate(desc.use_case, desc.sim, events);
        default: return 0.0;
      }
    };
    std::uint64_t warm_events = 0;
    for (const std::size_t i : warm_order) {
      (void)run_lower(keys[i].tenant, keys[i].desc, warm_events);
    }

    auto kind_slot = [](api::QueryKind k) -> std::size_t {
      switch (k) {
        case api::QueryKind::Contention: return 0;
        case api::QueryKind::Wcrt: return 1;
        case api::QueryKind::Throughput: return 2;
        case api::QueryKind::Latency: return 3;
        default: return 4;
      }
    };
    auto answered = [](const api::ServiceStats& st) { return st.result_hits + st.coalesced; };
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t tenant = keys[stream[i].key].tenant;
      const api::QueryDesc& desc = replay.desc(stream[i], scratch);

      // Level 1, plus the codec on the stream's own values (outside the
      // timed query).
      const auto t0 = Clock::now();
      const net::PendingQuery p = f.client->submit(f.ids[tenant], desc);
      const auto t1 = Clock::now();
      const api::QueryValue v = f.client->await(p);
      routed[i] = us_between(t0, Clock::now());
      submit1_us.add(us_between(t0, t1));
      check(stream[i].key, v);
      net::WireWriter w;
      const auto e0 = Clock::now();
      net::encode_query_desc(w, desc);
      encode_us.add(us_between(e0, Clock::now()));
      w.clear();
      net::encode_query_value(w, v);
      resp_bytes.add(static_cast<double>(w.size()));
      net::WireReader rd(w.view());
      const auto d0 = Clock::now();
      (void)net::decode_query_value(rd);
      decode_us.add(us_between(d0, Clock::now()));

      // Level 2. submit() counts a result-cache hit or a coalesced twin
      // before it returns; any other submit is executed on a session.
      api::AnalysisService& svc_of = *services[shard[tenant]];
      const std::uint64_t answered_before = answered(svc_of.stats());
      const auto s0 = Clock::now();
      api::QueryTicket ticket = svc_of.submit(sids[tenant], desc);
      const auto s1 = Clock::now();
      ticket.wait();
      service[i] = us_between(s0, Clock::now());
      svc_submit_us.add(us_between(s0, s1));
      svc_wait_us.add(us_between(s1, Clock::now()));
      check(stream[i].key, ticket.get());
      if (answered(svc_of.stats()) != answered_before) continue;
      ++executed;

      // Levels 3 and 4, alternately, kReplayRepeats times each; the
      // median call of each level stands for the query.
      Samples bench_rep, lower_rep;
      std::uint64_t events = 0;
      for (std::size_t k = 0; k < kReplayRepeats; ++k) {
        bench_rep.add(run_bench(tenant, desc));
        lower_rep.add(run_lower(tenant, desc, events));
      }
      sim_events += events / kReplayRepeats;
      bench[i] = bench_rep.median();
      wb_us[kind_slot(desc.kind)].add(bench[i]);
      const double us = lower_rep.median();
      lower[i] = us;
      switch (desc.kind) {
        case api::QueryKind::Contention:
          (desc.estimator.method == prob::Method::SecondOrder ? prob2_us : probc_us).add(us);
          prob_s += us * 1e-6;
          break;
        case api::QueryKind::Wcrt:
          wcrt_us.add(us);
          wcrt_s += us * 1e-6;
          break;
        case api::QueryKind::Throughput:
          rec_us.add(us);
          analysis_s += us * 1e-6;
          break;
        case api::QueryKind::Simulate:
          sim_us.add(us);
          sim_s += us * 1e-6;
          break;
        default:
          break;
      }
    }
  }

  double sum_routed = 0, sum_service = 0, sum_bench = 0, sum_lower = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sum_routed += routed[i];
    sum_service += service[i];
    sum_bench += bench[i];
    sum_lower += lower[i];
  }
  LayerTimes lt;
  // End to end is the routed level's time. The levels telescope, so the
  // residual is 0 up to rounding: every routed microsecond is some layer's.
  lt.end_to_end = sum_routed * 1e-6;
  lt.net = (sum_routed - sum_service) * 1e-6;
  lt.service = (sum_service - sum_bench) * 1e-6;
  lt.workbench = (sum_bench - sum_lower) * 1e-6;
  lt.prob = prob_s;
  lt.wcrt = wcrt_s;
  lt.sim = sim_s;
  lt.analysis = analysis_s;
  lt.report(r);
  r.layer("net.overhead_us", (sum_routed - sum_service) / static_cast<double>(n));
  r.layer("net.encode_us", encode_us.mean());
  r.layer("net.decode_us", decode_us.mean());
  r.layer("net.resp_bytes", resp_bytes.mean());
  r.layer("service.submit_us", svc_submit_us.mean());
  r.layer("service.wait_us", svc_wait_us.mean());
  r.layer("workbench.contention_us", wb_us[0].mean());
  r.layer("workbench.wcrt_us", wb_us[1].mean());
  r.layer("workbench.throughput_us", wb_us[2].mean());
  r.layer("workbench.simulate_us", wb_us[4].mean());
  r.layer("prob.estimate_second_us", prob2_us.mean());
  r.layer("prob.estimate_composability_us", probc_us.mean());
  r.layer("workbench.dispatch_us", wb_us[0].mean() - (prob2_us.sum() + probc_us.sum()) /
                                                        std::max<double>(1.0, double(prob2_us.size() + probc_us.size())));
  r.layer("wcrt.bounds_us", wcrt_us.mean());
  r.layer("analysis.recompute_us", rec_us.mean());
  r.layer("sim.run_us", sim_us.mean());
  r.layer("sim.events", static_cast<double>(sim_events));
  r.layer("sim.ns_per_event",
          sim_events > 0 ? 1e9 * sim_s / static_cast<double>(sim_events) : 0.0);
  r.info("replay_queries", static_cast<double>(n), "count");
  r.info("replay_executed", static_cast<double>(executed), "count");
  r.info("replay_submit_us", submit1_us.mean(), "us");
  return r;
}

}  // namespace perfbench
