#include "admission/admission.h"

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "gen/graph_generator.h"
#include "helpers.h"
#include "prob/estimator.h"
#include "sdf/algorithms.h"
#include "sdf/repetition.h"
#include "util/rng.h"

namespace procon::admission {
namespace {

using procon::testing::fig2_graph_a;
using procon::testing::fig2_graph_b;

std::vector<platform::NodeId> index_mapping(const sdf::Graph& g) {
  std::vector<platform::NodeId> nodes(g.actor_count());
  for (sdf::ActorId a = 0; a < g.actor_count(); ++a) nodes[a] = a;
  return nodes;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(Admission, FirstAppAlwaysFitsAlone) {
  AdmissionController ctrl(platform::Platform::homogeneous(3));
  const auto g = fig2_graph_a();
  const Decision d = ctrl.request(g, index_mapping(g), QoS{350.0});
  ASSERT_TRUE(d.admitted);
  EXPECT_NEAR(d.predicted_period, 300.0, 1e-6);  // no contention yet
  EXPECT_EQ(ctrl.admitted_count(), 1u);
}

TEST(Admission, SecondAppPredictedWithContention) {
  AdmissionController ctrl(platform::Platform::homogeneous(3));
  const auto a = fig2_graph_a();
  const auto b = fig2_graph_b();
  ASSERT_TRUE(ctrl.request(a, index_mapping(a), QoS{400.0}).admitted);
  const Decision d = ctrl.request(b, index_mapping(b), QoS{400.0});
  ASSERT_TRUE(d.admitted);
  // Section 3.1: the contended period estimate is 358.33.
  EXPECT_NEAR(d.predicted_period, 1075.0 / 3.0, 1e-5);
  // And A's post-admission prediction is reported and identical.
  ASSERT_EQ(d.peer_periods.size(), 1u);
  EXPECT_NEAR(d.peer_periods[0], 1075.0 / 3.0, 1e-5);
}

TEST(Admission, RejectsWhenOwnQosUnmet) {
  AdmissionController ctrl(platform::Platform::homogeneous(3));
  const auto a = fig2_graph_a();
  const auto b = fig2_graph_b();
  ASSERT_TRUE(ctrl.request(a, index_mapping(a), QoS{400.0}).admitted);
  const Decision d = ctrl.request(b, index_mapping(b), QoS{310.0});
  EXPECT_FALSE(d.admitted);
  EXPECT_NE(d.reason.find("exceeds its QoS bound"), std::string::npos);
  EXPECT_EQ(ctrl.admitted_count(), 1u);  // state unchanged
}

TEST(Admission, RejectsWhenPeerQosWouldBreak) {
  AdmissionController ctrl(platform::Platform::homogeneous(3));
  const auto a = fig2_graph_a();
  const auto b = fig2_graph_b();
  // A has a tight bound that B's arrival would violate.
  ASSERT_TRUE(ctrl.request(a, index_mapping(a), QoS{310.0}).admitted);
  const Decision d = ctrl.request(b, index_mapping(b), QoS{1000.0});
  EXPECT_FALSE(d.admitted);
  EXPECT_NE(d.reason.find("'A'"), std::string::npos);
}

TEST(Admission, RemoveRestoresCapacity) {
  AdmissionController ctrl(platform::Platform::homogeneous(3));
  const auto a = fig2_graph_a();
  const auto b = fig2_graph_b();
  const Decision da = ctrl.request(a, index_mapping(a), QoS{310.0});
  ASSERT_TRUE(da.admitted);
  // B with a bound only satisfiable alone.
  EXPECT_FALSE(ctrl.request(b, index_mapping(b), QoS{310.0}).admitted);
  ctrl.remove(*da.handle);
  EXPECT_EQ(ctrl.admitted_count(), 0u);
  // Node composites are exactly back to identity: the fold of no loads.
  for (platform::NodeId n = 0; n < 3; ++n) {
    EXPECT_TRUE(same_bits(ctrl.node_load(n).probability, 0.0));
    EXPECT_TRUE(same_bits(ctrl.node_load(n).weighted_blocking, 0.0));
  }
  EXPECT_TRUE(ctrl.request(b, index_mapping(b), QoS{310.0}).admitted);
}

TEST(Admission, RemoveUnknownHandleThrows) {
  AdmissionController ctrl(platform::Platform::homogeneous(2));
  EXPECT_THROW(ctrl.remove(0), std::out_of_range);
  const auto g = procon::testing::two_actor_cycle(10, 10);
  const Decision d = ctrl.request(g, index_mapping(g), QoS::no_requirement());
  ASSERT_TRUE(d.admitted);
  ctrl.remove(*d.handle);
  EXPECT_THROW(ctrl.remove(*d.handle), std::out_of_range);  // double remove
}

TEST(Admission, PredictedPeriodTracksEstimator) {
  // The controller's incremental predictions must match the batch
  // CompositionInverse estimator on the same system.
  AdmissionController ctrl(platform::Platform::homogeneous(3));
  const auto a = fig2_graph_a();
  const auto b = fig2_graph_b();
  const Decision da = ctrl.request(a, index_mapping(a), QoS::no_requirement());
  const Decision db = ctrl.request(b, index_mapping(b), QoS::no_requirement());
  ASSERT_TRUE(da.admitted);
  ASSERT_TRUE(db.admitted);

  const auto sys = procon::testing::fig2_system();
  const auto batch = prob::ContentionEstimator(
                         prob::EstimatorOptions{.method = prob::Method::CompositionInverse})
                         .estimate(sys);
  EXPECT_NEAR(ctrl.predicted_period(*da.handle), batch[0].estimated_period, 1e-6);
  EXPECT_NEAR(ctrl.predicted_period(*db.handle), batch[1].estimated_period, 1e-6);
}

TEST(Admission, ValidationErrors) {
  AdmissionController ctrl(platform::Platform::homogeneous(2));
  const auto g = procon::testing::two_actor_cycle(10, 10);
  // Wrong mapping size.
  EXPECT_THROW((void)ctrl.request(g, {0}, QoS::no_requirement()), sdf::GraphError);
  // Nonexistent node.
  EXPECT_THROW((void)ctrl.request(g, {0, 9}, QoS::no_requirement()), sdf::GraphError);
  // Deadlocked graph.
  sdf::Graph dead("dead");
  const auto x = dead.add_actor("x", 1);
  const auto y = dead.add_actor("y", 1);
  dead.add_channel(x, y, 1, 1, 0);
  dead.add_channel(y, x, 1, 1, 0);
  EXPECT_THROW((void)ctrl.request(dead, {0, 1}, QoS::no_requirement()),
               sdf::GraphError);
}

TEST(Admission, ManyAppsAccumulateLoad) {
  // Admit the same graph repeatedly (best effort): each admission must
  // raise the predicted period of the first one monotonically.
  AdmissionController ctrl(platform::Platform::homogeneous(2));
  const auto g = procon::testing::two_actor_cycle(10, 30);
  const Decision first = ctrl.request(g, {0, 1}, QoS::no_requirement());
  ASSERT_TRUE(first.admitted);
  double last = ctrl.predicted_period(*first.handle);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ctrl.request(g, {0, 1}, QoS::no_requirement()).admitted);
    const double now = ctrl.predicted_period(*first.handle);
    EXPECT_GE(now + 1e-9, last);
    last = now;
  }
  EXPECT_EQ(ctrl.admitted_count(), 6u);
}

TEST(Admission, NodeLoadInvalidIdThrows) {
  AdmissionController ctrl(platform::Platform::homogeneous(1));
  EXPECT_THROW((void)ctrl.node_load(5), std::out_of_range);
}

TEST(Admission, WhatIfAdmitMatchesRequestWithoutCommitting) {
  AdmissionController ctrl(platform::Platform::homogeneous(3));
  const auto a = fig2_graph_a();
  const auto b = fig2_graph_b();
  ASSERT_TRUE(ctrl.request(a, index_mapping(a), QoS{400.0}).admitted);

  // Probe the exact request that would be granted: same verdict and
  // predictions as request(), but nothing changes.
  const WhatIfReport would = ctrl.what_if_admit(b, index_mapping(b), QoS{400.0});
  EXPECT_TRUE(would.admissible);
  EXPECT_EQ(ctrl.admitted_count(), 1u);

  const Decision real = ctrl.request(b, index_mapping(b), QoS{400.0});
  ASSERT_TRUE(real.admitted);
  EXPECT_EQ(would.predicted_period, real.predicted_period);
  ASSERT_EQ(would.peer_periods.size(), real.peer_periods.size());
  for (std::size_t i = 0; i < would.peer_periods.size(); ++i) {
    EXPECT_EQ(would.peer_periods[i], real.peer_periods[i]);
  }
  // The full report covers active apps + candidate (last), and matches the
  // batch estimator over the committed system bit for bit.
  ASSERT_EQ(would.estimates.size(), 2u);
  const auto batch =
      prob::ContentionEstimator().estimate(ctrl.snapshot_system());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(would.estimates[i].isolation_period, batch[i].isolation_period);
    EXPECT_EQ(would.estimates[i].estimated_period, batch[i].estimated_period);
  }
}

TEST(Admission, WhatIfAdmitRejectionLeavesStateUntouched) {
  AdmissionController ctrl(platform::Platform::homogeneous(3));
  const auto a = fig2_graph_a();
  const auto b = fig2_graph_b();
  ASSERT_TRUE(ctrl.request(a, index_mapping(a), QoS{310.0}).admitted);

  // B would break A's tight QoS: the probe reports it, nothing mutates.
  const WhatIfReport would =
      ctrl.what_if_admit(b, index_mapping(b), QoS{1000.0});
  EXPECT_FALSE(would.admissible);
  EXPECT_NE(would.reason.find("'A'"), std::string::npos);
  EXPECT_EQ(ctrl.admitted_count(), 1u);
  // The composites are untouched: the real request reproduces the verdict.
  EXPECT_FALSE(ctrl.request(b, index_mapping(b), QoS{1000.0}).admitted);
  // Probing repeatedly never leaks candidate state into the store.
  for (int i = 0; i < 3; ++i) {
    (void)ctrl.what_if_admit(b, index_mapping(b), QoS{1000.0});
  }
  EXPECT_EQ(ctrl.admitted_count(), 1u);
  EXPECT_NO_THROW((void)ctrl.snapshot_system().validate());
}

TEST(Admission, WhatIfRemovePredictsReliefWithoutRemoving) {
  AdmissionController ctrl(platform::Platform::homogeneous(3));
  const auto a = fig2_graph_a();
  const auto b = fig2_graph_b();
  const Decision da = ctrl.request(a, index_mapping(a), QoS::no_requirement());
  const Decision db = ctrl.request(b, index_mapping(b), QoS::no_requirement());
  ASSERT_TRUE(da.admitted);
  ASSERT_TRUE(db.admitted);

  const WhatIfReport relief = ctrl.what_if_remove(*db.handle);
  EXPECT_TRUE(relief.admissible);
  EXPECT_EQ(ctrl.admitted_count(), 2u);  // nothing removed
  ASSERT_EQ(relief.peer_periods.size(), 2u);
  EXPECT_EQ(relief.peer_periods[*db.handle], 0.0);
  // Alone again, A's predicted period returns to its isolation period.
  EXPECT_NEAR(relief.peer_periods[*da.handle], 300.0, 1e-6);
  ASSERT_EQ(relief.estimates.size(), 1u);
  EXPECT_NEAR(relief.estimates[0].estimated_period, 300.0, 1e-6);

  // The prediction is bitwise what remove() actually produces.
  ctrl.remove(*db.handle);
  EXPECT_TRUE(same_bits(ctrl.predicted_period(*da.handle),
                        relief.peer_periods[*da.handle]));
  EXPECT_THROW((void)ctrl.what_if_remove(*db.handle), std::out_of_range);
}

// History independence: after any admit/remove sequence, node loads and
// predictions are bitwise those of a fresh controller that admitted only
// the survivors, in handle order. Removal re-folds; it never peels a load
// back out with the Eq. 8/9 inverses, whose residue would break this.
TEST(Admission, ChurnMatchesFreshControllerOfActiveSet) {
  constexpr platform::NodeId kNodes = 5;
  const platform::Platform plat = platform::Platform::homogeneous(kNodes);
  util::Rng rng(16);
  gen::GeneratorOptions gopts;
  gopts.min_actors = 3;
  gopts.max_actors = 6;
  std::vector<sdf::Graph> pool = gen::generate_graphs(rng, gopts, 7, "churn");
  // One actor is busy all period: P = 1, the load Eq. 8/9 cannot invert.
  sdf::Graph solo("solo");
  (void)solo.add_actor("s", 40);
  pool.push_back(solo);
  const std::size_t solo_idx = pool.size() - 1;
  std::vector<std::vector<platform::NodeId>> maps;
  for (const sdf::Graph& g : pool) {
    std::vector<platform::NodeId> nodes(g.actor_count());
    for (platform::NodeId& n : nodes) {
      n = static_cast<platform::NodeId>(rng.uniform_int(0, kNodes - 1));
    }
    maps.push_back(std::move(nodes));
  }
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };

  AdmissionController live(plat);
  std::vector<std::pair<AppHandle, std::size_t>> active;  // (handle, pool idx)
  WhatIfOptions verdict_only;
  verdict_only.with_estimates = false;
  WhatIfReport live_probe;
  WhatIfReport fresh_probe;
  std::size_t removals = 0;
  std::size_t solo_removals = 0;
  for (int op = 0; op < 200; ++op) {
    if (active.size() < 2 || (active.size() < 8 && rng.bernoulli(0.5))) {
      const std::size_t idx = pick(pool.size());
      const Decision d = live.request(pool[idx], maps[idx], QoS::no_requirement());
      ASSERT_TRUE(d.admitted);
      active.emplace_back(*d.handle, idx);
      continue;
    }
    const std::size_t victim = pick(active.size());
    live.remove(active[victim].first);
    solo_removals += active[victim].second == solo_idx ? 1 : 0;
    active.erase(active.begin() + static_cast<std::ptrdiff_t>(victim));
    ++removals;

    SCOPED_TRACE("operation " + std::to_string(op));
    AdmissionController fresh(plat);
    std::vector<AppHandle> fresh_handles;
    for (const auto& [handle, idx] : active) {
      const Decision d = fresh.request(pool[idx], maps[idx], QoS::no_requirement());
      ASSERT_TRUE(d.admitted);
      fresh_handles.push_back(*d.handle);
    }
    for (platform::NodeId n = 0; n < kNodes; ++n) {
      EXPECT_TRUE(same_bits(live.node_load(n).probability,
                            fresh.node_load(n).probability)) << "node " << n;
      EXPECT_TRUE(same_bits(live.node_load(n).weighted_blocking,
                            fresh.node_load(n).weighted_blocking)) << "node " << n;
    }
    for (std::size_t i = 0; i < active.size(); ++i) {
      EXPECT_TRUE(same_bits(live.predicted_period(active[i].first),
                            fresh.predicted_period(fresh_handles[i])))
          << "survivor " << i;
    }
    const std::size_t probe = pick(pool.size());
    live.what_if_admit(pool[probe], maps[probe], QoS::no_requirement(), live_probe,
                       verdict_only);
    fresh.what_if_admit(pool[probe], maps[probe], QoS::no_requirement(),
                        fresh_probe, verdict_only);
    EXPECT_TRUE(same_bits(live_probe.predicted_period, fresh_probe.predicted_period));
  }
  // The run churns, and it removes the saturated application too.
  EXPECT_GT(removals, 50u);
  EXPECT_GT(solo_removals, 0u);
}

// ---------------------------------------------------------------------------
// Rejection contract: a candidate miss validates through its engine build
// alone (no separate consistency / deadlock pass), with the same exception
// types and messages, and a rejected candidate leaves no trace.

void expect_same_report(const WhatIfReport& got, const WhatIfReport& want) {
  EXPECT_EQ(got.admissible, want.admissible);
  EXPECT_EQ(got.reason, want.reason);
  EXPECT_TRUE(same_bits(got.predicted_period, want.predicted_period));
  ASSERT_EQ(got.peer_periods.size(), want.peer_periods.size());
  for (std::size_t i = 0; i < got.peer_periods.size(); ++i) {
    EXPECT_TRUE(same_bits(got.peer_periods[i], want.peer_periods[i])) << i;
  }
  ASSERT_EQ(got.estimates.size(), want.estimates.size());
  for (std::size_t i = 0; i < got.estimates.size(); ++i) {
    EXPECT_TRUE(same_bits(got.estimates[i].isolation_period,
                          want.estimates[i].isolation_period)) << i;
    EXPECT_TRUE(same_bits(got.estimates[i].estimated_period,
                          want.estimates[i].estimated_period)) << i;
  }
}

// x -> y at rates 2:1, y -> x at 1:1 — no repetition vector.
sdf::Graph inconsistent_pair() {
  sdf::Graph g("inconsistent");
  const auto x = g.add_actor("x", 5);
  const auto y = g.add_actor("y", 7);
  g.add_channel(x, y, 2, 1, 0);
  g.add_channel(y, x, 1, 1, 1);
  return g;
}

// A homogeneous two-actor cycle with no initial token.
sdf::Graph deadlocked_pair() {
  sdf::Graph g("deadlocked");
  const auto x = g.add_actor("x", 5);
  const auto y = g.add_actor("y", 7);
  g.add_channel(x, y, 1, 1, 0);
  g.add_channel(y, x, 1, 1, 0);
  return g;
}

// Consistent multi-rate cycle (q = [3, 2]) whose feedback channel holds one
// token where x needs two to fire.
sdf::Graph starved_multirate() {
  sdf::Graph g("starved");
  const auto x = g.add_actor("x", 5);
  const auto y = g.add_actor("y", 7);
  g.add_channel(x, y, 2, 3, 0);
  g.add_channel(y, x, 3, 2, 1);
  return g;
}

std::string graph_error_of(const std::function<void()>& call) {
  try {
    call();
  } catch (const sdf::GraphError& e) {
    return e.what();
  }
  return "";
}

TEST(AdmissionRejection, InvalidGraphsThrowAndLeaveNoTrace) {
  const auto a = fig2_graph_a();
  const auto b = fig2_graph_b();
  const auto pair = procon::testing::two_actor_cycle(20, 30);
  const struct {
    sdf::Graph graph;
    const char* message;
  } cases[] = {{inconsistent_pair(), "admission: inconsistent graph"},
               {deadlocked_pair(), "admission: graph deadlocks"},
               {starved_multirate(), "admission: graph deadlocks"}};
  ASSERT_FALSE(sdf::is_consistent(cases[0].graph));
  ASSERT_TRUE(sdf::is_consistent(cases[2].graph));
  ASSERT_FALSE(sdf::is_deadlock_free(cases[2].graph));

  for (const auto& c : cases) {
    SCOPED_TRACE(c.graph.name());
    AdmissionController ctrl(platform::Platform::homogeneous(3), 2);
    ASSERT_TRUE(ctrl.request(a, index_mapping(a), QoS::no_requirement()).admitted);
    (void)ctrl.what_if_admit(b, index_mapping(b), QoS::no_requirement());
    const std::size_t cached = ctrl.candidate_cache_size();
    const std::size_t admitted = ctrl.admitted_count();
    ASSERT_EQ(cached, 2u);

    const auto nodes = index_mapping(c.graph);
    EXPECT_EQ(graph_error_of([&] {
                (void)ctrl.request(c.graph, nodes, QoS::no_requirement());
              }),
              c.message);
    EXPECT_EQ(graph_error_of([&] {
                (void)ctrl.what_if_admit(c.graph, nodes, QoS::no_requirement());
              }),
              c.message);
    WhatIfReport reused;
    WhatIfOptions verdict_only;
    verdict_only.with_estimates = false;
    EXPECT_EQ(graph_error_of([&] {
                ctrl.what_if_admit(c.graph, nodes, QoS::no_requirement(), reused,
                                   verdict_only);
              }),
              c.message);
    EXPECT_EQ(ctrl.candidate_cache_size(), cached);
    EXPECT_EQ(ctrl.admitted_count(), admitted);

    // The next valid probe — a cache miss that evicts — answers exactly as
    // a fresh controller with the same history.
    AdmissionController fresh(platform::Platform::homogeneous(3), 2);
    ASSERT_TRUE(fresh.request(a, index_mapping(a), QoS::no_requirement()).admitted);
    expect_same_report(ctrl.what_if_admit(pair, {0, 1}, QoS{200.0}),
                       fresh.what_if_admit(pair, {0, 1}, QoS{200.0}));
    expect_same_report(ctrl.what_if_admit(b, index_mapping(b), QoS{400.0}),
                       fresh.what_if_admit(b, index_mapping(b), QoS{400.0}));
  }
}

// Rebuilds `g` with every channel's initial tokens cut to a random lower
// value with probability `p_cut`; rates (and so consistency) are kept.
sdf::Graph cut_tokens(const sdf::Graph& g, util::Rng& rng, double p_cut) {
  sdf::Graph out(g.name());
  for (const sdf::Actor& a : g.actors()) (void)out.add_actor(a.name, a.exec_time);
  for (const sdf::Channel& ch : g.channels()) {
    std::uint64_t tokens = ch.initial_tokens;
    if (tokens > 0 && rng.bernoulli(p_cut)) {
      tokens = static_cast<std::uint64_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(tokens) - 1));
    }
    out.add_channel(ch.src, ch.dst, ch.prod_rate, ch.cons_rate, tokens);
  }
  return out;
}

TEST(AdmissionRejection, EngineDeadlockVerdictMatchesAbstractExecution) {
  util::Rng rng(20071509);
  gen::GeneratorOptions opts;
  opts.min_actors = 3;
  opts.max_actors = 9;
  opts.max_repetition = 5;
  opts.chord_fraction = 0.75;
  std::size_t deadlocked = 0;
  std::size_t live = 0;
  AdmissionController ctrl(platform::Platform::homogeneous(9));
  for (const sdf::Graph& base : gen::generate_graphs(rng, opts, 150, "dl")) {
    const sdf::Graph g = cut_tokens(base, rng, 0.4);
    SCOPED_TRACE(g.name());
    ASSERT_TRUE(sdf::is_consistent(g));
    const bool dead = !sdf::is_deadlock_free(g);
    EXPECT_EQ(analysis::ThroughputEngine(g).structurally_deadlocked(), dead);
    const std::string error = graph_error_of([&] {
      (void)ctrl.what_if_admit(g, index_mapping(g), QoS::no_requirement());
    });
    EXPECT_EQ(error, dead ? "admission: graph deadlocks" : "");
    ++(dead ? deadlocked : live);
  }
  // The sample exercises both verdicts.
  EXPECT_GT(deadlocked, 20u);
  EXPECT_GT(live, 20u);
}

}  // namespace
}  // namespace procon::admission
