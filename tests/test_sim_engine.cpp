// Randomized equivalence suite for the resettable simulation engine:
// SimEngine reset()+run() must be bitwise identical to a fresh simulate()
// of the (materialised) restriction, across arbitration modes, sample
// seeds, and stochastic execution-time models.
#include "sim/sim_engine.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "api/workbench.h"
#include "gen/graph_generator.h"
#include "gen/use_cases.h"
#include "helpers.h"
#include "util/rng.h"

namespace procon::sim {
namespace {

using procon::testing::fig2_system;

platform::System random_system(std::uint64_t seed, std::size_t apps) {
  util::Rng rng(seed);
  gen::GeneratorOptions gopts;
  gopts.min_actors = 3;
  gopts.max_actors = 6;
  auto graphs = gen::generate_graphs(rng, gopts, apps);
  std::size_t max_actors = 0;
  for (const auto& g : graphs) max_actors = std::max(max_actors, g.actor_count());
  platform::Platform plat = platform::Platform::homogeneous(max_actors);
  platform::Mapping map = platform::Mapping::by_index(graphs, plat);
  return platform::System(std::move(graphs), std::move(plat), std::move(map));
}

void expect_same(const SimResult& a, const SimResult& b) {
  ASSERT_EQ(a.apps.size(), b.apps.size());
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.horizon, b.horizon);
  EXPECT_EQ(a.node_utilisation, b.node_utilisation);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].start, b.trace[i].start);
    EXPECT_EQ(a.trace[i].end, b.trace[i].end);
    EXPECT_EQ(a.trace[i].app, b.trace[i].app);
    EXPECT_EQ(a.trace[i].actor, b.trace[i].actor);
    EXPECT_EQ(a.trace[i].node, b.trace[i].node);
  }
  for (std::size_t i = 0; i < a.apps.size(); ++i) {
    const AppSimResult& x = a.apps[i];
    const AppSimResult& y = b.apps[i];
    EXPECT_EQ(x.iterations, y.iterations);
    EXPECT_EQ(x.converged, y.converged);
    EXPECT_EQ(x.average_period, y.average_period);  // bitwise, not NEAR
    EXPECT_EQ(x.worst_period, y.worst_period);
    EXPECT_EQ(x.iteration_times, y.iteration_times);
    ASSERT_EQ(x.actors.size(), y.actors.size());
    for (std::size_t k = 0; k < x.actors.size(); ++k) {
      EXPECT_EQ(x.actors[k].firings, y.actors[k].firings);
      EXPECT_EQ(x.actors[k].total_waiting, y.actors[k].total_waiting);
      EXPECT_EQ(x.actors[k].total_service, y.actors[k].total_service);
    }
  }
}

std::vector<sdf::ExecTimeModel> jittered_models(const platform::System& sys,
                                                const platform::UseCase& uc) {
  std::vector<sdf::ExecTimeModel> models;
  for (const sdf::AppId id : uc) {
    sdf::ExecTimeModel m;
    for (const auto& a : sys.app(id).actors()) {
      const sdf::Time d = a.exec_time / 5;
      m.push_back(d == 0 ? sdf::ExecTimeDistribution::constant(a.exec_time)
                         : sdf::ExecTimeDistribution::uniform(a.exec_time - d,
                                                              a.exec_time + d));
    }
    models.push_back(std::move(m));
  }
  return models;
}

TEST(SimEngine, FullRunMatchesFreeFunction) {
  const platform::System sys = fig2_system();
  for (const Arbitration arb :
       {Arbitration::Fcfs, Arbitration::RoundRobin, Arbitration::Tdma}) {
    SimOptions opts;
    opts.horizon = 50'000;
    opts.arbitration = arb;
    opts.collect_trace = true;
    SimEngine engine(sys);
    const SimResult warm = engine.run(opts);
    const SimResult fresh = simulate(sys, opts);
    expect_same(warm, fresh);
  }
}

TEST(SimEngine, RerunAfterResetIsIdentical) {
  const platform::System sys = random_system(17, 4);
  SimEngine engine(sys);
  SimOptions opts;
  opts.horizon = 30'000;
  const SimResult first = engine.run(opts);
  engine.reset();
  const SimResult second = engine.run(opts);
  expect_same(first, second);
}

TEST(SimEngine, RunWithoutResetThrows) {
  SimEngine engine(fig2_system());
  (void)engine.run(SimOptions{.horizon = 1'000});
  EXPECT_THROW((void)engine.run(SimOptions{.horizon = 1'000}), sdf::GraphError);
  engine.reset();
  EXPECT_NO_THROW((void)engine.run(SimOptions{.horizon = 1'000}));
}

TEST(SimEngine, RestrictedRunsMatchMaterialisedCopies) {
  // The central equivalence: reset(uc)+run over the shared engine ==
  // fresh simulate of the restrict_to copy, for every sampled use-case,
  // every arbitration mode, with traces on.
  for (const std::uint64_t seed : {3u, 1234u}) {
    const platform::System sys = random_system(seed, 5);
    SimEngine engine(sys);
    util::Rng rng(seed ^ 0xABC);
    for (const auto& uc : gen::sample_use_cases(sys.app_count(), 2, rng)) {
      for (const Arbitration arb :
           {Arbitration::Fcfs, Arbitration::RoundRobin, Arbitration::Tdma}) {
        SimOptions opts;
        opts.horizon = 20'000;
        opts.arbitration = arb;
        opts.collect_trace = true;
        engine.reset(uc);
        const SimResult warm = engine.run(opts);
        const SimResult fresh = simulate(sys.restrict_to(uc), opts);
        expect_same(warm, fresh);
        // And the zero-copy free-function path agrees too.
        const SimResult via_uc = simulate(sys, uc, opts);
        expect_same(warm, via_uc);
      }
    }
  }
}

TEST(SimEngine, StochasticModelsAndSeedsMatch) {
  const platform::System sys = random_system(77, 4);
  SimEngine engine(sys);
  util::Rng rng(99);
  for (const auto& uc : gen::sample_use_cases(sys.app_count(), 1, rng)) {
    SimOptions opts;
    opts.horizon = 15'000;
    opts.exec_models = jittered_models(sys, uc);
    for (const std::uint64_t sample_seed : {1u, 42u, 0xDEADu}) {
      opts.sample_seed = sample_seed;
      engine.reset(uc);
      const SimResult warm = engine.run(opts);
      const SimResult fresh = simulate(sys.restrict_to(uc), opts);
      expect_same(warm, fresh);
    }
  }
}

TEST(SimEngine, ModelCountValidatedAgainstActiveApps) {
  const platform::System sys = random_system(5, 3);
  SimEngine engine(sys);
  SimOptions opts;
  opts.horizon = 1'000;
  opts.exec_models = jittered_models(sys, {0, 1});  // 2 models, 3 active apps
  EXPECT_THROW((void)engine.run(opts), sdf::GraphError);
  engine.reset({0, 1});
  EXPECT_NO_THROW((void)engine.run(opts));
}

TEST(SimEngine, RejectsBadUseCases) {
  SimEngine engine(fig2_system());
  EXPECT_THROW(engine.reset({0, 0}), sdf::GraphError);    // duplicate
  EXPECT_THROW(engine.reset({0, 7}), sdf::GraphError);    // out of range
  EXPECT_THROW((void)engine.run(SimOptions{.horizon = -1}),
               std::invalid_argument);
  // A rejected reset disarms the engine: the previous armed run must not be
  // replayed against the half-rewritten restriction.
  engine.reset({0, 1});
  EXPECT_THROW(engine.reset({1, 1}), sdf::GraphError);
  EXPECT_THROW((void)engine.run(), sdf::GraphError);
  engine.reset({1});
  EXPECT_EQ(engine.run().apps.size(), 1u);
}

TEST(SimEngine, WorkbenchSimulateAndSweepUseTheEngine) {
  const platform::System sys = random_system(2025, 4);
  api::Workbench wb(sys, api::WorkbenchOptions{.threads = 2});
  SimOptions opts;
  opts.horizon = 10'000;

  // Session simulate == free function, full and restricted, repeatedly.
  for (int rep = 0; rep < 2; ++rep) {
    expect_same(*wb.simulate(opts), simulate(sys, opts));
    expect_same(*wb.simulate({0, 2}, opts), simulate(sys, {0, 2}, opts));
  }

  // with_sim sweeps return per-use-case simulations identical to the
  // restricted references, for any thread count.
  const auto use_cases = gen::all_use_cases(sys.app_count());
  api::SweepOptions sopts;
  sopts.with_sim = true;
  sopts.sim = opts;
  const auto swept = wb.sweep_use_cases(use_cases, sopts);
  api::Workbench serial(sys, api::WorkbenchOptions{.threads = 1});
  const auto swept_serial = serial.sweep_use_cases(use_cases, sopts);
  ASSERT_EQ(swept->size(), use_cases.size());
  for (std::size_t i = 0; i < use_cases.size(); ++i) {
    expect_same((*swept)[i].sim, simulate(sys, use_cases[i], opts));
    expect_same((*swept)[i].sim, (*swept_serial)[i].sim);
  }
}

TEST(SimEngine, RestrictedSimulateIgnoresInvalidAppsOutsideUseCase) {
  // restrict_to semantics: only the selected applications are validated, so
  // a deadlocked app elsewhere in the system must not block the run (it did
  // not before the SimEngine refactor either).
  std::vector<sdf::Graph> apps;
  apps.push_back(procon::testing::fig2_graph_a());
  sdf::Graph dead("dead");
  const auto x = dead.add_actor("x", 1);
  const auto y = dead.add_actor("y", 1);
  dead.add_channel(x, y, 1, 1, 0);
  dead.add_channel(y, x, 1, 1, 0);  // no initial tokens: deadlock
  apps.push_back(dead);
  platform::Platform plat = platform::Platform::homogeneous(3);
  platform::Mapping map(apps);
  for (sdf::AppId i = 0; i < apps.size(); ++i) {
    for (sdf::ActorId a = 0; a < apps[i].actor_count(); ++a) map.assign(i, a, a);
  }
  const platform::System sys(std::move(apps), std::move(plat), std::move(map));

  const SimResult r = simulate(sys, {0}, SimOptions{.horizon = 10'000});
  ASSERT_EQ(r.apps.size(), 1u);
  EXPECT_TRUE(r.apps[0].converged);
  // The full system (and a full engine) still refuses to build.
  EXPECT_THROW((void)simulate(sys, SimOptions{.horizon = 10'000}), sdf::GraphError);
  EXPECT_THROW(SimEngine{sys}, sdf::GraphError);
  // Duplicate entries simulate two independent copies, like restrict_to.
  const SimResult dup = simulate(sys, {0, 0}, SimOptions{.horizon = 10'000});
  ASSERT_EQ(dup.apps.size(), 2u);
}

TEST(SimEngine, SimulateViewOverloadMatches) {
  const platform::System sys = random_system(404, 4);
  const platform::UseCase uc{1, 3};
  SimOptions opts;
  opts.horizon = 12'000;
  const SimResult via_view = simulate(platform::SystemView(sys, uc), opts);
  const SimResult via_copy = simulate(sys.restrict_to(uc), opts);
  expect_same(via_view, via_copy);
}

}  // namespace
}  // namespace procon::sim
