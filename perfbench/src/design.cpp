// Workload `design`: an analyst's in-process api::Workbench session on the
// paper system (10 generated applications of 8-10 actors, actor j on node
// j, non-preemptive FCFS nodes). Each pass runs five phases:
//
//   1. streaming sweep_use_cases over all 1023 use-cases with the four
//      Table 1 techniques (composability + worst case in one sweep, then
//      4th order, then 2nd order);
//   2. a with_sim streaming sweep at the paper's 500k horizon over a seeded
//      sample of use-cases (2 per cardinality);
//   3. sweep_topologies over {none, bus, ring, mesh}, twice, with the
//      routed simulation;
//   4. race_mappings over 32 seeded random mappings;
//   5. buffer_frontier for every application.
//
// All the analysis layers (workbench, prob, analysis, wcrt, sim, dse) run
// here; the service, the network and admission control never do.
//
// The system is the paper system of the repository's experiment harnesses
// (generator seed 2007) for every --seed: its cost is what the metrics
// track, and generated systems differ in cost by +-25% from seed to seed.
// --seed draws everything the analyst varies: the sweep order, the
// simulated sample and the candidate mappings.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "analysis/engine.h"
#include "analysis/transposition_table.h"
#include "api/workbench.h"
#include "common.h"
#include "gen/graph_generator.h"
#include "gen/use_cases.h"
#include "platform/system.h"
#include "platform/system_view.h"
#include "platform/topology.h"
#include "prob/estimator.h"
#include "sim/sim_engine.h"
#include "util/stats.h"
#include "wcrt/wcrt.h"

namespace perfbench {
namespace {

using namespace procon;

constexpr std::uint64_t kPaperSeed = 2007;
constexpr sdf::Time kSimHorizon = 500'000;
constexpr std::size_t kSimPerCardinality = 2;
constexpr sdf::Time kTopoHorizon = 100'000;
constexpr std::size_t kTopoRepeats = 2;
constexpr std::size_t kRaceCandidates = 32;
constexpr int kRaceIterations = 4;
constexpr std::size_t kReplayStride = 16;  // traced per-call replays: every 16th use-case

/// One streaming estimate sweep of phase 1.
struct Technique {
  const char* label;
  prob::Method method;
  bool with_wcrt;
};
constexpr Technique kTechniques[] = {
    {"composability", prob::Method::Composability, true},
    {"fourth", prob::Method::FourthOrder, false},
    {"second", prob::Method::SecondOrder, false},
};

platform::System paper_system() {
  auto apps = gen::paper_workload(kPaperSeed);
  std::size_t max_actors = 0;
  for (const auto& g : apps) max_actors = std::max(max_actors, g.actor_count());
  platform::Platform plat = platform::Platform::homogeneous(max_actors);
  platform::Mapping map = platform::Mapping::by_index(apps, plat);
  return platform::System(std::move(apps), std::move(plat), std::move(map));
}

/// What one pass captures for the output checks, per sampled use-case.
struct Capture {
  std::vector<std::vector<prob::AppEstimate>> est[3];  // per technique
  std::vector<std::vector<wcrt::AppBound>> bounds;
  std::vector<std::vector<double>> sim_period;
  std::vector<std::vector<char>> sim_converged;
  std::uint64_t sim_events = 0;
};

/// Times each delivered use-case (the interval since the previous delivery;
/// when `latency` is given) and copies the results of sampled use-cases.
class TimingSink final : public api::SweepSink {
 public:
  TimingSink(Samples* latency, const std::vector<int>& slot_of)
      : latency_(latency), slot_of_(slot_of) {}
  void start(std::vector<std::vector<prob::AppEstimate>>* est,
             std::vector<std::vector<wcrt::AppBound>>* bounds, Capture* sim) {
    est_ = est;
    bounds_ = bounds;
    sim_ = sim;
    last_ = Clock::now();
  }
  bool on_use_case(std::size_t index, const api::UseCaseView& r) override {
    if (latency_ != nullptr) latency_->add(us_between(last_, Clock::now()));
    const int slot = slot_of_[index];
    if (slot >= 0) {
      const auto s = static_cast<std::size_t>(slot);
      if (est_ != nullptr) est_->at(s).assign(r.estimates.begin(), r.estimates.end());
      if (bounds_ != nullptr) bounds_->at(s).assign(r.bounds.begin(), r.bounds.end());
      if (sim_ != nullptr && r.sim != nullptr) {
        sim_->sim_period[s].clear();
        sim_->sim_converged[s].clear();
        for (const auto& app : r.sim->apps) {
          sim_->sim_period[s].push_back(app.average_period);
          sim_->sim_converged[s].push_back(app.converged ? 1 : 0);
        }
        sim_->sim_events += r.sim->events_processed;
      }
    }
    last_ = Clock::now();
    return true;
  }

 private:
  Samples* latency_;
  const std::vector<int>& slot_of_;
  std::vector<std::vector<prob::AppEstimate>>* est_ = nullptr;
  std::vector<std::vector<wcrt::AppBound>>* bounds_ = nullptr;
  Capture* sim_ = nullptr;
  Clock::time_point last_;
};

bool same_estimates(const std::vector<prob::AppEstimate>& a,
                    const std::vector<prob::AppEstimate>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].isolation_period != b[i].isolation_period ||
        a[i].estimated_period != b[i].estimated_period ||
        a[i].actors.size() != b[i].actors.size()) {
      return false;
    }
    for (std::size_t k = 0; k < a[i].actors.size(); ++k) {
      if (a[i].actors[k].waiting_time != b[i].actors[k].waiting_time ||
          a[i].actors[k].response_time != b[i].actors[k].response_time) {
        return false;
      }
    }
  }
  return true;
}

bool same_bounds(const std::vector<wcrt::AppBound>& a, const std::vector<wcrt::AppBound>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].isolation_period != b[i].isolation_period ||
        a[i].worst_case_period != b[i].worst_case_period) {
      return false;
    }
  }
  return true;
}

/// Wall time of each phase of one pass, in seconds.
struct PhaseTimes {
  double sweep = 0, sim = 0, topo = 0, race = 0, frontier = 0;
};

/// Benchmark-owned lower-layer objects the traced run times the same work
/// on: the layers under the Workbench, plus a copy of the system and a
/// SimEngine per routed topology.
struct Replay {
  Replay(const platform::System& sys, const std::vector<platform::Topology>& topologies)
      : lower(sys) {
    for (const auto& t : topologies) {
      topo_sys.push_back(sys);
      topo_sys.back().set_topology(t);
    }
    for (const auto& s : topo_sys) topo_sim.push_back(std::make_unique<sim::SimEngine>(s));
  }

  LowerLayers lower;
  std::vector<platform::System> topo_sys;
  std::vector<std::unique_ptr<sim::SimEngine>> topo_sim;
};

/// Per-layer totals the traced run accumulates over its traced passes.
struct LayerAccum {
  LayerTimes t;
  Samples prob_us[3];          // per technique, per use-case
  Samples recompute_us;        // one cold recompute, per app (median of 9)
  Samples wcrt_us;
  Samples sim_us;
  std::uint64_t sim_events = 0;
  double sim_seconds = 0.0;
  Samples wb_contention_us, wb_wcrt_us, wb_simulate_us, wb_throughput_us;
  Samples prob_second_subset_us;
  double sweep_seconds = 0.0;
  std::size_t sweep_items = 0;
};

}  // namespace

Result run_design(const Args& args) {
  Result r;
  const std::size_t threads = args.design_threads;
  r.setting("system", "paper system, generator seed 2007 (10 apps, 8-10 actors)");
  r.setting("workbench_threads", std::to_string(threads));
  r.setting("transposition_table", "on (65536 entries)");
  r.setting("sim_horizon", std::to_string(kSimHorizon));
  r.setting("sim_sample_per_cardinality", std::to_string(kSimPerCardinality));
  r.setting("topology_horizon", std::to_string(kTopoHorizon));
  r.setting("race_candidates", std::to_string(kRaceCandidates));

  // ---- set-up: system generation + session construction ------------------
  auto build = [&](platform::System& s, std::unique_ptr<api::Workbench>& w) {
    s = paper_system();
    w = std::make_unique<api::Workbench>(
        s, api::WorkbenchOptions{
               .threads = threads,
               .table = std::make_shared<analysis::TranspositionTable>()});
  };
  platform::System sys;
  std::unique_ptr<api::Workbench> wb;
  Samples setup;  // kSetupReps here, then one spare session after every pass
  for (int i = 0; i < kSetupReps; ++i) {
    wb.reset();
    sys = platform::System{};
    setup.add(seconds_of([&] { build(sys, wb); }));
  }

  // ---- seeded inputs ------------------------------------------------------
  const std::size_t n_apps = sys.app_count();
  std::vector<platform::UseCase> order = gen::all_use_cases(n_apps);
  util::Rng order_rng(util::counter_seed(args.seed, 0xDE, 0));
  order_rng.shuffle(order);
  util::Rng sample_rng(util::counter_seed(args.seed, 0xDE, 1));
  const std::vector<platform::UseCase> sample =
      gen::sample_use_cases(n_apps, kSimPerCardinality, sample_rng);
  std::vector<int> slot_of(order.size(), -1);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto it = std::find(sample.begin(), sample.end(), order[i]);
    if (it != sample.end()) slot_of[i] = static_cast<int>(it - sample.begin());
  }
  std::vector<int> sample_slot(sample.size());
  for (std::size_t i = 0; i < sample.size(); ++i) sample_slot[i] = static_cast<int>(i);

  const std::size_t nodes = sys.platform().node_count();
  std::vector<platform::Topology> topologies;
  topologies.emplace_back();
  topologies.push_back(platform::Topology::bus(nodes, 4, 1));
  topologies.push_back(platform::Topology::ring(nodes, 2, 1));
  topologies.push_back(platform::Topology::mesh(2, nodes / 2, 2, 1));
  api::TopologySweepOptions topo_opts;
  topo_opts.sim.horizon = kTopoHorizon;
  prob::EstimatorOptions race_est;
  race_est.iterations = kRaceIterations;
  api::SweepOptions sim_opts;
  sim_opts.with_sim = true;
  sim_opts.sim.horizon = kSimHorizon;

  Samples est_lat;  // per-use-case sweep latency of the current pass
  auto candidates_for_pass = [&](std::uint64_t pass) {
    util::Rng rng = util::counter_rng(args.seed, 0xDE, 100 + pass);
    std::vector<platform::Mapping> c;
    c.reserve(kRaceCandidates);
    for (std::size_t i = 0; i < kRaceCandidates; ++i) {
      c.push_back(platform::Mapping::random(sys.apps(), sys.platform(), rng));
    }
    return c;
  };

  const std::size_t ops_per_pass = std::size(kTechniques) * order.size() + sample.size() +
                                   kTopoRepeats * topologies.size() + 1 + n_apps;

  auto blank_capture = [&] {
    Capture c;
    for (auto& e : c.est) e.assign(sample.size(), {});
    c.bounds.assign(sample.size(), {});
    c.sim_period.assign(sample.size(), {});
    c.sim_converged.assign(sample.size(), {});
    return c;
  };

  // One design pass; `cap` receives the sampled results.
  auto run_pass = [&](std::uint64_t pass, Capture& cap, PhaseTimes& pt) {
    TimingSink sink(&est_lat, slot_of);
    auto t0 = Clock::now();
    for (std::size_t t = 0; t < std::size(kTechniques); ++t) {
      api::SweepOptions so;
      so.estimator.method = kTechniques[t].method;
      so.with_wcrt = kTechniques[t].with_wcrt;
      sink.start(&cap.est[t], so.with_wcrt ? &cap.bounds : nullptr, nullptr);
      (void)wb->sweep_use_cases(order, so, sink);
    }
    auto t1 = Clock::now();
    pt.sweep = seconds_between(t0, t1);

    TimingSink sim_sink(nullptr, sample_slot);
    sim_sink.start(nullptr, nullptr, &cap);
    (void)wb->sweep_use_cases(sample, sim_opts, sim_sink);
    auto t2 = Clock::now();
    pt.sim = seconds_between(t1, t2);

    for (std::size_t k = 0; k < kTopoRepeats; ++k) {
      (void)wb->sweep_topologies(topologies, topo_opts);
    }
    auto t3 = Clock::now();
    pt.topo = seconds_between(t2, t3);

    const auto candidates = candidates_for_pass(pass);
    auto t4 = Clock::now();
    (void)wb->race_mappings(candidates, race_est);
    auto t5 = Clock::now();
    pt.race = seconds_between(t4, t5);

    for (sdf::AppId a = 0; a < n_apps; ++a) (void)wb->buffer_frontier(a);
    pt.frontier = seconds_between(t5, Clock::now());
    return seconds_between(t0, Clock::now());
  };

  // Warm-up pass: arenas, ring caches, per-topology engines and the table
  // fill here, so timed passes measure the warm session an analyst uses.
  {
    Capture warm = blank_capture();
    PhaseTimes pt;
    (void)run_pass(0, warm, pt);
  }

  std::unique_ptr<Replay> replay;
  if (args.trace) replay = std::make_unique<Replay>(sys, topologies);
  LayerAccum acc;
  Samples traced_pass_s, untraced_pass_s;

  Samples pass_p50, pass_p99;  // per untraced pass
  std::size_t est_samples = 0;
  Capture first = blank_capture();
  PhaseTimes sum;
  std::uint64_t passes = 0;
  double busy = 0.0;
  bool traced_turn = false;
  const auto start = Clock::now();
  const std::uint64_t min_passes = args.trace ? 2 : 1;
  while (passes < min_passes || seconds_between(start, Clock::now()) < args.seconds) {
    Capture cap = blank_capture();
    PhaseTimes pt;
    const bool traced = args.trace && traced_turn;
    est_lat = Samples{};
    est_lat.reserve(4096);
    const double pass_s = run_pass(passes + 1, cap, pt);
    est_samples += est_lat.size();
    if (!traced) {
      pass_p50.add(est_lat.quantile(0.50));
      pass_p99.add(est_lat.quantile(0.99));
    }
    busy += pass_s;
    r.attempted += ops_per_pass;
    (traced ? traced_pass_s : untraced_pass_s).add(pass_s);
    {
      platform::System spare_sys;
      std::unique_ptr<api::Workbench> spare;
      setup.add(seconds_of([&] { build(spare_sys, spare); }));
    }
    sum.sweep += pt.sweep;
    sum.sim += pt.sim;
    sum.topo += pt.topo;
    sum.race += pt.race;
    sum.frontier += pt.frontier;

    if (passes == 0) {
      first = std::move(cap);
    } else {
      // Every pass answers the sampled use-cases with the same bits.
      bool same = cap.sim_events == first.sim_events;
      for (std::size_t s = 0; s < sample.size() && same; ++s) {
        for (std::size_t t = 0; t < 3; ++t) {
          same = same && same_estimates(cap.est[t][s], first.est[t][s]);
        }
        same = same && same_bounds(cap.bounds[s], first.bounds[s]) &&
               cap.sim_period[s] == first.sim_period[s];
      }
      if (!same) r.fail("design pass " + std::to_string(passes + 1) +
                        " differs from the first pass on the sampled use-cases");
    }
    ++passes;

    if (traced) {
      // ---- replays of the pass's work on the layers below the Workbench --
      Replay& rp = *replay;
      LayerTimes& lt = acc.t;
      lt.end_to_end += pass_s;
      lt.dse += pt.race + pt.frontier;
      // Per-application recompute cost: the estimator's two period
      // computations per application and pass (isolation, then contended).
      std::vector<double> pair_us(n_apps), single_us(n_apps);
      for (sdf::AppId a = 0; a < n_apps; ++a) {
        std::vector<double> times;
        for (const sdf::Actor& act : sys.app(a).actors()) {
          times.push_back(static_cast<double>(act.exec_time));
        }
        std::vector<double> contended = times;
        for (double& x : contended) x *= 1.5;
        Samples single, pair;
        analysis::ThroughputEngine& engine = rp.lower.engines[a];
        for (int rep = 0; rep < 9; ++rep) {
          engine.reset();
          const auto q0 = Clock::now();
          (void)engine.recompute(times);
          const auto q1 = Clock::now();
          (void)engine.recompute(contended);
          const auto q2 = Clock::now();
          single.add(us_between(q0, q1));
          pair.add(us_between(q0, q2));
        }
        single_us[a] = single.median();
        pair_us[a] = pair.median();
        acc.recompute_us.add(single_us[a]);
      }
      auto analysis_us = [&](const platform::UseCase& uc, bool pair) {
        double s = 0.0;
        for (const sdf::AppId a : uc) s += pair ? pair_us[a] : single_us[a];
        return s;
      };

      // Phase 1: estimator and bounds over every use-case.
      double est_total = 0.0, est_analysis = 0.0, wcrt_total = 0.0, wcrt_analysis = 0.0;
      for (std::size_t t = 0; t < std::size(kTechniques); ++t) {
        const prob::ContentionEstimator est(
            prob::EstimatorOptions{.method = kTechniques[t].method});
        for (std::size_t i = 0; i < order.size(); ++i) {
          const auto& uc = order[i];
          const double us = rp.lower.estimate(est, uc);
          acc.prob_us[t].add(us);
          if (t == 2 && i % kReplayStride == 0) acc.prob_second_subset_us.add(us);
          est_total += us;
          est_analysis += analysis_us(uc, true);
          if (kTechniques[t].with_wcrt) {
            const double wus = rp.lower.bounds({}, uc);
            acc.wcrt_us.add(wus);
            wcrt_total += wus;
            wcrt_analysis += analysis_us(uc, false);
          }
        }
      }
      lt.prob += (est_total - est_analysis) * 1e-6;
      lt.wcrt += (wcrt_total - wcrt_analysis) * 1e-6;
      lt.analysis += (est_analysis + wcrt_analysis) * 1e-6;
      lt.workbench += pt.sweep - (est_total + wcrt_total) * 1e-6;
      acc.sweep_seconds += pt.sweep;
      acc.sweep_items += std::size(kTechniques) * order.size();

      // Phase 2: the reference simulation plus the 2nd-order estimate.
      double sim_total = 0.0, sim2_est = 0.0, sim2_analysis = 0.0;
      const prob::ContentionEstimator second(prob::EstimatorOptions{});
      for (const auto& uc : sample) {
        const double sus = rp.lower.simulate(uc, sim_opts.sim, acc.sim_events);
        acc.sim_us.add(sus);
        sim_total += sus;
        sim2_est += rp.lower.estimate(second, uc);
        sim2_analysis += analysis_us(uc, true);
      }
      acc.sim_seconds += sim_total * 1e-6;
      lt.sim += sim_total * 1e-6;
      lt.prob += (sim2_est - sim2_analysis) * 1e-6;
      lt.analysis += sim2_analysis * 1e-6;
      lt.workbench += pt.sim - (sim_total + sim2_est) * 1e-6;

      // Phase 3: routed simulation and link-aware estimate per topology.
      double topo_sim = 0.0, topo_est = 0.0, topo_analysis = 0.0;
      const platform::UseCase full = sys.full_use_case();
      for (std::size_t k = 0; k < rp.topo_sys.size(); ++k) {
        const auto s0 = Clock::now();
        rp.topo_sim[k]->reset();
        (void)rp.topo_sim[k]->run_view(topo_opts.sim);
        topo_sim += us_between(s0, Clock::now());
        topo_est += rp.lower.estimate(second, full, &rp.topo_sys[k]);
        topo_analysis += analysis_us(full, true);
      }
      const double reps = static_cast<double>(kTopoRepeats);
      lt.sim += reps * topo_sim * 1e-6;
      lt.prob += reps * (topo_est - topo_analysis) * 1e-6;
      lt.analysis += reps * topo_analysis * 1e-6;
      lt.workbench += pt.topo - reps * (topo_sim + topo_est) * 1e-6;

      // Per-call Workbench latencies on a subset of the same use-cases.
      for (std::size_t i = 0; i < order.size(); i += kReplayStride) {
        const auto q0 = Clock::now();
        (void)wb->contention_view(order[i], prob::EstimatorOptions{});
        const auto q1 = Clock::now();
        (void)wb->wcrt(order[i]);
        const auto q2 = Clock::now();
        acc.wb_contention_us.add(us_between(q0, q1));
        acc.wb_wcrt_us.add(us_between(q1, q2));
      }
      for (sdf::AppId a = 0; a < n_apps; ++a) {
        const auto q0 = Clock::now();
        (void)wb->throughput(a);
        acc.wb_throughput_us.add(us_between(q0, Clock::now()));
      }
      for (std::size_t i = 0; i < 2 && i < sample.size(); ++i) {
        const auto q0 = Clock::now();
        (void)wb->simulate(sample[sample.size() - 1 - i], sim_opts.sim);
        acc.wb_simulate_us.add(us_between(q0, Clock::now()));
      }
    }
    traced_turn = !traced_turn;
  }
  const double elapsed = seconds_between(start, Clock::now());

  // ---- output checks (first pass) -----------------------------------------
  // Streaming-sweep answers == one-shot estimator / bounds on the same
  // use-case (fresh engines, no session state).
  for (std::size_t s = 0; s < sample.size(); ++s) {
    const platform::SystemView view(sys, sample[s]);
    for (std::size_t t = 0; t < std::size(kTechniques); ++t) {
      const prob::ContentionEstimator est(
          prob::EstimatorOptions{.method = kTechniques[t].method});
      if (!same_estimates(est.estimate(view), first.est[t][s])) {
        r.fail(std::string("streaming ") + kTechniques[t].label +
               " estimate differs from the one-shot estimator on a sampled use-case");
      }
    }
    std::vector<analysis::ThroughputEngine> engines;
    for (const sdf::AppId a : sample[s]) engines.emplace_back(sys.app(a));
    std::vector<analysis::ThroughputEngine*> ptrs;
    for (auto& e : engines) ptrs.push_back(&e);
    if (!same_bounds(wcrt::worst_case_bounds(view, {}, ptrs), first.bounds[s])) {
      r.fail("streaming worst-case bounds differ from the one-shot bounds");
    }
  }
  // Table 1: mean absolute throughput error vs the simulation, over the
  // converged applications of the sampled use-cases.
  util::RunningStats err[4];  // worst case, composability, 4th, 2nd
  for (std::size_t s = 0; s < sample.size(); ++s) {
    for (std::size_t a = 0; a < first.sim_period[s].size(); ++a) {
      if (!first.sim_converged[s][a]) continue;
      const double sim_thr = 1.0 / first.sim_period[s][a];
      err[0].add(util::percent_abs_diff(1.0 / first.bounds[s][a].worst_case_period, sim_thr));
      for (std::size_t t = 0; t < 3; ++t) {
        err[t + 1].add(util::percent_abs_diff(
            1.0 / first.est[t][s][a].estimated_period, sim_thr));
      }
    }
  }
  const double e_wc = err[0].mean(), e_comp = err[1].mean(), e_4th = err[2].mean(),
               e_2nd = err[3].mean();
  if (err[0].count() == 0) r.fail("no converged use-case in the simulated sample");
  if (!(e_wc > e_comp && e_wc > e_4th && e_wc > e_2nd)) {
    r.fail("Table 1 ordering: the worst-case bound is not the least accurate");
  }
  if (e_2nd > e_comp + 5.0) {
    r.fail("Table 1 ordering: 2nd order is more than 5 points worse than composability");
  }

  const double order_n = static_cast<double>(order.size());
  const double p = static_cast<double>(passes);
  r.e2e("setup_s", setup.median());
  r.e2e("peak_rss_mb", peak_rss_mb());
  // One window is one pass.
  r.e2e("ops_per_s", static_cast<double>(ops_per_pass) / untraced_pass_s.trimmed_mean());
  r.e2e("p50_us", pass_p50.trimmed_mean());
  r.e2e("p99_us", pass_p99.trimmed_mean());
  r.info("design_est_uc_per_s", p * order_n / sum.sweep, "1/s");
  r.info("design_sim_uc_per_s", p * static_cast<double>(sample.size()) / sum.sim, "1/s");
  r.info("design_topo_per_s",
         p * static_cast<double>(kTopoRepeats * topologies.size()) / sum.topo, "1/s");
  r.info("design_race_per_s", p / sum.race, "1/s");
  r.info("design_frontier_per_s", p * static_cast<double>(n_apps) / sum.frontier, "1/s");
  r.info("accuracy_err_pct", e_2nd, "%");
  r.info("accuracy_worst_case_pct", e_wc, "%");
  r.info("accuracy_composability_pct", e_comp, "%");
  r.info("accuracy_fourth_pct", e_4th, "%");
  r.info("accuracy_apps", static_cast<double>(err[0].count()), "count");
  r.info("sim_events_per_pass", static_cast<double>(first.sim_events), "count");
  r.info("design_passes", p, "count");
  r.info("design_busy_pct", 100.0 * busy / elapsed, "%");
  r.info("est_latency_samples_per_pass", static_cast<double>(est_samples) / p, "count");

  if (args.trace) {
    LayerAccum& a = acc;
    a.t.report(r);
    r.layer("workbench.sweep_uc_us",
            1e6 * a.sweep_seconds / static_cast<double>(std::max<std::size_t>(a.sweep_items, 1)));
    r.layer("workbench.contention_us", a.wb_contention_us.mean());
    r.layer("workbench.wcrt_us", a.wb_wcrt_us.mean());
    r.layer("workbench.simulate_us", a.wb_simulate_us.mean());
    r.layer("workbench.throughput_us", a.wb_throughput_us.mean());
    r.layer("workbench.dispatch_us",
            a.wb_contention_us.mean() - a.prob_second_subset_us.mean());
    r.layer("prob.estimate_composability_us", a.prob_us[0].mean());
    r.layer("prob.estimate_fourth_us", a.prob_us[1].mean());
    r.layer("prob.estimate_second_us", a.prob_us[2].mean());
    r.layer("analysis.recompute_us", a.recompute_us.mean());
    r.layer("wcrt.bounds_us", a.wcrt_us.mean());
    r.layer("sim.run_us", a.sim_us.mean());
    r.layer("sim.events", static_cast<double>(first.sim_events));
    r.layer("sim.ns_per_event",
            a.sim_events > 0 ? 1e9 * a.sim_seconds / static_cast<double>(a.sim_events) : 0.0);
    const auto tt = wb->transposition_stats();
    r.layer("analysis.tt_hit_ratio", tt.hit_rate());
    r.layer("analysis.tt_evictions", static_cast<double>(tt.evictions));

    // The racer on a fixed candidate set: its counts, and the exhaustive
    // walk's wall time on the same candidates.
    const auto candidates = candidates_for_pass(1);
    const auto raced = wb->race_mappings(candidates, race_est);
    dse::RacerOptions off;
    off.enabled = false;
    const auto q0 = Clock::now();
    (void)wb->race_mappings(candidates, race_est, off);
    r.layer("dse.race_exhaustive_ms", 1e3 * seconds_between(q0, Clock::now()));
    const dse::RacerStats& st = raced->stats;
    r.layer("dse.full_evals", static_cast<double>(st.full_evals));
    r.layer("dse.exhaustive_evals", static_cast<double>(st.exhaustive_evals));
    r.layer("dse.eval_ratio", st.eval_ratio());
    r.layer("dse.estimator_pulls", static_cast<double>(st.estimator_pulls));
    r.layer("dse.sim_pulls", static_cast<double>(st.sim_pulls));
    const double tm = traced_pass_s.trimmed_mean(), um = untraced_pass_s.trimmed_mean();
    r.layer("trace_overhead_pct", um > 0.0 ? 100.0 * (tm - um) / um : 0.0);
  }
  return r;
}

}  // namespace perfbench
