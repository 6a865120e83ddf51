// Steady-state serving path: warm-vs-cold cost and allocation count per
// query, with identity checks — the PR-over-PR tracker for the
// "allocation-free after first sight" contract.
//
// Two serving loops, each measured cold (per-query rebuild, the pre-cache
// path) and warm (cached structure, reused arenas):
//
//  1. simulation sweep: reset(uc) + run_view() over a fixed use-case list
//     on one shared SimEngine (warm; second pass, arenas grown) vs a
//     SimEngine built from sys.restrict_to(uc) per query (cold). The warm
//     pass is bracketed by the instrumented allocator — its allocation
//     count per query must be ZERO and results bitwise identical.
//
//  2. admission probing: verdict-only what_if_admit of the same two
//     candidates, alternating, against a controller whose candidate LRU
//     holds them (warm: every probe hits) vs a capacity-1 controller
//     (cold: every probe misses and rebuilds engine + loads). Warm probes
//     must be allocation-free and verdict-identical to cold.
//
// Emits BENCH_steady_state.json; CI smoke-runs it and the committed copy
// feeds the README performance cookbook.
#include "util/alloc_probe.h"  // FIRST: replaces global new/delete

#include <cstdio>
#include <fstream>
#include <iostream>
#include <vector>

#include "admission/admission.h"
#include "harness.h"

namespace {

using namespace procon;

bool same_result(const sim::SimResult& a, const sim::SimResult& b) {
  if (a.apps.size() != b.apps.size() ||
      a.events_processed != b.events_processed ||
      a.node_utilisation != b.node_utilisation || a.horizon != b.horizon) {
    return false;
  }
  for (std::size_t i = 0; i < a.apps.size(); ++i) {
    const auto& x = a.apps[i];
    const auto& y = b.apps[i];
    if (x.iterations != y.iterations || x.converged != y.converged ||
        x.average_period != y.average_period || x.worst_period != y.worst_period ||
        x.iteration_times != y.iteration_times ||
        x.actors.size() != y.actors.size()) {
      return false;
    }
    for (std::size_t k = 0; k < x.actors.size(); ++k) {
      if (x.actors[k].firings != y.actors[k].firings ||
          x.actors[k].total_waiting != y.actors[k].total_waiting ||
          x.actors[k].total_service != y.actors[k].total_service) {
        return false;
      }
    }
  }
  return true;
}

bool same_verdict(const admission::WhatIfReport& a,
                  const admission::WhatIfReport& b) {
  return a.admissible == b.admissible &&
         a.predicted_period == b.predicted_period &&
         a.peer_periods == b.peer_periods;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opts = bench::parse_options(argc, argv);
  const sdf::Time horizon = std::min<sdf::Time>(opts.horizon, 4000);
  sim::SimOptions sopts;
  sopts.horizon = horizon;

  const platform::System sys = bench::make_workload(opts);
  const auto use_cases = bench::make_use_cases(opts, sys.app_count());
  const auto count = static_cast<double>(use_cases.size());
  bool identical = true;

  // ---- 1. simulation sweep: cold rebuild vs warm reset on one engine ------
  std::vector<sim::SimResult> cold_results;
  cold_results.reserve(use_cases.size());
  bench::Stopwatch cold_clock;
  for (const auto& uc : use_cases) {
    sim::SimEngine engine(sys.restrict_to(uc));
    cold_results.push_back(engine.run(sopts));
  }
  const double sim_cold_us = 1e6 * cold_clock.seconds() / count;

  sim::SimEngine shared(sys);
  for (const auto& uc : use_cases) {  // first pass: grow the run arenas
    shared.reset(uc);
    (void)shared.run_view(sopts);
  }
  std::uint64_t warm_allocs = 0;
  bench::Stopwatch warm_clock;
  for (std::size_t i = 0; i < use_cases.size(); ++i) {
    const std::uint64_t before = util::alloc_probe::allocations();
    shared.reset(use_cases[i]);
    const sim::SimResultView view = shared.run_view(sopts);
    warm_allocs += util::alloc_probe::allocations() - before;
    identical = identical && same_result(view.materialise(), cold_results[i]);
  }
  const double sim_warm_us = 1e6 * warm_clock.seconds() / count;
  const double sim_allocs_per_query = static_cast<double>(warm_allocs) / count;

  // ---- 2. admission probing: LRU hit vs per-probe rebuild -----------------
  // Admit a resident set, then alternate verdict probes of two candidates.
  // The warm controller's LRU keeps both; the cold controller's capacity-1
  // LRU forces a rebuild on every alternation.
  const std::size_t resident = std::min<std::size_t>(3, sys.app_count() - 2);
  const auto nodes_of = [&](sdf::AppId id) {
    std::vector<platform::NodeId> nodes(sys.app(id).actor_count());
    for (sdf::ActorId a = 0; a < nodes.size(); ++a) nodes[a] = a;
    return nodes;
  };
  admission::AdmissionController warm_ctrl(sys.platform());
  admission::AdmissionController cold_ctrl(sys.platform(),
                                           /*candidate_cache_capacity=*/1);
  for (sdf::AppId id = 0; id < resident; ++id) {
    (void)warm_ctrl.request(sys.app(id), nodes_of(id), admission::QoS::no_requirement());
    (void)cold_ctrl.request(sys.app(id), nodes_of(id), admission::QoS::no_requirement());
  }
  const sdf::AppId cand_x = static_cast<sdf::AppId>(resident);
  const sdf::AppId cand_y = static_cast<sdf::AppId>(resident + 1);
  const auto nodes_x = nodes_of(cand_x);
  const auto nodes_y = nodes_of(cand_y);

  admission::WhatIfOptions verdict_only;
  verdict_only.with_estimates = false;
  admission::WhatIfReport warm_out;
  admission::WhatIfReport cold_out;
  constexpr int kProbes = 256;

  // Prime the warm LRU with both candidates.
  warm_ctrl.what_if_admit(sys.app(cand_x), nodes_x,
                          admission::QoS::no_requirement(), warm_out, verdict_only);
  warm_ctrl.what_if_admit(sys.app(cand_y), nodes_y,
                          admission::QoS::no_requirement(), warm_out, verdict_only);

  bench::Stopwatch cold_probe_clock;
  for (int k = 0; k < kProbes; ++k) {
    const sdf::AppId id = (k % 2 == 0) ? cand_x : cand_y;
    cold_ctrl.what_if_admit(sys.app(id), (k % 2 == 0) ? nodes_x : nodes_y,
                            admission::QoS::no_requirement(), cold_out,
                            verdict_only);
  }
  const double admit_cold_us = 1e6 * cold_probe_clock.seconds() / kProbes;

  std::uint64_t probe_allocs = 0;
  bench::Stopwatch warm_probe_clock;
  for (int k = 0; k < kProbes; ++k) {
    const sdf::AppId id = (k % 2 == 0) ? cand_x : cand_y;
    const std::uint64_t before = util::alloc_probe::allocations();
    warm_ctrl.what_if_admit(sys.app(id), (k % 2 == 0) ? nodes_x : nodes_y,
                            admission::QoS::no_requirement(), warm_out,
                            verdict_only);
    probe_allocs += util::alloc_probe::allocations() - before;
  }
  const double admit_warm_us = 1e6 * warm_probe_clock.seconds() / kProbes;
  const double admit_allocs_per_probe =
      static_cast<double>(probe_allocs) / kProbes;

  // Verdict identity: the last probe of each loop hit the same candidate.
  cold_ctrl.what_if_admit(sys.app(cand_x), nodes_x,
                          admission::QoS::no_requirement(), cold_out, verdict_only);
  warm_ctrl.what_if_admit(sys.app(cand_x), nodes_x,
                          admission::QoS::no_requirement(), warm_out, verdict_only);
  identical = identical && same_verdict(warm_out, cold_out);
  identical = identical && sim_allocs_per_query == 0.0 &&
              admit_allocs_per_probe == 0.0;

  char json[1024];
  std::snprintf(
      json, sizeof(json),
      "{\"bench\":\"steady_state\",\"seed\":%llu,\"horizon\":%lld,"
      "\"use_cases\":%zu,"
      "\"sim_cold_us\":%.2f,\"sim_warm_us\":%.2f,\"sim_speedup\":%.2f,"
      "\"sim_allocs_per_query\":%.1f,"
      "\"admit_cold_us\":%.2f,\"admit_warm_us\":%.2f,\"admit_speedup\":%.2f,"
      "\"admit_allocs_per_probe\":%.1f,"
      "\"identical\":%s}",
      static_cast<unsigned long long>(opts.seed),
      static_cast<long long>(horizon), use_cases.size(), sim_cold_us,
      sim_warm_us, sim_warm_us > 0.0 ? sim_cold_us / sim_warm_us : 0.0,
      sim_allocs_per_query, admit_cold_us, admit_warm_us,
      admit_warm_us > 0.0 ? admit_cold_us / admit_warm_us : 0.0,
      admit_allocs_per_probe, identical ? "true" : "false");

  std::cout << json << "\n";
  std::ofstream out("BENCH_steady_state.json");
  out << json << "\n";

  if (!identical) {
    std::cerr << "FAIL: warm steady-state path allocated or diverged from "
                 "the cold path\n";
    return 1;
  }
  return 0;
}
