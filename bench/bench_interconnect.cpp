// Interconnect tier: per-topology accuracy of the routed pipeline, plus
// the backward-compatibility identity check — the PR-over-PR tracker for
// the "topology None is bitwise free" contract.
//
// On the paper workload, sweeps {None, bus, ring, mesh (when the node count
// is even)} through api::Workbench::sweep_topologies twice. Reports
// per-topology estimator slowdown vs the isolation baseline, mean simulated
// link utilisation, and the sim-vs-estimator percent error.
//
// The "identical" flag asserts two identities at once:
//  1. the sweep's None entry is bitwise equal to a plain (topology-free)
//     SimEngine run and estimator pass — attaching kind None costs nothing;
//  2. a repeat sweep on the same session reproduces the first bitwise — a
//     sweep leaves no state behind that changes the next one.
//
// Emits BENCH_interconnect.json; CI smoke-runs it and the committed copy
// feeds the README performance cookbook.
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"
#include "platform/topology.h"

namespace {

using namespace procon;

bool same_sim(const sim::SimResult& a, const sim::SimResult& b) {
  if (a.apps.size() != b.apps.size() ||
      a.events_processed != b.events_processed || a.horizon != b.horizon ||
      a.node_utilisation != b.node_utilisation ||
      a.link_utilisation != b.link_utilisation) {
    return false;
  }
  for (std::size_t i = 0; i < a.apps.size(); ++i) {
    if (a.apps[i].iterations != b.apps[i].iterations ||
        a.apps[i].average_period != b.apps[i].average_period ||
        a.apps[i].worst_period != b.apps[i].worst_period ||
        a.apps[i].iteration_times != b.apps[i].iteration_times) {
      return false;
    }
  }
  return true;
}

bool same_estimates(const std::vector<prob::AppEstimate>& a,
                    const std::vector<prob::AppEstimate>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].isolation_period != b[i].isolation_period ||
        a[i].estimated_period != b[i].estimated_period) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opts = bench::parse_options(argc, argv);
  const sdf::Time horizon = std::min<sdf::Time>(opts.horizon, 100'000);

  const platform::System sys = bench::make_workload(opts);
  const std::size_t nodes = sys.platform().node_count();

  std::vector<std::string> labels{"none", "bus", "ring"};
  std::vector<platform::Topology> topologies;
  topologies.emplace_back();  // kind None: the identity entry
  topologies.push_back(platform::Topology::bus(nodes, 4, 1));
  topologies.push_back(platform::Topology::ring(nodes, 2, 1));
  if (nodes % 2 == 0 && nodes >= 4) {
    labels.emplace_back("mesh");
    topologies.push_back(platform::Topology::mesh(2, nodes / 2, 2, 1));
  }

  api::Workbench wb(sys);
  api::TopologySweepOptions topts;
  topts.sim.horizon = horizon;

  const auto first = wb.sweep_topologies(topologies, topts);
  const auto repeat = wb.sweep_topologies(topologies, topts);

  // Identity 1: the None entry == the plain, topology-free pipeline.
  sim::SimEngine plain(sys);
  plain.reset();
  const sim::SimResult plain_sim = plain.run(topts.sim);
  const prob::ContentionEstimator est(topts.estimator);
  const auto plain_est = est.estimate(platform::SystemView(sys));
  bool identical = same_sim(first.value[0].sim, plain_sim) &&
                   same_estimates(first.value[0].estimates, plain_est);

  // Identity 2: repeat sweep == first sweep, entry by entry.
  for (std::size_t i = 0; i < topologies.size(); ++i) {
    identical = identical && same_sim(first.value[i].sim, repeat.value[i].sim) &&
                same_estimates(first.value[i].estimates, repeat.value[i].estimates);
  }

  std::ostringstream json;
  json << "{\"bench\":\"interconnect\",\"seed\":" << opts.seed
       << ",\"apps\":" << sys.app_count() << ",\"nodes\":" << nodes
       << ",\"horizon\":" << horizon << ",\"topologies\":[";
  for (std::size_t i = 0; i < topologies.size(); ++i) {
    const api::TopologyResult& r = first.value[i];
    double slowdown = 0.0;
    double err_pct = 0.0;
    for (std::size_t a = 0; a < r.estimates.size(); ++a) {
      slowdown += r.estimates[a].estimated_period /
                  plain_est[a].estimated_period;
      err_pct += util::percent_abs_diff(r.estimates[a].estimated_period,
                                        r.sim.apps[a].average_period);
    }
    const auto apps = static_cast<double>(r.estimates.size());
    double util = 0.0;
    for (const double u : r.sim.link_utilisation) util += u;
    if (!r.sim.link_utilisation.empty()) {
      util /= static_cast<double>(r.sim.link_utilisation.size());
    }
    if (i > 0) json << ",";
    json << "{\"kind\":\"" << labels[i] << "\",\"links\":"
         << topologies[i].link_count() << ",\"est_slowdown\":" << slowdown / apps
         << ",\"mean_link_util\":" << util
         << ",\"sim_vs_est_err_pct\":" << err_pct / apps << "}";
  }
  json << "],\"identical\":" << (identical ? "true" : "false") << "}";

  std::cout << json.str() << "\n";
  std::ofstream out("BENCH_interconnect.json");
  out << json.str() << "\n";

  if (!identical) {
    std::cerr << "FAIL: topology None diverged from the topology-free "
                 "pipeline, or the repeat sweep diverged from the first one\n";
    return 1;
  }
  return 0;
}
