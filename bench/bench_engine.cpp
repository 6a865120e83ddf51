// Fresh-path vs ThroughputEngine repeated period analysis.
//
// The repeated-analysis pattern of the estimator / DSE / admission loops:
// the same graphs are re-analysed hundreds of times with perturbed actor
// execution times. The fresh path (compute_period) redoes the self-loop
// closure, repetition vector, HSDF expansion and a cold Howard start per
// call; the engine path pays structure once per graph and then only
// rewrites weights and warm-starts Howard. Both paths run on the paper
// workload (10 strongly-connected apps, 8-10 actors) over identical
// execution-time sequences, results are compared to 1e-9 relative, and the
// speedup record is emitted as machine-readable BENCH_engine.json so the
// perf trajectory is tracked from PR to PR.
//
// The engine build itself — one structural pass that expands the self-loop
// closure straight from the graph — is timed separately
// (build_us_per_app, mean over kBuildRepetitions builds per app), and each
// engine is checked bitwise against one built over the materialised
// closure (g.with_self_loops(), assume_closed) on the same sequences. Both
// checks fold into "identical"; the process exits 1 when it is false.
//
// Flags: the common harness set (--seed, --apps, --out, ...).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <vector>

#include "analysis/engine.h"
#include "analysis/throughput.h"
#include "harness.h"
#include "util/rng.h"

namespace {

using namespace procon;

constexpr std::size_t kRepetitions = 400;  // exec-time assignments per app
constexpr std::size_t kBuildRepetitions = 200;  // timed builds per app
constexpr double kTolerance = 1e-9;

// ±10% perturbations around the nominal times, mimicking the waiting-time
// annotations the estimator feeds back into the period analysis.
std::vector<std::vector<double>> make_sequences(const sdf::Graph& g,
                                                util::Rng& rng) {
  std::vector<double> base;
  base.reserve(g.actor_count());
  for (const sdf::Actor& a : g.actors()) {
    base.push_back(static_cast<double>(a.exec_time));
  }
  std::vector<std::vector<double>> seqs(kRepetitions, base);
  for (auto& seq : seqs) {
    for (double& t : seq) t *= rng.uniform_real(0.9, 1.1);
  }
  return seqs;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opts = bench::parse_options(argc, argv);
  util::Rng rng(opts.seed + 1);

  const auto sys = bench::make_workload(opts);
  const auto apps = sys.apps();

  std::vector<std::vector<std::vector<double>>> sequences;
  sequences.reserve(apps.size());
  for (const sdf::Graph& g : apps) sequences.push_back(make_sequences(g, rng));

  // --- fresh path: full structural recomputation per call ------------------
  std::vector<std::vector<double>> fresh_periods(apps.size());
  bench::Stopwatch fresh_watch;
  for (sdf::AppId i = 0; i < apps.size(); ++i) {
    fresh_periods[i].reserve(kRepetitions);
    for (const auto& times : sequences[i]) {
      fresh_periods[i].push_back(analysis::compute_period(apps[i], times).period);
    }
  }
  const double fresh_seconds = fresh_watch.seconds();

  // --- engine path: structure cached, Howard warm-started ------------------
  std::vector<std::vector<double>> engine_periods(apps.size());
  bench::Stopwatch engine_watch;
  for (sdf::AppId i = 0; i < apps.size(); ++i) {
    analysis::ThroughputEngine engine(apps[i]);  // construction included
    engine_periods[i].reserve(kRepetitions);
    for (const auto& times : sequences[i]) {
      engine_periods[i].push_back(engine.recompute(times).period);
    }
  }
  const double engine_seconds = engine_watch.seconds();

  // --- engine build alone ---------------------------------------------------
  std::size_t build_nodes = 0;  // keeps the builds observable
  bench::Stopwatch build_watch;
  for (std::size_t r = 0; r < kBuildRepetitions; ++r) {
    for (const sdf::Graph& g : apps) {
      build_nodes += analysis::ThroughputEngine(g).node_count();
    }
  }
  const double build_seconds = build_watch.seconds();

  // --- build identity: closure-free engine vs the materialised closure -----
  std::size_t build_mismatches = 0;
  for (sdf::AppId i = 0; i < apps.size(); ++i) {
    analysis::ThroughputEngine materialised(apps[i].with_self_loops(),
                                            {.assume_closed = true});
    for (std::size_t r = 0; r < kRepetitions; ++r) {
      const double p = materialised.recompute(sequences[i][r]).period;
      if (std::memcmp(&p, &engine_periods[i][r], sizeof p) != 0) ++build_mismatches;
    }
  }

  double max_rel_diff = 0.0;
  for (sdf::AppId i = 0; i < apps.size(); ++i) {
    for (std::size_t r = 0; r < kRepetitions; ++r) {
      const double ref = fresh_periods[i][r];
      const double diff = std::abs(engine_periods[i][r] - ref);
      max_rel_diff = std::max(max_rel_diff, diff / std::max(1.0, std::abs(ref)));
    }
  }

  const std::size_t calls = apps.size() * kRepetitions;
  const double speedup = engine_seconds > 0.0 ? fresh_seconds / engine_seconds : 0.0;
  const bool identical = max_rel_diff <= kTolerance && build_mismatches == 0;

  char json[768];
  std::snprintf(json, sizeof(json),
                "{\"bench\":\"engine\",\"seed\":%llu,\"apps\":%zu,"
                "\"repetitions\":%zu,\"calls\":%zu,"
                "\"fresh_seconds\":%.6f,\"engine_seconds\":%.6f,"
                "\"fresh_us_per_call\":%.3f,\"engine_us_per_call\":%.3f,"
                "\"speedup\":%.2f,\"build_repetitions\":%zu,"
                "\"build_us_per_app\":%.3f,\"hsdf_nodes_per_app\":%.1f,"
                "\"build_mismatches\":%zu,"
                "\"max_rel_diff\":%.3g,\"identical\":%s}",
                static_cast<unsigned long long>(opts.seed), apps.size(),
                kRepetitions, calls, fresh_seconds, engine_seconds,
                1e6 * fresh_seconds / calls, 1e6 * engine_seconds / calls,
                speedup, kBuildRepetitions,
                1e6 * build_seconds / static_cast<double>(kBuildRepetitions * apps.size()),
                static_cast<double>(build_nodes) /
                    static_cast<double>(kBuildRepetitions * apps.size()),
                build_mismatches, max_rel_diff, identical ? "true" : "false");

  std::cout << json << "\n";
  std::ofstream out("BENCH_engine.json");
  out << json << "\n";

  if (max_rel_diff > kTolerance) {
    std::cerr << "FAIL: engine and fresh paths disagree (max rel diff "
              << max_rel_diff << ")\n";
  }
  if (build_mismatches != 0) {
    std::cerr << "FAIL: " << build_mismatches
              << " periods differ from an engine over the materialised closure\n";
  }
  return identical ? 0 : 1;
}
