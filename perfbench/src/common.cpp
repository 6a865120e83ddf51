#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

double Samples::quantile(double q) {
  if (v_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  const double pos = q * static_cast<double>(v_.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v_[lo] + (v_[hi] - v_[lo]) * frac;
}

double Samples::trimmed_mean() {
  if (v_.empty()) return 0.0;
  (void)quantile(0.5);  // sorts
  const std::size_t cut = v_.size() / 10;
  const auto first = v_.begin() + static_cast<std::ptrdiff_t>(cut);
  const auto last = v_.end() - static_cast<std::ptrdiff_t>(cut);
  return std::accumulate(first, last, 0.0) / static_cast<double>(last - first);
}

double Samples::sum() const { return std::accumulate(v_.begin(), v_.end(), 0.0); }

double Samples::mean() const {
  return v_.empty() ? 0.0 : sum() / static_cast<double>(v_.size());
}

void Result::fail(const std::string& what) {
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

void Result::e2e(const std::string& name, double value) {
  for (const auto& [n, unit] : e2e_metrics()) {
    if (n == name) {
      end_to_end.push_back({name, value, unit});
      return;
    }
  }
  fail("unknown end-to-end metric " + name);
}

void Result::layer(const std::string& name, double value) {
  for (const auto& [n, unit] : layer_metrics()) {
    if (n == name) {
      for (Metric& m : layers) {
        if (m.name == name) {
          m.value = value;
          return;
        }
      }
      layers.push_back({name, value, unit});
      return;
    }
  }
  fail("unknown layer metric " + name);
}

void Result::info(const std::string& name, double value, const std::string& unit) {
  detail.push_back({name, value, unit});
}

void Result::setting(const std::string& key, const std::string& value) {
  settings.emplace_back(key, value);
}

const std::vector<std::pair<std::string, std::string>>& e2e_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"setup_s", "s"},   {"peak_rss_mb", "MB"}, {"ops_per_s", "1/s"},
      {"p50_us", "us"},   {"p99_us", "us"},
  };
  return kNames;
}

const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"net.self_pct", "%"},
      {"net.submit_us", "us"},
      {"net.encode_us", "us"},
      {"net.decode_us", "us"},
      {"net.resp_bytes", "bytes"},
      {"net.overhead_us", "us"},
      {"service.self_pct", "%"},
      {"service.submit_us", "us"},
      {"service.wait_us", "us"},
      {"service.coalesce_ratio", "ratio"},
      {"service.result_hit_ratio", "ratio"},
      {"service.executed", "count"},
      {"service.sessions_built", "count"},
      {"service.sessions_evicted", "count"},
      {"workbench.self_pct", "%"},
      {"workbench.contention_us", "us"},
      {"workbench.wcrt_us", "us"},
      {"workbench.simulate_us", "us"},
      {"workbench.throughput_us", "us"},
      {"workbench.sweep_uc_us", "us"},
      {"workbench.dispatch_us", "us"},
      {"prob.self_pct", "%"},
      {"prob.estimate_second_us", "us"},
      {"prob.estimate_fourth_us", "us"},
      {"prob.estimate_composability_us", "us"},
      {"analysis.self_pct", "%"},
      {"analysis.recompute_us", "us"},
      {"analysis.tt_hit_ratio", "ratio"},
      {"analysis.tt_evictions", "count"},
      {"wcrt.self_pct", "%"},
      {"wcrt.bounds_us", "us"},
      {"sim.self_pct", "%"},
      {"sim.run_us", "us"},
      {"sim.events", "count"},
      {"sim.ns_per_event", "ns"},
      {"dse.self_pct", "%"},
      {"dse.full_evals", "count"},
      {"dse.exhaustive_evals", "count"},
      {"dse.eval_ratio", "ratio"},
      {"dse.estimator_pulls", "count"},
      {"dse.sim_pulls", "count"},
      {"dse.race_exhaustive_ms", "ms"},
      {"admission.self_pct", "%"},
      {"admission.probe_us", "us"},
      {"admission.cold_probe_us", "us"},
      {"admission.report_us", "us"},
      {"admission.request_us", "us"},
      {"admission.remove_us", "us"},
      {"residual_pct", "%"},
      {"trace_overhead_pct", "%"},
  };
  return kNames;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

LowerLayers::LowerLayers(const procon::platform::System& s) : sys_(&s), sim_(s) {
  for (const auto& g : s.apps()) {
    engines.emplace_back(g);
    std::vector<double> times;
    for (const procon::sdf::Actor& a : g.actors()) times.push_back(static_cast<double>(a.exec_time));
    default_times_.push_back(std::move(times));
  }
}

std::span<procon::analysis::ThroughputEngine* const> LowerLayers::cold_engines(
    const procon::platform::UseCase& uc) {
  ptrs_.clear();
  for (const procon::sdf::AppId a : uc) {
    engines[a].reset();
    ptrs_.push_back(&engines[a]);
  }
  return ptrs_;
}

double LowerLayers::estimate(const procon::prob::ContentionEstimator& est,
                             const procon::platform::UseCase& uc,
                             const procon::platform::System* on) {
  view_.rebind(on != nullptr ? *on : *sys_, uc);
  if (est_out_.size() < uc.size()) est_out_.resize(uc.size());
  const auto ptrs = cold_engines(uc);
  const auto t0 = Clock::now();
  est.estimate_into(view_, {}, ptrs, est_ws_,
                    std::span<procon::prob::AppEstimate>(est_out_.data(), uc.size()));
  return us_between(t0, Clock::now());
}

double LowerLayers::bounds(const procon::wcrt::WcrtOptions& opts,
                           const procon::platform::UseCase& uc) {
  view_.rebind(*sys_, uc);
  if (bound_out_.size() < uc.size()) bound_out_.resize(uc.size());
  const auto ptrs = cold_engines(uc);
  const auto t0 = Clock::now();
  procon::wcrt::worst_case_bounds_into(
      view_, opts, ptrs, wcrt_ws_,
      std::span<procon::wcrt::AppBound>(bound_out_.data(), uc.size()));
  return us_between(t0, Clock::now());
}

double LowerLayers::simulate(const procon::platform::UseCase& uc,
                             const procon::sim::SimOptions& opts, std::uint64_t& events) {
  const auto t0 = Clock::now();
  sim_.reset(uc);
  events += sim_.run_view(opts).events_processed;
  return us_between(t0, Clock::now());
}

double LowerLayers::recompute(procon::sdf::AppId a) {
  engines[a].reset();
  const auto t0 = Clock::now();
  (void)engines[a].recompute(default_times_[a]);
  return us_between(t0, Clock::now());
}

Zipf::Zipf(std::size_t n) {
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) total += 1.0 / static_cast<double>(r + 1);
  double acc = 0.0;
  cdf_.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    acc += 1.0 / static_cast<double>(r + 1) / total;
    cdf_.push_back(acc);
  }
  cdf_.back() = 1.0;
}

std::size_t Zipf::draw(procon::util::Rng& rng) const {
  const double u = rng.uniform01();
  return static_cast<std::size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                                  cdf_.begin());
}

void LayerTimes::report(Result& r) const {
  const double e2e = end_to_end > 0.0 ? end_to_end : 1.0;
  const std::pair<const char*, double> parts[] = {
      {"net.self_pct", net},         {"service.self_pct", service},
      {"workbench.self_pct", workbench}, {"prob.self_pct", prob},
      {"analysis.self_pct", analysis}, {"wcrt.self_pct", wcrt},
      {"sim.self_pct", sim},         {"dse.self_pct", dse},
      {"admission.self_pct", admission},
  };
  double covered = 0.0;
  for (const auto& [name, secs] : parts) {
    r.layer(name, 100.0 * secs / e2e);
    covered += secs;
  }
  r.layer("residual_pct", 100.0 * (end_to_end - covered) / e2e);
}

}  // namespace perfbench
