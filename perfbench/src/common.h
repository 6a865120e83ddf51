// Shared pieces of the benchmark program: clocks, sample sets, the result
// record every workload fills, and the fixed metric vocabulary.
//
// Every workload reports the same end-to-end metrics (each one defined per
// workload in perfbench/README.md) and, in a traced run, the same per-layer
// metrics; a layer the workload never calls reports 0, which is the
// prediction the layer -> workload map makes for it.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/engine.h"
#include "platform/system.h"
#include "platform/system_view.h"
#include "prob/estimator.h"
#include "sdf/types.h"
#include "sim/sim_engine.h"
#include "util/rng.h"
#include "wcrt/wcrt.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds from `a` to `b`.
[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
/// Microseconds from `a` to `b`.
[[nodiscard]] inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Command-line options shared by every workload.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Workbench pool size of the design workload (the self-test runs 1 and 2
  /// to check that deterministic metrics do not depend on it).
  std::size_t design_threads = 2;
};

/// A set of samples with quantiles by linear interpolation between order
/// statistics (numpy's default), so medians and tails of two runs are
/// computed the same way.
class Samples {
 public:
  void reserve(std::size_t n) { v_.reserve(n); }
  void add(double v) {
    v_.push_back(v);
    sorted_ = false;
  }
  [[nodiscard]] std::size_t size() const noexcept { return v_.size(); }
  /// q in [0, 1]; 0 for an empty set.
  [[nodiscard]] double quantile(double q);
  [[nodiscard]] double median() { return quantile(0.5); }
  /// Mean of the values left after dropping the lowest and the highest
  /// tenth (by count, rounded down); 0 for an empty set.
  [[nodiscard]] double trimmed_mean();
  [[nodiscard]] double sum() const;
  [[nodiscard]] double mean() const;

 private:
  std::vector<double> v_;
  bool sorted_ = true;
};

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: operation counts, the output-check verdict, the
/// contract metrics, and the workload's own metrics under their documented
/// names (`detail`), plus the settings that make a number comparable.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> layers;
  std::vector<Metric> detail;
  std::vector<std::pair<std::string, std::string>> settings;
  std::vector<std::string> failures;  ///< first few check messages

  /// Counts one failed operation or output check and keeps its message.
  void fail(const std::string& what);
  void e2e(const std::string& name, double value);
  void layer(const std::string& name, double value);
  void info(const std::string& name, double value, const std::string& unit);
  void setting(const std::string& key, const std::string& value);
};

/// The end-to-end metric names with their units, in report order.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& e2e_metrics();
/// The per-layer metric names with their units, in report order.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& layer_metrics();

/// Peak resident set size of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// Wall time of `f()`, in seconds.
template <typename F>
[[nodiscard]] double seconds_of(F&& f) {
  const auto t0 = Clock::now();
  f();
  return seconds_between(t0, Clock::now());
}

/// Zipf(1) sampler over ranks 0..n-1 (rank r drawn with weight 1/(r+1)).
class Zipf {
 public:
  explicit Zipf(std::size_t n);
  [[nodiscard]] std::size_t draw(procon::util::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Self-time attribution of one traced run: seconds per layer, plus the
/// end-to-end seconds they are a share of.
struct LayerTimes {
  double net = 0, service = 0, workbench = 0, prob = 0, analysis = 0, wcrt = 0,
         sim = 0, dse = 0, admission = 0;
  double end_to_end = 0;
  /// Emits `<layer>.self_pct` for every layer and `residual_pct`.
  void report(Result& r) const;
};

/// The layers under the Workbench, driven directly by the traced runs to
/// time the work a Workbench call does: one engine per application of a
/// system, estimator and bounds workspaces, and a SimEngine over the
/// system. Each call starts the engines it uses cold, as the Workbench does
/// before a query, and returns the time of the layer's own call in us.
struct LowerLayers {
  explicit LowerLayers(const procon::platform::System& s);
  LowerLayers(const LowerLayers&) = delete;
  LowerLayers& operator=(const LowerLayers&) = delete;

  /// `est.estimate_into` on `uc` of `on` (default: the own system; `on`
  /// must have the same applications, as a re-routed copy has).
  double estimate(const procon::prob::ContentionEstimator& est,
                  const procon::platform::UseCase& uc,
                  const procon::platform::System* on = nullptr);
  /// `wcrt::worst_case_bounds_into` on `uc`.
  double bounds(const procon::wcrt::WcrtOptions& opts, const procon::platform::UseCase& uc);
  /// `SimEngine::reset(uc)` + `run_view`; adds the events processed to
  /// `events`.
  double simulate(const procon::platform::UseCase& uc, const procon::sim::SimOptions& opts,
                  std::uint64_t& events);
  /// One cold `ThroughputEngine::recompute` of application `a` at its own
  /// execution times.
  double recompute(procon::sdf::AppId a);

  std::vector<procon::analysis::ThroughputEngine> engines;

 private:
  /// Resets the engines of `uc`'s applications and returns them in
  /// use-case order.
  std::span<procon::analysis::ThroughputEngine* const> cold_engines(
      const procon::platform::UseCase& uc);

  const procon::platform::System* sys_;
  std::vector<std::vector<double>> default_times_;
  std::vector<procon::analysis::ThroughputEngine*> ptrs_;
  procon::platform::SystemView view_;
  procon::prob::EstimatorWorkspace est_ws_;
  procon::wcrt::WcrtWorkspace wcrt_ws_;
  std::vector<procon::prob::AppEstimate> est_out_;
  std::vector<procon::wcrt::AppBound> bound_out_;
  procon::sim::SimEngine sim_;
};

/// How every workload aggregates. The machine this was tuned on is a
/// virtual machine whose speed switches between a fast and a slow level
/// (2x apart) every second or so. Each workload therefore measures in many
/// short windows (a design pass, a chunk of operations), computes each
/// end-to-end metric per window, and reports the trimmed mean of the
/// windows. It moves in proportion to the share of slow windows, where the
/// median of the windows jumps from one level to the other when that share
/// nears one half (over ten design runs, window medians spread by
/// 0.23-0.33, the same runs' means by 0.08-0.15), and it still drops the
/// odd stalled window. Set-up is timed the same way: kSetupReps times
/// before the measured loop and once more between its windows, so that it
/// sees the same mix of levels; `setup_s` is the median of those set-ups.
inline constexpr int kSetupReps = 5;

// Workload entry points (one per translation unit).
Result run_design(const Args& args);
Result run_admission(const Args& args);
Result run_serve(const Args& args);

}  // namespace perfbench
