// Workload `admission`: the paper's run-time use (Section 6). One
// admission::AdmissionController on a 10-node platform serves a seeded
// operation stream: mostly verdict-only what_if_admit probes, a few
// full-report probes, and request/remove churn that keeps 4-8 applications
// admitted. Candidates come from a pool three times the controller's
// candidate LRU: 75% of probes go to a seeded hot set as large as the LRU,
// the rest to the other 16, so the LRU both hits and rebuilds. The pool is
// generated from a fixed seed, like the design workload's system; --seed
// draws the hot set and the stream. sim, dse, the service and the network
// are never called.
//
// The stream runs in episodes of 16384 operations, each on a freshly built
// controller. A controller keeps every application it ever admitted
// (handles are never reused), and a probe walks every handle, so probe
// cost grows with the churn a controller has seen; a fixed episode length
// makes each run measure the same history however fast the machine is.
// The growth inside an episode is reported (admission_probe_growth_pct).
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "admission/admission.h"
#include "analysis/engine.h"
#include "common.h"
#include "gen/graph_generator.h"
#include "platform/platform.h"

namespace perfbench {
namespace {

using namespace procon;

constexpr std::size_t kNodes = 10;
constexpr std::size_t kPool = 24;          // candidate applications
constexpr std::size_t kLruCapacity = 8;    // AdmissionController's default
constexpr std::size_t kHot = kLruCapacity; // hot candidates
constexpr double kHotShare = 0.75;         // probes that go to the hot set
constexpr std::uint64_t kPoolSeed = 2007;
constexpr std::size_t kMinAdmitted = 4;
constexpr std::size_t kMaxAdmitted = 8;
constexpr std::size_t kInitialAdmitted = 6;
constexpr double kProbeShare = 0.88;       // verdict-only probes
constexpr double kReportShare = 0.04;      // full-report probes; rest is churn
constexpr double kQosFactor = 3.0;         // probe QoS: 3x isolation period
constexpr std::size_t kCheckEvery = 97;    // every n-th probe is re-verified
constexpr std::size_t kChunk = 4096;       // ops per timed chunk
constexpr std::size_t kEpisodeChunks = 4;  // chunks per episode

struct Candidate {
  sdf::Graph graph;
  std::vector<platform::NodeId> nodes;
  admission::QoS probe_qos;
};

enum class OpKind { Probe, Report, Request, Remove };

/// One committed change of the admitted set: a request of pool application
/// `value`, or the removal of handle `value`.
struct Change {
  bool request = true;
  std::size_t value = 0;
};

/// A sampled probe kept for the post-run checks.
struct ProbeRecord {
  std::size_t history = 0;            // changes committed before the probe
  std::vector<std::size_t> admitted;  // pool indices, ascending handle order
  std::size_t candidate = 0;
  admission::WhatIfReport report;
};

/// Pool applications: paper-style graphs (8-10 actors), actor j on node
/// (j + offset) mod 10 with a seeded offset so load spreads over the nodes.
std::vector<Candidate> make_pool(std::uint64_t seed) {
  util::Rng rng(util::counter_seed(seed, 0xAD, 0));
  gen::GeneratorOptions gopts;
  std::vector<sdf::Graph> graphs = gen::generate_graphs(rng, gopts, kPool, "cand");
  std::vector<Candidate> pool;
  pool.reserve(kPool);
  for (auto& g : graphs) {
    Candidate c;
    const auto offset = static_cast<platform::NodeId>(rng.uniform_int(0, kNodes - 1));
    for (std::size_t a = 0; a < g.actor_count(); ++a) {
      c.nodes.push_back(static_cast<platform::NodeId>((a + offset) % kNodes));
    }
    analysis::ThroughputEngine engine(g);
    c.probe_qos.max_period = kQosFactor * engine.recompute().period;
    c.graph = std::move(g);
    pool.push_back(std::move(c));
  }
  return pool;
}

/// The controller plus the bookkeeping the stream needs.
struct Live {
  std::unique_ptr<admission::AdmissionController> ctrl;
  std::vector<std::pair<admission::AppHandle, std::size_t>> admitted;  // (handle, pool)
  std::vector<char> is_admitted = std::vector<char>(kPool, 0);
  std::vector<Change> history;

  void admit(const std::vector<Candidate>& pool, std::size_t idx) {
    const auto d = ctrl->request(pool[idx].graph, pool[idx].nodes,
                                 admission::QoS::no_requirement());
    if (!d.admitted || !d.handle) {
      throw std::runtime_error("admission stream: request was refused");
    }
    admitted.emplace_back(*d.handle, idx);
    is_admitted[idx] = 1;
    history.push_back({true, idx});
  }
  void drop(std::size_t slot) {
    ctrl->remove(admitted[slot].first);
    history.push_back({false, admitted[slot].first});
    is_admitted[admitted[slot].second] = 0;
    admitted.erase(admitted.begin() + static_cast<std::ptrdiff_t>(slot));
  }
  [[nodiscard]] std::vector<std::size_t> admitted_pool_order() const {
    auto sorted = admitted;
    std::sort(sorted.begin(), sorted.end());
    std::vector<std::size_t> out;
    for (const auto& [h, idx] : sorted) out.push_back(idx);
    return out;
  }
};

/// Per-kind timing of a traced chunk.
struct KindTimes {
  Samples probe, cold_probe, report, request, remove;
  double op_seconds = 0.0;
  double recomputes = 0.0;  // engine recomputes the ops performed
};

/// Mirror of the controller's candidate LRU (same capacity, same touch
/// points: every probe and request), used only to label a probe cold.
class LruMirror {
 public:
  /// Touches `idx`; returns true when it was not resident (a rebuild).
  bool touch(std::size_t idx) {
    ++clock_;
    for (auto& [i, stamp] : slots_) {
      if (i == idx) {
        stamp = clock_;
        return false;
      }
    }
    if (slots_.size() < kLruCapacity) {
      slots_.emplace_back(idx, clock_);
    } else {
      auto lru = std::min_element(slots_.begin(), slots_.end(),
                                  [](const auto& a, const auto& b) {
                                    return a.second < b.second;
                                  });
      *lru = {idx, clock_};
    }
    return true;
  }

 private:
  std::vector<std::pair<std::size_t, std::uint64_t>> slots_;
  std::uint64_t clock_ = 0;
};

}  // namespace

Result run_admission(const Args& args) {
  Result r;
  r.setting("platform_nodes", std::to_string(kNodes));
  r.setting("candidate_pool", std::to_string(kPool));
  r.setting("candidate_lru", std::to_string(kLruCapacity));
  r.setting("probe_popularity", "0.75 to a hot set of 8, 0.25 to the other 16");
  r.setting("admitted_range", std::to_string(kMinAdmitted) + "-" +
                                   std::to_string(kMaxAdmitted));
  r.setting("mix", "probe 0.88 / report 0.04 / churn 0.08");
  r.setting("episode_ops", std::to_string(kChunk * kEpisodeChunks));
  r.setting("threads", "1");
  r.setting("transposition_table", "off");

  // ---- set-up: pool generation + controller + initial admissions --------
  std::vector<Candidate> pool;
  Live live;
  auto open_episode = [&] {
    live = Live{};
    live.ctrl = std::make_unique<admission::AdmissionController>(
        platform::Platform::homogeneous(kNodes), kLruCapacity);
    for (std::size_t i = 0; i < kInitialAdmitted; ++i) live.admit(pool, i);
  };
  // Timed kSetupReps times here and once at every episode (common.h).
  Samples setup;
  auto set_up = [&] {
    live = Live{};
    setup.add(seconds_of([&] {
      pool = make_pool(kPoolSeed);
      open_episode();
    }));
  };
  for (int i = 0; i < kSetupReps; ++i) set_up();

  util::Rng rng(util::counter_seed(args.seed, 0xAD, 1));
  // by_heat[0, kHot) is the hot set.
  std::vector<std::size_t> by_heat(kPool);
  for (std::size_t i = 0; i < kPool; ++i) by_heat[i] = i;
  rng.shuffle(by_heat);
  auto draw_candidate = [&] {
    const bool hot = rng.uniform01() < kHotShare;
    const std::size_t lo = hot ? 0 : kHot;
    const std::size_t hi = hot ? kHot - 1 : kPool - 1;
    return by_heat[static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)))];
  };

  admission::WhatIfReport out;
  const admission::WhatIfOptions verdict_only{.with_estimates = false, .estimator = {}};
  const admission::WhatIfOptions full_report{};
  std::vector<ProbeRecord> records;
  Samples probe_us;  // the current chunk's verdict-only probes
  std::uint64_t probes = 0;
  LruMirror mirror;

  // Reference recompute cost per pool application (traced run only): a
  // warm-started recompute after a perturbed one, as the controller's
  // predictions run.
  double ref_recompute_us = 0.0;
  if (args.trace) {
    Samples rec;
    for (const Candidate& c : pool) {
      analysis::ThroughputEngine engine(c.graph);
      std::vector<double> times;
      for (const sdf::Actor& a : c.graph.actors()) {
        times.push_back(static_cast<double>(a.exec_time));
      }
      std::vector<double> perturbed = times;
      for (double& t : perturbed) t *= 1.25;
      for (int rep = 0; rep < 8; ++rep) {
        (void)engine.recompute(perturbed);
        const auto t0 = Clock::now();
        (void)engine.recompute(times);
        rec.add(us_between(t0, Clock::now()));
      }
    }
    ref_recompute_us = rec.median();
  }

  auto draw = [&]() -> OpKind {
    const double u = rng.uniform01();
    if (u < kProbeShare) return OpKind::Probe;
    if (u < kProbeShare + kReportShare) return OpKind::Report;
    const std::size_t n = live.admitted.size();
    if (n <= kMinAdmitted) return OpKind::Request;
    if (n >= kMaxAdmitted) return OpKind::Remove;
    return rng.bernoulli(0.5) ? OpKind::Request : OpKind::Remove;
  };

  // One chunk of the stream, each operation timed; returns the chunk's
  // wall time.
  KindTimes kt;
  auto run_chunk = [&](bool traced) -> double {
    probe_us = Samples{};
    probe_us.reserve(kChunk);
    const auto c0 = Clock::now();
    for (std::size_t k = 0; k < kChunk; ++k) {
      const OpKind kind = draw();
      std::size_t idx = 0;
      std::size_t slot = 0;
      if (kind == OpKind::Probe || kind == OpKind::Report) {
        idx = draw_candidate();
      } else if (kind == OpKind::Request) {
        auto pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(kPool - live.admitted.size()) - 1));
        for (idx = 0; idx < kPool; ++idx) {
          if (!live.is_admitted[idx] && pick-- == 0) break;
        }
      } else {
        slot = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(live.admitted.size()) - 1));
      }
      const std::size_t peers_before = live.admitted.size();
      const auto t0 = Clock::now();
      switch (kind) {
        case OpKind::Probe:
          live.ctrl->what_if_admit(pool[idx].graph, pool[idx].nodes,
                                   pool[idx].probe_qos, out, verdict_only);
          break;
        case OpKind::Report:
          live.ctrl->what_if_admit(pool[idx].graph, pool[idx].nodes,
                                   pool[idx].probe_qos, out, full_report);
          break;
        case OpKind::Request:
          live.admit(pool, idx);
          break;
        case OpKind::Remove:
          live.drop(slot);
          break;
      }
      const double us = us_between(t0, Clock::now());
      ++r.attempted;
      if (kind == OpKind::Probe) {
        probe_us.add(us);
        if (++probes % kCheckEvery == 0) {
          records.push_back({live.history.size(), live.admitted_pool_order(), idx, out});
        }
      }
      if (args.trace) {
        const bool cold = kind != OpKind::Remove && mirror.touch(idx);
        if (traced) {
          kt.op_seconds += us * 1e-6;
          // Engine recomputes: the candidate's own period, then one per
          // admitted peer until the first QoS violation; a full report
          // adds the estimator's two per application of the would-be set.
          double recomputes = 0.0;
          if (kind == OpKind::Probe || kind == OpKind::Report) {
            recomputes = 1.0;
            for (const double p : out.peer_periods) recomputes += p > 0.0 ? 1.0 : 0.0;
            if (kind == OpKind::Report) {
              recomputes += 2.0 * static_cast<double>(peers_before + 1);
            }
          } else if (kind == OpKind::Request) {
            recomputes = 1.0 + static_cast<double>(peers_before);
          }
          kt.recomputes += recomputes;
          switch (kind) {
            case OpKind::Probe: (cold ? kt.cold_probe : kt.probe).add(us); break;
            case OpKind::Report: kt.report.add(us); break;
            case OpKind::Request: kt.request.add(us); break;
            case OpKind::Remove: kt.remove.add(us); break;
          }
        }
      }
    }
    return seconds_between(c0, Clock::now());
  };

  // ---- output checks on an episode's sampled probes ----------------------
  // A freshly built controller given the same admit/remove history must
  // reach the same verdict, predicted period and peer periods, bit for bit:
  // predictions are pure functions of the admitted set and the probe
  // (admission.h), so the live controller's candidate LRU, warm-started
  // engines and scratch buffers may not change a result. A controller
  // built in handle order instead folds the node composites in another
  // order, and Eq. 7 is associative only to second order (prob/compose.h),
  // so its prediction moves by whole percents; that is reported
  // (admission_order_effect_*), not checked.
  std::uint64_t checked = 0;
  Samples order_effect;
  auto verify_episode = [&] {
    admission::AdmissionController fresh(platform::Platform::homogeneous(kNodes),
                                         kLruCapacity);
    std::size_t replayed = 0;
    for (const ProbeRecord& rec : records) {
      for (; replayed < rec.history; ++replayed) {
        const Change& c = live.history[replayed];
        if (c.request) {
          (void)fresh.request(pool[c.value].graph, pool[c.value].nodes,
                              admission::QoS::no_requirement());
        } else {
          fresh.remove(static_cast<admission::AppHandle>(c.value));
        }
      }
      const Candidate& cand = pool[rec.candidate];
      admission::WhatIfReport ref;
      fresh.what_if_admit(cand.graph, cand.nodes, cand.probe_qos, ref, verdict_only);
      const bool same = ref.admissible == rec.report.admissible &&
                        ref.predicted_period == rec.report.predicted_period &&
                        ref.peer_periods == rec.report.peer_periods;
      ++checked;
      if (!same) {
        r.fail("admission probe of candidate " + std::to_string(rec.candidate) +
               " differs from a fresh controller with the same history");
      }
      admission::AdmissionController ordered(platform::Platform::homogeneous(kNodes),
                                             kLruCapacity);
      for (const std::size_t idx : rec.admitted) {
        (void)ordered.request(pool[idx].graph, pool[idx].nodes,
                              admission::QoS::no_requirement());
      }
      admission::WhatIfReport alt;
      ordered.what_if_admit(cand.graph, cand.nodes, cand.probe_qos, alt, verdict_only);
      order_effect.add(100.0 *
                       std::fabs(alt.predicted_period - rec.report.predicted_period) /
                       rec.report.predicted_period);
    }
    records.clear();
  };

  // Warm-up: one chunk of a throw-away episode (code and data caches).
  (void)run_chunk(false);
  records.clear();
  kt = KindTimes{};
  r.attempted = 0;

  const auto start = Clock::now();
  std::uint64_t episodes = 0;
  Samples traced_chunk_s, untraced_chunk_s, chunk_p50, chunk_p99;
  Samples second_p50, last_p50;  // per episode: its second and last chunk
  std::size_t probe_count = 0;
  while (episodes == 0 || seconds_between(start, Clock::now()) < args.seconds) {
    set_up();
    mirror = LruMirror{};
    for (std::size_t c = 0; c < kEpisodeChunks; ++c) {
      const bool traced = args.trace && c % 2 == 1;
      const double s = run_chunk(traced);
      probe_count += probe_us.size();
      (traced ? traced_chunk_s : untraced_chunk_s).add(s);
      if (!traced) {
        chunk_p50.add(probe_us.quantile(0.50));
        chunk_p99.add(probe_us.quantile(0.99));
      }
      if (c == 1) second_p50.add(probe_us.median());
      if (c == kEpisodeChunks - 1) last_p50.add(probe_us.median());
    }
    verify_episode();
    ++episodes;
  }

  // One window is one chunk of operations.
  const double ops_per_s = static_cast<double>(kChunk) / untraced_chunk_s.trimmed_mean();
  const double p50 = chunk_p50.trimmed_mean();
  const double p99 = chunk_p99.trimmed_mean();
  r.e2e("setup_s", setup.median());
  r.e2e("peak_rss_mb", peak_rss_mb());
  r.e2e("ops_per_s", ops_per_s);
  r.e2e("p50_us", p50);
  r.e2e("p99_us", p99);
  r.info("admit_probe_p50_us", p50, "us");
  r.info("admit_probe_p99_us", p99, "us");
  r.info("admit_probe_samples", static_cast<double>(probe_count), "count");
  r.info("admit_ops_per_s", ops_per_s, "1/s");
  r.info("admission_episodes", static_cast<double>(episodes), "count");
  r.info("admission_probe_growth_pct",
         100.0 * (last_p50.median() / second_p50.median() - 1.0), "%");
  r.info("admission_checked_probes", static_cast<double>(checked), "count");
  r.info("admission_order_effect_p50_pct", order_effect.median(), "%");
  r.info("admission_order_effect_max_pct", order_effect.quantile(1.0), "%");

  if (args.trace) {
    LayerTimes lt;
    lt.end_to_end = traced_chunk_s.sum();
    lt.analysis = kt.recomputes * ref_recompute_us * 1e-6;
    lt.admission = kt.op_seconds - lt.analysis;
    lt.report(r);
    r.layer("admission.probe_us", kt.probe.mean());
    r.layer("admission.cold_probe_us", kt.cold_probe.mean());
    r.layer("admission.report_us", kt.report.mean());
    r.layer("admission.request_us", kt.request.mean());
    r.layer("admission.remove_us", kt.remove.mean());
    r.layer("analysis.recompute_us", ref_recompute_us);
    const double tm = traced_chunk_s.trimmed_mean(), um = untraced_chunk_s.trimmed_mean();
    r.layer("trace_overhead_pct", um > 0.0 ? 100.0 * (tm - um) / um : 0.0);
  }
  return r;
}

}  // namespace perfbench
