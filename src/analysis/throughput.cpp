#include "analysis/throughput.h"

#include <algorithm>

#include "analysis/engine.h"

namespace procon::analysis {

PeriodResult compute_period(const sdf::Graph& g, std::span<const double> exec_times) {
  // One-shot use of the reusable engine over the materialised self-loop
  // closure: the oracle that ThroughputEngine(g), which expands the closure
  // without building it, is checked against bitwise.
  ThroughputEngine engine(g.with_self_loops(), {.assume_closed = true});
  return engine.recompute(exec_times);
}

BottleneckReport find_bottleneck(const sdf::Graph& g,
                                 std::span<const double> exec_times) {
  const auto q = sdf::compute_repetition_vector(g);
  if (!q) throw sdf::GraphError("find_bottleneck: inconsistent graph");
  const Hsdf h = expand_closure_to_hsdf(g, *q, exec_times);
  const CriticalCycleResult cc = mcr_with_critical_cycle(h);
  BottleneckReport report;
  report.deadlocked = cc.mcr.deadlocked;
  report.period = cc.mcr.deadlocked ? 0.0 : cc.mcr.ratio;
  std::vector<bool> seen(g.actor_count(), false);
  for (const std::uint32_t node : cc.cycle) {
    const sdf::ActorId a = h.nodes[node].source_actor;
    if (!seen[a]) {
      seen[a] = true;
      report.actors.push_back(a);
    }
  }
  std::sort(report.actors.begin(), report.actors.end());
  return report;
}

util::Rational compute_period_exact(const sdf::Graph& g) {
  const sdf::Graph closed = g.with_self_loops();
  const StateSpaceResult r = self_timed_period(closed);
  if (r.deadlocked || !r.converged) {
    throw sdf::GraphError("compute_period_exact: graph deadlocks or did not converge");
  }
  return r.period;
}

}  // namespace procon::analysis
