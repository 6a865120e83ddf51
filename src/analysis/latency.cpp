#include "analysis/latency.h"

#include <algorithm>

#include "sdf/repetition.h"

namespace procon::analysis {

LatencyResult iteration_latency(const Hsdf& h) {
  const std::size_t n = h.node_count();
  LatencyResult result;
  if (n == 0) return result;

  // Zero-token adjacency and indegrees.
  std::vector<std::vector<std::uint32_t>> out(n);
  std::vector<std::uint32_t> indegree(n, 0);
  for (const HsdfEdge& e : h.edges) {
    if (e.tokens != 0) continue;
    out[e.src].push_back(e.dst);
    ++indegree[e.dst];
  }

  // Kahn topological order with longest-path relaxation.
  std::vector<std::uint32_t> order;
  order.reserve(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    if (indegree[v] == 0) order.push_back(v);
  }
  std::vector<double> finish(n, 0.0);
  std::vector<std::uint32_t> pred(n, UINT32_MAX);
  for (std::uint32_t v = 0; v < n; ++v) {
    // Source nodes start at time 0 and finish after their own execution.
    if (indegree[v] == 0) finish[v] = h.nodes[v].exec_time;
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    const std::uint32_t v = order[head];
    for (const std::uint32_t w : out[v]) {
      const double cand = finish[v] + h.nodes[w].exec_time;
      if (cand > finish[w]) {
        finish[w] = cand;
        pred[w] = v;
      }
      if (--indegree[w] == 0) order.push_back(w);
    }
  }
  if (order.size() != n) {
    throw sdf::GraphError("iteration_latency: zero-token subgraph is cyclic");
  }

  // Extract the critical path.
  std::uint32_t best = 0;
  for (std::uint32_t v = 1; v < n; ++v) {
    if (finish[v] > finish[best]) best = v;
  }
  result.latency = finish[best];
  std::vector<std::uint32_t> path;
  for (std::uint32_t v = best; v != UINT32_MAX; v = pred[v]) path.push_back(v);
  std::reverse(path.begin(), path.end());
  result.path = std::move(path);
  return result;
}

GraphLatencyResult compute_latency(const sdf::Graph& g,
                                   std::span<const double> exec_times) {
  const auto q = sdf::compute_repetition_vector(g);
  if (!q) throw sdf::GraphError("compute_latency: inconsistent graph");
  const Hsdf h = expand_closure_to_hsdf(g, *q, exec_times);
  const LatencyResult r = iteration_latency(h);
  GraphLatencyResult out;
  out.latency = r.latency;
  std::vector<bool> seen(g.actor_count(), false);
  for (const std::uint32_t node : r.path) {
    const sdf::ActorId a = h.nodes[node].source_actor;
    if (!seen[a]) {
      seen[a] = true;
      out.critical_actors.push_back(a);
    }
  }
  return out;
}

}  // namespace procon::analysis
