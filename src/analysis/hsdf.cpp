#include "analysis/hsdf.h"

#include <algorithm>
#include <sstream>

namespace procon::analysis {
namespace {

// ceil(a/b) for b > 0, correct for negative a.
std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  const std::int64_t q = a / b;
  return (a % b != 0 && ((a < 0) == (b < 0))) ? q + 1 : q;
}

}  // namespace

void append_channel_candidates(const sdf::Channel& ch, const sdf::RepetitionVector& q,
                               std::span<const std::uint32_t> node_base,
                               std::vector<HsdfEdgeCandidate>& out) {
  const auto p = static_cast<std::int64_t>(ch.prod_rate);
  const auto c = static_cast<std::int64_t>(ch.cons_rate);
  const auto d = static_cast<std::int64_t>(ch.initial_tokens);
  const auto qu = static_cast<std::int64_t>(q[ch.src]);
  const auto qv = static_cast<std::int64_t>(q[ch.dst]);

  for (std::int64_t j = 1; j <= qv; ++j) {        // consumer firing (1-based)
    for (std::int64_t t = (j - 1) * c + 1; t <= j * c; ++t) {  // token index
      // Producer firing number (1-based from execution start); <= 0 means
      // the token is (an ancestor of) an initial token.
      std::int64_t f = ceil_div(t - d, p);
      std::int64_t delay = 0;
      if (f < 1) {
        // Shift whole iterations until the firing index is positive.
        const std::int64_t m = ceil_div(1 - f, qu);
        f += m * qu;
        delay = m;
      }
      // Within one iteration f cannot exceed qu (token conservation), but
      // guard for robustness on unusual token distributions.
      while (f > qu) {
        f -= qu;
        delay -= 1;
      }
      if (delay < 0) {
        // A dependency on a *future* iteration cannot occur in a
        // consistent graph; it indicates more initial tokens than one
        // iteration consumes, i.e. no constraint for this pair.
        continue;
      }
      const std::uint32_t src_node =
          node_base[ch.src] + static_cast<std::uint32_t>(f - 1);
      const std::uint32_t dst_node =
          node_base[ch.dst] + static_cast<std::uint32_t>(j - 1);
      out.push_back(HsdfEdgeCandidate{
          (static_cast<std::uint64_t>(src_node) << 32) | dst_node,
          static_cast<std::uint64_t>(delay)});
    }
  }
}

void dedup_candidates(std::vector<HsdfEdgeCandidate>& candidates) {
  // Sort by (src, dst) then tokens; the first entry of each (src, dst) run
  // carries the minimum iteration distance — the binding constraint.
  std::sort(candidates.begin(), candidates.end(),
            [](const HsdfEdgeCandidate& a, const HsdfEdgeCandidate& b) {
              return a.key != b.key ? a.key < b.key : a.tokens < b.tokens;
            });
  std::size_t w = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (i > 0 && candidates[i].key == candidates[i - 1].key) continue;
    candidates[w++] = candidates[i];
  }
  candidates.resize(w);
}

namespace {

// Shared body of expand_to_hsdf and expand_closure_to_hsdf. With
// `close_self_loops`, every actor lacking a self-loop (Graph::has_self_loop)
// also contributes the candidates of a synthetic {a, a, 1, 1, 1} channel —
// exactly the channels Graph::with_self_loops() would append. Channel order
// does not reach the result: dedup_candidates sorts by (key, tokens).
Hsdf expand(const sdf::Graph& g, const sdf::RepetitionVector& q,
            std::span<const double> exec_times, bool close_self_loops,
            const char* who) {
  if (q.size() != g.actor_count()) {
    throw sdf::GraphError(std::string(who) + ": repetition vector size mismatch");
  }
  if (!exec_times.empty() && exec_times.size() != g.actor_count()) {
    throw sdf::GraphError(std::string(who) + ": exec_times size mismatch");
  }

  Hsdf h;
  h.nodes.reserve(static_cast<std::size_t>(sdf::repetition_sum(q)));
  // node_base[a] = index of the first firing-node of actor a.
  std::vector<std::uint32_t> node_base(g.actor_count(), 0);
  for (sdf::ActorId a = 0; a < g.actor_count(); ++a) {
    node_base[a] = static_cast<std::uint32_t>(h.nodes.size());
    const double tau = exec_times.empty()
                           ? static_cast<double>(g.actor(a).exec_time)
                           : exec_times[a];
    for (std::uint32_t k = 0; k < q[a]; ++k) {
      h.nodes.push_back(HsdfNode{a, k, tau});
    }
  }

  // For each channel, map every consumed token of every consumer firing to
  // the producer firing that creates it; keep the min iteration distance
  // per (producer firing, consumer firing) pair. Candidates are collected
  // flat and deduplicated by one sort + scan — far cheaper than a node-based
  // map on the hot repeated-analysis path.
  const auto closes = [&](sdf::ActorId a) {
    return close_self_loops && !g.has_self_loop(a);
  };
  std::vector<HsdfEdgeCandidate> raw;
  {
    std::size_t upper = 0;  // one candidate per consumed token
    for (const sdf::Channel& ch : g.channels()) {
      upper += static_cast<std::size_t>(q[ch.dst]) * ch.cons_rate;
    }
    for (sdf::ActorId a = 0; a < g.actor_count(); ++a) {
      if (closes(a)) upper += static_cast<std::size_t>(q[a]);
    }
    raw.reserve(upper);
  }
  for (const sdf::Channel& ch : g.channels()) {
    append_channel_candidates(ch, q, node_base, raw);
  }
  for (sdf::ActorId a = 0; a < g.actor_count(); ++a) {
    if (closes(a)) {
      append_channel_candidates(sdf::Channel{a, a, 1, 1, 1}, q, node_base, raw);
    }
  }

  dedup_candidates(raw);
  h.edges.reserve(raw.size());
  for (const HsdfEdgeCandidate& cand : raw) {
    h.edges.push_back(HsdfEdge{cand.src(), cand.dst(), cand.tokens});
  }
  return h;
}

}  // namespace

Hsdf expand_to_hsdf(const sdf::Graph& g, const sdf::RepetitionVector& q,
                    std::span<const double> exec_times) {
  return expand(g, q, exec_times, false, "expand_to_hsdf");
}

Hsdf expand_closure_to_hsdf(const sdf::Graph& g, const sdf::RepetitionVector& q,
                            std::span<const double> exec_times) {
  return expand(g, q, exec_times, true, "expand_closure_to_hsdf");
}

std::string hsdf_to_dot(const Hsdf& h) {
  std::ostringstream os;
  os << "digraph hsdf {\n  rankdir=LR;\n";
  for (std::size_t i = 0; i < h.nodes.size(); ++i) {
    const HsdfNode& n = h.nodes[i];
    os << "  n" << i << " [label=\"a" << n.source_actor << "." << n.firing << "\\n("
       << n.exec_time << ")\"];\n";
  }
  for (const HsdfEdge& e : h.edges) {
    os << "  n" << e.src << " -> n" << e.dst;
    if (e.tokens > 0) os << " [label=\"" << e.tokens << "\"]";
    os << ";\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace procon::analysis
