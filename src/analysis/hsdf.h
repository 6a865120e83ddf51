// SDF -> HSDF (homogeneous SDF) expansion.
//
// Each actor a is replaced by q[a] vertices (one per firing in an
// iteration); each channel induces precedence edges between producing and
// consuming firings, annotated with an iteration distance ("tokens" in the
// homogeneous graph). This is the classical unfolding of Sriram &
// Bhattacharyya used by the throughput analyses the paper builds on ([2],
// [4], [14]).
//
// The expansion here keeps, for every (producer firing, consumer firing)
// pair, only the edge with the minimum iteration distance - the binding
// constraint - so the result has at most q[src]*q[dst] edges per channel.
//
// Execution times are carried as doubles because the contention estimator
// annotates actors with fractional expected response times.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sdf/graph.h"
#include "sdf/repetition.h"

namespace procon::analysis {

/// One firing of a source actor within an iteration.
struct HsdfNode {
  sdf::ActorId source_actor = sdf::kInvalidActor;
  std::uint32_t firing = 0;  ///< 0-based firing index within the iteration
  double exec_time = 0.0;
};

/// Precedence edge: dst's firing in iteration n depends on src's firing in
/// iteration n - tokens.
struct HsdfEdge {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t tokens = 0;
};

/// A homogeneous SDF graph (all rates 1).
struct Hsdf {
  std::vector<HsdfNode> nodes;
  std::vector<HsdfEdge> edges;

  [[nodiscard]] std::size_t node_count() const noexcept { return nodes.size(); }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edges.size(); }
};

/// Expands `g` (with repetition vector `q`) into an HSDF. If `exec_times`
/// is non-empty it overrides the graph's integral actor times (one entry
/// per actor); otherwise the graph's own times are used.
///
/// Throws sdf::GraphError if q does not match the graph.
[[nodiscard]] Hsdf expand_to_hsdf(const sdf::Graph& g, const sdf::RepetitionVector& q,
                                  std::span<const double> exec_times = {});

/// Expands the self-loop closure of `g` — the HSDF of g.with_self_loops(),
/// node for node and edge for edge — without building that graph: every
/// actor without a self-loop (Graph::has_self_loop) contributes the edges
/// of a synthetic 1-token, rate-1 self-loop. `q` is g's repetition vector;
/// those self-loops leave the balance equations, and so q, unchanged.
///
/// Throws sdf::GraphError if q does not match the graph.
[[nodiscard]] Hsdf expand_closure_to_hsdf(const sdf::Graph& g,
                                          const sdf::RepetitionVector& q,
                                          std::span<const double> exec_times = {});

/// One candidate precedence edge of the expansion, before the global
/// minimum-distance deduplication. `key` packs (src node << 32 | dst node)
/// so sorting and deduplicating are single-word compares.
struct HsdfEdgeCandidate {
  std::uint64_t key;
  std::uint64_t tokens;

  [[nodiscard]] std::uint32_t src() const noexcept {
    return static_cast<std::uint32_t>(key >> 32);
  }
  [[nodiscard]] std::uint32_t dst() const noexcept {
    return static_cast<std::uint32_t>(key);
  }
};

/// Appends the candidate edges of one channel to `out`. `node_base[a]` is
/// the HSDF node index of actor a's first firing (as laid out by
/// expand_to_hsdf: actors in id order, q[a] consecutive firings each).
///
/// Channels are independent in the expansion, so callers that re-expand a
/// single mutated channel (the incremental buffer explorer: a capacity bump
/// only changes one reverse channel's initial tokens) regenerate just that
/// channel's candidates and re-merge, instead of re-expanding the graph.
void append_channel_candidates(const sdf::Channel& ch, const sdf::RepetitionVector& q,
                               std::span<const std::uint32_t> node_base,
                               std::vector<HsdfEdgeCandidate>& out);

/// Sorts candidates by (key, tokens) and drops all but the minimum-distance
/// edge per (src, dst) pair — the binding constraint. The result is exactly
/// the edge set expand_to_hsdf produces from the same candidate multiset.
void dedup_candidates(std::vector<HsdfEdgeCandidate>& candidates);

/// Graphviz DOT rendering of an HSDF (debug aid).
[[nodiscard]] std::string hsdf_to_dot(const Hsdf& h);

}  // namespace procon::analysis
