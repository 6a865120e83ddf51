#include "analysis/hsdf.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <optional>
#include <vector>

#include "analysis/engine.h"
#include "gen/graph_generator.h"
#include "helpers.h"
#include "sdf/algorithms.h"
#include "sdf/repetition.h"
#include "util/rng.h"

namespace procon::analysis {
namespace {

using procon::testing::fig2_graph_a;
using sdf::Graph;

Hsdf expand(const Graph& g) {
  const auto q = sdf::compute_repetition_vector(g);
  return expand_to_hsdf(g, *q, {});
}

TEST(Hsdf, NodeCountIsRepetitionSum) {
  const Graph g = fig2_graph_a();
  const Hsdf h = expand(g);
  EXPECT_EQ(h.node_count(), 4u);  // q = [1 2 1]
  // Nodes carry their source actor and firing index.
  std::map<sdf::ActorId, int> firings;
  for (const HsdfNode& n : h.nodes) ++firings[n.source_actor];
  EXPECT_EQ(firings[0], 1);
  EXPECT_EQ(firings[1], 2);
  EXPECT_EQ(firings[2], 1);
}

TEST(Hsdf, ExecTimesCarriedOver) {
  const Graph g = fig2_graph_a();
  const Hsdf h = expand(g);
  for (const HsdfNode& n : h.nodes) {
    EXPECT_DOUBLE_EQ(n.exec_time, static_cast<double>(g.actor(n.source_actor).exec_time));
  }
}

TEST(Hsdf, ExecTimeOverride) {
  const Graph g = fig2_graph_a();
  const auto q = sdf::compute_repetition_vector(g);
  const std::vector<double> times{108.5, 66.75, 116.25};
  const Hsdf h = expand_to_hsdf(g, *q, times);
  for (const HsdfNode& n : h.nodes) {
    EXPECT_DOUBLE_EQ(n.exec_time, times[n.source_actor]);
  }
}

TEST(Hsdf, OverrideSizeMismatchThrows) {
  const Graph g = fig2_graph_a();
  const auto q = sdf::compute_repetition_vector(g);
  const std::vector<double> wrong{1.0};
  EXPECT_THROW(expand_to_hsdf(g, *q, wrong), sdf::GraphError);
}

TEST(Hsdf, RepetitionVectorMismatchThrows) {
  const Graph g = fig2_graph_a();
  sdf::RepetitionVector bad{1, 2};
  EXPECT_THROW(expand_to_hsdf(g, bad, {}), sdf::GraphError);
}

// Checks the precedence structure of Fig. 2's graph A in detail.
TEST(Hsdf, PaperGraphEdges) {
  const Graph g = fig2_graph_a();
  const Hsdf h = expand(g);
  // Node order: a0.0 (index 0), a1.0 (1), a1.1 (2), a2.0 (3).
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> edges;
  for (const HsdfEdge& e : h.edges) edges[{e.src, e.dst}] = e.tokens;
  // a0 feeds both firings of a1 in the same iteration.
  ASSERT_TRUE(edges.count({0, 1}));
  EXPECT_EQ((edges[{0, 1}]), 0u);
  ASSERT_TRUE(edges.count({0, 2}));
  EXPECT_EQ((edges[{0, 2}]), 0u);
  // Both a1 firings feed a2.
  ASSERT_TRUE(edges.count({1, 3}));
  EXPECT_EQ((edges[{1, 3}]), 0u);
  ASSERT_TRUE(edges.count({2, 3}));
  EXPECT_EQ((edges[{2, 3}]), 0u);
  // a2 -> a0 carries the iteration token.
  ASSERT_TRUE(edges.count({3, 0}));
  EXPECT_EQ((edges[{3, 0}]), 1u);
}

TEST(Hsdf, SelfLoopChainsFirings) {
  const Graph g = fig2_graph_a().with_self_loops();
  const Hsdf h = expand(g);
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> edges;
  for (const HsdfEdge& e : h.edges) edges[{e.src, e.dst}] = e.tokens;
  // a1 has two firings (nodes 1 and 2): the self-loop must chain
  // a1.0 -> a1.1 within the iteration and a1.1 -> a1.0 across iterations.
  ASSERT_TRUE(edges.count({1, 2}));
  EXPECT_EQ((edges[{1, 2}]), 0u);
  ASSERT_TRUE(edges.count({2, 1}));
  EXPECT_EQ((edges[{2, 1}]), 1u);
}

TEST(Hsdf, HomogeneousGraphIsIsomorphic) {
  // All rates 1: the HSDF is the graph itself.
  Graph g;
  const auto x = g.add_actor("x", 3);
  const auto y = g.add_actor("y", 5);
  g.add_channel(x, y, 1, 1, 0);
  g.add_channel(y, x, 1, 1, 2);
  const Hsdf h = expand(g);
  EXPECT_EQ(h.node_count(), 2u);
  ASSERT_EQ(h.edge_count(), 2u);
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> edges;
  for (const HsdfEdge& e : h.edges) edges[{e.src, e.dst}] = e.tokens;
  EXPECT_EQ((edges[{0, 1}]), 0u);
  EXPECT_EQ((edges[{1, 0}]), 2u);
}

TEST(Hsdf, ManyInitialTokensGiveLargerDelays) {
  Graph g;
  const auto x = g.add_actor("x", 1);
  const auto y = g.add_actor("y", 1);
  g.add_channel(x, y, 1, 1, 3);  // three tokens -> dependency 3 iterations back
  g.add_channel(y, x, 1, 1, 0);
  const Hsdf h = expand(g);
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> edges;
  for (const HsdfEdge& e : h.edges) edges[{e.src, e.dst}] = e.tokens;
  EXPECT_EQ((edges[{0, 1}]), 3u);
  EXPECT_EQ((edges[{1, 0}]), 0u);
}

TEST(Hsdf, DotOutputMentionsNodes) {
  const Hsdf h = expand(fig2_graph_a());
  const std::string dot = hsdf_to_dot(h);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("a1.1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Closure-free expansion: expand_closure_to_hsdf(g, q) is the HSDF of
// g.with_self_loops(), and ThroughputEngine(g) — built through it — answers
// bitwise like an engine over the materialised closure.

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void expect_same_hsdf(const Hsdf& got, const Hsdf& want) {
  ASSERT_EQ(got.node_count(), want.node_count());
  for (std::size_t i = 0; i < got.node_count(); ++i) {
    EXPECT_EQ(got.nodes[i].source_actor, want.nodes[i].source_actor) << i;
    EXPECT_EQ(got.nodes[i].firing, want.nodes[i].firing) << i;
    EXPECT_TRUE(same_bits(got.nodes[i].exec_time, want.nodes[i].exec_time)) << i;
  }
  ASSERT_EQ(got.edge_count(), want.edge_count());
  for (std::size_t i = 0; i < got.edge_count(); ++i) {
    EXPECT_EQ(got.edges[i].src, want.edges[i].src) << i;
    EXPECT_EQ(got.edges[i].dst, want.edges[i].dst) << i;
    EXPECT_EQ(got.edges[i].tokens, want.edges[i].tokens) << i;
  }
}

// The closure of `g` expanded both ways, with the graph's own times and
// with `times`, plus the engine built each way under three perturbed
// time vectors (the same warm-started sequence on both engines).
void expect_closure_identity(const Graph& g, util::Rng& rng) {
  SCOPED_TRACE(g.name());
  const Graph closed = g.with_self_loops();
  const auto q = sdf::compute_repetition_vector(g);
  const auto q_closed = sdf::compute_repetition_vector(closed);
  ASSERT_EQ(q.has_value(), q_closed.has_value());
  if (!q) {
    EXPECT_THROW(ThroughputEngine{g}, sdf::GraphError);
    EXPECT_THROW((ThroughputEngine{closed, {.assume_closed = true}}), sdf::GraphError);
    return;
  }
  ASSERT_EQ(*q, *q_closed);

  std::vector<double> times;
  for (const sdf::Actor& a : g.actors()) {
    times.push_back(static_cast<double>(a.exec_time) * rng.uniform_real(0.9, 1.1));
  }
  expect_same_hsdf(expand_closure_to_hsdf(g, *q), expand_to_hsdf(closed, *q_closed));
  expect_same_hsdf(expand_closure_to_hsdf(g, *q, times),
                   expand_to_hsdf(closed, *q_closed, times));

  ThroughputEngine direct(g);
  ThroughputEngine materialised(closed, {.assume_closed = true});
  EXPECT_EQ(direct.repetition_vector(), materialised.repetition_vector());
  EXPECT_EQ(direct.node_count(), materialised.node_count());
  EXPECT_EQ(direct.structurally_deadlocked(), materialised.structurally_deadlocked());
  EXPECT_EQ(direct.has_cycle(), materialised.has_cycle());
  for (int round = 0; round < 3; ++round) {
    for (double& t : times) t *= rng.uniform_real(0.9, 1.1);
    const PeriodResult a = direct.recompute(times);
    const PeriodResult b = materialised.recompute(times);
    EXPECT_EQ(a.deadlocked, b.deadlocked) << round;
    EXPECT_TRUE(same_bits(a.period, b.period)) << round << ": " << a.period
                                               << " vs " << b.period;
  }
}

TEST(HsdfClosure, MatchesMaterialisedClosureOnGeneratedGraphs) {
  util::Rng rng(15);
  gen::GeneratorOptions paper;  // 8-10 actors, q <= 4
  gen::GeneratorOptions wide;
  wide.min_actors = 3;
  wide.max_actors = 14;
  wide.max_repetition = 7;
  wide.chord_fraction = 1.0;
  wide.extra_token_iterations = 1;
  for (const gen::GeneratorOptions& opts : {paper, wide}) {
    for (const Graph& g : gen::generate_graphs(rng, opts, 24, "cl")) {
      expect_closure_identity(g, rng);
    }
  }
  for (const Graph& g : gen::paper_workload(2007)) expect_closure_identity(g, rng);
}

TEST(HsdfClosure, EdgeCases) {
  util::Rng rng(1507);
  // An existing 1-token self-loop: the closure adds nothing for that actor.
  {
    Graph g = fig2_graph_a();
    g.set_name("loop1");
    g.add_channel(1, 1, 1, 1, 1);
    expect_closure_identity(g, rng);
  }
  // A 2-token self-loop counts as a self-loop (two firings may overlap).
  {
    Graph g = fig2_graph_a();
    g.set_name("loop2");
    g.add_channel(1, 1, 1, 1, 2);
    expect_closure_identity(g, rng);
    EXPECT_FALSE(ThroughputEngine(g).structurally_deadlocked());
  }
  // A 0-token self-loop is not a self-loop: the closure adds one beside it,
  // and the graph deadlocks.
  {
    Graph g = fig2_graph_a();
    g.set_name("loop0");
    g.add_channel(2, 2, 1, 1, 0);
    expect_closure_identity(g, rng);
    EXPECT_TRUE(ThroughputEngine(g).structurally_deadlocked());
    EXPECT_FALSE(sdf::is_deadlock_free(g));
  }
  // A self-loop with prod != cons is inconsistent: both engines throw.
  {
    Graph g = fig2_graph_a();
    g.set_name("loop_rates");
    g.add_channel(0, 0, 2, 1, 4);
    ASSERT_FALSE(sdf::is_consistent(g));
    expect_closure_identity(g, rng);
  }
  // A disconnected graph: two components, each normalised on its own, plus
  // an isolated actor.
  {
    Graph g("disconnected");
    const auto a = g.add_actor("a", 7);
    const auto b = g.add_actor("b", 3);
    const auto c = g.add_actor("c", 11);
    const auto d = g.add_actor("d", 5);
    (void)g.add_actor("lone", 9);
    g.add_channel(a, b, 2, 1, 0);
    g.add_channel(b, a, 1, 2, 2);
    g.add_channel(c, d, 1, 3, 0);
    g.add_channel(d, c, 3, 1, 3);
    expect_closure_identity(g, rng);
  }
  // Multi-rate channels with chords, parallel channels and an acyclic tail.
  {
    Graph g("multirate");
    const auto a = g.add_actor("a", 4);
    const auto b = g.add_actor("b", 6);
    const auto c = g.add_actor("c", 9);
    const auto d = g.add_actor("d", 2);
    g.add_channel(a, b, 3, 2, 0);
    g.add_channel(b, c, 1, 3, 1);
    g.add_channel(c, a, 2, 1, 4);
    g.add_channel(a, c, 1, 2, 5);  // chord: q = [2, 3, 1, 1]
    g.add_channel(b, d, 2, 6, 0);
    ASSERT_TRUE(sdf::is_consistent(g));
    expect_closure_identity(g, rng);
  }
}

TEST(HsdfClosure, RepetitionVectorMismatchThrows) {
  const Graph g = fig2_graph_a();
  EXPECT_THROW((void)expand_closure_to_hsdf(g, {1, 2}), sdf::GraphError);
  const auto q = sdf::compute_repetition_vector(g);
  const std::vector<double> wrong{1.0};
  EXPECT_THROW((void)expand_closure_to_hsdf(g, *q, wrong), sdf::GraphError);
}

}  // namespace
}  // namespace procon::analysis
