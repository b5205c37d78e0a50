#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bnb/sequential.hpp"
#include "bnb/vertex_cover.hpp"

namespace ftbb::bnb {
namespace {

using core::PathCode;

/// Reference minimum cover by edge branching, sharing no code with the
/// model or its known optimum: take the first edge with no endpoint in the
/// cover and try each endpoint. Exponential; for small graphs only.
std::uint32_t edge_branching_min_cover(const Graph& g, std::vector<bool>& in,
                                       std::uint32_t in_count, std::uint32_t best) {
  if (in_count >= best) return best;
  for (auto [a, b] : g.edges) {
    if (in[a] || in[b]) continue;
    for (const std::uint32_t v : {a, b}) {
      in[v] = true;
      best = edge_branching_min_cover(g, in, in_count + 1, best);
      in[v] = false;
    }
    return best;
  }
  return in_count;
}

std::uint32_t edge_branching_min_cover(const Graph& g) {
  std::vector<bool> in(g.n, false);
  return edge_branching_min_cover(g, in, 0, g.n);
}

TEST(Graph, GnpIsDeterministic) {
  const Graph a = Graph::gnp(20, 0.3, 5);
  const Graph b = Graph::gnp(20, 0.3, 5);
  EXPECT_EQ(a.edges, b.edges);
}

TEST(Graph, CycleStructure) {
  const Graph g = Graph::cycle(5);
  EXPECT_EQ(g.n, 5u);
  EXPECT_EQ(g.edges.size(), 5u);
  for (const auto& adjacency : g.adj) EXPECT_EQ(adjacency.size(), 2u);
}

TEST(Graph, CompleteStructure) {
  const Graph g = Graph::complete(6);
  EXPECT_EQ(g.edges.size(), 15u);
}

TEST(VertexCover, KnownOptimaOnCycles) {
  // Minimum vertex cover of C_n is ceil(n/2).
  for (const std::uint32_t n : {3u, 4u, 5u, 6u, 7u, 10u}) {
    VertexCoverModel model(Graph::cycle(n));
    ASSERT_TRUE(model.known_optimal().has_value());
    EXPECT_DOUBLE_EQ(*model.known_optimal(), (n + 1) / 2) << "C_" << n;
    const SeqResult res = solve_sequential(model);
    EXPECT_DOUBLE_EQ(res.best_value, *model.known_optimal()) << "C_" << n;
  }
}

TEST(VertexCover, KnownOptimaOnCompleteGraphs) {
  // Minimum vertex cover of K_n is n-1.
  for (const std::uint32_t n : {3u, 4u, 5u, 6u}) {
    VertexCoverModel model(Graph::complete(n));
    const SeqResult res = solve_sequential(model);
    EXPECT_DOUBLE_EQ(res.best_value, n - 1.0) << "K_" << n;
  }
}

TEST(VertexCover, KnownOptimaOnCorpusSizedGraphs) {
  // The scenario corpus builds its vertex-cover workload as G(26, 0.3): the
  // largest size for which the model computes its own known optimum. The
  // optima are pinned, and edge branching must agree with them.
  const double optimum[] = {17, 18, 17, 18, 17, 18};
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Graph g = Graph::gnp(26, 0.3, seed);
    EXPECT_DOUBLE_EQ(edge_branching_min_cover(g), optimum[seed - 1]) << "seed " << seed;
    VertexCoverModel model(g);
    ASSERT_TRUE(model.known_optimal().has_value()) << "seed " << seed;
    EXPECT_DOUBLE_EQ(*model.known_optimal(), optimum[seed - 1]) << "seed " << seed;
    const SeqResult res = solve_sequential(model);
    ASSERT_TRUE(res.completed) << "seed " << seed;
    EXPECT_DOUBLE_EQ(res.best_value, optimum[seed - 1]) << "seed " << seed;
  }
}

TEST(VertexCover, EdgelessGraphHasEmptyCover) {
  Graph g;
  g.n = 5;
  g.finalize();
  VertexCoverModel model(g);
  const NodeEval root = model.eval(PathCode::root());
  EXPECT_TRUE(root.feasible_leaf);
  EXPECT_DOUBLE_EQ(root.value, 0.0);
}

TEST(VertexCover, ExclusionForcesNeighbors) {
  // Star graph: excluding the center forces all leaves in.
  Graph g;
  g.n = 5;
  for (std::uint32_t i = 1; i < 5; ++i) g.edges.emplace_back(0, i);
  g.finalize();
  VertexCoverModel model(g);
  const NodeEval root = model.eval(PathCode::root());
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.children[0].var, 0u);  // center has max degree
  // Excluding the center: bound must equal 4 (all leaves forced in).
  const PathCode excluded = PathCode::root().child(0, false);
  const NodeEval leaf = model.eval(excluded);
  EXPECT_TRUE(leaf.feasible_leaf);
  EXPECT_DOUBLE_EQ(leaf.value, 4.0);
  // Including the center covers everything with one vertex.
  const NodeEval included = model.eval(PathCode::root().child(0, true));
  EXPECT_TRUE(included.feasible_leaf);
  EXPECT_DOUBLE_EQ(included.value, 1.0);
}

TEST(VertexCover, MatchingBoundIsAdmissible) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    VertexCoverModel model(Graph::gnp(12, 0.35, seed));
    ASSERT_TRUE(model.known_optimal().has_value());
    EXPECT_LE(model.root_bound(), *model.known_optimal()) << seed;
  }
}

class VertexCoverSolveTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VertexCoverSolveTest, SequentialMatchesBruteForce) {
  const std::uint64_t seed = GetParam();
  const Graph g = Graph::gnp(14, 0.3, seed);
  const double optimum = edge_branching_min_cover(g);
  VertexCoverModel model(g);
  ASSERT_TRUE(model.known_optimal().has_value());
  EXPECT_DOUBLE_EQ(*model.known_optimal(), optimum);
  const SeqResult res = solve_sequential(model);
  EXPECT_TRUE(res.completed);
  EXPECT_DOUBLE_EQ(res.best_value, optimum);
}

TEST_P(VertexCoverSolveTest, DenseGraphsMatchBruteForce) {
  const std::uint64_t seed = GetParam();
  const Graph g = Graph::gnp(11, 0.6, seed + 100);
  const double optimum = edge_branching_min_cover(g);
  VertexCoverModel model(g);
  ASSERT_TRUE(model.known_optimal().has_value());
  EXPECT_DOUBLE_EQ(*model.known_optimal(), optimum);
  const SeqResult res = solve_sequential(model);
  EXPECT_DOUBLE_EQ(res.best_value, optimum);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VertexCoverSolveTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace ftbb::bnb
