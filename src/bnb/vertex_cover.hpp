// Minimum vertex cover as a B&B problem model.
//
// Branching fixes a vertex into the cover (bit 1) or out of it (bit 0);
// excluding a vertex forces all of its neighbors into the cover, so the two
// children differ structurally — and, like knapsack, the next branching
// vertex depends on the partial assignment, producing subtree-dependent
// variable orders (paper Section 5.3.1).
//
// The lower bound is |partial cover| plus a greedy maximal matching on the
// still-uncovered subgraph (every matching edge needs at least one more
// cover vertex).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bnb/knapsack.hpp"  // NodeCostModel
#include "bnb/problem.hpp"

namespace ftbb::bnb {

/// Simple undirected graph with adjacency lists.
struct Graph {
  std::uint32_t n = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  std::vector<std::vector<std::uint32_t>> adj;

  void finalize();  // builds adjacency from the edge list

  /// Erdos-Renyi G(n, p).
  static Graph gnp(std::uint32_t n, double p, std::uint64_t seed);
  /// Cycle C_n (optimum cover = ceil(n/2)).
  static Graph cycle(std::uint32_t n);
  /// Complete graph K_n (optimum cover = n-1).
  static Graph complete(std::uint32_t n);
};

class VertexCoverModel final : public IProblemModel {
 public:
  explicit VertexCoverModel(Graph g, NodeCostModel cost = {});

  [[nodiscard]] double root_bound() const override;
  [[nodiscard]] NodeEval eval(const core::PathCode& code) const override;
  [[nodiscard]] std::string name() const override { return "vertex-cover"; }
  [[nodiscard]] double bound_of(const core::PathCode& code) const override;
  [[nodiscard]] std::optional<double> known_optimal() const override;

  [[nodiscard]] const Graph& graph() const { return graph_; }

 private:
  enum : std::int8_t { kUnset = -1, kOut = 0, kIn = 1 };

  struct State {
    std::vector<std::int8_t> status;
    std::uint32_t in_count = 0;
  };

  [[nodiscard]] State replay(const core::PathCode& code) const;
  /// Puts `v` in/out and applies the exclusion-forces-neighbors rule.
  static void apply(State& s, const Graph& g, std::uint32_t v, std::uint8_t bit);
  /// Next branching vertex: the undecided vertex with the most undecided
  /// neighbors; nullopt when every edge is covered (leaf).
  [[nodiscard]] std::optional<std::uint32_t> next_var(const State& s) const;
  [[nodiscard]] double bound_of(const State& s) const;

  Graph graph_;
  NodeCostModel cost_;
  std::optional<double> known_optimal_;  // exact, for small graphs
};

}  // namespace ftbb::bnb
