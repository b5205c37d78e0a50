#include "bnb/vertex_cover.hpp"

#include <algorithm>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace ftbb::bnb {

void Graph::finalize() {
  adj.assign(n, {});
  for (auto [a, b] : edges) {
    FTBB_CHECK(a < n && b < n && a != b);
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  for (auto& list : adj) std::sort(list.begin(), list.end());
}

Graph Graph::gnp(std::uint32_t n, double p, std::uint64_t seed) {
  support::Rng rng(seed);
  Graph g;
  g.n = n;
  for (std::uint32_t a = 0; a < n; ++a) {
    for (std::uint32_t b = a + 1; b < n; ++b) {
      if (rng.chance(p)) g.edges.emplace_back(a, b);
    }
  }
  g.finalize();
  return g;
}

Graph Graph::cycle(std::uint32_t n) {
  FTBB_CHECK(n >= 3);
  Graph g;
  g.n = n;
  for (std::uint32_t i = 0; i < n; ++i) g.edges.emplace_back(i, (i + 1) % n);
  g.finalize();
  return g;
}

Graph Graph::complete(std::uint32_t n) {
  Graph g;
  g.n = n;
  for (std::uint32_t a = 0; a < n; ++a) {
    for (std::uint32_t b = a + 1; b < n; ++b) g.edges.emplace_back(a, b);
  }
  g.finalize();
  return g;
}

namespace {

/// Exact minimum vertex cover for small graphs, kept apart from the model's
/// own branching code so it can check it. Branches on the undecided vertex
/// with the most undecided neighbours: it joins the cover, or it stays out
/// and every undecided neighbour joins. `status` is 1 (in), 0 (out) or -1.
std::uint32_t exact_min_cover(const Graph& g, std::vector<std::int8_t>& status,
                              std::uint32_t in_count, std::uint32_t best) {
  if (in_count >= best) return best;
  std::uint32_t pick = g.n;
  std::size_t pick_degree = 0;
  for (std::uint32_t v = 0; v < g.n; ++v) {
    if (status[v] != -1) continue;
    std::size_t degree = 0;
    for (const std::uint32_t u : g.adj[v]) degree += status[u] == -1 ? 1 : 0;
    if (degree > pick_degree) {
      pick = v;
      pick_degree = degree;
    }
  }
  if (pick == g.n) {
    // No undecided edge is left: every edge must have an endpoint in.
    std::uint32_t cover = 0;
    for (const std::int8_t st : status) cover += st == 1 ? 1 : 0;
    for (auto [a, b] : g.edges) FTBB_CHECK(status[a] == 1 || status[b] == 1);
    return std::min(best, cover);
  }
  status[pick] = 1;
  best = exact_min_cover(g, status, in_count + 1, best);
  status[pick] = 0;
  std::vector<std::uint32_t> forced;
  for (const std::uint32_t u : g.adj[pick]) {
    if (status[u] == -1) {
      status[u] = 1;
      forced.push_back(u);
    }
  }
  best = exact_min_cover(g, status, in_count + static_cast<std::uint32_t>(forced.size()),
                         best);
  for (const std::uint32_t u : forced) status[u] = -1;
  status[pick] = -1;
  return best;
}

}  // namespace

VertexCoverModel::VertexCoverModel(Graph g, NodeCostModel cost)
    : graph_(std::move(g)), cost_(cost) {
  if (graph_.n <= 26) {
    std::vector<std::int8_t> status(graph_.n, -1);
    known_optimal_ =
        static_cast<double>(exact_min_cover(graph_, status, 0, graph_.n));
  }
}

void VertexCoverModel::apply(State& s, const Graph& g, std::uint32_t v,
                             std::uint8_t bit) {
  FTBB_CHECK_MSG(s.status[v] == kUnset, "vertex-cover code: vertex decided twice");
  if (bit == 1) {
    s.status[v] = kIn;
    ++s.in_count;
    return;
  }
  s.status[v] = kOut;
  // Excluding v forces every neighbor into the cover (each (v, u) edge must
  // be covered by u). Neighbors cannot already be Out: an Out neighbor
  // would have forced v In when it was decided.
  for (const std::uint32_t u : g.adj[v]) {
    if (s.status[u] == kUnset) {
      s.status[u] = kIn;
      ++s.in_count;
    } else {
      FTBB_CHECK_MSG(s.status[u] == kIn, "vertex-cover code: conflicting exclusion");
    }
  }
}

VertexCoverModel::State VertexCoverModel::replay(const core::PathCode& code) const {
  State s;
  s.status.assign(graph_.n, kUnset);
  for (std::size_t i = 0; i < code.depth(); ++i) {
    const core::Branch step = code.step(i);
    FTBB_CHECK_MSG(step.var < graph_.n, "vertex-cover code: bad variable");
    apply(s, graph_, step.var, step.bit);
  }
  return s;
}

std::optional<std::uint32_t> VertexCoverModel::next_var(const State& s) const {
  std::optional<std::uint32_t> best;
  std::size_t best_degree = 0;
  for (std::uint32_t v = 0; v < graph_.n; ++v) {
    if (s.status[v] != kUnset) continue;
    std::size_t degree = 0;
    for (const std::uint32_t u : graph_.adj[v]) {
      if (s.status[u] == kUnset) ++degree;
    }
    if (degree > best_degree) {
      best_degree = degree;
      best = v;
    }
  }
  return best;  // nullopt iff no Unset-Unset edge remains
}

double VertexCoverModel::bound_of(const State& s) const {
  // Greedy maximal matching among edges with both endpoints undecided.
  std::vector<std::int8_t> matched(graph_.n, 0);
  std::uint32_t matching = 0;
  for (auto [a, b] : graph_.edges) {
    if (s.status[a] != kUnset || s.status[b] != kUnset) continue;
    if (matched[a] || matched[b]) continue;
    matched[a] = 1;
    matched[b] = 1;
    ++matching;
  }
  return static_cast<double>(s.in_count + matching);
}

double VertexCoverModel::root_bound() const {
  return bound_of(replay(core::PathCode::root()));
}

double VertexCoverModel::bound_of(const core::PathCode& code) const {
  return bound_of(replay(code));
}

NodeEval VertexCoverModel::eval(const core::PathCode& code) const {
  const State s = replay(code);
  NodeEval out;
  out.cost = cost_.cost_for(code);
  const std::optional<std::uint32_t> var = next_var(s);
  if (!var.has_value()) {
    // Every edge is covered; undecided vertices stay out of the cover.
    out.feasible_leaf = true;
    out.value = static_cast<double>(s.in_count);
    return out;
  }
  for (const std::uint8_t bit : {std::uint8_t{1}, std::uint8_t{0}}) {
    State child = s;
    apply(child, graph_, *var, bit);
    out.children.push_back(ChildOut{*var, bit, bound_of(child), false});
  }
  return out;
}

std::optional<double> VertexCoverModel::known_optimal() const { return known_optimal_; }

}  // namespace ftbb::bnb
