#include "core/expansion_ledger.hpp"

#include <utility>

#include "support/check.hpp"

namespace ftbb::core {

std::uint32_t ExpansionLedger::descend(std::uint32_t idx, std::uint32_t word) {
  const std::uint32_t var = word >> 1;
  Node& n = nodes_[idx];
  if (n.var == kNoVar) {
    n.var = var;
  } else {
    FTBB_CHECK_MSG(n.var == var,
                   "ExpansionLedger: codes disagree on a node's branching "
                   "variable (codes must come from one search tree)");
  }
  std::uint32_t next = n.child[word & 1u];
  if (next == 0) {
    next = static_cast<std::uint32_t>(nodes_.size());
    nodes_[idx].child[word & 1u] = next;
    nodes_.emplace_back();  // may reallocate; `n` is not used past here
  }
  return next;
}

void ExpansionLedger::add(PathView code, double cost) {
  if (nodes_.empty()) nodes_.emplace_back();
  std::uint32_t cur = 0;
  for (std::size_t i = 0; i < code.depth(); ++i) {
    cur = descend(cur, code.word(i));
  }
  Node& n = nodes_[cur];
  ++n.count;
  n.cost = cost;
}

void ExpansionLedger::merge(const ExpansionLedger& other) {
  if (other.nodes_.empty()) return;
  if (nodes_.empty()) {
    nodes_ = other.nodes_;  // same indices
    return;
  }
  // (other's node, this ledger's node) pairs still to merge.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> stack{{0, 0}};
  while (!stack.empty()) {
    const auto [from, to] = stack.back();
    stack.pop_back();
    const Node& src = other.nodes_[from];
    if (src.count > 0) {
      nodes_[to].count += src.count;
      nodes_[to].cost = src.cost;
    }
    for (std::uint32_t bit = 0; bit < 2; ++bit) {
      if (src.child[bit] == 0) continue;
      stack.emplace_back(src.child[bit], descend(to, (src.var << 1) | bit));
    }
  }
}

ExpansionLedger::Totals ExpansionLedger::totals() const {
  Totals t;
  for_each([&t](PathView, std::uint32_t count, double cost) {
    ++t.unique;
    t.total += count;
    if (count > 1) t.redundant_cost += static_cast<double>(count - 1) * cost;
  });
  return t;
}

}  // namespace ftbb::core
