// Redundant-work accounting: how often each subproblem was expanded.
//
// The paper's cost of fault tolerance (Section 6, Table 1) is redundant
// work: tree nodes expanded more than once. Every substrate counts it the
// same way: each worker (or incarnation) records its expansions in an
// ExpansionLedger, and the harness merges the ledgers once the run ends and
// reads unique and redundant totals off the merged one.
//
// Implementation: a binary trie over branching steps, like CodeSet's. A
// node is one tree node (a code); it holds the node's branching variable,
// the number of times the code itself was added, and its expansion cost.
// At any trie node all extensions branch on the same variable, so child 0
// sorts before child 1, and a code sorts before its extensions: a preorder
// walk visits the codes in PathCode order. That is the canonical order in
// which the redundant-cost sum is taken, so the sum does not depend on
// which worker expanded a shared code first, nor on the merge order.
//
// An empty ledger allocates nothing: a planetary run holds 10^5 of them,
// most of which never see an expansion.
#pragma once

#include <cstdint>
#include <vector>

#include "core/path_code.hpp"

namespace ftbb::core {

class ExpansionLedger {
 public:
  /// Totals over the recorded codes.
  struct Totals {
    std::uint64_t unique = 0;  // distinct codes
    std::uint64_t total = 0;   // all adds
    /// Sum over codes added more than once of (count - 1) * cost, taken in
    /// PathCode order.
    double redundant_cost = 0.0;
  };

  /// Records one expansion of `code` costing `cost`. The cost is a pure
  /// function of the code; the last one recorded is kept. Only the
  /// simulator reads it back (as redundant_cost); the other substrates
  /// report unique counts but record the cost all the same.
  void add(PathView code, double cost);

  /// Adds every record of `other` into this ledger, node by node.
  void merge(const ExpansionLedger& other);

  [[nodiscard]] Totals totals() const;

  /// Visits every recorded code in PathCode order as
  /// `fn(PathView code, std::uint32_t count, double cost)`.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (nodes_.empty()) return;
    std::vector<std::uint32_t> path;
    visit(0, path, fn);
  }

 private:
  static constexpr std::uint32_t kNoVar = 0xffffffffu;

  struct Node {
    std::uint32_t child[2] = {0, 0};  // 0 = none (the root is nobody's child)
    std::uint32_t var = kNoVar;       // variable this tree node branches on
    std::uint32_t count = 0;          // adds of this exact code
    double cost = 0.0;
  };

  /// The child of `idx` on step `word`, created when missing. Checks that
  /// the node's branching variable agrees with the step.
  std::uint32_t descend(std::uint32_t idx, std::uint32_t word);

  template <typename Fn>
  void visit(std::uint32_t idx, std::vector<std::uint32_t>& path,
             Fn& fn) const {
    const Node& n = nodes_[idx];
    if (n.count > 0) {
      fn(PathView(path.data(), path.size()), n.count, n.cost);
    }
    for (std::uint32_t bit = 0; bit < 2; ++bit) {
      if (n.child[bit] == 0) continue;
      path.push_back((n.var << 1) | bit);
      visit(n.child[bit], path, fn);
      path.pop_back();
    }
  }

  std::vector<Node> nodes_;  // nodes_[0] is the root, once anything is added
};

}  // namespace ftbb::core
