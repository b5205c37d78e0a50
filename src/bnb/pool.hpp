// The pool of active problems with the paper's Select rules (Section 2c).
//
// A plain binary heap of values ordered by the selection rule. Pop order is
// the rule's total order; the removal flavors sweep the array linearly and
// report their victims in heap-array order, then compact the survivors in
// place and re-heapify. The worker's completion pipeline (report batching,
// contraction charges, last-local-completion tracking) observably depends on
// that victim order, so it is part of the contract: the differential suite
// (tests/pool_diff_test.cpp) holds it to the seed reference heap
// operation-for-operation, and the golden ScenarioReport fingerprints pin it
// end to end.
//
// A worker's pool rarely exceeds a few hundred entries in the end-to-end
// workloads, where a linear sweep costs no more than keeping ordered indexes
// up to date under push/pop churn would.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "bnb/problem.hpp"

namespace ftbb::bnb {

/// Selection heuristics for the next problem to branch from.
enum class SelectRule {
  kBestFirst,    // smallest lower bound first
  kDepthFirst,   // deepest first (LIFO flavor)
  kBreadthFirst  // shallowest first (FIFO flavor)
};

[[nodiscard]] const char* to_string(SelectRule rule);

class ActivePool {
 public:
  explicit ActivePool(SelectRule rule = SelectRule::kBestFirst);

  void push(Subproblem p);
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Pops the problem the selection rule ranks first.
  Subproblem pop();

  /// Removes every entry whose bound is >= `threshold` (elimination after an
  /// incumbent improvement); returns them in heap-array order.
  std::vector<Subproblem> prune_above(double threshold);

  /// Removes every entry matching `victim`; returns them in heap-array order.
  /// `victim` is called once per entry, in heap-array order.
  template <typename Victim>
  std::vector<Subproblem> remove_if(Victim victim) {
    return remove_where([&](std::size_t i) { return victim(heap_[i].item); });
  }

  /// Extracts up to `k` problems for a work grant, preferring the
  /// shallowest entries: shallow subproblems represent the largest subtrees
  /// and are the classic choice for work transfer. Ties are broken by
  /// (bound, code, insertion order), so among identical twins the
  /// earlier-inserted one goes. Returned in heap-array order.
  std::vector<Subproblem> extract_for_sharing(std::size_t k);

  /// Order-canonical snapshot of the pool contents, sorted by path code.
  /// Deliberately the only way to enumerate entries, so no caller can couple
  /// to the internal layout.
  [[nodiscard]] std::vector<Subproblem> snapshot() const;

  [[nodiscard]] SelectRule rule() const { return rule_; }

  void clear() { heap_.clear(); }

  /// Heap-property validation for tests. Aborts on violation.
  void check_invariants() const;

 private:
  struct Entry {
    Subproblem item;
    std::uint64_t seq = 0;  // insertion order; totalizes the share order
  };

  [[nodiscard]] bool ranks_before(const Entry& a, const Entry& b) const;
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void rebuild();

  /// Moves out every entry whose array index satisfies `victim` (evaluated
  /// once per index, in array order), compacts the survivors in place and
  /// re-heapifies — the seed heap's layout transition.
  template <typename Victim>
  std::vector<Subproblem> remove_where(Victim victim) {
    std::vector<Subproblem> out;
    std::size_t write = 0;
    for (std::size_t read = 0; read < heap_.size(); ++read) {
      if (victim(read)) {
        out.push_back(std::move(heap_[read].item));
      } else {
        if (write != read) heap_[write] = std::move(heap_[read]);
        ++write;
      }
    }
    if (!out.empty()) {
      heap_.resize(write);
      rebuild();
    }
    return out;
  }

  SelectRule rule_;
  std::vector<Entry> heap_;  // heap_[0] = next pop
  std::uint64_t next_seq_ = 0;
};

}  // namespace ftbb::bnb
