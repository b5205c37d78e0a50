#include "bnb/pool.hpp"

#include <algorithm>
#include <numeric>

#include "support/check.hpp"

namespace ftbb::bnb {

const char* to_string(SelectRule rule) {
  switch (rule) {
    case SelectRule::kBestFirst:
      return "best-first";
    case SelectRule::kDepthFirst:
      return "depth-first";
    case SelectRule::kBreadthFirst:
      return "breadth-first";
  }
  return "?";
}

ActivePool::ActivePool(SelectRule rule) : rule_(rule) {}

bool ActivePool::ranks_before(const Entry& ea, const Entry& eb) const {
  const Subproblem& a = ea.item;
  const Subproblem& b = eb.item;
  switch (rule_) {
    case SelectRule::kBestFirst:
      if (a.bound != b.bound) return a.bound < b.bound;
      // Among equal bounds prefer the deeper problem: it is closer to a
      // feasible solution, which tightens the incumbent sooner.
      if (a.code.depth() != b.code.depth()) return a.code.depth() > b.code.depth();
      break;
    case SelectRule::kDepthFirst:
      if (a.code.depth() != b.code.depth()) return a.code.depth() > b.code.depth();
      if (a.bound != b.bound) return a.bound < b.bound;
      break;
    case SelectRule::kBreadthFirst:
      if (a.code.depth() != b.code.depth()) return a.code.depth() < b.code.depth();
      if (a.bound != b.bound) return a.bound < b.bound;
      break;
  }
  return a.code < b.code;
}

void ActivePool::push(Subproblem p) {
  heap_.push_back(Entry{std::move(p), ++next_seq_});
  sift_up(heap_.size() - 1);
}

Subproblem ActivePool::pop() {
  FTBB_CHECK_MSG(!heap_.empty(), "pop from empty pool");
  Subproblem top = std::move(heap_.front().item);
  if (heap_.size() > 1) heap_.front() = std::move(heap_.back());
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  return top;
}

std::vector<Subproblem> ActivePool::prune_above(double threshold) {
  return remove_where(
      [&](std::size_t i) { return heap_[i].item.bound >= threshold; });
}

std::vector<Subproblem> ActivePool::extract_for_sharing(std::size_t k) {
  k = std::min(k, heap_.size());
  if (k == 0) return {};
  std::vector<std::size_t> order(heap_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // (depth, bound, code, seq) is a strict total order, so the k winners are
  // fully determined, twins included.
  std::nth_element(order.begin(), order.begin() + (k - 1), order.end(),
                   [this](std::size_t i, std::size_t j) {
                     const Entry& a = heap_[i];
                     const Entry& b = heap_[j];
                     if (a.item.code.depth() != b.item.code.depth()) {
                       return a.item.code.depth() < b.item.code.depth();
                     }
                     if (a.item.bound != b.item.bound) return a.item.bound < b.item.bound;
                     if (a.item.code != b.item.code) return a.item.code < b.item.code;
                     return a.seq < b.seq;
                   });
  std::vector<bool> take(heap_.size(), false);
  for (std::size_t i = 0; i < k; ++i) take[order[i]] = true;
  return remove_where([&take](std::size_t i) { return take[i]; });
}

std::vector<Subproblem> ActivePool::snapshot() const {
  std::vector<const Entry*> order;
  order.reserve(heap_.size());
  for (const Entry& e : heap_) order.push_back(&e);
  std::sort(order.begin(), order.end(), [](const Entry* a, const Entry* b) {
    if (a->item.code != b->item.code) return a->item.code < b->item.code;
    return a->seq < b->seq;
  });
  std::vector<Subproblem> out;
  out.reserve(order.size());
  for (const Entry* e : order) out.push_back(e->item);
  return out;
}

void ActivePool::sift_up(std::size_t i) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!ranks_before(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void ActivePool::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t best = i;
    const std::size_t l = 2 * i + 1;
    const std::size_t r = 2 * i + 2;
    if (l < n && ranks_before(heap_[l], heap_[best])) best = l;
    if (r < n && ranks_before(heap_[r], heap_[best])) best = r;
    if (best == i) return;
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
}

void ActivePool::rebuild() {
  if (heap_.size() < 2) return;
  for (std::size_t i = heap_.size() / 2; i-- > 0;) sift_down(i);
}

void ActivePool::check_invariants() const {
  for (std::size_t i = 1; i < heap_.size(); ++i) {
    FTBB_CHECK_MSG(!ranks_before(heap_[i], heap_[(i - 1) / 2]),
                   "heap property violated");
  }
}

}  // namespace ftbb::bnb
