// A FIFO queue over a plain vector, for queues that are mostly empty.
//
// Pops advance a head index, and a drained queue is cleared, keeping its
// capacity for the next burst. A queue never pushed to allocates nothing: a
// std::deque allocates its map and first block on construction, ~60 MB over
// a planetary run's 10^5 mostly idle simulated hosts. A backlog that never
// drains is compacted once the consumed prefix is half the vector, so memory
// stays bounded by the backlog.
#pragma once

#include <cstddef>
#include <iterator>
#include <utility>
#include <vector>

namespace ftbb::support {

template <typename T>
class Fifo {
 public:
  [[nodiscard]] bool empty() const { return head_ == items_.size(); }

  template <typename... Args>
  void emplace_back(Args&&... args) {
    items_.emplace_back(std::forward<Args>(args)...);
  }

  /// Removes and returns the oldest element; the queue must not be empty.
  T pop_front() {
    T front = std::move(items_[head_]);
    if (++head_ == items_.size()) {
      clear();
    } else if (head_ >= kCompactAt && 2 * head_ >= items_.size()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    return front;
  }

  void clear() {
    items_.clear();
    head_ = 0;
  }

  /// Consumed prefix length at which a backlog is compacted.
  static constexpr std::size_t kCompactAt = 64;

 private:
  std::vector<T> items_;
  std::size_t head_ = 0;  // items_[head_] is the front
};

}  // namespace ftbb::support
