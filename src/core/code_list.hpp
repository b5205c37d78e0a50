// Immutable, refcounted list of codes: one work-report, gossip or root
// report batch.
//
// A batch is built once and then only read. Copies share it: the sender's
// export memo (CodeSet), the m fanout copies of a report and every
// in-flight delivery all hold one allocation, so no deep PathCode copy
// happens between the sender's export and the receiver's insert_all.
// An empty list holds no allocation at all.
#pragma once

#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

#include "core/path_code.hpp"

namespace ftbb::core {

class CodeList {
 public:
  using Rep = std::shared_ptr<const std::vector<PathCode>>;

  CodeList() = default;
  explicit CodeList(std::vector<PathCode> codes)
      : rep_(codes.empty() ? nullptr
                           : std::make_shared<const std::vector<PathCode>>(
                                 std::move(codes))) {}
  CodeList(std::initializer_list<PathCode> codes)
      : CodeList(std::vector<PathCode>(codes)) {}
  /// Shares an existing list (CodeSet hands out its export memo this way).
  explicit CodeList(Rep rep) : rep_(std::move(rep)) {}

  [[nodiscard]] const std::vector<PathCode>& vec() const {
    static const std::vector<PathCode> kEmpty;
    return rep_ ? *rep_ : kEmpty;
  }
  operator std::span<const PathCode>() const { return vec(); }  // NOLINT(google-explicit-constructor)

  [[nodiscard]] std::size_t size() const { return rep_ ? rep_->size() : 0; }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] const PathCode& operator[](std::size_t i) const {
    return (*rep_)[i];
  }
  [[nodiscard]] const PathCode& back() const { return rep_->back(); }
  [[nodiscard]] auto begin() const { return vec().begin(); }
  [[nodiscard]] auto end() const { return vec().end(); }

  friend bool operator==(const CodeList& a, const CodeList& b) {
    return a.rep_ == b.rep_ || a.vec() == b.vec();
  }

 private:
  Rep rep_;
};

}  // namespace ftbb::core
