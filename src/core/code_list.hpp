// Immutable, refcounted, front-coded list of codes: one work-report, gossip
// or root report batch.
//
// Neighbouring codes of a batch share almost their whole path: a table
// export lists the contracted completion table in DFS order (Section
// 5.3.2), and a report lists sorted covering codes. So the list stores each
// code as its suffix below its predecessor. One contiguous word buffer
// holds, per code, a (keep, depth) header followed by the depth - keep step
// words after the prefix the code shares with the previous one. `keep` is
// always the *exact* longest common prefix (0 for the first code), which
// makes the buffer canonical: two lists of the same codes have the same
// words. The buffer ends with the last code in full, so back() — the v1
// frame codec's delta base — is O(1), and the list caches its encoded
// size, so a message's wire size is O(1) in the list length.
//
// A batch is built once and then only read. Copies share it: the sender's
// export memo (CodeSet), the m fanout copies of a report, every in-flight
// delivery and a sender's delta base all hold one allocation, so no code is
// copied between the sender's export and the receiver's insert_all. An
// empty list holds no allocation at all.
//
// Iteration is forward-only. The iterator rebuilds each code in a rolling
// word buffer of its own and yields a PathView into it (valid until the
// next increment), plus the code's keep(): CodeSet::insert_all resumes
// below the shared prefix without comparing a word.
#pragma once

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <span>
#include <vector>

#include "core/path_code.hpp"
#include "support/bytes.hpp"

namespace ftbb::core {

class CodeList {
 public:
  /// The shared buffer. Writers fill it with append() and end it with
  /// seal(); from then on it is only read. CodeSet rebuilds its export memo
  /// in place through clear() when it holds the only reference.
  class Rep {
   public:
    void clear() {
      words_.clear();
      count_ = 0;
      bytes_ = 0;
      back_at_ = 0;
      max_depth_ = 0;
    }
    /// Reserves room for `words` buffer words: 2 header words per code,
    /// the own words, and the last code in full.
    void reserve(std::size_t words) { words_.reserve(words); }

    /// Appends `code`, whose first `keep` words are the previous code's.
    /// `keep` must be their exact longest common prefix, and 0 for the
    /// first code.
    void append(PathView code, std::size_t keep) {
      words_.push_back(static_cast<std::uint32_t>(keep));
      words_.push_back(static_cast<std::uint32_t>(code.depth()));
      words_.insert(words_.end(), code.words() + keep,
                    code.words() + code.depth());
      ++count_;
      if (code.depth() > max_depth_) max_depth_ = code.depth();
    }

    /// Ends the list: `last` is the last appended code, and `code_bytes`
    /// the sum of every code's encoded_size().
    void seal(PathView last, std::size_t code_bytes) {
      back_at_ = words_.size();
      words_.insert(words_.end(), last.words(), last.words() + last.depth());
      bytes_ = code_bytes;
    }

   private:
    friend class CodeList;

    std::vector<std::uint32_t> words_;
    std::size_t count_ = 0;
    std::size_t bytes_ = 0;      // sum of the codes' encoded_size()
    std::size_t back_at_ = 0;    // offset of the last code's full words
    std::size_t max_depth_ = 0;  // sizes an iterator's rolling buffer
  };

  /// Builds a list from whole codes in order: each keep by word comparison
  /// with the previous code, the byte total by summing. Used by the
  /// from-codes constructor, the wire decoders and compressed work reports.
  class Builder {
   public:
    /// `reserve_words` bounds the buffer (see Rep::reserve); nothing is
    /// allocated before the first push().
    explicit Builder(std::size_t reserve_words = 0)
        : reserve_words_(reserve_words) {}

    void push(PathCode code);
    [[nodiscard]] bool empty() const { return rep_ == nullptr; }
    /// The last pushed code (the root code before any push).
    [[nodiscard]] const PathCode& last() const { return last_; }
    [[nodiscard]] CodeList finish() &&;

   private:
    std::size_t reserve_words_;
    std::shared_ptr<Rep> rep_;
    PathCode last_;
    std::size_t bytes_ = 0;
  };

  class Iterator {
   public:
    explicit Iterator(const Rep* rep);
    // Pinned in place: the view points into its own inline buffer.
    Iterator(const Iterator&) = delete;
    Iterator& operator=(const Iterator&) = delete;

    [[nodiscard]] PathView operator*() const { return PathView(buf_, depth_); }
    /// Words the current code shares with the previous one (exact lcp).
    [[nodiscard]] std::size_t keep() const { return keep_; }
    Iterator& operator++() {
      if (--left_ != 0) load();
      return *this;
    }
    friend bool operator==(const Iterator& it, std::default_sentinel_t) {
      return it.left_ == 0;
    }

   private:
    static constexpr std::size_t kInlineWords = 2 * PathCode::kInlineWords;

    void load() {
      keep_ = next_[0];
      depth_ = next_[1];
      std::memcpy(buf_ + keep_, next_ + 2, (depth_ - keep_) * sizeof(std::uint32_t));
      next_ += 2 + (depth_ - keep_);
    }

    const std::uint32_t* next_ = nullptr;
    std::size_t left_ = 0;
    std::size_t keep_ = 0;
    std::size_t depth_ = 0;
    std::uint32_t* buf_ = inline_;
    std::unique_ptr<std::uint32_t[]> heap_;  // codes deeper than kInlineWords
    std::uint32_t inline_[kInlineWords];
  };

  CodeList() = default;
  explicit CodeList(std::span<const PathCode> codes);
  CodeList(std::initializer_list<PathCode> codes)
      : CodeList(std::span<const PathCode>(codes.begin(), codes.size())) {}
  /// Shares a sealed buffer (CodeSet hands out its export memo this way).
  explicit CodeList(std::shared_ptr<const Rep> rep)
      : rep_(rep != nullptr && rep->count_ != 0 ? std::move(rep) : nullptr) {}

  [[nodiscard]] std::size_t size() const { return rep_ ? rep_->count_ : 0; }
  [[nodiscard]] bool empty() const { return rep_ == nullptr; }
  /// The last code, O(1). Precondition: !empty().
  [[nodiscard]] PathView back() const {
    FTBB_CHECK_MSG(rep_ != nullptr, "CodeList: back() of an empty list");
    return PathView(rep_->words_.data() + rep_->back_at_,
                    rep_->words_.size() - rep_->back_at_);
  }
  /// Exact bytes encode() writes: the varint count plus each code's
  /// encoded_size(), from the cached total.
  [[nodiscard]] std::size_t encoded_size() const {
    return support::varint_size(size()) + (rep_ ? rep_->bytes_ : 0);
  }

  [[nodiscard]] Iterator begin() const { return Iterator(rep_.get()); }
  [[nodiscard]] std::default_sentinel_t end() const { return {}; }
  [[nodiscard]] std::vector<PathCode> to_vector() const;

  /// Identity of the shared buffer (nullptr when empty): copies of one
  /// batch report the same value.
  [[nodiscard]] const void* identity() const { return rep_.get(); }

  /// Flat wire form: varint count, then each code (PathCode::encode).
  void encode(support::ByteWriter& w) const;
  /// Tolerant readers latch r.ok() == false on malformed input.
  static CodeList decode(support::ByteReader& r);

  friend bool operator==(const CodeList& a, const CodeList& b) {
    return a.equals(b);
  }

 private:
  [[nodiscard]] bool equals(const CodeList& o) const {
    // The buffer is canonical, so equal codes mean equal words.
    return rep_ == o.rep_ ||
           (rep_ != nullptr && o.rep_ != nullptr && rep_->count_ == o.rep_->count_ &&
            rep_->words_ == o.rep_->words_);
  }

  std::shared_ptr<const Rep> rep_;
};

}  // namespace ftbb::core
