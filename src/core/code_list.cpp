#include "core/code_list.hpp"

namespace ftbb::core {

void CodeList::Builder::push(PathCode code) {
  if (rep_ == nullptr) {
    rep_ = std::make_shared<Rep>();
    rep_->reserve(reserve_words_);
    rep_->append(code, 0);
  } else {
    rep_->append(code, common_prefix_len(last_, code));
  }
  bytes_ += code.encoded_size();
  last_ = std::move(code);
}

CodeList CodeList::Builder::finish() && {
  if (rep_ == nullptr) return {};
  rep_->seal(last_, bytes_);
  return CodeList(std::shared_ptr<const Rep>(std::move(rep_)));
}

CodeList::Iterator::Iterator(const Rep* rep) {
  if (rep == nullptr) return;
  if (rep->max_depth_ > kInlineWords) {
    heap_ = std::make_unique<std::uint32_t[]>(rep->max_depth_);
    buf_ = heap_.get();
  }
  next_ = rep->words_.data();
  left_ = rep->count_;
  if (left_ != 0) load();
}

CodeList::CodeList(std::span<const PathCode> codes) {
  if (codes.empty()) return;
  // Header words, every code whole (a bound on the own words), and the last.
  std::size_t words = codes.back().depth();
  for (const PathCode& c : codes) words += 2 + c.depth();
  Builder b(words);
  for (const PathCode& c : codes) b.push(c);
  *this = std::move(b).finish();
}

std::vector<PathCode> CodeList::to_vector() const {
  std::vector<PathCode> out;
  out.reserve(size());
  for (const PathView c : *this) out.emplace_back(c);
  return out;
}

void CodeList::encode(support::ByteWriter& w) const {
  w.varint(size());
  for (const PathView c : *this) c.encode(w);
}

CodeList CodeList::decode(support::ByteReader& r) {
  const std::uint64_t n = r.varint();
  if (!r.fits_count(n) || n == 0) return {};
  // Each code takes a depth byte and a byte per word, so the remaining
  // input bounds both its own words and the last code.
  Builder b(2 * r.remaining());
  for (std::uint64_t i = 0; i < n; ++i) {
    PathCode c = PathCode::decode(r);
    if (!r.ok()) break;
    b.push(std::move(c));
  }
  return std::move(b).finish();
}

}  // namespace ftbb::core
