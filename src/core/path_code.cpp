#include "core/path_code.hpp"

namespace ftbb::core {

void PathView::encode(support::ByteWriter& w) const {
  w.varint(depth());
  for (std::size_t i = 0; i < depth(); ++i) w.varint(word(i));
}

PathCode PathCode::decode(support::ByteReader& r) {
  const std::uint64_t n = r.varint();
  if (n > kMaxDepth) r.mark_corrupt("PathCode: implausible depth");
  // Every step is at least one input byte: a hostile count cannot make the
  // reserve() below allocate past the input size.
  if (!r.fits_count(n) || !r.ok()) return PathCode{};
  PathCode out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t packed = r.varint();
    if (!r.ok()) return PathCode{};
    if ((packed >> 1) > static_cast<std::uint64_t>(kMaxVar)) {
      r.mark_corrupt("PathCode: variable index overflow");
      return PathCode{};
    }
    out.push_word(static_cast<std::uint32_t>(packed));
  }
  return out;
}

std::size_t PathView::encoded_size() const {
  // varint_size of each 32-bit word, as one byte plus one per 7-bit
  // threshold it reaches: branch-free compares the compiler vectorizes over
  // the word array (a CodeList built from codes sums this once per code).
  const std::uint32_t* w = words();
  std::uint32_t extra = 0;
  for (std::size_t i = 0; i < depth(); ++i) {
    extra += static_cast<std::uint32_t>(w[i] >= (1u << 7)) +
             static_cast<std::uint32_t>(w[i] >= (1u << 14)) +
             static_cast<std::uint32_t>(w[i] >= (1u << 21)) +
             static_cast<std::uint32_t>(w[i] >= (1u << 28));
  }
  return support::varint_size(depth()) + depth() + extra;
}

std::string PathCode::to_string() const {
  if (is_root()) return "()";
  std::string s = "(";
  for (std::size_t i = 0; i < depth(); ++i) {
    if (i) s += ",";
    s += "<x" + std::to_string(var(i)) + "," + std::to_string(int(bit(i))) + ">";
  }
  s += ")";
  return s;
}

}  // namespace ftbb::core
