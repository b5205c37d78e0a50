// Tests for the front-coded code list (core/code_list.hpp): exact-lcp keeps,
// iteration, the cached byte total and last code, sharing, and concurrent
// readers of a shared table export.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "core/code_list.hpp"
#include "core/code_set.hpp"
#include "support/rng.hpp"

namespace ftbb::core {
namespace {

/// A node of one fixed search tree (the variable at depth i depends on i
/// alone, with step words of 1 to 5 bytes), below a random prefix of
/// `base` and at most `max_depth` deep.
PathCode tree_code(support::Rng& rng, const PathCode& base,
                   std::size_t max_depth) {
  static constexpr std::uint32_t kVarCaps[] = {64, 8192, 1u << 20,
                                               PathCode::kMaxVar};
  PathCode c = base.prefix(rng.pick(base.depth() + 1));
  const std::size_t depth = c.depth() + rng.pick(max_depth + 1 - c.depth());
  for (std::size_t i = c.depth(); i < depth; ++i) {
    c.push_step(static_cast<std::uint32_t>((i * 2654435761u) % kVarCaps[i % 4]),
                rng.chance(0.5));
  }
  return c;
}

PathCode deep_base(support::Rng& rng, std::size_t depth) {
  PathCode base;
  while (base.depth() < depth) base = tree_code(rng, base, depth);
  return base;
}

std::vector<PathCode> random_codes(support::Rng& rng, std::size_t n,
                                   std::size_t max_depth) {
  const PathCode base = deep_base(rng, max_depth);
  std::vector<PathCode> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(tree_code(rng, base, max_depth));
  }
  return out;
}

/// Everything a list built from `codes` must reproduce: the codes in order
/// with exact-lcp keeps, the last code, the byte total, and a flat wire
/// round trip.
void expect_list_of(const std::vector<PathCode>& codes) {
  const CodeList list(codes);
  ASSERT_EQ(list.size(), codes.size());
  EXPECT_EQ(list.empty(), codes.empty());
  EXPECT_EQ(list.to_vector(), codes);
  std::size_t i = 0;
  std::size_t bytes = 0;
  for (CodeList::Iterator it = list.begin(); it != list.end(); ++it, ++i) {
    ASSERT_LT(i, codes.size());
    EXPECT_EQ(*it, codes[i].view()) << "code " << i;
    EXPECT_EQ(it.keep(), i == 0 ? 0 : common_prefix_len(codes[i - 1], codes[i]))
        << "code " << i;
    bytes += codes[i].encoded_size();
  }
  EXPECT_EQ(i, codes.size());
  EXPECT_EQ(list.encoded_size(), support::varint_size(codes.size()) + bytes);
  if (!codes.empty()) {
    EXPECT_EQ(list.back(), codes.back().view());
  }

  support::ByteWriter w;
  list.encode(w);
  EXPECT_EQ(w.size(), list.encoded_size());
  support::ByteReader r(w.data());
  EXPECT_EQ(CodeList::decode(r), list);
  EXPECT_TRUE(r.done());
}

TEST(CodeList, EmptyListHoldsNoAllocation) {
  const CodeList lists[] = {CodeList{}, CodeList(std::vector<PathCode>{}),
                            CodeList::Builder(64).finish(),
                            CodeSet{}.export_codes()};
  for (const CodeList& list : lists) {
    EXPECT_EQ(list.identity(), nullptr);
    EXPECT_TRUE(list.empty());
    EXPECT_EQ(list.size(), 0u);
    EXPECT_EQ(list.encoded_size(), 1u);  // the zero count
    EXPECT_TRUE(list.begin() == list.end());
    EXPECT_TRUE(list.to_vector().empty());
    EXPECT_EQ(list, CodeList{});
  }
  support::ByteWriter w;
  CodeList{}.encode(w);
  support::ByteReader r(w.data());
  EXPECT_EQ(CodeList::decode(r).identity(), nullptr);
}

TEST(CodeList, RootCodeAndDuplicates) {
  const PathCode a = PathCode::root().child(3, false);
  const PathCode b = a.child(7, true);
  expect_list_of({PathCode::root()});
  expect_list_of({PathCode::root(), PathCode::root()});
  expect_list_of({a, a, b, b, a, PathCode::root(), b});
}

TEST(CodeList, KeepsAreExactLcpInAnyOrder) {
  support::Rng rng(11);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<PathCode> codes = random_codes(rng, 1 + rng.pick(30), 24);
    expect_list_of(codes);  // unsorted
    std::sort(codes.begin(), codes.end());
    expect_list_of(codes);
  }
}

TEST(CodeList, CodesPastTheInlineBufferAndTheCursor) {
  support::Rng rng(12);
  // Deeper than PathCode's 32 inline words (heap-mode codes) and than the
  // iterator's 64-word inline buffer.
  for (const std::size_t depth : {40, 100, 300}) {
    std::vector<PathCode> codes = random_codes(rng, 30, depth);
    codes.push_back(deep_base(rng, depth));
    expect_list_of(codes);
    std::sort(codes.begin(), codes.end());
    expect_list_of(codes);
  }
}

TEST(CodeList, BuilderMatchesTheSpanConstructor) {
  support::Rng rng(13);
  const std::vector<PathCode> codes = random_codes(rng, 50, 90);
  CodeList::Builder b;  // no reservation: the buffer grows
  for (const PathCode& c : codes) b.push(c);
  EXPECT_EQ(b.last(), codes.back());
  EXPECT_EQ(std::move(b).finish(), CodeList(codes));
}

TEST(CodeList, SharedMemoEqualsAnEqualRebuiltList) {
  support::Rng rng(14);
  const PathCode base = deep_base(rng, 80);
  CodeSet set;
  for (int i = 0; i < 200; ++i) set.insert(tree_code(rng, base, 80));
  const CodeList memo = set.export_codes();
  const CodeList copy = memo;
  EXPECT_EQ(copy.identity(), memo.identity());  // copies share
  const CodeList rebuilt(memo.to_vector());
  EXPECT_NE(rebuilt.identity(), memo.identity());
  EXPECT_EQ(memo, rebuilt);
  EXPECT_EQ(memo.encoded_size(), rebuilt.encoded_size());
  EXPECT_EQ(memo.back(), rebuilt.back());
  // A different list of the same length is not equal.
  std::vector<PathCode> other = memo.to_vector();
  other.back() = other.back().sibling();
  EXPECT_FALSE(memo == CodeList(other));
}

TEST(CodeList, ConcurrentReadersOfASharedExport) {
  // Readers iterate a shared export while the owner keeps inserting and
  // re-exporting. The memo is shared, so the owner must rebuild it fresh:
  // the readers' list never changes under them.
  support::Rng rng(15);
  const PathCode base = deep_base(rng, 70);
  CodeSet owner;
  for (int i = 0; i < 150; ++i) owner.insert(tree_code(rng, base, 70));
  const CodeList shared = owner.export_codes();
  const std::vector<PathCode> snapshot = shared.to_vector();

  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, list = shared] {
      for (int pass = 0; pass < 40; ++pass) {
        std::size_t i = 0;
        for (const PathView c : list) {
          if (i >= snapshot.size() || !(c == snapshot[i].view())) ++mismatches;
          ++i;
        }
        if (i != snapshot.size() || !(list.back() == snapshot.back().view())) {
          ++mismatches;
        }
      }
    });
  }
  for (int round = 0; round < 60 && !owner.root_complete(); ++round) {
    PathCode code = tree_code(rng, base, 70);
    while (owner.covered(code)) code = tree_code(rng, base, 70);
    ASSERT_TRUE(owner.insert(code).newly_covered);
    const CodeList fresh = owner.export_codes();
    EXPECT_NE(fresh.identity(), shared.identity());
    EXPECT_EQ(fresh.encoded_size(), owner.encoded_bytes());
  }
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(shared.to_vector(), snapshot);
}

}  // namespace
}  // namespace ftbb::core
