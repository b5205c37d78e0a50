// Tests for the expansion ledger (redundant-work accounting).
//
// Every case replays one stream of adds into ExpansionLedgers and into a
// reference std::map<PathCode, {count, cost}>, then checks that the
// ledger's preorder walk is the map's sorted order, record for record, and
// that its totals equal the reference sums bit for bit: the redundant cost
// is summed over the sorted map exactly as the simulated cluster used to.
// The codes come from random basic trees (one search tree per case, as the
// ledger requires), including depth-biased trees past 64 steps.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <vector>

#include "bnb/basic_tree.hpp"
#include "core/expansion_ledger.hpp"
#include "core/path_code.hpp"
#include "support/rng.hpp"

// Counts heap allocations and frees, so a test can check that an empty
// ledger makes none.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_frees{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

void operator delete(void* p, const std::nothrow_t&) noexcept {
  operator delete(p);
}

namespace ftbb::core {
namespace {

// A planetary run holds one ledger per host: it is one vector, well under
// the 56 B of the libstdc++ unordered_map it replaced.
static_assert(sizeof(ExpansionLedger) <= 24);

struct Record {
  std::uint32_t count = 0;
  double cost = 0.0;
};
using Reference = std::map<PathCode, Record>;

/// Every node of a random tree, in DFS (= PathCode) order.
std::vector<PathCode> tree_codes(std::uint64_t seed, std::uint64_t nodes,
                                 double depth_bias) {
  bnb::RandomTreeConfig cfg;
  cfg.target_nodes = nodes;
  cfg.seed = seed;
  cfg.depth_bias = depth_bias;
  const bnb::BasicTree tree = bnb::BasicTree::random(cfg);
  std::vector<PathCode> out;
  std::vector<std::pair<std::int32_t, PathCode>> stack{{0, PathCode::root()}};
  while (!stack.empty()) {
    auto [idx, code] = std::move(stack.back());
    stack.pop_back();
    const auto& n = tree.node(static_cast<std::size_t>(idx));
    if (!n.is_leaf()) {
      stack.emplace_back(n.child[1], code.child(n.var, true));
      stack.emplace_back(n.child[0], code.child(n.var, false));
    }
    out.push_back(std::move(code));
  }
  return out;
}

/// A cost that is a pure function of the code, with enough distinct
/// mantissa bits that a different summation order changes the sum.
double cost_of(const PathCode& code) {
  return 0.001 * static_cast<double>(code.hash() % 100003 + 1) / 7.0;
}

/// A stream of adds: DFS runs (parent then child, long shared prefixes),
/// random jumps, and immediate repeats.
std::vector<PathCode> add_stream(const std::vector<PathCode>& codes,
                                 support::Rng& rng, std::size_t n) {
  std::vector<PathCode> out;
  std::size_t at = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const double roll = rng.uniform();
    if (roll < 0.5) {
      at = (at + 1) % codes.size();
    } else if (roll < 0.85) {
      at = rng.pick(codes.size());
    }  // else: the same code again
    out.push_back(codes[at]);
  }
  return out;
}

void add_to(Reference& ref, const PathCode& code) {
  Record& r = ref[code];
  ++r.count;
  r.cost = cost_of(code);
}

/// The ledger's walk and totals against the reference, bit for bit.
void expect_matches(const ExpansionLedger& ledger, const Reference& ref) {
  std::vector<std::pair<PathCode, Record>> walked;
  ledger.for_each([&](PathView code, std::uint32_t count, double cost) {
    walked.emplace_back(PathCode(code), Record{count, cost});
  });
  ASSERT_EQ(walked.size(), ref.size());
  std::size_t i = 0;
  std::uint64_t total = 0;
  double redundant_cost = 0.0;
  for (const auto& [code, record] : ref) {
    EXPECT_EQ(walked[i].first, code) << "record " << i;
    EXPECT_EQ(walked[i].second.count, record.count) << code.to_string();
    EXPECT_EQ(walked[i].second.cost, record.cost) << code.to_string();
    total += record.count;
    if (record.count > 1) {
      redundant_cost += static_cast<double>(record.count - 1) * record.cost;
    }
    ++i;
  }
  const ExpansionLedger::Totals t = ledger.totals();
  EXPECT_EQ(t.unique, ref.size());
  EXPECT_EQ(t.total, total);
  EXPECT_EQ(t.redundant_cost, redundant_cost);  // bit-equal, same order
}

class ExpansionLedgerDiff : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExpansionLedgerDiff, RandomAddOrdersWithDuplicates) {
  const std::uint64_t seed = GetParam();
  const std::vector<PathCode> codes = tree_codes(seed + 100, 401, 0.6);
  support::Rng rng(seed * 11 + 1);
  for (const std::size_t n : {std::size_t{1}, std::size_t{50}, std::size_t{2000}}) {
    std::vector<PathCode> stream = add_stream(codes, rng, n);
    if (rng.chance(0.5)) std::shuffle(stream.begin(), stream.end(), rng);
    ExpansionLedger ledger;
    Reference ref;
    for (const PathCode& c : stream) {
      ledger.add(c, cost_of(c));
      add_to(ref, c);
    }
    expect_matches(ledger, ref);
  }
}

TEST_P(ExpansionLedgerDiff, CodesDeeperThanTheInlineBuffer) {
  const std::uint64_t seed = GetParam();
  const std::vector<PathCode> codes = tree_codes(seed + 200, 401, 0.97);
  std::size_t max_depth = 0;
  for (const PathCode& c : codes) max_depth = std::max(max_depth, c.depth());
  ASSERT_GT(max_depth, 2 * std::size_t{PathCode::kInlineWords});
  support::Rng rng(seed * 11 + 2);
  ExpansionLedger ledger;
  Reference ref;
  for (const PathCode& c : add_stream(codes, rng, 3000)) {
    ledger.add(c, cost_of(c));
    add_to(ref, c);
  }
  expect_matches(ledger, ref);
}

TEST_P(ExpansionLedgerDiff, MergeOfSeveralLedgers) {
  const std::uint64_t seed = GetParam();
  const std::vector<PathCode> codes =
      tree_codes(seed + 300, 601, seed % 2 == 0 ? 0.6 : 0.97);
  support::Rng rng(seed * 11 + 3);
  std::vector<ExpansionLedger> parts(5);  // part 4 stays empty
  Reference ref;
  for (const PathCode& c : add_stream(codes, rng, 4000)) {
    parts[rng.pick(4)].add(c, cost_of(c));
    add_to(ref, c);
  }
  std::vector<std::size_t> order{0, 1, 2, 3, 4};
  std::shuffle(order.begin(), order.end(), rng);
  ExpansionLedger merged;
  for (const std::size_t k : order) merged.merge(parts[k]);
  expect_matches(merged, ref);
  // Merging into a non-empty ledger, then adding to it again.
  ExpansionLedger grown = parts[order[0]];
  for (std::size_t k = 1; k < order.size(); ++k) grown.merge(parts[order[k]]);
  for (const PathCode& c : add_stream(codes, rng, 500)) {
    grown.add(c, cost_of(c));
    add_to(ref, c);
  }
  expect_matches(grown, ref);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExpansionLedgerDiff,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(ExpansionLedger, PreorderIsPathCodeOrder) {
  // A code sorts before its extensions, and the 0 branch before the 1
  // branch, whatever the add order.
  const PathCode root = PathCode::root();
  const PathCode a = root.child(3, false);
  const PathCode b = root.child(3, true);
  const PathCode a1 = a.child(7, true);
  const PathCode a0 = a.child(7, false);
  ExpansionLedger ledger;
  for (const PathCode* c : {&b, &a1, &root, &a0, &a, &a1}) ledger.add(*c, 1.0);
  std::vector<PathCode> walked;
  ledger.for_each([&](PathView code, std::uint32_t, double) {
    walked.emplace_back(code);
  });
  EXPECT_EQ(walked, (std::vector<PathCode>{root, a, a0, a1, b}));
  EXPECT_EQ(ledger.totals().total, 6u);
  EXPECT_EQ(ledger.totals().unique, 5u);
  EXPECT_EQ(ledger.totals().redundant_cost, 1.0);
}

TEST(ExpansionLedger, EmptyLedgerHoldsNoAllocation) {
  const std::uint64_t allocs = g_allocs.load();
  const std::uint64_t frees = g_frees.load();
  ExpansionLedger::Totals t;
  {
    ExpansionLedger ledger;
    const ExpansionLedger other;
    ledger.merge(other);
    const ExpansionLedger copy = ledger;
    t = copy.totals();
    ledger.for_each([](PathView, std::uint32_t, double) { std::abort(); });
  }
  EXPECT_EQ(g_allocs.load(), allocs);
  EXPECT_EQ(g_frees.load(), frees);
  EXPECT_EQ(t.unique, 0u);
  EXPECT_EQ(t.total, 0u);
  EXPECT_EQ(t.redundant_cost, 0.0);
  ExpansionLedger ledger;
  ledger.add(PathCode::root().child(4, true), 1.0);
  EXPECT_GT(g_allocs.load(), allocs);
}

TEST(ExpansionLedgerDeathTest, InconsistentVariableAborts) {
  ExpansionLedger ledger;
  ledger.add(PathCode::root().child(1, false).child(2, true), 1.0);
  ASSERT_DEATH(ledger.add(PathCode::root().child(1, false).child(5, false), 1.0),
               "disagree on a node's branching variable");
}

}  // namespace
}  // namespace ftbb::core
