#include <gtest/gtest.h>

#include <algorithm>

#include "bnb/pool.hpp"
#include "support/rng.hpp"

namespace ftbb::bnb {
namespace {

using core::PathCode;

Subproblem make(std::initializer_list<std::pair<std::uint32_t, bool>> steps,
                double bound) {
  PathCode code = PathCode::root();
  for (auto [var, bit] : steps) code = code.child(var, bit);
  return Subproblem{code, bound};
}

TEST(ActivePool, BestFirstPopsSmallestBound) {
  ActivePool pool(SelectRule::kBestFirst);
  pool.push(make({{1, false}}, 5.0));
  pool.push(make({{1, true}}, 2.0));
  pool.push(make({{1, false}, {2, false}}, 3.0));
  EXPECT_EQ(pool.pop().bound, 2.0);
  EXPECT_EQ(pool.pop().bound, 3.0);
  EXPECT_EQ(pool.pop().bound, 5.0);
  EXPECT_TRUE(pool.empty());
}

TEST(ActivePool, BestFirstTieBreaksDeeper) {
  ActivePool pool(SelectRule::kBestFirst);
  pool.push(make({{1, false}}, 1.0));
  pool.push(make({{1, true}, {2, false}}, 1.0));
  EXPECT_EQ(pool.pop().code.depth(), 2u);
}

TEST(ActivePool, DepthFirstPopsDeepest) {
  ActivePool pool(SelectRule::kDepthFirst);
  pool.push(make({{1, false}}, 0.0));
  pool.push(make({{1, false}, {2, false}, {3, false}}, 9.0));
  pool.push(make({{1, false}, {2, true}}, 1.0));
  EXPECT_EQ(pool.pop().code.depth(), 3u);
  EXPECT_EQ(pool.pop().code.depth(), 2u);
  EXPECT_EQ(pool.pop().code.depth(), 1u);
}

TEST(ActivePool, BreadthFirstPopsShallowest) {
  ActivePool pool(SelectRule::kBreadthFirst);
  pool.push(make({{1, false}, {2, false}}, 0.0));
  pool.push(make({{1, true}}, 9.0));
  EXPECT_EQ(pool.pop().code.depth(), 1u);
  EXPECT_EQ(pool.pop().code.depth(), 2u);
}

TEST(ActivePool, PopOrderIsDeterministicForTies) {
  // Identical (bound, depth): code order decides deterministically.
  for (int trial = 0; trial < 2; ++trial) {
    ActivePool pool(SelectRule::kBestFirst);
    pool.push(make({{1, true}}, 1.0));
    pool.push(make({{1, false}}, 1.0));
    EXPECT_EQ(pool.pop().code, PathCode::root().child(1, false));
  }
}

TEST(ActivePool, HeapSurvivesManyRandomOps) {
  support::Rng rng(99);
  ActivePool pool(SelectRule::kBestFirst);
  double last = -1.0;
  int pops = 0;
  for (int i = 0; i < 5000; ++i) {
    if (pool.empty() || rng.chance(0.6)) {
      pool.push(make({{static_cast<std::uint32_t>(i), false}},
                     rng.uniform(0.0, 100.0)));
      last = -1.0;  // heap changed; ordering restarts
    } else {
      const double b = pool.pop().bound;
      if (last >= 0.0) {
        EXPECT_GE(b, last);
      }
      last = b;
      ++pops;
    }
  }
  EXPECT_GT(pops, 100);
}

TEST(ActivePool, RemoveIfFiltersAndReturns) {
  ActivePool pool(SelectRule::kBestFirst);
  for (int i = 0; i < 10; ++i) {
    pool.push(make({{static_cast<std::uint32_t>(i), false}}, double(i)));
  }
  const auto removed =
      pool.remove_if([](const Subproblem& p, core::LookupHint&) {
        return p.bound >= 5.0;
      });
  EXPECT_EQ(removed.size(), 5u);
  EXPECT_EQ(pool.size(), 5u);
  // Remaining heap still pops in order.
  double prev = -1.0;
  while (!pool.empty()) {
    const double b = pool.pop().bound;
    EXPECT_GT(b, prev);
    EXPECT_LT(b, 5.0);
    prev = b;
  }
}

TEST(ActivePool, RemoveIfNothingMatchesKeepsPool) {
  ActivePool pool(SelectRule::kDepthFirst);
  pool.push(make({{1, false}}, 1.0));
  const auto removed = pool.remove_if(
      [](const Subproblem&, core::LookupHint&) { return false; });
  EXPECT_TRUE(removed.empty());
  EXPECT_EQ(pool.size(), 1u);
}

TEST(ActivePool, ExtractForSharingPrefersShallow) {
  ActivePool pool(SelectRule::kBestFirst);
  pool.push(make({{1, false}}, 3.0));                          // depth 1
  pool.push(make({{1, true}, {2, false}}, 1.0));               // depth 2
  pool.push(make({{1, true}, {2, true}, {3, false}}, 0.5));    // depth 3
  const auto given = pool.extract_for_sharing(1);
  ASSERT_EQ(given.size(), 1u);
  EXPECT_EQ(given[0].code.depth(), 1u);
  EXPECT_EQ(pool.size(), 2u);
}

TEST(ActivePool, ExtractForSharingCapsAtSize) {
  ActivePool pool(SelectRule::kBestFirst);
  pool.push(make({{1, false}}, 3.0));
  const auto given = pool.extract_for_sharing(10);
  EXPECT_EQ(given.size(), 1u);
  EXPECT_TRUE(pool.empty());
  EXPECT_TRUE(pool.extract_for_sharing(3).empty());
}

TEST(ActivePool, ExtractForSharingTakesEarlierInsertedTwin) {
  // Two entries with identical (code, bound) are value-identical, but which
  // one a grant takes decides where the survivor sits in the heap array —
  // and with it the victim order of every later removal, which the worker's
  // report pipeline observes. The earlier-inserted twin goes.
  ActivePool pool(SelectRule::kBestFirst);
  const Subproblem twin = make({{1, false}}, 5.0);              // depth 1
  const Subproblem x = make({{1, true}, {2, false}}, 1.0);      // depth 2
  const Subproblem e = make({{1, true}, {2, true}}, 6.0);       // depth 2
  const Subproblem f = make({{1, true}, {2, true}, {3, false}}, 7.0);
  // Heap array after these pushes: [x, twin#1, e, twin#2, f].
  pool.push(twin);
  pool.push(x);
  pool.push(e);
  pool.push(twin);
  pool.push(f);
  // The k = 1 pick falls between the two depth-1 twins.
  const auto given = pool.extract_for_sharing(1);
  ASSERT_EQ(given.size(), 1u);
  EXPECT_EQ(given[0], twin);
  // Taking twin#1 (slot 1) compacts to [x, e, twin#2, f], which is already a
  // heap; taking twin#2 (slot 3) would have left [x, twin#1, e, f].
  const auto rest = pool.remove_if(
      [](const Subproblem&, core::LookupHint&) { return true; });
  EXPECT_EQ(rest, (std::vector<Subproblem>{x, e, twin, f}));
}

TEST(ActivePool, PruneAboveRemovesThresholdTail) {
  ActivePool pool(SelectRule::kBestFirst);
  for (int i = 0; i < 10; ++i) {
    pool.push(make({{static_cast<std::uint32_t>(i), false}}, double(i)));
  }
  const auto removed = pool.prune_above(5.0);
  EXPECT_EQ(removed.size(), 5u);
  for (const Subproblem& p : removed) EXPECT_GE(p.bound, 5.0);
  EXPECT_EQ(pool.size(), 5u);
  EXPECT_TRUE(pool.prune_above(5.0).empty());
  pool.check_invariants();
}

TEST(ActivePool, SnapshotIsCodeSorted) {
  ActivePool pool(SelectRule::kDepthFirst);
  pool.push(make({{2, true}}, 3.0));
  pool.push(make({{1, false}, {2, false}}, 1.0));
  pool.push(make({{1, false}}, 2.0));
  const auto snap = pool.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_TRUE(snap[i - 1].code < snap[i].code);
  }
  EXPECT_EQ(pool.size(), 3u);  // snapshot does not disturb the pool
}

TEST(ActivePool, LargePoolRoundTrips) {
  // Grow to thousands of entries, shrink to empty, and verify ordering and
  // structure along the way.
  support::Rng rng(4242);
  ActivePool pool(SelectRule::kBestFirst);
  for (int i = 0; i < 3000; ++i) {
    pool.push(make({{static_cast<std::uint32_t>(i % 97), i % 2 == 0},
                    {static_cast<std::uint32_t>(i % 31), i % 3 == 0}},
                   rng.uniform(0.0, 100.0)));
  }
  pool.check_invariants();
  const auto shared = pool.extract_for_sharing(40);
  EXPECT_EQ(shared.size(), 40u);
  const auto pruned = pool.prune_above(80.0);
  EXPECT_GT(pruned.size(), 0u);
  pool.check_invariants();
  double last = -1.0;
  while (!pool.empty()) {
    const double b = pool.pop().bound;
    EXPECT_GE(b, last);
    EXPECT_LT(b, 80.0);
    last = b;
  }
  pool.check_invariants();
}

TEST(ActivePoolDeath, PopEmptyAborts) {
  ActivePool pool(SelectRule::kBestFirst);
  ASSERT_DEATH((void)pool.pop(), "pop from empty pool");
}

}  // namespace
}  // namespace ftbb::bnb
