// Differential test: ActivePool against the seed flat-heap reference pool.
//
// The worker's completion pipeline observably depends not just on pop order
// but on the heap-array order in which removals report their victims (report
// batching, contraction charges, last-local-completion tracking). These
// tests therefore assert *operation-for-operation identity* — same pop
// sequence, same victim vectors in the same order, same extraction sets —
// over long randomized mixed op streams, for all three SelectRules. Every
// entry also carries a tagged LookupHint, and each pop and sweep checks that
// the hint it is handed is its own entry's, as last refreshed.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bench/legacy_pool.hpp"
#include "bnb/pool.hpp"
#include "support/rng.hpp"

namespace ftbb::bnb {
namespace {

using bench::LegacyPool;
using core::PathCode;

PathCode random_code(support::Rng& rng, std::size_t max_depth) {
  const std::size_t depth = rng.pick(max_depth + 1);
  PathCode code = PathCode::root();
  for (std::size_t d = 0; d < depth; ++d) {
    // Few distinct variables per level -> dense sibling/ancestor collisions.
    code = code.child(static_cast<std::uint32_t>(d * 3 + rng.pick(2)),
                      rng.chance(0.5));
  }
  return code;
}

Subproblem random_problem(support::Rng& rng) {
  // Coarse bounds provoke ties; ties exercise the code/seq tie-breaks.
  return Subproblem{random_code(rng, 10),
                    static_cast<double>(rng.pick(64))};
}

void expect_same(const std::vector<Subproblem>& a,
                 const std::vector<Subproblem>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << what << " diverged at victim " << i;
  }
}

/// True when some region is an ancestor of (or equal to) `p`'s code.
bool in_any(const std::vector<PathCode>& regions, const Subproblem& p) {
  return std::any_of(regions.begin(), regions.end(),
                     [&p](const PathCode& r) { return r.contains(p.code); });
}

/// Gives every pushed entry a hint naming it (`node` is the tag) and tracks
/// the generation each tag was last refreshed to. The reference pool has no
/// hints; these checks show ActivePool moves each hint with its entry through
/// sifts, compactions and rebuilds, and keeps what a sweep's victim wrote.
struct HintTags {
  struct Owner {
    Subproblem problem;
    std::uint32_t gen;
  };
  std::vector<Owner> owners;  // owners[tag]

  core::LookupHint tag(const Subproblem& p) {
    owners.push_back(Owner{p, 1});
    return core::LookupHint{static_cast<std::int32_t>(owners.size() - 1), 1, 0};
  }

  void expect_own(const core::LookupHint& hint, const Subproblem& p) const {
    ASSERT_LT(static_cast<std::size_t>(hint.node), owners.size());
    const Owner& o = owners[static_cast<std::size_t>(hint.node)];
    EXPECT_EQ(o.problem, p) << "hint handed to another entry";
    EXPECT_EQ(o.gen, hint.gen) << "refreshed hint lost";
  }

  /// ActivePool's victim for a reference-pool predicate: checks the hint,
  /// refreshes it the way the worker's covered sweep does, then decides.
  template <typename Pred>
  auto victim(Pred pred) {
    return [this, pred](const Subproblem& p, core::LookupHint& hint) {
      expect_own(hint, p);
      hint.gen += 2;
      owners[static_cast<std::size_t>(hint.node)].gen = hint.gen;
      return pred(p);
    };
  }

  Subproblem pop(ActivePool& pool) {
    core::LookupHint hint;
    Subproblem p = pool.pop(&hint);
    expect_own(hint, p);
    return p;
  }
};

class PoolDiff : public ::testing::TestWithParam<SelectRule> {};

TEST_P(PoolDiff, MixedOpStreamIsOperationIdentical) {
  const SelectRule rule = GetParam();
  support::Rng rng(0xF00D + static_cast<std::uint64_t>(rule));
  ActivePool pool(rule);
  LegacyPool legacy(rule);
  HintTags tags;

  for (int step = 0; step < 20000; ++step) {
    const double dice = rng.uniform();
    if (pool.empty() || dice < 0.50) {
      Subproblem p = random_problem(rng);
      legacy.push(p);
      const core::LookupHint hint = tags.tag(p);
      pool.push(std::move(p), hint);
    } else if (dice < 0.72) {
      EXPECT_EQ(tags.pop(pool), legacy.pop()) << "pop diverged at step " << step;
    } else if (dice < 0.82) {
      const double threshold = static_cast<double>(rng.pick(72));
      const auto got = pool.prune_above(threshold);
      const auto want = legacy.remove_if(
          [threshold](const Subproblem& p) { return p.bound >= threshold; });
      expect_same(got, want, "prune_above");
    } else if (dice < 0.92) {
      // Covered sweep over a few random regions, nested ones included —
      // the worker's completion-table sweep has this shape.
      std::vector<PathCode> regions;
      const std::size_t n_regions = 1 + rng.pick(3);
      for (std::size_t i = 0; i < n_regions; ++i) {
        regions.push_back(random_code(rng, 6));
      }
      const auto covered = [&regions](const Subproblem& p) {
        return in_any(regions, p);
      };
      expect_same(pool.remove_if(tags.victim(covered)),
                  legacy.remove_if(covered), "region remove_if");
    } else {
      const std::size_t k = 1 + rng.pick(8);
      expect_same(pool.extract_for_sharing(k), legacy.extract_for_sharing(k),
                  "extract_for_sharing");
    }
    ASSERT_EQ(pool.size(), legacy.size());
    if (step % 1024 == 0) pool.check_invariants();
  }

  // The snapshot is the code-sorted view of the same contents.
  std::vector<Subproblem> sorted = legacy.entries();
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Subproblem& a, const Subproblem& b) {
                     return a.code < b.code;
                   });
  expect_same(pool.snapshot(), sorted, "snapshot");

  while (!legacy.empty()) {
    EXPECT_EQ(tags.pop(pool), legacy.pop()) << "drain diverged";
  }
  EXPECT_TRUE(pool.empty());
  pool.check_invariants();
}

TEST_P(PoolDiff, LargePoolIsOperationIdentical) {
  // Thousands of entries: a bulk load, then rounds of top-ups and every
  // removal flavor over a pool far larger than the randomized stream above
  // reaches, then a clear and a reload — all of it operation-identical to
  // the seed pool, victim order included.
  const SelectRule rule = GetParam();
  support::Rng rng(0xAB5EED + static_cast<std::uint64_t>(rule));
  ActivePool pool(rule);
  LegacyPool legacy(rule);
  HintTags tags;

  // Continuous bounds: at this pool size the coarse pick(64) bounds breed
  // exact (depth, bound, code) duplicates, and the seed reference's
  // extraction order is unspecified across such twins (see
  // legacy_pool.hpp). Tie behavior is MixedOpStream's job.
  const auto push_batch = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      Subproblem p{random_code(rng, 10), rng.uniform()};
      legacy.push(p);
      const core::LookupHint hint = tags.tag(p);
      pool.push(std::move(p), hint);
    }
  };

  push_batch(2000);
  pool.check_invariants();

  for (int round = 0; round < 6; ++round) {
    push_batch(300);
    const double threshold = 0.6 + 0.4 * rng.uniform();
    expect_same(pool.prune_above(threshold),
                legacy.remove_if([threshold](const Subproblem& p) {
                  return p.bound >= threshold;
                }),
                "large prune_above");
    push_batch(200);
    std::vector<PathCode> regions;
    for (std::size_t i = 0; i < 2; ++i) regions.push_back(random_code(rng, 5));
    const auto covered = [&regions](const Subproblem& p) {
      return in_any(regions, p);
    };
    expect_same(pool.remove_if(tags.victim(covered)),
                legacy.remove_if(covered), "large region remove_if");
    const std::size_t k = 1 + rng.pick(32);
    expect_same(pool.extract_for_sharing(k), legacy.extract_for_sharing(k),
                "large extract_for_sharing");
    ASSERT_EQ(pool.size(), legacy.size());
    pool.check_invariants();
  }

  // Clear both, reload, and re-verify the drain order.
  pool.clear();
  legacy.clear();
  EXPECT_TRUE(pool.empty());
  push_batch(1500);
  pool.check_invariants();
  while (!legacy.empty()) {
    EXPECT_EQ(tags.pop(pool), legacy.pop()) << "post-clear drain diverged";
  }
  EXPECT_TRUE(pool.empty());
  pool.check_invariants();
}

INSTANTIATE_TEST_SUITE_P(AllRules, PoolDiff,
                         ::testing::Values(SelectRule::kBestFirst,
                                           SelectRule::kDepthFirst,
                                           SelectRule::kBreadthFirst),
                         [](const auto& info) {
                           switch (info.param) {
                             case SelectRule::kBestFirst: return "BestFirst";
                             case SelectRule::kDepthFirst: return "DepthFirst";
                             case SelectRule::kBreadthFirst: return "BreadthFirst";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace ftbb::bnb
