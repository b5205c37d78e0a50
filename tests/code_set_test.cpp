// Tests for the completion table (list contraction, complement, coverage).
//
// The property tests build random *consistent* code sets by generating a
// random basic tree and completing random subsets of its leaves, then
// compare CodeSet against an oracle that tracks completion per tree node
// with explicit upward propagation.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bnb/basic_tree.hpp"
#include "core/code_set.hpp"
#include "support/rng.hpp"

namespace ftbb::core {
namespace {

using bnb::BasicTree;
using bnb::RandomTreeConfig;

PathCode path(std::initializer_list<std::pair<std::uint32_t, bool>> steps) {
  PathCode code = PathCode::root();
  for (auto [var, bit] : steps) code = code.child(var, bit);
  return code;
}

TEST(CodeSet, EmptyTable) {
  CodeSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.code_count(), 0u);
  EXPECT_FALSE(set.root_complete());
  EXPECT_FALSE(set.covered(PathCode::root()));
  EXPECT_TRUE(set.export_codes().empty());
  set.check_invariants();
}

TEST(CodeSet, EmptyTableComplementIsRoot) {
  CodeSet set;
  const auto complement = set.complement();
  ASSERT_EQ(complement.size(), 1u);
  EXPECT_TRUE(complement[0].is_root());
}

TEST(CodeSet, SingleInsert) {
  CodeSet set;
  const PathCode c = path({{1, false}, {2, true}});
  const auto r = set.insert(c);
  EXPECT_TRUE(r.newly_covered);
  EXPECT_TRUE(set.covered(c));
  EXPECT_FALSE(set.covered(c.sibling()));
  EXPECT_FALSE(set.covered(PathCode::root()));
  EXPECT_TRUE(set.covered(c.child(9, true)));  // descendants are covered
  EXPECT_EQ(set.code_count(), 1u);
  set.check_invariants();
}

TEST(CodeSet, InsertIsIdempotent) {
  CodeSet set;
  const PathCode c = path({{1, false}});
  EXPECT_TRUE(set.insert(c).newly_covered);
  EXPECT_FALSE(set.insert(c).newly_covered);
  EXPECT_EQ(set.code_count(), 1u);
}

TEST(CodeSet, SiblingsContractToParent) {
  CodeSet set;
  set.insert(path({{1, false}, {2, false}}));
  EXPECT_EQ(set.code_count(), 1u);
  const auto r = set.insert(path({{1, false}, {2, true}}));
  EXPECT_EQ(r.merges, 1u);
  EXPECT_EQ(set.code_count(), 1u);
  const auto codes = set.export_codes().to_vector();
  ASSERT_EQ(codes.size(), 1u);
  EXPECT_EQ(codes[0], path({{1, false}}));  // the parent
  set.check_invariants();
}

TEST(CodeSet, ContractionCascadesToRoot) {
  // Completing all four grandchildren contracts pairwise up to the root —
  // the termination condition of Section 5.4.
  CodeSet set;
  set.insert(path({{1, false}, {2, false}}));
  set.insert(path({{1, false}, {2, true}}));
  EXPECT_FALSE(set.root_complete());
  set.insert(path({{1, true}, {3, false}}));
  const auto r = set.insert(path({{1, true}, {3, true}}));
  EXPECT_GE(r.merges, 2u);  // pair -> (x1,1), then siblings -> root
  EXPECT_TRUE(set.root_complete());
  EXPECT_EQ(set.code_count(), 1u);
  ASSERT_EQ(set.export_codes().size(), 1u);
  EXPECT_TRUE(set.export_codes().back().is_root());
  EXPECT_TRUE(set.complement().empty());
  set.check_invariants();
}

TEST(CodeSet, AncestorSubsumesDescendants) {
  CodeSet set;
  set.insert(path({{1, false}, {2, false}, {4, true}}));
  set.insert(path({{1, false}, {2, true}}));
  EXPECT_EQ(set.code_count(), 2u);
  // Insert the ancestor of both: everything below (x1,0) collapses.
  set.insert(path({{1, false}}));
  EXPECT_EQ(set.code_count(), 1u);
  EXPECT_TRUE(set.covered(path({{1, false}, {2, false}})));
  set.check_invariants();
}

TEST(CodeSet, DescendantOfCompleteIsNoop) {
  CodeSet set;
  set.insert(path({{1, false}}));
  const auto r = set.insert(path({{1, false}, {2, true}, {3, false}}));
  EXPECT_FALSE(r.newly_covered);
  EXPECT_EQ(set.code_count(), 1u);
}

TEST(CodeSet, RootInsertCompletesEverything) {
  CodeSet set;
  set.insert(path({{1, false}, {2, true}}));
  set.insert(PathCode::root());
  EXPECT_TRUE(set.root_complete());
  EXPECT_EQ(set.code_count(), 1u);
  EXPECT_TRUE(set.covered(path({{5, true}})));
  set.check_invariants();
}

TEST(CodeSet, CoveringCode) {
  CodeSet set;
  const PathCode c = path({{1, false}, {2, true}});
  set.insert(c);
  EXPECT_EQ(set.covering_code(c), c);
  EXPECT_EQ(set.covering_code(c.child(7, false)), c);
  EXPECT_EQ(set.covering_code(c.sibling()), std::nullopt);
  EXPECT_EQ(set.covering_code(PathCode::root()), std::nullopt);
  set.insert(c.sibling());
  // After contraction the covering code is the parent.
  EXPECT_EQ(set.covering_code(c), path({{1, false}}));
}

TEST(CodeSet, ComplementListsUnreportedSiblings) {
  CodeSet set;
  set.insert(path({{1, false}, {2, true}}));
  const auto complement = set.complement();
  // Uncovered regions: (x1,0)(x2,0) and (x1,1).
  ASSERT_EQ(complement.size(), 2u);
  EXPECT_NE(std::find(complement.begin(), complement.end(),
                      path({{1, false}, {2, false}})),
            complement.end());
  EXPECT_NE(std::find(complement.begin(), complement.end(), path({{1, true}})),
            complement.end());
}

TEST(CodeSet, ComplementIsDisjointFromTable) {
  CodeSet set;
  set.insert(path({{1, false}, {2, true}, {5, false}}));
  set.insert(path({{1, true}, {3, false}}));
  for (const PathCode& c : set.complement()) {
    EXPECT_FALSE(set.covered(c)) << c.to_string();
    // And no completed code lies inside a complement region.
    for (const PathView done : set.export_codes()) {
      EXPECT_FALSE(c.view().contains(done));
    }
  }
}

TEST(CodeSet, ExportOrderIsDeterministicDfs) {
  CodeSet a;
  CodeSet b;
  const std::vector<PathCode> codes = {
      path({{1, true}, {3, false}}),
      path({{1, false}, {2, true}}),
      path({{1, false}, {2, false}, {4, true}}),
  };
  for (const auto& c : codes) a.insert(c);
  for (auto it = codes.rbegin(); it != codes.rend(); ++it) b.insert(*it);
  EXPECT_EQ(a.export_codes(), b.export_codes());
  EXPECT_TRUE(a == b);
}

TEST(CodeSet, EncodedBytesTracksExport) {
  CodeSet set;
  set.insert(path({{1, false}, {2, true}}));
  set.insert(path({{1, true}}));
  support::ByteWriter w;
  const auto codes = set.export_codes();
  w.varint(codes.size());
  for (const auto& c : codes) c.encode(w);
  EXPECT_EQ(set.encoded_bytes(), w.size());
}

TEST(CodeSet, ClearResets) {
  CodeSet set;
  set.insert(path({{1, false}}));
  set.clear();
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.root_complete());
  EXPECT_EQ(set.trie_nodes(), 1u);
  set.check_invariants();
}

TEST(CodeSetDeath, InconsistentVariableAborts) {
  CodeSet set;
  set.insert(path({{1, false}, {2, false}}));
  ASSERT_DEATH(set.insert(path({{1, false}, {9, true}})),
               "disagree on a node's branching variable");
}

// ---------------------------------------------------------------------------
// Property tests against an oracle on random trees
// ---------------------------------------------------------------------------

struct Oracle {
  const BasicTree* tree;
  std::vector<char> complete;  // per node index

  explicit Oracle(const BasicTree* t) : tree(t), complete(t->size(), 0) {}

  void mark(std::int32_t idx) {
    if (complete[static_cast<std::size_t>(idx)]) return;
    complete[static_cast<std::size_t>(idx)] = 1;
    propagate();
  }

  void propagate() {
    // Fixpoint: a node with two complete children is complete; children of
    // complete nodes are complete.
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t i = 0; i < tree->size(); ++i) {
        const auto& n = tree->node(i);
        if (n.is_leaf()) continue;
        const bool kids = complete[static_cast<std::size_t>(n.child[0])] &&
                          complete[static_cast<std::size_t>(n.child[1])];
        if (kids && !complete[i]) {
          complete[i] = 1;
          changed = true;
        }
        if (complete[i]) {
          for (const auto c : n.child) {
            if (!complete[static_cast<std::size_t>(c)]) {
              complete[static_cast<std::size_t>(c)] = 1;
              changed = true;
            }
          }
        }
      }
    }
  }
};

/// Collects (code, node index) for every node of the tree.
void collect_codes(const BasicTree& tree, std::int32_t idx, const PathCode& code,
                   std::vector<std::pair<PathCode, std::int32_t>>& out) {
  out.emplace_back(code, idx);
  const auto& n = tree.node(static_cast<std::size_t>(idx));
  if (n.is_leaf()) return;
  for (int bit = 0; bit < 2; ++bit) {
    collect_codes(tree, n.child[bit], code.child(n.var, bit != 0), out);
  }
}

class CodeSetPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodeSetPropertyTest, MatchesOracleOnRandomCompletions) {
  const std::uint64_t seed = GetParam();
  RandomTreeConfig cfg;
  cfg.target_nodes = 301;
  cfg.seed = seed;
  const BasicTree tree = BasicTree::random(cfg);
  std::vector<std::pair<PathCode, std::int32_t>> nodes;
  collect_codes(tree, 0, PathCode::root(), nodes);

  support::Rng rng(seed * 13 + 7);
  CodeSet set;
  Oracle oracle(&tree);
  // Complete a random sequence of leaves (the realistic input: interior
  // completions arise only from contraction).
  std::vector<std::size_t> leaf_indices;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (tree.node(static_cast<std::size_t>(nodes[i].second)).is_leaf()) {
      leaf_indices.push_back(i);
    }
  }
  const std::size_t to_complete = leaf_indices.size() / 2 + 1;
  const auto picks =
      rng.sample_without_replacement(leaf_indices.size(), to_complete);
  for (const std::size_t pick : picks) {
    const auto& [code, idx] = nodes[leaf_indices[pick]];
    set.insert(code);
    oracle.mark(idx);
  }
  set.check_invariants();

  // Coverage agrees with the oracle on every node of the tree.
  for (const auto& [code, idx] : nodes) {
    EXPECT_EQ(set.covered(code),
              oracle.complete[static_cast<std::size_t>(idx)] != 0)
        << code.to_string();
  }

  // The complement + the completed set partition the leaves: every leaf is
  // covered either by the table or by exactly one complement region.
  const auto complement = set.complement();
  for (const auto& [code, idx] : nodes) {
    if (!tree.node(static_cast<std::size_t>(idx)).is_leaf()) continue;
    int covering_regions = 0;
    for (const PathCode& region : complement) {
      if (region.contains(code)) ++covering_regions;
    }
    if (set.covered(code)) {
      EXPECT_EQ(covering_regions, 0) << code.to_string();
    } else {
      EXPECT_EQ(covering_regions, 1) << code.to_string();
    }
  }
}

TEST_P(CodeSetPropertyTest, InsertionOrderDoesNotMatter) {
  const std::uint64_t seed = GetParam();
  RandomTreeConfig cfg;
  cfg.target_nodes = 201;
  cfg.seed = seed + 1000;
  const BasicTree tree = BasicTree::random(cfg);
  std::vector<std::pair<PathCode, std::int32_t>> nodes;
  collect_codes(tree, 0, PathCode::root(), nodes);

  std::vector<PathCode> leaves;
  for (const auto& [code, idx] : nodes) {
    if (tree.node(static_cast<std::size_t>(idx)).is_leaf()) leaves.push_back(code);
  }
  support::Rng rng(seed);
  CodeSet forward;
  for (const auto& c : leaves) forward.insert(c);
  // Shuffled insertion produces the identical contracted table.
  std::vector<PathCode> shuffled = leaves;
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.pick(i)]);
  }
  CodeSet backward;
  for (const auto& c : shuffled) backward.insert(c);
  EXPECT_TRUE(forward == backward);
  // All leaves complete -> the whole tree contracts to the root.
  EXPECT_TRUE(forward.root_complete());
}

TEST_P(CodeSetPropertyTest, MergingPartialTablesEqualsDirectInsert) {
  const std::uint64_t seed = GetParam();
  RandomTreeConfig cfg;
  cfg.target_nodes = 201;
  cfg.seed = seed + 2000;
  const BasicTree tree = BasicTree::random(cfg);
  std::vector<std::pair<PathCode, std::int32_t>> nodes;
  collect_codes(tree, 0, PathCode::root(), nodes);
  std::vector<PathCode> leaves;
  for (const auto& [code, idx] : nodes) {
    if (tree.node(static_cast<std::size_t>(idx)).is_leaf()) leaves.push_back(code);
  }
  // Split leaves across two "workers"; merging their contracted exports into
  // a third table equals inserting everything directly (epidemic-merge
  // correctness).
  CodeSet a;
  CodeSet b;
  CodeSet direct;
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    (i % 2 ? a : b).insert(leaves[i]);
    direct.insert(leaves[i]);
  }
  CodeSet merged;
  merged.insert_all(a.export_codes());
  merged.insert_all(b.export_codes());
  EXPECT_TRUE(merged == direct);
  merged.check_invariants();
}

TEST_P(CodeSetPropertyTest, ComplementUnionExportTilesTreeAndDrivesRootComplete) {
  const std::uint64_t seed = GetParam();
  RandomTreeConfig cfg;
  cfg.target_nodes = 301;
  cfg.seed = seed + 3000;
  const BasicTree tree = BasicTree::random(cfg);
  std::vector<std::pair<PathCode, std::int32_t>> nodes;
  collect_codes(tree, 0, PathCode::root(), nodes);
  std::vector<std::size_t> leaf_indices;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (tree.node(static_cast<std::size_t>(nodes[i].second)).is_leaf()) {
      leaf_indices.push_back(i);
    }
  }

  support::Rng rng(seed * 31 + 11);
  CodeSet set;
  // Random completed subset (possibly empty, possibly everything).
  const std::size_t to_complete = rng.pick(leaf_indices.size() + 1);
  const auto picks =
      rng.sample_without_replacement(leaf_indices.size(), to_complete);
  for (const std::size_t pick : picks) {
    set.insert(nodes[leaf_indices[pick]].first);
  }
  set.check_invariants();

  const CodeList exported = set.export_codes();
  const std::vector<PathCode> exported_codes = exported.to_vector();
  const std::vector<PathCode> complement = set.complement();

  // The two lists are disjoint region sets: no code of one lies inside a
  // region of the other.
  for (const PathCode& e : exported_codes) {
    for (const PathCode& c : complement) {
      EXPECT_FALSE(e.contains(c)) << e.to_string() << " vs " << c.to_string();
      EXPECT_FALSE(c.contains(e)) << c.to_string() << " vs " << e.to_string();
    }
  }

  // Exact tiling: every leaf of the underlying tree lies in exactly one
  // region of export ∪ complement.
  std::vector<PathCode> regions = exported_codes;
  regions.insert(regions.end(), complement.begin(), complement.end());
  for (const std::size_t i : leaf_indices) {
    const PathCode& leaf = nodes[i].first;
    int covering = 0;
    for (const PathCode& region : regions) {
      if (region.contains(leaf)) ++covering;
    }
    EXPECT_EQ(covering, 1) << leaf.to_string();
  }

  // Failure recovery closes the computation: handing the complement regions
  // back as completions (what re-execution eventually reports) contracts the
  // table to the root.
  CodeSet recovered = set;
  recovered.insert_all(complement);
  EXPECT_TRUE(recovered.root_complete());
  recovered.check_invariants();

  // And a cold restart from the two exported lists alone rebuilds a
  // root-complete table (self-containment of codes).
  CodeSet rebuilt;
  rebuilt.insert_all(exported);
  rebuilt.insert_all(complement);
  EXPECT_TRUE(rebuilt.root_complete());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodeSetPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// ---------------------------------------------------------------------------
// CodeSetDiff: insert_all's prefix cursor against a loop of insert()
// ---------------------------------------------------------------------------

/// A random tree with its nodes as (code, index) in DFS order, which is
/// lexicographic code order.
struct DiffTree {
  BasicTree tree;
  std::vector<std::pair<PathCode, std::int32_t>> nodes;

  DiffTree(std::uint64_t seed, std::uint64_t target_nodes, double depth_bias)
      : tree(make(seed, target_nodes, depth_bias)) {
    collect_codes(tree, 0, PathCode::root(), nodes);
  }

  static BasicTree make(std::uint64_t seed, std::uint64_t target_nodes,
                        double depth_bias) {
    RandomTreeConfig cfg;
    cfg.target_nodes = target_nodes;
    cfg.seed = seed;
    cfg.depth_bias = depth_bias;
    return BasicTree::random(cfg);
  }

  [[nodiscard]] bool is_leaf(std::size_t i) const {
    return tree.node(static_cast<std::size_t>(nodes[i].second)).is_leaf();
  }

  /// A table holding a random share of the tree's leaves.
  [[nodiscard]] CodeSet table(support::Rng& rng, double share) const {
    CodeSet set;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (is_leaf(i) && rng.chance(share)) set.insert(nodes[i].first);
    }
    return set;
  }

  /// Random tree codes (leaves and inner nodes), in DFS order.
  [[nodiscard]] std::vector<PathCode> sample(support::Rng& rng,
                                             double share) const {
    std::vector<PathCode> out;
    for (const auto& [code, idx] : nodes) {
      if (rng.chance(share)) out.push_back(code);
    }
    return out;
  }
};

/// The export memo, written front-coded by the DFS, equals the list rebuilt
/// from its codes (keeps by word comparison) field for field: keeps, codes,
/// byte total and last code. So the keep the DFS tracks is the exact lcp.
void expect_export_is_exact(const CodeSet& set) {
  const CodeList exported = set.export_codes();
  const std::vector<PathCode> codes = exported.to_vector();
  const CodeList rebuilt(codes);
  EXPECT_EQ(exported, rebuilt);
  EXPECT_EQ(exported.size(), set.code_count());
  EXPECT_EQ(exported.encoded_size(), rebuilt.encoded_size());
  EXPECT_EQ(exported.encoded_size(), set.encoded_bytes());
  if (!codes.empty()) {
    EXPECT_EQ(exported.back(), codes.back().view());
    EXPECT_EQ(rebuilt.back(), codes.back().view());
  }
  std::size_t i = 0;
  CodeList::Iterator b = rebuilt.begin();
  for (CodeList::Iterator a = exported.begin(); a != exported.end(); ++a, ++b) {
    ASSERT_LT(i, codes.size());
    const std::size_t lcp =
        i == 0 ? 0 : common_prefix_len(codes[i - 1], codes[i]);
    EXPECT_EQ(a.keep(), lcp) << "code " << i;
    EXPECT_EQ(b.keep(), lcp) << "code " << i;
    EXPECT_EQ(*a, codes[i].view());
    EXPECT_EQ(*b, codes[i].view());
    ++i;
  }
  EXPECT_EQ(i, codes.size());
  EXPECT_TRUE(b == rebuilt.end());
}

/// insert_all(batch), as a span and as a CodeList, on copies of `table`
/// must equal a loop of insert() on another copy, field for field.
void expect_bulk_matches_loop(const CodeSet& table,
                              const std::vector<PathCode>& batch) {
  CodeSet bulk = table;
  CodeSet listed = table;
  CodeSet loop = table;
  const CodeSet::InsertResult got = bulk.insert_all(batch);
  const CodeSet::InsertResult got_listed = listed.insert_all(CodeList(batch));
  CodeSet::InsertResult want;
  for (const PathCode& c : batch) {
    const CodeSet::InsertResult r = loop.insert(c);
    want.newly_covered = want.newly_covered || r.newly_covered;
    want.nodes_walked += r.nodes_walked;
    want.merges += r.merges;
  }
  for (const CodeSet::InsertResult& r : {got, got_listed}) {
    EXPECT_EQ(r.nodes_walked, want.nodes_walked);
    EXPECT_EQ(r.merges, want.merges);
    EXPECT_EQ(r.newly_covered, want.newly_covered);
  }
  for (const CodeSet* s : {&bulk, &listed}) {
    EXPECT_EQ(s->export_codes(), loop.export_codes());
    EXPECT_EQ(s->encoded_bytes(), loop.encoded_bytes());
    EXPECT_EQ(s->trie_nodes(), loop.trie_nodes());
    EXPECT_EQ(s->root_complete(), loop.root_complete());
    s->check_invariants();
  }
  loop.check_invariants();
  expect_export_is_exact(bulk);
}

class CodeSetDiff : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodeSetDiff, SortedPeerExportIntoPartialTable) {
  const std::uint64_t seed = GetParam();
  const DiffTree t(seed + 100, 401, 0.6);
  support::Rng rng(seed * 7 + 1);
  const CodeSet peer = t.table(rng, 0.5);
  expect_bulk_matches_loop(t.table(rng, 0.5), peer.export_codes().to_vector());
  expect_bulk_matches_loop(CodeSet{}, peer.export_codes().to_vector());
  expect_bulk_matches_loop(peer, peer.export_codes().to_vector());
}

TEST_P(CodeSetDiff, SortedMixOfInnerNodesAndLeaves) {
  const std::uint64_t seed = GetParam();
  const DiffTree t(seed + 200, 301, 0.6);
  support::Rng rng(seed * 7 + 2);
  for (int round = 0; round < 5; ++round) {
    expect_bulk_matches_loop(t.table(rng, 0.3), t.sample(rng, 0.2));
  }
}

TEST_P(CodeSetDiff, ShuffledBatches) {
  const std::uint64_t seed = GetParam();
  const DiffTree t(seed + 300, 301, 0.6);
  support::Rng rng(seed * 7 + 3);
  for (int round = 0; round < 5; ++round) {
    std::vector<PathCode> batch = t.sample(rng, 0.3);
    std::shuffle(batch.begin(), batch.end(), rng);
    expect_bulk_matches_loop(t.table(rng, 0.3), batch);
  }
}

TEST_P(CodeSetDiff, DuplicatesAdjacentAndApart) {
  const std::uint64_t seed = GetParam();
  const DiffTree t(seed + 400, 201, 0.6);
  support::Rng rng(seed * 7 + 4);
  std::vector<PathCode> batch = t.sample(rng, 0.2);
  const std::size_t n = batch.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.chance(0.3)) batch.push_back(batch[i]);
  }
  std::vector<PathCode> adjacent;
  for (const PathCode& c : batch) {
    adjacent.push_back(c);
    if (rng.chance(0.5)) adjacent.push_back(c);
  }
  expect_bulk_matches_loop(t.table(rng, 0.2), batch);
  expect_bulk_matches_loop(t.table(rng, 0.2), adjacent);
}

TEST_P(CodeSetDiff, AncestorAfterItsDescendants) {
  const std::uint64_t seed = GetParam();
  const DiffTree t(seed + 500, 301, 0.6);
  support::Rng rng(seed * 7 + 5);
  for (std::size_t i = 0; i < t.nodes.size(); ++i) {
    if (t.is_leaf(i) || !rng.chance(0.2)) continue;
    const PathCode& ancestor = t.nodes[i].first;
    std::vector<PathCode> batch;
    for (const auto& [code, idx] : t.nodes) {
      if (ancestor.is_ancestor_of(code) && rng.chance(0.4)) batch.push_back(code);
    }
    batch.push_back(ancestor);
    expect_bulk_matches_loop(t.table(rng, 0.1), batch);
  }
}

TEST_P(CodeSetDiff, DescendantAfterMidBatchMergeCompletedItsAncestor) {
  const std::uint64_t seed = GetParam();
  const DiffTree t(seed + 600, 301, 0.6);
  support::Rng rng(seed * 7 + 6);
  // Both children of an inner node in one batch merge into the parent; a
  // later code below either child must then stop at the merged ancestor,
  // not resume on freed trie nodes.
  for (std::size_t i = 0; i < t.nodes.size(); ++i) {
    if (t.is_leaf(i)) continue;
    const PathCode& parent = t.nodes[i].first;
    const auto& node = t.tree.node(static_cast<std::size_t>(t.nodes[i].second));
    std::vector<PathCode> batch{parent.child(node.var, false),
                                parent.child(node.var, true)};
    for (const auto& [code, idx] : t.nodes) {
      if (parent.is_ancestor_of(code) && code.depth() > parent.depth() + 1 &&
          rng.chance(0.5)) {
        batch.push_back(code);
      }
    }
    expect_bulk_matches_loop(t.table(rng, 0.3), batch);
  }
}

TEST_P(CodeSetDiff, CodesDeeperThanTheInlineBuffer) {
  const std::uint64_t seed = GetParam();
  // A depth-biased tree reaches far past the 32 inline words (and past the
  // cursor's fixed depth).
  const DiffTree t(seed + 700, 401, 0.97);
  std::size_t max_depth = 0;
  for (const auto& [code, idx] : t.nodes) max_depth = std::max(max_depth, code.depth());
  ASSERT_GT(max_depth, 2 * std::size_t{PathCode::kInlineWords});
  support::Rng rng(seed * 7 + 7);
  const CodeSet peer = t.table(rng, 0.5);
  expect_bulk_matches_loop(t.table(rng, 0.5), peer.export_codes().to_vector());
  std::vector<PathCode> batch = t.sample(rng, 0.3);
  expect_bulk_matches_loop(t.table(rng, 0.3), batch);
  std::shuffle(batch.begin(), batch.end(), rng);
  expect_bulk_matches_loop(t.table(rng, 0.3), batch);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodeSetDiff,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(CodeSetDiffMemo, ExportIsSharedAndNeverRewrittenUnderAReader) {
  CodeSet set;
  set.insert(path({{1, false}}));
  const CodeList first = set.export_codes();
  EXPECT_EQ(first.identity(), set.export_codes().identity());  // unchanged: shared
  set.insert(path({{1, true}, {2, false}}));
  const CodeList second = set.export_codes();
  // `first` is still held, so the rebuild went to a fresh list.
  EXPECT_NE(first.identity(), second.identity());
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first.back(), path({{1, false}}).view());
  EXPECT_EQ(first.encoded_size(), 1 + path({{1, false}}).encoded_size());
  EXPECT_EQ(second.size(), 2u);
  EXPECT_EQ(second.back(), path({{1, true}, {2, false}}).view());
}

TEST(CodeSetDiffMemo, InPlaceRebuildResetsByteTotalAndBack) {
  CodeSet set;
  set.insert(path({{1, false}, {2, true}, {3, false}, {5, true}}));
  set.insert(path({{1, true}, {4, false}, {300, true}}));
  // The temporary is the memo's only other holder, so every rebuild below
  // reuses the same buffer.
  const void* memo = set.export_codes().identity();
  const auto expect_memo = [&](const PathCode& last) {
    const CodeList list = set.export_codes();
    EXPECT_EQ(list.identity(), memo);
    EXPECT_EQ(list.back(), last.view());
    EXPECT_EQ(list.encoded_size(), set.encoded_bytes());
    EXPECT_EQ(list, CodeList(list.to_vector()));
  };
  expect_memo(path({{1, true}, {4, false}, {300, true}}));
  // A shallower last code, with fewer bytes: (x1,1) subsumes its subtree.
  set.insert(path({{1, true}}));
  expect_memo(path({{1, true}}));
  // One code left, the root: the list shrinks to it.
  set.insert(path({{1, false}}));
  expect_memo(PathCode::root());
  EXPECT_EQ(set.export_codes().size(), 1u);
  EXPECT_EQ(set.export_codes().encoded_size(), 2u);
}

TEST(CodeSetDiffDeathTest, MismatchBelowSharedPrefixAborts) {
  CodeSet set;
  set.insert(path({{1, false}, {2, false}, {3, true}, {4, false}}));
  // The second code shares two steps with the first, so its walk resumes
  // at depth 2; the node at depth 3 learned variable 4, not 9.
  const std::vector<PathCode> batch{
      path({{1, false}, {2, false}, {3, false}, {7, false}}),
      path({{1, false}, {2, false}, {3, true}, {9, true}})};
  ASSERT_DEATH(set.insert_all(batch),
               "disagree on a node's branching variable");
}

}  // namespace
}  // namespace ftbb::core
