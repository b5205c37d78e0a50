// Completion table with list contraction and complement (Section 5.3.2).
//
// A CodeSet stores the set of subproblems *known to be completed*, in
// contracted form: whenever both children of a node are completed the two
// sibling codes are replaced by the parent's code, recursively, and any code
// covered by a completed ancestor is dropped. The contracted set is exactly
// the "table of completed problems" each member maintains; work reports are
// contracted the same way before being sent.
//
// Termination detection (Section 5.4) falls out of the representation: the
// computation is finished precisely when the table contracts to the single
// code of the root problem.
//
// Failure recovery (Section 5.3.2) uses the *complement*: the sibling of any
// stored code — or of any proper prefix of one — that is not itself covered
// identifies a subproblem that provably exists in the search tree (its
// parent was expanded) and is not known to be completed. complement() enumerates
// the maximal such regions.
//
// Implementation: a binary trie keyed by branching decisions. Completed
// nodes are trie leaves (their subtrees are pruned on completion), so the
// exported code list is the set of completed trie leaves. All codes inserted
// into one CodeSet must originate from a single underlying search tree
// (decomposition is deterministic per node), which the trie checks: the
// branching variable learned for a node must match on every later insert.
//
// A trie node is 16 bytes, {var, child[2], gen}: what a walk reads and
// nothing else. A complete node is a leaf, so completion is a sentinel in
// child[0]. A node's parent, depth and encoded code size are never stored:
// every walk that needs them has them on its path (insert's cursor records
// the nodes it passed, and the DFS walks carry depth and bytes down). `gen`
// is the slot's generation, odd while the slot is live and bumped on every
// alloc and every free, and it is what makes a LookupHint safe: a live
// node's ancestors, their variables and their child links stay as they were
// until an ancestor completes, and a completing ancestor frees the node. So
// a walk may resume at the node a previous walk of the same code stopped at
// whenever that slot's generation still matches, and falls back to the
// root whenever it does not.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/code_list.hpp"
#include "core/path_code.hpp"
#include "support/bytes.hpp"

namespace ftbb::core {

/// Where a CodeSet::covered() walk stopped: the deepest trie node it reached,
/// that slot's generation, and the node's depth. A later covered() of the
/// same code, or of any code extending its first `depth` steps, resumes
/// there while the slot's generation matches, and walks from the root
/// otherwise, so a stale hint costs a root walk and never changes an answer.
/// The default hint matches no slot. A hint belongs to the table that filled
/// it; clear() keeps it from matching anything allocated afterwards. (A
/// stale hint could match again only after 2^31 reuses of its one slot
/// wrapped the 32-bit generation.)
struct LookupHint {
  std::int32_t node = 0;
  std::uint32_t gen = 0;  // live generations are odd, so 0 never matches
  std::uint32_t depth = 0;
};

class CodeSet {
 public:
  static constexpr std::uint32_t kNoVar = 0xffffffffu;

  /// Outcome of an insert, with the work performed — the simulator charges
  /// list-contraction time proportional to `nodes_walked + merges`.
  struct InsertResult {
    bool newly_covered = false;  // false when the code was already covered
    std::uint32_t nodes_walked = 0;
    std::uint32_t merges = 0;  // sibling-pair contractions triggered
  };

  CodeSet();

  /// Records `code` as completed; contracts upward. Idempotent. Takes a
  /// view (a PathCode converts implicitly): the walk only reads steps.
  InsertResult insert(PathView code);

  /// Inserts every code of a report/table snapshot; returns summed stats and
  /// whether anything changed. Equivalent to insert() per code, field for
  /// field, but each walk resumes below the prefix the code shares with its
  /// predecessor instead of at the root: a DFS-ordered export (every batch
  /// the protocol ships) walks each trie node about once. Any order is
  /// accepted. The skipped levels are still counted in `nodes_walked`, so
  /// the charged contraction cost stays the paper's root-down walk. A
  /// CodeList carries each shared prefix length (its keep), so nothing is
  /// compared; the span overload (the report scratch trie) compares each
  /// code with its predecessor.
  InsertResult insert_all(const CodeList& codes);
  InsertResult insert_all(std::span<const PathCode> codes);

  /// True when `code` or one of its ancestors is recorded completed.
  [[nodiscard]] bool covered(PathView code) const {
    LookupHint fresh;
    return covered(code, fresh);
  }

  /// covered(), resuming at `hint` when it is still valid (see LookupHint)
  /// and leaving in it the node this walk stopped at. The hint must come
  /// from a walk of a code sharing its first `hint.depth` steps with `code`:
  /// the pool keeps one per entry and hands a popped entry's hint to its
  /// children.
  [[nodiscard]] bool covered(PathView code, LookupHint& hint) const;

  /// The maximal completed code covering `code` (itself or its highest
  /// completed ancestor), or nullopt when uncovered. Work reports use this
  /// to ship the most contracted representative of each fresh completion.
  [[nodiscard]] std::optional<PathCode> covering_code(PathView code) const;

  /// Termination predicate: the table contracted to the root code.
  /// Defined inline below the class: every scheduling step polls it, and a
  /// cross-TU call for a single flag load is measurable at planetary scale.
  [[nodiscard]] bool root_complete() const;

  /// Contracted list of completed codes, in deterministic DFS order
  /// (left branch first), which is lexicographic PathCode order. This is
  /// what a full-table gossip message carries: the returned list is the
  /// table's export memo itself, shared, not a copy. The DFS writes it
  /// front-coded directly: each code's keep is the shallowest depth the
  /// walk climbed back to since the previous code, and the byte total is
  /// the maintained encoded_bytes().
  [[nodiscard]] CodeList export_codes() const;

  /// Maximal regions of the tree *not* covered by this table: for every
  /// incomplete trie node, branches that were never reported under. Each
  /// returned code is a real tree node (see file comment). The root-only
  /// answer {()} is returned for an empty table. Returns {} iff the root is
  /// complete.
  [[nodiscard]] std::vector<PathCode> complement() const;

  /// complement() into a caller-owned buffer — the recovery path's
  /// scratch-reusing variant. Existing elements are overwritten in place
  /// (copy-assign reuses each element's heap capacity), so a worker passing
  /// the same scratch vector every recovery reaches a zero-allocation steady
  /// state even for codes deeper than the inline buffer.
  void complement_into(std::vector<PathCode>& out) const;

  /// Number of codes in the contracted representation.
  [[nodiscard]] std::size_t code_count() const { return complete_count_; }

  [[nodiscard]] bool empty() const { return complete_count_ == 0; }

  /// Exact wire size of export_codes() (varint count header + each code),
  /// maintained incrementally; this is the storage-space unit of Table 1.
  [[nodiscard]] std::size_t encoded_bytes() const {
    return support::varint_size(complete_count_) + body_bytes_;
  }

  /// Trie footprint, for memory diagnostics.
  [[nodiscard]] std::size_t trie_nodes() const { return live_nodes_; }

  void clear();

  /// Deep structural validation for tests: complete nodes are leaves, no two
  /// complete siblings, incremental counters match a recount. Aborts on
  /// violation.
  void check_invariants() const;

  /// Two tables are equivalent iff their contracted exports match.
  friend bool operator==(const CodeSet& a, const CodeSet& b) {
    return a.export_codes() == b.export_codes();
  }

  [[nodiscard]] std::string to_string() const;

 private:
  struct Node {
    std::uint32_t var = kNoVar;  // variable this tree node branches on
    std::int32_t child[2] = {-1, -1};  // child[0] == kComplete: complete leaf
    std::uint32_t gen = 0;  // odd while live; bumped on alloc and on free
  };
  static_assert(sizeof(Node) == 16);

  static constexpr std::int32_t kComplete = -2;

  [[nodiscard]] static bool is_complete(const Node& n) {
    return n.child[0] == kComplete;
  }
  [[nodiscard]] bool is_complete(std::int32_t idx) const {
    return is_complete(nodes_[static_cast<std::size_t>(idx)]);
  }

  /// insert_all's prefix cursor: the trie nodes along the previously
  /// inserted code, node(k) at depth k, the first kDepth inline and any
  /// deeper ones in a heap tail that only codes past kDepth levels touch.
  /// Entries up to `valid` are still usable: none is freed, and none
  /// shallower than `valid` is complete. It lives on the caller's stack,
  /// never in the CodeSet (a planetary run holds 2e5 tables). The path it
  /// holds is also what contraction climbs: nodes keep no parent link.
  struct Cursor {
    static constexpr std::size_t kDepth = 2 * PathCode::kInlineWords;

    std::size_t valid = 0;
    std::int32_t nodes[kDepth] = {};  // nodes[0] is the root, node 0
    std::vector<std::int32_t> tail;   // node(kDepth + j) is tail[j]

    [[nodiscard]] std::int32_t node(std::size_t k) const {
      return k < kDepth ? nodes[k] : tail[k - kDepth];
    }
    void set(std::size_t k, std::int32_t idx) {
      if (k < kDepth) {
        nodes[k] = idx;
        return;
      }
      if (tail.size() <= k - kDepth) tail.resize(k - kDepth + 1);
      tail[k - kDepth] = idx;
    }
  };

  /// insert() of one code that shares exactly `lcp` leading words with the
  /// previously inserted one, resuming from (and then advancing) `cursor`.
  InsertResult insert_at(PathView code, std::size_t lcp, Cursor& cursor);

  std::int32_t alloc_node();
  /// Frees `idx` and its descendants, removing every completed code among
  /// them from the export accounting. `depth` and `body` are idx's depth
  /// and the encoded bytes of the steps leading to it.
  void release_subtree(std::int32_t idx, std::size_t depth, std::size_t body);
  /// Completes the node at the end of `code`'s path (recorded on `path`)
  /// and contracts upward through that path.
  void mark_complete(PathView code, const Cursor& path, InsertResult& res);

  /// Appends `path` at out[n++], overwriting a previous element when one
  /// exists so its heap capacity is recycled.
  static void emit(const PathCode& path, std::vector<PathCode>& out,
                   std::size_t& n);
  /// Element-wise copy with the same capacity-recycling contract as emit().
  static void copy_codes(const std::vector<PathCode>& src,
                         std::vector<PathCode>& out);
  void export_dfs(std::int32_t idx, std::vector<std::uint32_t>& path,
                  std::size_t& keep, CodeList::Rep& out) const;
  void complement_dfs(std::int32_t idx, PathCode& path,
                      std::vector<PathCode>& out, std::size_t& n) const;

  std::vector<Node> nodes_;
  std::vector<std::int32_t> free_list_;
  /// Generation a fresh slot starts from: above every generation issued
  /// before the last clear(), so no hint taken before it can match a slot
  /// allocated after it.
  std::uint32_t gen_floor_ = 0;
  std::size_t complete_count_ = 0;
  std::size_t body_bytes_ = 0;  // sum over completed leaves of code body+header bytes (see encoded_bytes)
  std::size_t live_nodes_ = 0;
  /// Bumped by every mutation that changes the completed set. The export and
  /// complement enumerations are memoized against it: a table gossiped to k
  /// peers (or complemented repeatedly during recovery) between mutations
  /// walks the trie once. The export memo is handed out shared (see
  /// CodeList); the complement memo is copied into the caller's scratch.
  /// The memos cost one contracted list each — small by design
  /// (compactness of the contracted form is the paper's Table 1 point) —
  /// and are lazily built, so tables that never export pay nothing.
  std::uint64_t version_ = 0;
  mutable std::shared_ptr<CodeList::Rep> export_memo_;
  mutable std::uint64_t export_memo_version_ = ~std::uint64_t{0};
  mutable std::vector<PathCode> complement_memo_;
  mutable std::uint64_t complement_memo_version_ = ~std::uint64_t{0};
  /// Mirrors is_complete(0). The termination predicate is polled on
  /// every scheduling step; reading it from the CodeSet object itself (hot
  /// next to the owning worker's state) skips a dependent load into the
  /// nodes_ heap block.
  bool root_complete_ = false;
};

inline bool CodeSet::root_complete() const { return root_complete_; }

}  // namespace ftbb::core
