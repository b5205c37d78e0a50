#include "core/code_set.hpp"

#include <algorithm>

namespace ftbb::core {

CodeSet::CodeSet() { clear(); }

void CodeSet::clear() {
  nodes_.clear();
  free_list_.clear();
  complete_count_ = 0;
  body_bytes_ = 0;
  live_nodes_ = 0;
  root_complete_ = false;
  ++version_;
  // Release memo storage: a cleared table (worker restart, scratch reuse)
  // should not pin the previous incarnation's contracted list. (Batches
  // still in flight keep their own reference to it.)
  export_memo_.reset();
  complement_memo_.clear();
  complement_memo_.shrink_to_fit();
  // Node 0 is always the root problem.
  nodes_.push_back(Node{});
  nodes_[0].in_use = true;
  live_nodes_ = 1;
}

std::int32_t CodeSet::alloc_node() {
  ++live_nodes_;
  if (!free_list_.empty()) {
    const std::int32_t idx = free_list_.back();
    free_list_.pop_back();
    nodes_[static_cast<std::size_t>(idx)] = Node{};
    nodes_[static_cast<std::size_t>(idx)].in_use = true;
    return idx;
  }
  nodes_.push_back(Node{});
  nodes_.back().in_use = true;
  return static_cast<std::int32_t>(nodes_.size() - 1);
}

void CodeSet::free_subtree(std::int32_t idx) {
  Node& n = nodes_[static_cast<std::size_t>(idx)];
  for (const std::int32_t c : n.child) {
    if (c >= 0) free_subtree(c);
  }
  n.in_use = false;
  --live_nodes_;
  free_list_.push_back(idx);
}

void CodeSet::drop_completed_below(std::int32_t idx) {
  // Codes completed somewhere under idx are about to be subsumed by an
  // ancestor; remove them from the export accounting before the subtree is
  // discarded.
  const Node& n = nodes_[static_cast<std::size_t>(idx)];
  if (n.complete) {
    --complete_count_;
    body_bytes_ -= code_bytes(n);
    return;  // complete nodes are leaves; nothing below
  }
  for (const std::int32_t c : n.child) {
    if (c >= 0) drop_completed_below(c);
  }
}

void CodeSet::mark_complete(std::int32_t idx, InsertResult& res) {
  {
    Node& n = nodes_[static_cast<std::size_t>(idx)];
    FTBB_CHECK(!n.complete);
    // Subsume any completions previously recorded inside this subtree.
    for (std::int32_t& c : n.child) {
      if (c >= 0) {
        drop_completed_below(c);
        free_subtree(c);
        c = -1;
      }
    }
    n.complete = true;
    if (idx == 0) root_complete_ = true;
    ++complete_count_;
    body_bytes_ += code_bytes(n);
  }

  // List contraction: while the sibling is also complete, replace the pair
  // by their parent (recursively) — Section 5.3.2.
  std::int32_t cur = idx;
  while (true) {
    const Node& n = nodes_[static_cast<std::size_t>(cur)];
    const std::int32_t parent = n.parent;
    if (parent < 0) break;  // reached the root
    Node& p = nodes_[static_cast<std::size_t>(parent)];
    const std::int32_t sib = p.child[n.bit_in_parent ^ 1];
    if (sib < 0 || !nodes_[static_cast<std::size_t>(sib)].complete) break;

    // Both children complete -> parent complete.
    for (const std::int32_t c : p.child) {
      --complete_count_;
      body_bytes_ -= code_bytes(nodes_[static_cast<std::size_t>(c)]);
      free_subtree(c);
    }
    p.child[0] = -1;
    p.child[1] = -1;
    p.complete = true;
    if (parent == 0) root_complete_ = true;
    ++complete_count_;
    body_bytes_ += code_bytes(p);
    ++res.merges;
    cur = parent;
  }
}

CodeSet::InsertResult CodeSet::insert(PathView code) {
  Cursor cursor;
  return insert_at(code, 0, cursor);
}

CodeSet::InsertResult CodeSet::insert_at(PathView code, std::size_t lcp,
                                         Cursor& cursor) {
  InsertResult res;
  // Resume below the prefix shared with the previous code. Its trie nodes
  // down to depth `valid` are on the cursor; the previous walk passed every
  // one shallower than `valid` without finding it complete and checked its
  // branching variable against the same step word this code has (`lcp` is
  // exact), so a root-down walk would repeat exactly that. Charge
  // invariance: the skipped levels still count as walked.
  std::size_t i = std::min(lcp, cursor.valid);
  res.nodes_walked = static_cast<std::uint32_t>(i);
  std::int32_t cur = cursor.nodes[i];
  for (; i < code.depth(); ++i) {
    Node& n = nodes_[static_cast<std::size_t>(cur)];
    ++res.nodes_walked;
    if (n.complete) {  // covered by an ancestor; nothing to do
      cursor.valid = std::min(i, Cursor::kDepth - 1);
      return res;
    }
    const std::uint32_t var = code.var(i);
    const std::uint8_t bit = code.bit(i);
    if (n.var == kNoVar) {
      n.var = var;
    } else {
      FTBB_CHECK_MSG(n.var == var,
                     "CodeSet: codes disagree on a node's branching variable "
                     "(codes must come from one search tree)");
    }
    std::int32_t next = n.child[bit];
    if (next < 0) {
      next = alloc_node();
      Node& parent = nodes_[static_cast<std::size_t>(cur)];  // realloc-safe refetch
      Node& child = nodes_[static_cast<std::size_t>(next)];
      child.parent = cur;
      child.bit_in_parent = bit;
      child.depth = parent.depth + 1;
      child.body_bytes =
          parent.body_bytes +
          static_cast<std::uint32_t>(support::varint_size(code.word(i)));
      parent.child[bit] = next;
    }
    cur = next;
    if (i + 1 < Cursor::kDepth) cursor.nodes[i + 1] = cur;
  }
  ++res.nodes_walked;
  cursor.valid = std::min(code.depth(), Cursor::kDepth - 1);
  if (nodes_[static_cast<std::size_t>(cur)].complete) return res;
  res.newly_covered = true;
  // The trie changes iff the code is newly covered: fresh nodes are only
  // allocated along a path whose endpoint was not yet complete (and then
  // that endpoint is completed right here), so no-op inserts — common when
  // stale gossip re-reports known completions — keep the memos warm.
  ++version_;
  mark_complete(cur, res);
  // Each merge freed the deepest node left on the path and completed its
  // parent, which is now the deepest usable entry.
  cursor.valid = std::min(code.depth() - res.merges, Cursor::kDepth - 1);
  return res;
}

namespace {

void add_to(CodeSet::InsertResult& total, const CodeSet::InsertResult& r) {
  total.newly_covered = total.newly_covered || r.newly_covered;
  total.nodes_walked += r.nodes_walked;
  total.merges += r.merges;
}

}  // namespace

CodeSet::InsertResult CodeSet::insert_all(const CodeList& codes) {
  Cursor cursor;
  InsertResult total;
  for (CodeList::Iterator it = codes.begin(); it != codes.end(); ++it) {
    add_to(total, insert_at(*it, it.keep(), cursor));
  }
  return total;
}

CodeSet::InsertResult CodeSet::insert_all(std::span<const PathCode> codes) {
  Cursor cursor;
  InsertResult total;
  PathView prev;
  for (const PathCode& c : codes) {
    add_to(total, insert_at(c, common_prefix_len(prev, c), cursor));
    prev = c;
  }
  return total;
}

bool CodeSet::covered(PathView code) const {
  std::int32_t cur = 0;
  for (std::size_t i = 0; i < code.depth(); ++i) {
    const Node& n = nodes_[static_cast<std::size_t>(cur)];
    if (n.complete) return true;
    if (n.var != kNoVar && n.var != code.var(i)) return false;  // different tree region knowledge
    const std::int32_t next = n.child[code.bit(i)];
    if (next < 0) return false;
    cur = next;
  }
  return nodes_[static_cast<std::size_t>(cur)].complete;
}

std::optional<std::size_t> CodeSet::covering_prefix_len(PathView code) const {
  std::int32_t cur = 0;
  for (std::size_t i = 0; i < code.depth(); ++i) {
    const Node& n = nodes_[static_cast<std::size_t>(cur)];
    if (n.complete) return i;
    if (n.var != kNoVar && n.var != code.var(i)) return std::nullopt;
    const std::int32_t next = n.child[code.bit(i)];
    if (next < 0) return std::nullopt;
    cur = next;
  }
  if (nodes_[static_cast<std::size_t>(cur)].complete) return code.depth();
  return std::nullopt;
}

std::optional<PathCode> CodeSet::covering_code(PathView code) const {
  const std::optional<std::size_t> len = covering_prefix_len(code);
  if (!len.has_value()) return std::nullopt;
  return PathCode(code.prefix(*len));
}


void CodeSet::emit(const PathCode& path, std::vector<PathCode>& out,
                   std::size_t& n) {
  if (n < out.size()) {
    out[n] = path;  // copy-assign recycles the element's heap capacity
  } else {
    out.push_back(path);
  }
  ++n;
}

void CodeSet::copy_codes(const std::vector<PathCode>& src,
                         std::vector<PathCode>& out) {
  out.reserve(src.size());
  const std::size_t common = std::min(src.size(), out.size());
  for (std::size_t i = 0; i < common; ++i) out[i] = src[i];
  for (std::size_t i = common; i < src.size(); ++i) out.push_back(src[i]);
  out.resize(src.size());
}

void CodeSet::export_dfs(std::int32_t idx, std::vector<std::uint32_t>& path,
                         std::size_t& keep, CodeList::Rep& out) const {
  const Node& node = nodes_[static_cast<std::size_t>(idx)];
  if (node.complete) {
    // `keep` is the shallowest depth since the previous code: the walk
    // climbed to that node from the previous code's branch and came down
    // the other one, so it is their exact common prefix.
    out.append(PathView(path.data(), path.size()), keep);
    keep = path.size();
    return;
  }
  for (std::uint32_t bit = 0; bit < 2; ++bit) {
    const std::int32_t c = node.child[bit];
    if (c < 0) continue;
    // node.var was validated when the trie learned it.
    path.push_back((node.var << 1) | bit);
    export_dfs(c, path, keep, out);
    path.pop_back();
    keep = std::min(keep, path.size());
  }
}

namespace {

/// True when `memo` is the only reference to its list, so rebuilding it in
/// place cannot touch a batch still being read. A bare use_count() is a
/// relaxed load; taking a reference first is an acquire RMW on the count,
/// which orders the reads of whichever simulator shard dropped the last
/// other copy before the rewrite that follows.
bool sole_owner(const std::shared_ptr<CodeList::Rep>& memo) {
  const std::shared_ptr<CodeList::Rep> probe = memo;
  return probe.use_count() == 2;
}

}  // namespace

CodeList CodeSet::export_codes() const {
  if (complete_count_ == 0) return {};
  if (export_memo_ == nullptr || export_memo_version_ != version_) {
    if (export_memo_ == nullptr || !sole_owner(export_memo_)) {
      export_memo_ = std::make_shared<CodeList::Rep>();
    }
    CodeList::Rep& memo = *export_memo_;
    memo.clear();
    // Each trie edge is descended once, so the own words are fewer than the
    // live nodes; so is the last code, written in full.
    memo.reserve(2 * complete_count_ + 2 * live_nodes_);
    std::vector<std::uint32_t> path;
    path.reserve(Cursor::kDepth);
    std::size_t keep = 0;
    export_dfs(0, path, keep, memo);
    // The last code in DFS order is the rightmost path down to a leaf.
    std::int32_t cur = 0;
    while (!nodes_[static_cast<std::size_t>(cur)].complete) {
      const Node& n = nodes_[static_cast<std::size_t>(cur)];
      const std::uint32_t bit = n.child[1] >= 0 ? 1 : 0;
      path.push_back((n.var << 1) | bit);
      cur = n.child[bit];
    }
    memo.seal(PathView(path.data(), path.size()), body_bytes_);
    export_memo_version_ = version_;
  }
  return CodeList(std::shared_ptr<const CodeList::Rep>(export_memo_));
}

void CodeSet::complement_dfs(std::int32_t idx, PathCode& path,
                             std::vector<PathCode>& out, std::size_t& n) const {
  const Node& node = nodes_[static_cast<std::size_t>(idx)];
  if (node.complete) return;
  if (node.var == kNoVar) {
    // No completion was ever reported below this node: the whole region is
    // uncovered. (Only reachable for the empty table's root.)
    emit(path, out, n);
    return;
  }
  for (std::uint32_t bit = 0; bit < 2; ++bit) {
    const std::int32_t c = node.child[bit];
    if (c < 0) {
      // The sibling region never mentioned in any report; its tree node
      // exists because this node was expanded on node.var.
      path.push_word((node.var << 1) | bit);
      emit(path, out, n);
      path.pop_step();
    } else if (!nodes_[static_cast<std::size_t>(c)].complete) {
      path.push_word((node.var << 1) | bit);
      complement_dfs(c, path, out, n);
      path.pop_step();
    }
  }
}

void CodeSet::complement_into(std::vector<PathCode>& out) const {
  if (complement_memo_version_ != version_) {
    std::size_t n = 0;
    PathCode path;
    complement_dfs(0, path, complement_memo_, n);
    complement_memo_.resize(n);
    complement_memo_version_ = version_;
  }
  copy_codes(complement_memo_, out);
}

std::vector<PathCode> CodeSet::complement() const {
  std::vector<PathCode> out;
  complement_into(out);
  return out;
}

void CodeSet::check_invariants() const {
  std::size_t complete_seen = 0;
  std::size_t bytes_seen = 0;
  std::size_t live_seen = 0;
  // Iterative DFS with explicit parent verification.
  struct Frame {
    std::int32_t idx;
  };
  std::vector<Frame> stack{{0}};
  while (!stack.empty()) {
    const std::int32_t idx = stack.back().idx;
    stack.pop_back();
    const Node& n = nodes_[static_cast<std::size_t>(idx)];
    FTBB_CHECK_MSG(n.in_use, "CodeSet: reachable node not in_use");
    ++live_seen;
    if (n.complete) {
      ++complete_seen;
      bytes_seen += code_bytes(n);
      FTBB_CHECK_MSG(n.child[0] < 0 && n.child[1] < 0,
                     "CodeSet: complete node must be a leaf");
      continue;
    }
    const bool c0 = n.child[0] >= 0 &&
                    nodes_[static_cast<std::size_t>(n.child[0])].complete;
    const bool c1 = n.child[1] >= 0 &&
                    nodes_[static_cast<std::size_t>(n.child[1])].complete;
    FTBB_CHECK_MSG(!(c0 && c1), "CodeSet: uncontracted sibling pair");
    for (int bit = 0; bit < 2; ++bit) {
      const std::int32_t c = n.child[bit];
      if (c < 0) continue;
      const Node& ch = nodes_[static_cast<std::size_t>(c)];
      FTBB_CHECK(ch.parent == idx);
      FTBB_CHECK(ch.bit_in_parent == bit);
      FTBB_CHECK(ch.depth == n.depth + 1);
      stack.push_back({c});
    }
  }
  FTBB_CHECK_MSG(complete_seen == complete_count_, "CodeSet: stale code_count");
  FTBB_CHECK_MSG(bytes_seen == body_bytes_, "CodeSet: stale byte accounting");
  FTBB_CHECK_MSG(live_seen == live_nodes_, "CodeSet: stale live node count");
}

std::string CodeSet::to_string() const {
  std::string s = "{";
  bool first = true;
  for (const PathView c : export_codes()) {
    if (!first) s += ", ";
    first = false;
    s += PathCode(c).to_string();
  }
  s += "}";
  return s;
}

}  // namespace ftbb::core
