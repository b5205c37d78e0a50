#include "core/code_set.hpp"

#include <algorithm>

namespace ftbb::core {

CodeSet::CodeSet() { clear(); }

void CodeSet::clear() {
  // Generations stay monotone across the reset: fresh slots start above
  // every generation issued so far.
  for (const Node& n : nodes_) gen_floor_ = std::max(gen_floor_, n.gen + 1);
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
  alloc_node();
}

std::int32_t CodeSet::alloc_node() {
  ++live_nodes_;
  std::int32_t idx;
  if (!free_list_.empty()) {
    idx = free_list_.back();
    free_list_.pop_back();
  } else {
    idx = static_cast<std::int32_t>(nodes_.size());
    nodes_.push_back(Node{.gen = gen_floor_ | 1u});
    return idx;
  }
  Node& n = nodes_[static_cast<std::size_t>(idx)];
  n.var = kNoVar;
  n.child[0] = -1;
  n.child[1] = -1;
  ++n.gen;
  return idx;
}

void CodeSet::release_subtree(std::int32_t idx, std::size_t depth,
                              std::size_t body) {
  Node& n = nodes_[static_cast<std::size_t>(idx)];
  if (is_complete(n)) {
    // A code subsumed by a completing ancestor leaves the export.
    --complete_count_;
    body_bytes_ -= support::varint_size(depth) + body;
  } else {
    for (std::uint32_t bit = 0; bit < 2; ++bit) {
      const std::int32_t c = n.child[bit];
      if (c < 0) continue;
      release_subtree(c, depth + 1,
                      body + support::varint_size((n.var << 1) | bit));
    }
  }
  ++n.gen;
  --live_nodes_;
  free_list_.push_back(idx);
}

void CodeSet::mark_complete(PathView code, const Cursor& path,
                            InsertResult& res) {
  std::size_t depth = code.depth();
  // Encoded bytes of the steps down to `depth` (the code's size without its
  // depth header).
  std::size_t body = code.encoded_size() - support::varint_size(depth);
  {
    const std::int32_t idx = path.node(depth);
    Node& n = nodes_[static_cast<std::size_t>(idx)];
    // Subsume any completions previously recorded inside this subtree.
    for (std::uint32_t bit = 0; bit < 2; ++bit) {
      const std::int32_t c = n.child[bit];
      if (c < 0) continue;
      release_subtree(c, depth + 1,
                      body + support::varint_size((n.var << 1) | bit));
    }
    n.child[0] = kComplete;
    n.child[1] = -1;
    if (idx == 0) root_complete_ = true;
    ++complete_count_;
    body_bytes_ += support::varint_size(depth) + body;
  }

  // List contraction: while the sibling is also complete, replace the pair
  // by their parent (recursively) — Section 5.3.2. The parent is the
  // previous node on the path.
  for (; depth > 0; --depth) {
    const std::int32_t parent = path.node(depth - 1);
    Node& p = nodes_[static_cast<std::size_t>(parent)];
    const std::int32_t sib = p.child[code.bit(depth - 1) ^ 1];
    if (sib < 0 || !is_complete(sib)) break;

    // Both children complete -> parent complete.
    body -= support::varint_size(code.word(depth - 1));
    for (std::uint32_t bit = 0; bit < 2; ++bit) {
      release_subtree(p.child[bit], depth,
                      body + support::varint_size((p.var << 1) | bit));
    }
    p.child[0] = kComplete;
    p.child[1] = -1;
    if (parent == 0) root_complete_ = true;
    ++complete_count_;
    body_bytes_ += support::varint_size(depth - 1) + body;
    ++res.merges;
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
  std::int32_t cur = cursor.node(i);
  for (; i < code.depth(); ++i) {
    Node& n = nodes_[static_cast<std::size_t>(cur)];
    ++res.nodes_walked;
    if (is_complete(n)) {  // covered by an ancestor; nothing to do
      cursor.valid = i;
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
      // Refetched: alloc_node may have reallocated nodes_.
      nodes_[static_cast<std::size_t>(cur)].child[bit] = next;
    }
    cur = next;
    cursor.set(i + 1, cur);
  }
  ++res.nodes_walked;
  cursor.valid = code.depth();
  if (is_complete(cur)) return res;
  res.newly_covered = true;
  // The trie changes iff the code is newly covered: fresh nodes are only
  // allocated along a path whose endpoint was not yet complete (and then
  // that endpoint is completed right here), so no-op inserts — common when
  // stale gossip re-reports known completions — keep the memos warm.
  ++version_;
  mark_complete(code, cursor, res);
  // Each merge freed the deepest node left on the path and completed its
  // parent, which is now the deepest usable entry.
  cursor.valid = code.depth() - res.merges;
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

bool CodeSet::covered(PathView code, LookupHint& hint) const {
  // Resume at the hinted node while its slot still holds the node the hint
  // names (see the file comment for why the path above it is unchanged).
  std::int32_t cur = 0;
  std::size_t i = 0;
  if (static_cast<std::size_t>(hint.node) < nodes_.size() &&
      nodes_[static_cast<std::size_t>(hint.node)].gen == hint.gen &&
      hint.depth <= code.depth()) {
    cur = hint.node;
    i = hint.depth;
  }
  bool found = false;
  for (; i < code.depth(); ++i) {
    const Node& n = nodes_[static_cast<std::size_t>(cur)];
    if (is_complete(n)) {
      found = true;
      break;
    }
    // A node without a learned variable has no children, and a variable
    // that differs means the code leaves the known region: either way no
    // completion lies on the code's path.
    const std::int32_t next = n.child[code.bit(i)];
    if (n.var != code.var(i) || next < 0) break;
    cur = next;
  }
  if (i == code.depth()) found = is_complete(cur);
  hint = LookupHint{cur, nodes_[static_cast<std::size_t>(cur)].gen,
                    static_cast<std::uint32_t>(i)};
  return found;
}

std::optional<PathCode> CodeSet::covering_code(PathView code) const {
  // A covered walk stops at the highest complete node on the code's path.
  LookupHint stop;
  if (!covered(code, stop)) return std::nullopt;
  return PathCode(code.prefix(stop.depth));
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
  if (is_complete(node)) {
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
    while (!is_complete(cur)) {
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
  if (is_complete(node)) return;
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
    } else if (!is_complete(c)) {
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
  // Iterative DFS carrying each node's depth and step bytes down from the
  // root, the way the walks derive them.
  struct Frame {
    std::int32_t idx;
    std::size_t depth;
    std::size_t body;
  };
  std::vector<Frame> stack{{0, 0, 0}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    const Node& n = nodes_[static_cast<std::size_t>(f.idx)];
    FTBB_CHECK_MSG(n.gen % 2 == 1, "CodeSet: reachable node not live");
    ++live_seen;
    if (is_complete(n)) {
      ++complete_seen;
      bytes_seen += support::varint_size(f.depth) + f.body;
      FTBB_CHECK_MSG(n.child[1] < 0, "CodeSet: complete node must be a leaf");
      continue;
    }
    FTBB_CHECK_MSG(n.child[0] >= -1 && n.child[1] >= -1,
                   "CodeSet: completion sentinel off child[0]");
    FTBB_CHECK_MSG(!(n.child[0] >= 0 && n.child[1] >= 0 &&
                     is_complete(n.child[0]) && is_complete(n.child[1])),
                   "CodeSet: uncontracted sibling pair");
    for (std::uint32_t bit = 0; bit < 2; ++bit) {
      const std::int32_t c = n.child[bit];
      if (c < 0) continue;
      FTBB_CHECK_MSG(n.var != kNoVar, "CodeSet: child below an unbranched node");
      stack.push_back({c, f.depth + 1,
                       f.body + support::varint_size((n.var << 1) | bit)});
    }
  }
  std::size_t live_slots = 0;
  for (const Node& n : nodes_) live_slots += n.gen % 2;
  for (const std::int32_t idx : free_list_) {
    FTBB_CHECK_MSG(nodes_[static_cast<std::size_t>(idx)].gen % 2 == 0,
                   "CodeSet: live slot on the free list");
  }
  FTBB_CHECK_MSG(complete_seen == complete_count_, "CodeSet: stale code_count");
  FTBB_CHECK_MSG(bytes_seen == body_bytes_, "CodeSet: stale byte accounting");
  FTBB_CHECK_MSG(live_seen == live_nodes_, "CodeSet: stale live node count");
  FTBB_CHECK_MSG(live_slots == live_nodes_,
                 "CodeSet: live slot unreachable from the root");
  FTBB_CHECK_MSG(live_slots + free_list_.size() == nodes_.size(),
                 "CodeSet: slot neither live nor free");
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
