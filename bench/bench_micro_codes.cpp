// E14 — microbenchmarks of the fault-tolerance data structures.
//
// These ground the simulator's contraction-cost model: the per-code and
// per-trie-node constants charged as "list contraction time" in the
// experiments can be compared against what the real implementation costs on
// this machine. Self-timed (no external benchmark dependency) and emits
// BENCH_micro_codes.json so the trajectory is tracked across PRs; `--smoke`
// shrinks the measurement windows for CI.
//
// Besides throughput, every bench reports allocs/op and bytes/op via an
// instrumented global allocator (counted over a separate untimed loop so the
// instrumentation never skews the timings). The binary exits nonzero if any
// `*_inline` code derivation allocates: the packed small-buffer PathCode
// guarantees child/sibling/parent are allocation-free at inline depths, and
// CI runs `--smoke` so a regression fails the perf-smoke job.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_timing.hpp"
#include "bnb/basic_tree.hpp"
#include "core/code_set.hpp"
#include "core/messages.hpp"
#include "support/table.hpp"

// --- instrumented global allocator (this bench binary only) ----------------

namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new[](std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace ftbb;
using bench::measure;
using core::CodeSet;
using core::PathCode;

/// Collects every leaf code of a random tree with ~`nodes` nodes.
std::vector<PathCode> leaf_codes(std::uint64_t nodes, std::uint64_t seed) {
  bnb::RandomTreeConfig cfg;
  cfg.target_nodes = nodes;
  cfg.seed = seed;
  const bnb::BasicTree tree = bnb::BasicTree::random(cfg);
  std::vector<PathCode> out;
  std::vector<std::pair<std::int32_t, PathCode>> stack{{0, PathCode::root()}};
  while (!stack.empty()) {
    auto [idx, code] = std::move(stack.back());
    stack.pop_back();
    const auto& n = tree.node(static_cast<std::size_t>(idx));
    if (n.is_leaf()) {
      out.push_back(std::move(code));
      continue;
    }
    for (int bit = 0; bit < 2; ++bit) {
      stack.emplace_back(n.child[bit], code.child(n.var, bit != 0));
    }
  }
  return out;
}

struct Result {
  std::string name;
  double ops_per_sec = 0.0;
  double allocs_per_op = 0.0;
  double bytes_per_op = 0.0;
};

volatile std::size_t g_sink = 0;  // defeats dead-code elimination

/// Counts steady-state allocations of `op`: two warmup calls let lazily
/// grown buffers (scratch vectors, trie node pools) reach their fixed point,
/// then `kCalls` counted repetitions are averaged per logical op.
template <typename Fn>
void count_allocs(Result& r, double ops_per_call, Fn&& op) {
  constexpr int kCalls = 100;
  op();
  op();
  const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
  const std::uint64_t b0 = g_bytes.load(std::memory_order_relaxed);
  for (int i = 0; i < kCalls; ++i) op();
  const double ops = kCalls * ops_per_call;
  r.allocs_per_op =
      static_cast<double>(g_allocs.load(std::memory_order_relaxed) - a0) / ops;
  r.bytes_per_op =
      static_cast<double>(g_bytes.load(std::memory_order_relaxed) - b0) / ops;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const double window = smoke ? 0.02 : 0.2;
  std::printf("E14 / micro benchmarks of codes, tables and reports%s\n\n",
              smoke ? " [smoke]" : "");
  std::vector<Result> results;

  const auto bench = [&](std::string name, double ops_per_call, auto&& op) {
    Result r;
    r.name = std::move(name);
    r.ops_per_sec = measure(window, ops_per_call, op);
    count_allocs(r, ops_per_call, op);
    results.push_back(std::move(r));
  };

  {
    // Depth 8: child lands at depth 9, still inside the inline word buffer.
    // These three must stay at exactly 0 allocs/op (gated below). The
    // derivations are pure and header-inline, so the source code is read
    // through a volatile pointer — otherwise the compiler hoists the whole
    // op out of the measurement loop.
    PathCode code = PathCode::root();
    for (std::uint32_t i = 0; i < 8; ++i) code = code.child(i, i % 2 != 0);
    PathCode* volatile src = &code;
    bench("path_code_child_inline", 1.0, [&] {
      PathCode out = src->child(9, true);
      bench::keep(&out);
    });
    bench("path_code_sibling_inline", 1.0, [&] {
      PathCode out = src->sibling();
      bench::keep(&out);
    });
    bench("path_code_parent_inline", 1.0, [&] {
      PathCode out = src->parent();
      bench::keep(&out);
    });
  }

  for (const int depth : {30, 512}) {
    PathCode code = PathCode::root();
    for (int i = 0; i < depth; ++i) {
      code = code.child(static_cast<std::uint32_t>(i), i % 2 != 0);
    }
    PathCode* volatile src = &code;
    bench("path_code_child_depth" + std::to_string(depth), 1.0, [&] {
      PathCode out = src->child(static_cast<std::uint32_t>(depth) + 1, true);
      bench::keep(&out);
    });
  }

  for (const int depth : {8, 32, 128, 512}) {
    PathCode code = PathCode::root();
    for (int i = 0; i < depth; ++i) {
      code = code.child(static_cast<std::uint32_t>(i), i % 2 != 0);
    }
    bench("path_code_encode_decode_depth" + std::to_string(depth), 1.0, [&] {
      support::ByteWriter w;
      code.encode(w);
      support::ByteReader r(w.data());
      g_sink = g_sink + PathCode::decode(r).depth();
    });
  }

  for (const std::uint64_t nodes : {1001u, 10001u, 100001u}) {
    const auto leaves = leaf_codes(nodes, 11);
    bench("code_set_insert_all_leaves_" + std::to_string(nodes),
          static_cast<double>(leaves.size()), [&] {
            CodeSet set;
            for (const PathCode& c : leaves) set.insert(c);
            g_sink = g_sink + (set.root_complete() ? 1 : 0);
          });
  }

  {
    const auto leaves = leaf_codes(10001, 13);
    CodeSet set;
    // Half completed -> realistic mid-run table.
    for (std::size_t i = 0; i < leaves.size(); i += 2) set.insert(leaves[i]);
    std::size_t i = 0;
    bench("code_set_covered", 1.0, [&] {
      g_sink = g_sink + (set.covered(leaves[i]) ? 1 : 0);
      i = (i + 1) % leaves.size();
    });
  }

  {
    // A receiver merging 8-code work reports into a growing table.
    const auto leaves = leaf_codes(20001, 17);
    bench("code_set_merge_8code_reports",
          static_cast<double>(leaves.size() / 8), [&] {
            CodeSet table;
            std::vector<PathCode> report;
            for (const PathCode& c : leaves) {
              report.push_back(c);
              if (report.size() == 8) {
                table.insert_all(report);
                report.clear();
              }
            }
            g_sink = g_sink + table.code_count();
          });
  }

  {
    // The recovery path's pattern: one persistent scratch buffer per worker,
    // overwritten in place each call. `_fresh` is the allocating wrapper.
    const auto leaves = leaf_codes(10001, 19);
    CodeSet set;
    for (std::size_t i = 0; i < leaves.size(); i += 3) set.insert(leaves[i]);
    std::vector<PathCode> scratch;
    bench("code_set_complement", 1.0, [&] {
      set.complement_into(scratch);
      g_sink = g_sink + scratch.size();
    });
    bench("code_set_complement_fresh", 1.0,
          [&] { g_sink = g_sink + set.complement().size(); });
  }

  {
    // The gossip/report path between mutations: the export memo is handed
    // out shared, so a repeated export is a refcount bump.
    const auto leaves = leaf_codes(10001, 23);
    CodeSet set;
    for (std::size_t i = 0; i < leaves.size(); i += 2) set.insert(leaves[i]);
    bench("code_set_export", 1.0,
          [&] { g_sink = g_sink + set.export_codes().size(); });
  }

  {
    // A table gossip arriving: a peer's full export (~2.7k codes, DFS
    // order) merged into a receiver that already holds about half of it.
    // Each op copies the receiving table first, so the row includes that.
    const auto leaves = leaf_codes(11001, 31);
    CodeSet peer;
    CodeSet receiver;
    for (std::size_t i = 0; i < leaves.size(); ++i) {
      if (i % 2 == 0) peer.insert(leaves[i]);
      if (i % 4 == 0 || i % 4 == 3) receiver.insert(leaves[i]);
    }
    const core::CodeList gossip = peer.export_codes();
    bench("code_set_merge_gossip_export", 1.0, [&] {
      CodeSet table = receiver;
      g_sink = g_sink + table.insert_all(gossip).nodes_walked;
    });

    core::Message msg;
    msg.type = core::MsgType::kTableGossip;
    msg.from = 3;
    msg.best_known = -123.0;
    msg.codes = gossip;
    bench("message_wire_size_table_gossip", 1.0,
          [&] { g_sink = g_sink + msg.wire_size(); });
  }

  for (const int codes : {8, 64}) {
    const auto leaves = leaf_codes(2001, 29);
    core::Message msg;
    msg.type = core::MsgType::kWorkReport;
    msg.from = 3;
    msg.best_known = -123.0;
    std::vector<PathCode> batch;
    for (int i = 0; i < codes; ++i) {
      batch.push_back(leaves[static_cast<std::size_t>(i) % leaves.size()]);
    }
    msg.codes = core::CodeList(batch);
    bench("work_report_encode_decode_" + std::to_string(codes) + "codes", 1.0,
          [&] {
            support::ByteWriter w;
            msg.encode(w);
            support::ByteReader r(w.data());
            g_sink = g_sink + core::Message::decode(r).codes.size();
          });
  }

  support::TextTable table({"bench", "ops/s", "allocs/op", "bytes/op"});
  for (const Result& r : results) {
    table.row({r.name, support::TextTable::num(r.ops_per_sec, 0),
               support::TextTable::num(r.allocs_per_op, 2),
               support::TextTable::num(r.bytes_per_op, 0)});
  }
  std::printf("%s", table.render().c_str());

  FILE* json = bench::open_bench_json("BENCH_micro_codes.json", "micro_codes");
  if (json == nullptr) return 1;
  std::fprintf(json, "  \"smoke\": %s,\n  \"results\": [\n",
               smoke ? "true" : "false");
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::fprintf(json,
                 "    {\"name\": \"%s\", \"ops_per_sec\": %.0f, "
                 "\"allocs_per_op\": %.3f, \"bytes_per_op\": %.1f}%s\n",
                 results[i].name.c_str(), results[i].ops_per_sec,
                 results[i].allocs_per_op, results[i].bytes_per_op,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\nwrote BENCH_micro_codes.json\n");

  // Gate: inline-depth code derivations must be allocation-free.
  int rc = 0;
  for (const Result& r : results) {
    if (r.name.find("_inline") != std::string::npos && r.allocs_per_op != 0.0) {
      std::fprintf(stderr, "GATE FAIL: %s allocates %.3f/op (expected 0)\n",
                   r.name.c_str(), r.allocs_per_op);
      rc = 1;
    }
  }
  return rc;
}
