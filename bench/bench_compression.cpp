// E6 — work-report compression vs load (Section 5.3.2) plus the wire-layer
// comparison: the same traffic priced under the legacy flat encoding and the
// v1 delta-coded frames.
//
// "Simulations performed on real B&B trees confirmed that the compression
// rate is better when processors are sufficiently loaded: the taller the
// subtree completed locally, the larger the number of codes that do not
// need to be sent."
//
// Two sweeps on a fixed exhaustive tree:
//   (a) report batch size c — more completions per report => taller merged
//       subtrees => fewer codes per completion;
//   (b) processor count — more processors => fewer completions each => the
//       same batch covers scattered regions => weaker compression.
// Every run speaks kV1 on the wire; the frame codec prices the identical
// traffic in the legacy encoding as it goes (WireStats.flat_bytes), so one
// run yields both sides of the comparison. Results land in
// BENCH_compression.json. `--smoke` shrinks the tree and the sweeps for CI.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_timing.hpp"
#include "bench/workloads.hpp"

namespace {

struct Cell {
  std::string sweep;  // "batch" or "procs"
  std::uint32_t procs = 0;
  std::uint32_t batch = 0;
  double codes_per_completion = 0.0;
  double v1_bytes_per_node = 0.0;
  double legacy_bytes_per_node = 0.0;
  double v1_report_bytes_per_node = 0.0;
  double legacy_report_bytes_per_node = 0.0;
  double msgs_per_node = 0.0;
  double report_reduction = 0.0;  // 1 - v1/legacy over report frames
  std::uint64_t self_contained = 0;
  std::uint64_t delta = 0;
};

Cell measure(const ftbb::bnb::TreeProblem& problem, std::uint32_t procs,
             std::uint32_t batch, const char* sweep) {
  using namespace ftbb;
  sim::ClusterConfig cfg = bench::small_cluster_config(procs, 17);
  cfg.worker.report_batch = batch;
  cfg.worker.report_flush_interval = 5.0;  // let batches fill
  cfg.worker.compress_against_table = true;
  cfg.wire = core::FrameVersion::kV1;
  const sim::ClusterResult res = sim::SimCluster::run(problem, cfg);

  Cell c;
  c.sweep = sweep;
  c.procs = procs;
  c.batch = batch;
  const double nodes = static_cast<double>(res.total_expanded);
  c.codes_per_completion =
      static_cast<double>(res.work[core::WorkItem::kReportCodesSent]) /
      static_cast<double>(res.work[core::WorkItem::kCompletions]);
  c.v1_bytes_per_node = static_cast<double>(res.wire.frame_bytes) / nodes;
  c.legacy_bytes_per_node = static_cast<double>(res.wire.flat_bytes) / nodes;
  c.v1_report_bytes_per_node =
      static_cast<double>(res.wire.report_frame_bytes) / nodes;
  c.legacy_report_bytes_per_node =
      static_cast<double>(res.wire.report_flat_bytes) / nodes;
  c.msgs_per_node = static_cast<double>(res.wire.frames) / nodes;
  c.report_reduction =
      res.wire.report_flat_bytes > 0
          ? 1.0 - static_cast<double>(res.wire.report_frame_bytes) /
                      static_cast<double>(res.wire.report_flat_bytes)
          : 0.0;
  c.self_contained = res.wire.self_contained_reports;
  c.delta = res.wire.delta_reports;
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ftbb;
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  std::printf("E6 / compression rate vs load (Section 5.3.2 claim)%s\n\n",
              smoke ? " [smoke]" : "");

  bnb::RandomTreeConfig tree_cfg;
  tree_cfg.target_nodes = smoke ? 4001 : 20001;
  tree_cfg.cost_mean = 0.01;
  tree_cfg.seed = 17;
  const bnb::BasicTree tree = bnb::BasicTree::random(tree_cfg);
  bnb::TreeProblem problem(&tree, /*honor_bounds=*/false);

  std::vector<Cell> cells;

  std::printf("(a) batch size sweep at 4 processors (lower = better)\n");
  support::TextTable ta({"batch c", "codes/compl", "v1 B/node", "legacy B/node",
                         "report reduction"});
  const std::vector<std::uint32_t> batches =
      smoke ? std::vector<std::uint32_t>{4, 16}
            : std::vector<std::uint32_t>{2, 4, 8, 16, 32, 64};
  for (const std::uint32_t batch : batches) {
    const Cell c = measure(problem, 4, batch, "batch");
    cells.push_back(c);
    ta.row({std::to_string(batch),
            support::TextTable::num(c.codes_per_completion, 3),
            support::TextTable::num(c.v1_bytes_per_node, 2),
            support::TextTable::num(c.legacy_bytes_per_node, 2),
            support::TextTable::num(100.0 * c.report_reduction, 1) + "%"});
  }
  std::printf("%s\n", ta.render().c_str());

  std::printf("(b) processor sweep at batch c=16\n");
  support::TextTable tb({"procs", "codes/compl", "v1 B/node", "legacy B/node",
                         "msgs/node", "report reduction"});
  const std::vector<std::uint32_t> procs_sweep =
      smoke ? std::vector<std::uint32_t>{2, 8}
            : std::vector<std::uint32_t>{1, 2, 4, 8, 16, 32};
  for (const std::uint32_t procs : procs_sweep) {
    const Cell c = measure(problem, procs, 16, "procs");
    cells.push_back(c);
    tb.row({std::to_string(procs),
            support::TextTable::num(c.codes_per_completion, 3),
            support::TextTable::num(c.v1_bytes_per_node, 2),
            support::TextTable::num(c.legacy_bytes_per_node, 2),
            support::TextTable::num(c.msgs_per_node, 3),
            support::TextTable::num(100.0 * c.report_reduction, 1) + "%"});
  }
  std::printf("%s\n", tb.render().c_str());

  bool v1_wins_everywhere = true;
  for (const Cell& c : cells) {
    // A solo run reports to nobody; only cells with report traffic count.
    if (c.legacy_report_bytes_per_node > 0.0 &&
        c.v1_report_bytes_per_node >= c.legacy_report_bytes_per_node) {
      v1_wins_everywhere = false;
    }
  }

  FILE* json = bench::open_bench_json("BENCH_compression.json", "compression");
  if (json == nullptr) return 1;
  std::fprintf(json,
               "  \"workload\": \"basic-tree-%u\",\n  \"smoke\": %s,\n"
               "  \"v1_reduces_report_bytes_everywhere\": %s,\n  \"cells\": [\n",
               tree_cfg.target_nodes, smoke ? "true" : "false",
               v1_wins_everywhere ? "true" : "false");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(
        json,
        "    {\"sweep\": \"%s\", \"procs\": %u, \"batch\": %u, "
        "\"codes_per_completion\": %.4f, \"msgs_per_node\": %.4f, "
        "\"v1_bytes_per_node\": %.4f, \"legacy_bytes_per_node\": %.4f, "
        "\"v1_report_bytes_per_node\": %.4f, "
        "\"legacy_report_bytes_per_node\": %.4f, "
        "\"report_reduction\": %.4f, "
        "\"self_contained_reports\": %llu, \"delta_reports\": %llu}%s\n",
        c.sweep.c_str(), c.procs, c.batch, c.codes_per_completion,
        c.msgs_per_node, c.v1_bytes_per_node, c.legacy_bytes_per_node,
        c.v1_report_bytes_per_node, c.legacy_report_bytes_per_node,
        c.report_reduction, static_cast<unsigned long long>(c.self_contained),
        static_cast<unsigned long long>(c.delta),
        i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_compression.json\n");

  std::printf("\nexpected shape: compression improves (codes/completion falls)\n"
              "with larger batches and degrades as the same tree is spread over\n"
              "more processors; v1 frames undercut the legacy flat encoding on\n"
              "report bytes in every cell (%s here).\n",
              v1_wins_everywhere ? "holds" : "VIOLATED");
  return v1_wins_everywhere ? 0 : 1;
}
