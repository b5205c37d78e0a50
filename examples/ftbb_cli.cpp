// Generic command-line driver: solve any built-in problem on the simulated
// cluster with configurable failures — no code required.
//
//   ftbb_cli --problem knapsack|vertex-cover|partition|tree
//            [--workers N] [--seed S] [--size N]
//            [--crash FRACTION ...]   kill one worker at FRACTION of the
//                                     failure-free makespan (repeatable)
//            [--loss P]               i.i.d. message loss probability
//            [--trace]                print the activity timeline
//
// Example: ./ftbb_cli --problem partition --workers 6 --crash 0.4 --crash 0.6
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bnb/basic_tree.hpp"
#include "bnb/knapsack.hpp"
#include "bnb/partition.hpp"
#include "bnb/vertex_cover.hpp"
#include "sim/cluster.hpp"
#include "support/table.hpp"

namespace {

struct Options {
  std::string problem = "knapsack";
  std::uint32_t workers = 4;
  std::uint64_t seed = 1;
  std::size_t size = 0;  // 0 = per-problem default
  std::vector<double> crash_fractions;
  double loss = 0.0;
  bool trace = false;
};

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return ++i < argc ? argv[i] : nullptr;
    };
    if (arg == "--problem") {
      const char* v = next();
      if (!v) return false;
      opt.problem = v;
    } else if (arg == "--workers") {
      const char* v = next();
      if (!v) return false;
      opt.workers = static_cast<std::uint32_t>(std::atoi(v));
    } else if (arg == "--seed") {
      const char* v = next();
      if (!v) return false;
      opt.seed = static_cast<std::uint64_t>(std::atoll(v));
    } else if (arg == "--size") {
      const char* v = next();
      if (!v) return false;
      opt.size = static_cast<std::size_t>(std::atoll(v));
    } else if (arg == "--crash") {
      const char* v = next();
      if (!v) return false;
      opt.crash_fractions.push_back(std::atof(v));
    } else if (arg == "--loss") {
      const char* v = next();
      if (!v) return false;
      opt.loss = std::atof(v);
    } else if (arg == "--trace") {
      opt.trace = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ftbb;
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: %s [--problem knapsack|vertex-cover|partition|tree] "
                 "[--workers N] [--seed S] [--size N] [--crash F]... "
                 "[--loss P] [--trace]\n",
                 argv[0]);
    return 2;
  }

  // Build the requested problem. Tree problems own their BasicTree.
  std::unique_ptr<bnb::IProblemModel> model;
  std::unique_ptr<bnb::BasicTree> tree;
  bnb::NodeCostModel cost;
  cost.mean = 5e-3;
  cost.seed = opt.seed;
  if (opt.problem == "knapsack") {
    const std::size_t items = opt.size ? opt.size : 18;
    model = std::make_unique<bnb::KnapsackModel>(
        bnb::KnapsackInstance::strongly_correlated(items, 100, 0.5, opt.seed),
        cost);
  } else if (opt.problem == "vertex-cover") {
    const auto n = static_cast<std::uint32_t>(opt.size ? opt.size : 22);
    model = std::make_unique<bnb::VertexCoverModel>(
        bnb::Graph::gnp(n, 0.3, opt.seed), cost);
  } else if (opt.problem == "partition") {
    const std::size_t n = opt.size ? opt.size : 16;
    model = std::make_unique<bnb::PartitionModel>(
        bnb::PartitionInstance::random(n, 300, opt.seed), cost);
  } else if (opt.problem == "tree") {
    bnb::RandomTreeConfig tc;
    tc.target_nodes = opt.size ? opt.size : 4001;
    tc.seed = opt.seed;
    tc.cost_mean = cost.mean;
    tree = std::make_unique<bnb::BasicTree>(bnb::BasicTree::random(tc));
    model = std::make_unique<bnb::TreeProblem>(tree.get(), false);
  } else {
    std::fprintf(stderr, "unknown problem: %s\n", opt.problem.c_str());
    return 2;
  }

  sim::ClusterConfig cfg;
  cfg.workers = opt.workers;
  cfg.seed = opt.seed;
  cfg.worker.report_batch = 8;
  cfg.worker.report_flush_interval = 0.1;
  cfg.worker.table_gossip_interval = 0.5;
  cfg.worker.work_request_timeout = 0.02;
  cfg.worker.idle_backoff = 0.01;
  cfg.net.loss_prob = opt.loss;
  cfg.record_trace = opt.trace;
  cfg.time_limit = 1e5;

  // Crash fractions are relative to the failure-free makespan.
  if (!opt.crash_fractions.empty()) {
    const sim::ClusterResult baseline = sim::SimCluster::run(*model, cfg);
    if (!baseline.all_live_halted) {
      std::fprintf(stderr, "baseline run did not terminate\n");
      return 1;
    }
    core::NodeId victim = 1 % opt.workers;
    for (const double fraction : opt.crash_fractions) {
      cfg.crashes.push_back({victim, baseline.makespan * fraction});
      victim = (victim + 1) % opt.workers;
      if (victim == 0) victim = 1 % opt.workers;  // keep one stable survivor
    }
  }

  const sim::ClusterResult res = sim::SimCluster::run(*model, cfg);
  if (opt.trace) std::printf("%s\n", res.timeline.render_ascii(opt.workers, 100).c_str());

  std::printf("problem     : %s (seed %llu)\n", model->name().c_str(),
              static_cast<unsigned long long>(opt.seed));
  std::printf("workers     : %u (%zu crash injections, %.0f%% loss)\n", opt.workers,
              cfg.crashes.size(), opt.loss * 100.0);
  std::printf("terminated  : %s\n", res.all_live_halted ? "yes" : "NO");
  std::printf("solution    : %g", res.solution);
  if (model->known_optimal().has_value()) {
    std::printf(" (optimum %g, %s)", *model->known_optimal(),
                res.solution == *model->known_optimal() ? "match" : "MISMATCH");
  }
  std::printf("\nmakespan    : %.3f virtual seconds\n", res.makespan);
  std::printf("expanded    : %llu (%llu redundant)\n",
              static_cast<unsigned long long>(res.total_expanded),
              static_cast<unsigned long long>(res.redundant_expansions));
  std::printf("messages    : %llu (%.1f KB, %llu lost)\n",
              static_cast<unsigned long long>(res.net.messages_sent),
              static_cast<double>(res.net.bytes_sent) / 1024.0,
              static_cast<unsigned long long>(res.net.messages_lost));
  return res.all_live_halted ? 0 : 1;
}
