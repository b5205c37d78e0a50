// Whole-run benchmark of the simulated decentralized B&B (see README.md).
//
// Each workload goes through the public API only:
//   sim::build_workload / bench::large_problem_dense  (setup.workload)
//   -> fault::FaultSchedule::compile                   (setup.schedule)
//   -> sim::SimCluster::run                            (sim.run)
// and every run's output is checked before any number is reported.
//
//   e2e_bench --workload table1-dense|planetary-storm|fault-corpus
//             --seed N --seconds T --trace 0|1 [--smoke] [--out DIR]
//
// --trace 0 measures the end-to-end metrics with no instrumentation at all.
// --trace 1 alternates an untraced run with a traced one (spans around
// setup, around SimCluster::run and, through a timing decorator on the
// problem model, around every eval and bound_of call), checks that the two
// simulated identical counters, and reports the per-layer metrics. Spans
// stay in memory and are written to DIR/spans-<workload>.csv at exit.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "bench/bench_timing.hpp"
#include "bench/workloads.hpp"
#include "fault/schedule.hpp"
#include "sim/cluster.hpp"
#include "sim/fault_plan.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace ftbb;
using bench::now_seconds;

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

enum SpanName : std::uint32_t {
  kSetup,
  kSetupWorkload,
  kSetupSchedule,
  kRun,
  kEval,
  kBoundOf,
};
constexpr const char* kSpanNames[] = {"setup",   "setup.workload", "setup.schedule",
                                      "sim.run", "bnb.eval",       "bnb.bound_of"};

struct Span {
  SpanName name = kSetup;
  std::int64_t parent = -1;  // index of the span that caused this one
  double t0 = 0.0;
  double t1 = 0.0;
};

/// In-memory span log. record() is called from the simulation's dispatch
/// threads (the problem model is shared across them), hence the mutex.
class Tracer {
 public:
  std::int64_t open(SpanName name, std::int64_t parent) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, parent, now_seconds(), 0.0});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  double close(std::int64_t id) {
    std::lock_guard<std::mutex> lock(mu_);
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.t1 = now_seconds();
    return s.t1 - s.t0;
  }
  void record(SpanName name, std::int64_t parent, double t0, double t1) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, parent, t0, t1});
  }
  /// Appends spans recorded by another tracer (a child process), re-basing
  /// their parent links.
  void splice(const std::vector<Span>& spans) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto base = static_cast<std::int64_t>(spans_.size());
    for (Span s : spans) {
      if (s.parent >= 0) s.parent += base;
      spans_.push_back(s);
    }
  }
  void truncate(std::size_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.resize(std::min(n, spans_.size()));
  }
  // Unlocked readers: call only while no simulation is running.
  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  bool write_csv(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id,parent,name,start_s,end_s\n");
    const double origin = spans_.empty() ? 0.0 : spans_.front().t0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu,%lld,%s,%.9f,%.9f\n", i,
                   static_cast<long long>(s.parent), kSpanNames[s.name],
                   s.t0 - origin, s.t1 - origin);
    }
    return std::fclose(f) == 0;
  }

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Timing decorator: forwards every call to the wrapped model and records a
/// span around each eval and bound_of. Results are untouched, so a traced
/// run must simulate exactly what the untraced run did.
class TimedModel final : public bnb::IProblemModel {
 public:
  TimedModel(const bnb::IProblemModel& inner, Tracer& tracer, std::int64_t parent)
      : inner_(inner), tracer_(tracer), parent_(parent) {}

  [[nodiscard]] double root_bound() const override { return inner_.root_bound(); }
  [[nodiscard]] bnb::NodeEval eval(const core::PathCode& code) const override {
    const double t0 = now_seconds();
    bnb::NodeEval out = inner_.eval(code);
    tracer_.record(kEval, parent_, t0, now_seconds());
    return out;
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] double bound_of(const core::PathCode& code) const override {
    const double t0 = now_seconds();
    const double out = inner_.bound_of(code);
    tracer_.record(kBoundOf, parent_, t0, now_seconds());
    return out;
  }
  [[nodiscard]] std::optional<double> known_optimal() const override {
    return inner_.known_optimal();
  }

 private:
  const bnb::IProblemModel& inner_;
  Tracer& tracer_;
  std::int64_t parent_;
};

// ---------------------------------------------------------------------------
// One simulated run and what it measured
// ---------------------------------------------------------------------------

/// A SimCluster run plus the outcome its output is checked against.
struct Scenario {
  std::string label;
  const bnb::IProblemModel* model = nullptr;
  sim::ClusterConfig cfg;
  double optimum = 0.0;
  bool expect_termination = true;  // false: truncated at cfg.time_limit
  std::uint64_t expect_unique = 0;  // 0: no node-count check
  std::uint64_t crashes_injected = 0;
};

/// Everything one run reports. Trivially copyable: a corpus child process
/// ships it to the parent through a pipe.
struct RunStats {
  std::uint64_t runs = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;  // a halted worker or incumbent off the optimum
  double wall_s = 0.0;
  std::uint64_t kernel_events = 0;
  double makespan = 0.0;
  double vtime[core::kCostKinds] = {0, 0, 0, 0, 0};
  std::uint64_t expansions = 0;
  std::uint64_t unique = 0;
  std::uint64_t redundant = 0;
  sim::Network::Stats net;
  sim::WireStats wire;
  core::WorkLedger work;
  std::uint64_t peak_table_bytes = 0;
  std::uint64_t peak_table_unique_bytes = 0;
  std::uint64_t crashes_injected = 0;
  // Traced runs only.
  double run_self_s = 0.0;
  std::uint64_t eval_calls = 0;
  double eval_s = 0.0;
  std::uint64_t bound_of_calls = 0;
  double bound_of_s = 0.0;
  // Identity of the simulated counters (order-sensitive across scenarios).
  std::uint64_t fingerprint = 0xcbf29ce484222325ULL;

  void add(const RunStats& o) {
    runs += o.runs;
    failed += o.failed;
    wrong += o.wrong;
    wall_s += o.wall_s;
    kernel_events += o.kernel_events;
    makespan += o.makespan;
    for (int k = 0; k < core::kCostKinds; ++k) vtime[k] += o.vtime[k];
    expansions += o.expansions;
    unique += o.unique;
    redundant += o.redundant;
    net.messages_sent += o.net.messages_sent;
    net.messages_delivered += o.net.messages_delivered;
    net.messages_lost += o.net.messages_lost;
    net.messages_partitioned += o.net.messages_partitioned;
    net.bytes_sent += o.net.bytes_sent;
    net.bytes_delivered += o.net.bytes_delivered;
    wire.add(o.wire);
    work.add(o.work);
    peak_table_bytes += o.peak_table_bytes;
    peak_table_unique_bytes += o.peak_table_unique_bytes;
    crashes_injected += o.crashes_injected;
    run_self_s += o.run_self_s;
    eval_calls += o.eval_calls;
    eval_s += o.eval_s;
    bound_of_calls += o.bound_of_calls;
    bound_of_s += o.bound_of_s;
    mix(o.fingerprint);
  }

  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      fingerprint ^= (v >> (8 * i)) & 0xffU;
      fingerprint *= 0x100000001b3ULL;
    }
  }
  void mix(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
  }
};

static_assert(std::is_trivially_copyable_v<RunStats>);
static_assert(std::is_trivially_copyable_v<Span>);

std::uint64_t to_u64(std::size_t v) { return static_cast<std::uint64_t>(v); }

RunStats collect(const Scenario& s, const sim::ClusterResult& res, double wall) {
  RunStats st;
  st.runs = 1;
  st.wall_s = wall;
  st.kernel_events = res.kernel_events;
  st.makespan = res.makespan;
  for (int k = 0; k < core::kCostKinds; ++k) st.vtime[k] = res.total_time[k];
  st.expansions = res.total_expanded;
  st.unique = res.unique_expanded;
  st.redundant = res.redundant_expansions;
  st.net = res.net;
  st.wire = res.wire;
  st.work = res.work;
  st.peak_table_bytes = to_u64(res.peak_table_bytes_total);
  st.peak_table_unique_bytes = to_u64(res.peak_table_bytes_unique);
  st.crashes_injected = s.crashes_injected;

  // The paper's theorem: a worker that detected termination holds exactly
  // the global optimum, and no incumbent ever beats it.
  for (std::size_t i = 0; i < res.workers.size(); ++i) {
    const bool halted = !res.crashed[i] && res.workers[i].halted_at >= 0.0;
    if ((halted && res.incumbents[i] != s.optimum) || res.incumbents[i] < s.optimum) {
      st.wrong = 1;
    }
  }
  bool ok = st.wrong == 0;
  if (s.expect_termination) {
    ok = ok && res.all_live_halted && res.solution_found && res.solution == s.optimum;
  } else {
    ok = ok && res.hit_time_limit;
  }
  if (s.expect_unique != 0) ok = ok && res.unique_expanded == s.expect_unique;
  st.failed = ok ? 0 : 1;

  st.mix(st.kernel_events);
  st.mix(st.makespan);
  for (const double t : st.vtime) st.mix(t);
  st.mix(st.expansions);
  st.mix(st.unique);
  st.mix(st.redundant);
  st.mix(res.redundant_cost);
  st.mix(res.solution);
  for (const double v : res.incumbents) st.mix(v);
  st.mix(st.net.messages_sent);
  st.mix(st.net.messages_delivered);
  st.mix(st.net.messages_lost);
  st.mix(st.net.messages_partitioned);
  st.mix(st.net.bytes_sent);
  st.mix(st.wire.frames);
  st.mix(st.wire.frame_bytes);
  st.mix(st.wire.flat_bytes);
  st.mix(st.wire.delta_reports);
  st.mix(st.work.fingerprint());
  st.mix(st.peak_table_bytes);
  st.mix(st.peak_table_unique_bytes);
  return st;
}

/// Length of the union of [t0, t1) intervals: a parent's time covered by
/// children that may overlap (two dispatch threads evaluate concurrently).
double covered(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  double lo = 0.0;
  double hi = -1.0;
  for (const auto& [a, b] : iv) {
    if (a > hi) {
      if (hi > lo) total += hi - lo;
      lo = a;
      hi = b;
    } else {
      hi = std::max(hi, b);
    }
  }
  if (hi > lo) total += hi - lo;
  return total;
}

RunStats run_scenario(const Scenario& s, Tracer* tracer) {
  if (tracer == nullptr) {
    const double t0 = now_seconds();
    const sim::ClusterResult res = sim::SimCluster::run(*s.model, s.cfg);
    return collect(s, res, now_seconds() - t0);
  }
  const std::size_t first = tracer->size();
  const std::int64_t run = tracer->open(kRun, -1);
  const TimedModel timed(*s.model, *tracer, run);
  const sim::ClusterResult res = sim::SimCluster::run(timed, s.cfg);
  RunStats st = collect(s, res, tracer->close(run));
  std::vector<std::pair<double, double>> children;
  for (std::size_t i = first; i < tracer->size(); ++i) {
    const Span& sp = tracer->spans()[i];
    if (sp.parent != run) continue;
    children.emplace_back(sp.t0, sp.t1);
    if (sp.name == kEval) {
      ++st.eval_calls;
      st.eval_s += sp.t1 - sp.t0;
    } else {
      ++st.bound_of_calls;
      st.bound_of_s += sp.t1 - sp.t0;
    }
  }
  st.run_self_s = st.wall_s - covered(std::move(children));
  return st;
}

// ---------------------------------------------------------------------------
// Child processes: one corpus scenario each, so an FTBB_CHECK abort costs one
// failed run instead of the whole workload.
// ---------------------------------------------------------------------------

bool write_all(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

struct ChildOutcome {
  std::optional<RunStats> stats;  // nullopt: the child died or lied
  std::vector<Span> spans;
  long maxrss_kb = 0;
  std::string why;
};

ChildOutcome run_in_child(const Scenario& s, bool traced) {
  ChildOutcome out;
  int fds[2];
  if (::pipe(fds) != 0) {
    out.why = "pipe failed";
    return out;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    out.why = "fork failed";
    return out;
  }
  if (pid == 0) {
    ::close(fds[0]);
    Tracer tracer;
    const RunStats st = run_scenario(s, traced ? &tracer : nullptr);
    const std::uint64_t n = tracer.size();
    const bool ok = write_all(fds[1], &st, sizeof(st)) &&
                    write_all(fds[1], &n, sizeof(n)) &&
                    (n == 0 || write_all(fds[1], tracer.spans().data(),
                                         tracer.size() * sizeof(Span)));
    ::close(fds[1]);
    ::_exit(ok ? 0 : 3);
  }
  ::close(fds[1]);
  std::vector<char> buf;
  char chunk[1 << 16];
  for (;;) {
    const ssize_t r = ::read(fds[0], chunk, sizeof(chunk));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    buf.insert(buf.end(), chunk, chunk + r);
  }
  ::close(fds[0]);
  int status = 0;
  struct rusage usage {};
  while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  out.maxrss_kb = usage.ru_maxrss;
  if (WIFSIGNALED(status)) {
    out.why = "killed by signal " + std::to_string(WTERMSIG(status));
    return out;
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    out.why = "exit status " + std::to_string(WEXITSTATUS(status));
    return out;
  }
  std::uint64_t n = 0;
  constexpr std::size_t kHeader = sizeof(RunStats) + sizeof(n);
  if (buf.size() < kHeader) {
    out.why = "short result";
    return out;
  }
  RunStats st;
  std::memcpy(&st, buf.data(), sizeof(st));
  std::memcpy(&n, buf.data() + sizeof(st), sizeof(n));
  const std::size_t payload = buf.size() - kHeader;
  if (payload % sizeof(Span) != 0 || payload / sizeof(Span) != n) {
    out.why = "malformed result";
    return out;
  }
  out.spans.resize(n);
  if (n > 0) {
    std::memcpy(out.spans.data(), buf.data() + kHeader, payload);
  }
  out.stats = st;
  return out;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string out_dir;
};

/// Built inputs of one workload: models (with their storage) and scenarios.
struct Prepared {
  std::vector<sim::Workload> models;
  std::vector<Scenario> scenarios;
  bool isolate = false;  // run each scenario in its own child process
  std::uint32_t sim_threads = 1;
};

void apply_schedule(const fault::FaultSchedule& schedule, sim::ClusterConfig& cfg) {
  cfg.workers = schedule.population;
  cfg.loss_rules = schedule.loss_rules;
  for (const fault::CrashAt& c : schedule.crashes) {
    cfg.crashes.push_back(sim::CrashEvent{c.node, c.time});
  }
  for (const fault::ReviveAt& r : schedule.revives) {
    cfg.rejoins.push_back(sim::ReviveEvent{r.node, r.time});
  }
  cfg.partitions = schedule.partitions;
  cfg.join_times = schedule.join_times;
}

double optimum_of(const sim::Workload& w) {
  const std::optional<double> opt = w.model->known_optimal();
  FTBB_CHECK_MSG(opt.has_value(), "benchmark workload without a known optimum");
  return *opt;
}

/// Times one setup phase into `seconds`, and into a span when traced.
template <typename Fn>
void phase(Tracer* tracer, SpanName name, std::int64_t parent, double& seconds,
           Fn&& fn) {
  const std::int64_t id = tracer != nullptr ? tracer->open(name, parent) : -1;
  const double t0 = now_seconds();
  fn();
  seconds += now_seconds() - t0;
  if (tracer != nullptr) tracer->close(id);
}

// table1-dense: the paper's Table 1 tree (79,601 nodes) at Figure 3
// granularity on 100 workers, fault-free, with the benches' cluster seed.
Prepared setup_table1(const Options& o, Tracer* tracer, std::int64_t parent,
                      double& workload_s, double& schedule_s) {
  Prepared p;
  phase(tracer, kSetupWorkload, parent, workload_s, [&] {
    auto tree = std::make_shared<bnb::BasicTree>(bench::large_problem_dense());
    sim::Workload w;
    w.model = std::make_unique<bnb::TreeProblem>(tree.get());
    w.storage = tree;
    w.name = "basic-tree-79601@0.010s";
    p.models.push_back(std::move(w));
  });
  phase(tracer, kSetupSchedule, parent, schedule_s, [&] {
    const std::uint32_t workers = o.smoke ? 10 : 100;
    const fault::FaultSchedule schedule =
        fault::FaultSchedule::compile(sim::FaultPlan{}, workers);
    Scenario s;
    s.label = "table1-dense";
    s.model = p.models.front().model.get();
    s.cfg = bench::small_cluster_config(workers);
    apply_schedule(schedule, s.cfg);
    s.cfg.sim_threads = 1;
    s.optimum = optimum_of(p.models.front());
    s.expect_unique = bench::kLargeNodes;
    p.scenarios.push_back(std::move(s));
  });
  return p;
}

// planetary-storm: 10^5 workers on the rack/campus topology under the
// planetary storm, truncated at a 0.2 s virtual horizon; the only workload
// on the sharded executor (2 dispatch threads, per-channel lookahead).
constexpr std::uint32_t kNodesPerRack = 32;
constexpr std::uint32_t kRacksPerCampus = 8;
constexpr std::uint64_t kPlanetarySeed = 9;

Prepared setup_planetary(const Options& o, Tracer* tracer, std::int64_t parent,
                         double& workload_s, double& schedule_s) {
  Prepared p;
  p.sim_threads = 2;
  const std::uint32_t workers = o.smoke ? 2000 : 100000;
  phase(tracer, kSetupWorkload, parent, workload_s, [&] {
    sim::WorkloadSpec spec;
    spec.kind = sim::WorkloadKind::kSyntheticTree;
    spec.size = 50001;
    spec.seed = kPlanetarySeed;
    spec.cost_mean = 2e-3;
    p.models.push_back(sim::build_workload(spec));
  });
  phase(tracer, kSetupSchedule, parent, schedule_s, [&] {
    const sim::FaultPlan plan = sim::FaultPlan::planetary_storm(
        workers, kNodesPerRack, kRacksPerCampus, /*start=*/0.01, /*scale=*/0.02);
    const fault::FaultSchedule schedule = fault::FaultSchedule::compile(plan, workers);
    Scenario s;
    s.label = "planetary-storm";
    s.model = p.models.front().model.get();
    sim::ScenarioSpec tuning;
    tuning.tune_for_small_problems();
    s.cfg.worker = tuning.worker;
    s.cfg.seed = kPlanetarySeed;
    s.cfg.sim_threads = p.sim_threads;
    s.cfg.per_channel_lookahead = true;
    s.cfg.peer_view_limit = 32;
    s.cfg.time_limit = o.smoke ? 0.1 : 0.2;
    s.cfg.net.topology.nodes_per_rack = kNodesPerRack;
    s.cfg.net.topology.racks_per_campus = kRacksPerCampus;
    apply_schedule(schedule, s.cfg);
    s.optimum = optimum_of(p.models.front());
    s.expect_termination = false;
    s.crashes_injected = to_u64(schedule.crashes.size());
    p.scenarios.push_back(std::move(s));
  });
  return p;
}

// fault-corpus: the six named fault plans plus a fault-free run, on each of
// the seven workload kinds, over workload seeds 1..kCorpusSeeds; 4 workers,
// v1 frames. --seed shuffles the order the scenarios run in: each runs in
// its own process, so every figure but host time must be order-independent.
struct CorpusKind {
  sim::WorkloadKind kind;
  std::uint32_t size;
};
constexpr CorpusKind kCorpusKinds[] = {
    {sim::WorkloadKind::kKnapsack, 22},       {sim::WorkloadKind::kVertexCover, 26},
    {sim::WorkloadKind::kNumberPartition, 18}, {sim::WorkloadKind::kSyntheticTree, 20001},
    {sim::WorkloadKind::kShifty, 15},         {sim::WorkloadKind::kMaxSat, 20},
    {sim::WorkloadKind::kTsp, 9},
};
constexpr std::uint32_t kCorpusWorkers = 4;
constexpr std::uint64_t kCorpusSeeds = 6;

struct NamedPlan {
  const char* name;
  sim::FaultPlan plan;
};

std::vector<NamedPlan> corpus_plans() {
  using sim::FaultPlan;
  return {
      {"fault-free", FaultPlan{}},
      {"flaky-link", FaultPlan::flaky_link(0, 2, 0.02, 0.5, 0.6, 0.06)},
      {"rolling-restart", FaultPlan::rolling_restart(1, 3, 0.05, 0.08, 0.1)},
      {"flapping-partition", FaultPlan::flapping_partition(3, 0.04, 0.06, 0.05)},
      {"adversarial-churn",
       FaultPlan::adversarial_churn(kCorpusWorkers, 3, 0.05, 0.05)},
      {"cascading-storm", FaultPlan::cascading_storm(1, 3, 0.05, 0.08, 0.12)},
      {"asymmetric-partition",
       FaultPlan::asymmetric_partition(1, 3, 0.04, 0.07, 0.05)},
  };
}

Prepared setup_corpus(const Options& o, Tracer* tracer, std::int64_t parent,
                      double& workload_s, double& schedule_s) {
  Prepared p;
  p.isolate = true;
  const std::uint64_t seeds = o.smoke ? 1 : kCorpusSeeds;
  const std::uint64_t first_seed = 1;
  phase(tracer, kSetupWorkload, parent, workload_s, [&] {
    for (const CorpusKind& k : kCorpusKinds) {
      for (std::uint64_t i = 0; i < seeds; ++i) {
        sim::WorkloadSpec spec;
        spec.kind = k.kind;
        spec.size = k.size;
        spec.seed = first_seed + i;
        spec.cost_mean = 2e-3;
        p.models.push_back(sim::build_workload(spec));
      }
    }
  });
  phase(tracer, kSetupSchedule, parent, schedule_s, [&] {
    sim::ScenarioSpec tuning;
    tuning.tune_for_small_problems();
    for (const NamedPlan& np : corpus_plans()) {
      const fault::FaultSchedule schedule =
          fault::FaultSchedule::compile(np.plan, kCorpusWorkers);
      for (std::size_t m = 0; m < p.models.size(); ++m) {
        const sim::Workload& w = p.models[m];
        const std::uint64_t seed = first_seed + m % seeds;
        Scenario s;
        s.label = w.name + "/" + np.name + "/seed" + std::to_string(seed);
        s.model = w.model.get();
        s.cfg.worker = tuning.worker;
        s.cfg.seed = seed;
        s.cfg.sim_threads = 1;
        s.cfg.time_limit = 300.0;
        s.cfg.wire = core::FrameVersion::kV1;
        apply_schedule(schedule, s.cfg);
        s.optimum = optimum_of(w);
        s.crashes_injected = to_u64(schedule.crashes.size());
        p.scenarios.push_back(std::move(s));
      }
    }
    std::shuffle(p.scenarios.begin(), p.scenarios.end(), std::mt19937_64(o.seed));
  });
  return p;
}

Prepared setup_workload(const Options& o, Tracer* tracer, double& workload_s,
                        double& schedule_s) {
  const std::int64_t parent = tracer != nullptr ? tracer->open(kSetup, -1) : -1;
  Prepared p;
  if (o.workload == "table1-dense") {
    p = setup_table1(o, tracer, parent, workload_s, schedule_s);
  } else if (o.workload == "planetary-storm") {
    p = setup_planetary(o, tracer, parent, workload_s, schedule_s);
  } else {
    p = setup_corpus(o, tracer, parent, workload_s, schedule_s);
  }
  if (tracer != nullptr) tracer->close(parent);
  return p;
}

// ---------------------------------------------------------------------------
// Passes, medians, metrics
// ---------------------------------------------------------------------------

struct Pass {
  RunStats total;      // summed over every run that produced stats
  RunStats succeeded;  // summed over the runs that did not fail
  std::vector<std::uint64_t> identities;  // per-scenario fingerprint or 0
  long maxrss_kb = 0;
};

/// Runs every scenario once, in process or each in its own child.
Pass run_pass(const Prepared& p, Tracer* tracer) {
  Pass pass;
  for (const Scenario& s : p.scenarios) {
    std::optional<RunStats> st;
    if (p.isolate) {
      ChildOutcome child = run_in_child(s, tracer != nullptr);
      pass.maxrss_kb = std::max(pass.maxrss_kb, child.maxrss_kb);
      if (!child.stats.has_value()) {
        std::printf("  FAILED %s: %s\n", s.label.c_str(), child.why.c_str());
      } else if (tracer != nullptr) {
        tracer->splice(child.spans);
      }
      st = child.stats;
    } else {
      st = run_scenario(s, tracer);
    }
    if (!st.has_value()) {
      RunStats dead;
      dead.runs = 1;
      dead.failed = 1;
      pass.total.add(dead);
      pass.identities.push_back(0);
      continue;
    }
    if (st->failed != 0) std::printf("  FAILED %s: wrong outcome\n", s.label.c_str());
    pass.total.add(*st);
    if (st->failed == 0) pass.succeeded.add(*st);
    pass.identities.push_back(st->fingerprint);
  }
  if (!p.isolate) {
    struct rusage usage {};
    ::getrusage(RUSAGE_SELF, &usage);
    pass.maxrss_kb = usage.ru_maxrss;
  }
  return pass;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }
double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("\n");
  for (const Metric& m : metrics) {
    std::printf("  %-30s %18.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

/// Full result with the shared provenance preamble, next to the spans.
void write_artifact(const Options& o, const Prepared& p, bool correct,
                    std::uint64_t attempted, std::uint64_t failed,
                    const std::vector<Metric>& metrics) {
  if (o.out_dir.empty()) return;
  const std::string path =
      o.out_dir + "/BENCH_e2e-" + o.workload + (o.trace ? "-trace" : "") + ".json";
  FILE* json = bench::open_bench_json(path.c_str(), "e2e");
  if (json == nullptr) return;
  std::fprintf(json,
               "  \"workload\": \"%s\",\n  \"seed\": %llu,\n  \"sim_threads\": %u,\n"
               "  \"smoke\": %s,\n  \"trace\": %s,\n  \"correct\": %s,\n"
               "  \"attempted\": %llu,\n  \"failed\": %llu,\n  \"metrics\": {\n",
               o.workload.c_str(), static_cast<unsigned long long>(o.seed),
               p.sim_threads, o.smoke ? "true" : "false", o.trace ? "true" : "false",
               correct ? "true" : "false", static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::fprintf(json, "    \"%s\": {\"value\": %.17g, \"unit\": \"%s\"}%s\n",
                 metrics[i].name.c_str(), metrics[i].value, metrics[i].unit,
                 i + 1 < metrics.size() ? "," : "");
  }
  std::fprintf(json, "  }\n}\n");
  std::fclose(json);
}

/// Sets the workload up repeatedly, since set-up time is reported as a
/// median: at least 7 times and for at least 3 s (once in smoke mode). A
/// short set-up is repeated hundreds of times, so its median spans several
/// of the second-long phases in which a shared host runs it fast or slow.
/// Returns the last set-up; spans, when traced, are those of that set-up.
Prepared setup_repeatedly(const Options& o, Tracer* tracer,
                          std::vector<double>& workload_s,
                          std::vector<double>& schedule_s) {
  const double start = now_seconds();
  Prepared p;
  do {
    p = Prepared{};  // release the previous build before timing the next
    if (tracer != nullptr) tracer->truncate(0);
    double w = 0.0;
    double s = 0.0;
    p = setup_workload(o, tracer, w, s);
    workload_s.push_back(w);
    schedule_s.push_back(s);
  } while (!o.smoke && workload_s.size() < 1000 &&
           (workload_s.size() < 7 || now_seconds() - start < 3.0));
  return p;
}

/// True while another pass that lasts as long as the last one still ends
/// inside the measurement window.
bool room_for_another(double start, double seconds, double last_pass) {
  return now_seconds() - start + last_pass < seconds;
}

void print_provenance(const Options& o, const Prepared& p) {
  std::printf("e2e %s seed=%llu seconds=%g trace=%d%s | hardware_concurrency=%u "
              "sim_threads=%u runs/pass=%zu build=\"%s\" git=%s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
              o.trace ? 1 : 0, o.smoke ? " smoke" : "",
              std::thread::hardware_concurrency(), p.sim_threads, p.scenarios.size(),
              bench::build_flags().c_str(), bench::git_describe().c_str());
}

int run_untraced(const Options& o) {
  const double start = now_seconds();
  std::vector<double> workload_s;
  std::vector<double> schedule_s;
  const Prepared p = setup_repeatedly(o, nullptr, workload_s, schedule_s);
  std::vector<double> setup_s;
  for (std::size_t i = 0; i < workload_s.size(); ++i) {
    setup_s.push_back(workload_s[i] + schedule_s[i]);
  }
  print_provenance(o, p);

  std::vector<double> walls;
  std::vector<double> rates;
  std::vector<Pass> passes;
  double last_pass = 0.0;
  do {
    const double t0 = now_seconds();
    passes.push_back(run_pass(p, nullptr));
    last_pass = now_seconds() - t0;
    std::printf("  pass %zu: %.4f s in SimCluster::run\n", passes.size(),
                passes.back().total.wall_s);
    walls.push_back(passes.back().total.wall_s);
    rates.push_back(ratio(static_cast<double>(passes.back().total.kernel_events),
                          passes.back().total.wall_s));
  } while (room_for_another(start, o.seconds, last_pass));

  // Every pass replays the same inputs: any difference is nondeterminism.
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  long maxrss_kb = 0;
  for (const Pass& pass : passes) {
    correct = correct && pass.identities == passes.front().identities &&
              pass.total.wrong == 0;
    attempted += pass.total.runs;
    failed += pass.total.failed;
    maxrss_kb = std::max(maxrss_kb, pass.maxrss_kb);
  }
  if (!correct) std::printf("  INCORRECT: wrong answer or nondeterministic replay\n");

  const RunStats& ok = passes.front().succeeded;
  const RunStats& all = passes.front().total;
  const double bb = ok.vtime[static_cast<int>(core::CostKind::kBB)];
  double vtime_all = 0.0;
  for (const double t : ok.vtime) vtime_all += t;
  const std::vector<Metric> metrics = {
      {"setup_s", median(setup_s), "s"},
      {"wall_s", median(walls), "s"},
      {"events_per_s", median(rates), "1/s"},
      {"peak_rss_mb", static_cast<double>(maxrss_kb) / 1024.0, "MiB"},
      {"success_share", ratio(all.runs - all.failed, all.runs), "ratio"},
      {"virtual_makespan", ratio(ok.makespan, static_cast<double>(ok.runs)), "sim_s"},
      {"efficiency", ratio(bb, vtime_all), "ratio"},
      {"expansions_per_node", ratio(ok.expansions, ok.unique), "ratio"},
      {"wire_bytes_per_node", ratio(ok.net.bytes_sent, ok.unique), "B"},
  };
  std::printf("%s: %zu pass(es), %llu of %llu run(s) failed\n", o.workload.c_str(),
              passes.size(), static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  print_result(correct, attempted, failed, metrics);
  write_artifact(o, p, correct, attempted, failed, metrics);
  return 0;
}

int run_traced(const Options& o) {
  const double start = now_seconds();
  Tracer tracer;
  std::vector<double> workload_s;
  std::vector<double> schedule_s;
  const Prepared p = setup_repeatedly(o, &tracer, workload_s, schedule_s);
  const std::size_t setup_spans = tracer.size();
  print_provenance(o, p);

  // Untraced and traced passes alternate, so drift hits both alike.
  std::vector<double> overhead;
  std::vector<double> run_s;
  std::vector<double> run_self_s;
  std::vector<double> eval_s;
  std::vector<double> bound_of_s;
  bool identical = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Pass traced;
  double last_pair = 0.0;
  do {
    const double t0 = now_seconds();
    const Pass plain = run_pass(p, nullptr);
    tracer.truncate(setup_spans);  // keep only the last traced pass in memory
    traced = run_pass(p, &tracer);
    identical = identical && plain.identities == traced.identities;
    attempted += plain.total.runs + traced.total.runs;
    failed += plain.total.failed + traced.total.failed;
    overhead.push_back(ratio(traced.total.wall_s, plain.total.wall_s) - 1.0);
    run_s.push_back(traced.total.wall_s);
    run_self_s.push_back(traced.total.run_self_s);
    eval_s.push_back(traced.total.eval_s);
    bound_of_s.push_back(traced.total.bound_of_s);
    last_pair = now_seconds() - t0;
  } while (room_for_another(start, o.seconds, last_pair));
  if (!identical) {
    std::printf("  INCORRECT: traced run simulated different counters\n");
  }
  const bool correct = identical && traced.total.wrong == 0;

  const RunStats& t = traced.total;
  const core::WorkLedger& w = t.work;
  using core::WorkItem;
  auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  const std::vector<Metric> metrics = {
      {"sim.kernel_events", count(t.kernel_events), "count"},
      {"sim.run_s", median(run_s), "s"},
      {"sim.run_self_s", median(run_self_s), "s"},
      {"net.messages_sent", count(t.net.messages_sent), "count"},
      {"net.messages_lost", count(t.net.messages_lost), "count"},
      {"net.messages_partitioned", count(t.net.messages_partitioned), "count"},
      {"net.bytes_sent", count(t.net.bytes_sent), "B"},
      {"worker.reports_sent", count(w[WorkItem::kReportsSent]), "count"},
      {"worker.report_codes_sent", count(w[WorkItem::kReportCodesSent]), "count"},
      {"worker.table_gossips_sent", count(w[WorkItem::kTableGossipsSent]), "count"},
      {"worker.work_requests_sent", count(w[WorkItem::kWorkRequestsSent]), "count"},
      {"worker.grant_ratio",
       ratio(w[WorkItem::kGrantsReceived], w[WorkItem::kWorkRequestsSent]), "ratio"},
      {"worker.request_timeouts", count(w[WorkItem::kRequestTimeouts]), "count"},
      {"worker.recoveries", count(w[WorkItem::kRecoveries]), "count"},
      {"code_set.contraction_codes", count(w[WorkItem::kContractionCodes]), "count"},
      {"code_set.contraction_nodes", count(w[WorkItem::kContractionNodes]), "count"},
      {"code_set.nodes_per_code",
       ratio(w[WorkItem::kContractionNodes], w[WorkItem::kContractionCodes]), "ratio"},
      {"code_set.peak_table_mb", count(t.peak_table_bytes) / 1e6, "MB"},
      {"code_set.redundant_table_mb",
       count(t.peak_table_bytes - std::min(t.peak_table_bytes, t.peak_table_unique_bytes)) /
           1e6,
       "MB"},
      {"wire.frames", count(t.wire.frames), "count"},
      {"wire.frame_bytes", count(t.wire.frame_bytes), "B"},
      {"wire.flat_bytes", count(t.wire.flat_bytes), "B"},
      {"wire.delta_reports", count(t.wire.delta_reports), "count"},
      {"wire.compression", ratio(t.wire.flat_bytes, t.wire.frame_bytes), "ratio"},
      {"bnb.expansions", count(t.expansions), "count"},
      {"bnb.unique_expansions", count(t.unique), "count"},
      {"bnb.redundant_expansions", count(t.redundant), "count"},
      {"bnb.eliminated", count(w[WorkItem::kEliminated]), "count"},
      {"bnb.eval_calls", count(t.eval_calls), "count"},
      {"bnb.eval_s", median(eval_s), "s"},
      {"bnb.bound_of_calls", count(t.bound_of_calls), "count"},
      {"bnb.bound_of_s", median(bound_of_s), "s"},
      {"pool.pushes", count(w[WorkItem::kPoolPushes]), "count"},
      {"pool.pops", count(w[WorkItem::kPoolPops]), "count"},
      {"pool.sweep_entries_scanned", count(w[WorkItem::kSweepEntriesScanned]), "count"},
      {"pool.index_builds", count(w[WorkItem::kIndexBuilds]), "count"},
      {"pool.nursery_drains", count(w[WorkItem::kNurseryDrains]), "count"},
      {"vtime.bb", t.vtime[static_cast<int>(core::CostKind::kBB)], "sim_s"},
      {"vtime.contraction", t.vtime[static_cast<int>(core::CostKind::kContraction)],
       "sim_s"},
      {"vtime.comm", t.vtime[static_cast<int>(core::CostKind::kComm)], "sim_s"},
      {"vtime.lb", t.vtime[static_cast<int>(core::CostKind::kLoadBalance)], "sim_s"},
      {"vtime.idle", t.vtime[static_cast<int>(core::CostKind::kIdle)], "sim_s"},
      {"fault.incarnations", count(w[WorkItem::kIncarnations]), "count"},
      {"fault.crashes_injected", count(t.crashes_injected), "count"},
      {"fault.failed_share", ratio(t.failed, t.runs), "ratio"},
      {"setup.workload_s", median(workload_s), "s"},
      {"setup.schedule_s", median(schedule_s), "s"},
      {"trace.overhead_frac", median(overhead), "ratio"},
  };
  std::printf("%s (traced): %zu span(s) kept, identical counters: %s\n",
              o.workload.c_str(), tracer.size(), identical ? "yes" : "NO");
  if (!o.out_dir.empty()) {
    const std::string path = o.out_dir + "/spans-" + o.workload + ".csv";
    if (!tracer.write_csv(path)) std::printf("  cannot write %s\n", path.c_str());
  }
  print_result(correct, attempted, failed, metrics);
  write_artifact(o, p, correct, attempted, failed, metrics);
  return 0;
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      o.trace = std::string(argv[++i]) != "0";
    } else if (a == "--out" && has_value) {
      o.out_dir = argv[++i];
    } else {
      return false;
    }
  }
  return o.workload == "table1-dense" || o.workload == "planetary-storm" ||
         o.workload == "fault-corpus";
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload table1-dense|planetary-storm|"
                 "fault-corpus --seed N --seconds T --trace 0|1 [--smoke] "
                 "[--out DIR]\n");
    return 2;
  }
  return o.trace ? run_traced(o) : run_untraced(o);
}
