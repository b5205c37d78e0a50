#include "sim/cluster.hpp"

#include <algorithm>
#include <optional>
#include <utility>
#include <variant>

#include "core/expansion_ledger.hpp"
#include "support/check.hpp"
#include "support/fifo.hpp"

namespace ftbb::sim {

namespace {

trace::Activity to_activity(core::CostKind kind) {
  switch (kind) {
    case core::CostKind::kBB:
      return trace::Activity::kBB;
    case core::CostKind::kContraction:
      return trace::Activity::kContraction;
    case core::CostKind::kComm:
      return trace::Activity::kComm;
    case core::CostKind::kLoadBalance:
      return trace::Activity::kLB;
    case core::CostKind::kIdle:
      return trace::Activity::kIdle;
  }
  return trace::Activity::kIdle;
}

}  // namespace

// ---------------------------------------------------------------------------
// WorkerHost: the per-worker IWorkerEnv adapter
// ---------------------------------------------------------------------------

class SimCluster::WorkerHost final : public core::IWorkerEnv {
 public:
  WorkerHost(SimCluster* cluster, core::NodeId id, std::uint64_t seed)
      : cluster_(cluster), id_(id), rng_(seed) {
    worker_.emplace(id, &cluster->model_, cluster->config_.worker, this);
  }

  core::BnbWorker& worker() { return *worker_; }
  [[nodiscard]] const core::BnbWorker& worker() const { return *worker_; }
  [[nodiscard]] bool alive() const { return alive_; }
  [[nodiscard]] double crash_time() const { return crash_time_; }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  /// Work ledger across all incarnations — crashed lives folded first, then
  /// the current one — plus the current incarnation's halt instant (the
  /// paper's aggregates cover crashed processors' time too; kIncarnations
  /// counts one per life).
  [[nodiscard]] core::WorkerStats lifetime_stats() const {
    core::WorkerStats total{prior_ledger_, worker_->stats().halted_at};
    total.work.add(worker_->stats().work);
    return total;
  }

  /// One-shot removal from the set of workers that must halt for the run to
  /// be considered finished (crash, or a join that can never happen).
  void leave_live_set() {
    if (!counts_toward_live_) return;
    counts_toward_live_ = false;
    --cluster_->live_count_;
  }

  /// Re-entry after a revival: the fresh incarnation must halt again for
  /// the run to finish.
  void rejoin_live_set() {
    if (counts_toward_live_) return;
    counts_toward_live_ = true;
    ++cluster_->live_count_;
  }

  void start(bool with_root) {
    started_ = true;
    // Late joiners begin their local clock at the join instant; the time
    // before joining belongs to no activity category.
    busy_until_ = std::max(busy_until_, cluster_->kernel_.now());
    worker_->on_start(with_root);
  }

  [[nodiscard]] bool started() const { return started_; }

  void kill(double t) {
    if (!alive_) return;
    alive_ = false;
    crash_time_ = t;
    pending_.clear();
  }

  /// Restarts a crashed worker as a fresh incarnation: state gone, epoch
  /// bumped so the dead incarnation's in-flight messages and armed timers
  /// are dropped, local clock restarted at the revival instant.
  void revive() {
    FTBB_CHECK(!alive_);
    prior_ledger_.add(worker_->stats().work);
    ++epoch_;
    alive_ = true;
    started_ = true;
    // The new incarnation's first report must be self-contained: never delta
    // against the dead predecessor's last batch.
    delta_.reset();
    pending_.clear();
    busy_until_ = cluster_->kernel_.now();
    wait_hint_ = core::WaitHint::kIdle;
    worker_.emplace(id_, &cluster_->model_, cluster_->config_.worker, this);
    worker_->on_start(false);
  }

  /// Entry point for message arrivals from the network. `epoch` is the
  /// incarnation the sender addressed; mail for a dead incarnation is
  /// dropped even if the worker has since been revived. `bytes` is the
  /// sender-computed frame size (the receiver cannot recompute a v1 frame's
  /// size from the Message alone — delta coding made it sender-stateful).
  void accept(core::Message msg, std::size_t bytes, std::uint64_t epoch) {
    if (epoch != epoch_) return;  // addressed to a crashed incarnation
    if (!started_ || !alive_ || worker_->halted()) return;  // crash-stop / terminated
    pending_.emplace_back(Inbound{std::move(msg), bytes});
    pump();
  }

  // ---- core::IWorkerEnv ----

  [[nodiscard]] double now() const override { return busy_until_; }

  void send(core::NodeId to, core::Message msg) override {
    // Frame-size the message under the cluster's wire version; for
    // report/gossip under kV1 this advances the per-incarnation delta state
    // (idempotently per batch — the m fanout copies size identically).
    const bool is_report = msg.type == core::MsgType::kWorkReport ||
                           msg.type == core::MsgType::kTableGossip;
    const bool was_active = delta_.active;
    // The flat size is arithmetic (Message::wire_size). Under kLegacy the
    // frame IS the flat encoding, so it doubles as the frame size; only kV1
    // needs the (delta-advancing) frame pass.
    const std::size_t flat = msg.wire_size();
    const std::size_t bytes =
        cluster_->codec_.version() == core::FrameVersion::kLegacy
            ? flat
            : cluster_->codec_.frame_size(msg, &delta_);
    ++wire_.frames;
    wire_.frame_bytes += bytes;
    wire_.flat_bytes += flat;
    if (is_report) {
      ++wire_.report_frames;
      wire_.report_frame_bytes += bytes;
      wire_.report_flat_bytes += flat;
      if (delta_.active) {
        if (!was_active) ++report_streams_;
        if (delta_.seq == 0) {
          ++wire_.self_contained_reports;
        } else {
          ++wire_.delta_reports;
        }
      }
    }
    core::WorkLedger& work = worker_->stats().work;
    ++work[core::WorkItem::kMsgsSent];
    work[core::WorkItem::kWireBytesSent] += bytes;
    charge(core::CostKind::kComm,
           cluster_->config_.worker.costs.send_fixed +
               cluster_->config_.worker.costs.send_per_byte * static_cast<double>(bytes));
    WorkerHost* dest = cluster_->hosts_[to].get();
    cluster_->network_->send(
        id_, to, bytes, busy_until_,
        [dest, dest_epoch = dest->epoch(), bytes, msg = std::move(msg)]() mutable {
          dest->accept(std::move(msg), bytes, dest_epoch);
        });
  }

  void set_timer(core::TimerKind kind, double delay, std::uint64_t gen) override {
    FTBB_CHECK(delay >= 0.0);
    // Every arm of a kind carries a strictly larger generation, so this slot
    // always holds the latest armed gen (per incarnation; older-epoch fires
    // die on the epoch check below before consulting it).
    timer_slot_[static_cast<int>(kind)] = gen;
    // Owner-tagged: the firing must run on this worker's shard even when the
    // timer is armed from the control context (join / revive).
    cluster_->kernel_.at(busy_until_ + delay, static_cast<OwnerId>(id_),
                         [this, kind, gen, epoch = epoch_]() {
      if (epoch != epoch_ || !alive_ || worker_->halted()) return;
      // Superseded arm: the worker's own gen filter would discard this fire
      // anyway (~40% of all fires in the planetary storm), so skip the
      // inbox round-trip and pump. Riding through pump() is not entirely
      // free, though — a delivered no-op fire still attributes the idle gap
      // and advances the local clock — so replicate exactly that bookkeeping
      // here. (Deferring the attribution to the next delivered event is NOT
      // equivalent: a crash in between would lose the gap from the ledger.)
      if (gen != timer_slot_[static_cast<int>(kind)]) {
        const double t = cluster_->kernel_.now();
        // Worker busy past the fire time: the old path parked the fire in
        // pending_ and re-pumped at busy_until_, where the zero-width gap
        // attributed nothing. Net effect was nil; just drop it.
        if (t < busy_until_) return;
        if (!pending_.empty()) {
          // Backlog present (only reachable through same-instant races):
          // keep strict inbox ordering by taking the ordinary path.
          pending_.emplace_back(TimerFire{kind, gen});
          pump();
          return;
        }
        if (busy_until_ < t) {
          attribute_gap(busy_until_, t);
          busy_until_ = t;
        }
        return;
      }
      pending_.emplace_back(TimerFire{kind, gen});
      pump();
    });
  }

  void charge(core::CostKind kind, double seconds) override {
    if (seconds <= 0.0) return;
    worker_->stats().work.seconds[static_cast<int>(kind)] += seconds;
    if (cluster_->config_.record_trace) {
      trace_.add(id_, busy_until_, busy_until_ + seconds, to_activity(kind));
    }
    busy_until_ += seconds;
  }

  support::Rng& rng() override { return rng_; }

  [[nodiscard]] const std::vector<core::NodeId>& peers() const override {
    // Peer set = members that have joined so far, minus self. Rebuilt only
    // when the membership version changes; crashed members stay listed
    // (their failure is not detectable, Section 4). With peer_view_limit
    // set, the view shrinks to the members that follow this worker in join
    // order — a ring neighborhood, so the union of all views stays
    // connected and per-worker memory stays O(limit) instead of O(n).
    if (peers_version_ != cluster_->membership_version_) {
      peers_version_ = cluster_->membership_version_;
      peers_cache_.clear();
      const std::vector<core::NodeId>& joined = cluster_->joined_;
      const std::uint32_t limit = cluster_->config_.peer_view_limit;
      if (limit > 0 && joined.size() > static_cast<std::size_t>(limit) + 1) {
        const std::size_t pos = cluster_->join_pos_[id_];
        peers_cache_.reserve(limit);
        for (std::uint32_t k = 1; k <= limit; ++k) {
          const core::NodeId id = joined[(pos + k) % joined.size()];
          if (id != id_) peers_cache_.push_back(id);
        }
      } else {
        for (const core::NodeId id : joined) {
          if (id != id_) peers_cache_.push_back(id);
        }
      }
    }
    return peers_cache_;
  }

  void set_wait_hint(core::WaitHint hint) override { wait_hint_ = hint; }

  void notify_halted() override {
    cluster_->live_halted_.fetch_add(1, std::memory_order_relaxed);
    pending_.clear();
  }

  void note_expansion(const core::PathCode& code, double cost) override {
    expansions_.add(code, cost);
  }

  void note_completion(const core::PathCode& code) override {
    const std::lock_guard<std::mutex> lock(cluster_->completions_mu_);
    cluster_->union_table_.insert(code);
  }

  [[nodiscard]] const core::ExpansionLedger& expansions() const {
    return expansions_;
  }
  [[nodiscard]] const trace::Timeline& trace() const { return trace_; }

  /// Unaccounted tail time for workers that never halted (hit a limit).
  void finalize(double end_time) {
    if (alive_ && !worker_->halted() && end_time > busy_until_) {
      attribute_gap(busy_until_, end_time);
    }
  }

  [[nodiscard]] const WireStats& wire_stats() const { return wire_; }
  [[nodiscard]] std::uint32_t report_streams() const { return report_streams_; }

 private:
  struct TimerFire {
    core::TimerKind kind;
    std::uint64_t gen;
  };
  struct Inbound {
    core::Message msg;
    std::size_t bytes;  // frame size as computed (and charged) by the sender
  };
  using Pending = std::variant<Inbound, TimerFire>;

  void attribute_gap(double from, double to) {
    const double dur = to - from;
    if (dur <= 0.0) return;
    const core::CostKind kind = (wait_hint_ == core::WaitHint::kAwaitingWork)
                                    ? core::CostKind::kLoadBalance
                                    : core::CostKind::kIdle;
    worker_->stats().work.seconds[static_cast<int>(kind)] += dur;
    if (cluster_->config_.record_trace) {
      trace_.add(id_, from, to,
                 kind == core::CostKind::kLoadBalance ? trace::Activity::kLB
                                                      : trace::Activity::kIdle);
    }
  }

  /// Drains pending events whose effective time has come. If a handler
  /// makes the worker busy, the remainder waits for a wake at busy end.
  void pump() {
    const double t = cluster_->kernel_.now();
    if (!alive_ || worker_->halted()) {
      pending_.clear();
      return;
    }
    if (t < busy_until_) {
      schedule_wake();
      return;
    }
    while (!pending_.empty()) {
      if (busy_until_ > t) {
        schedule_wake();
        return;
      }
      Pending e = pending_.pop_front();
      if (busy_until_ < t) {
        attribute_gap(busy_until_, t);
        busy_until_ = t;
      }
      if (std::holds_alternative<Inbound>(e)) {
        Inbound& in = std::get<Inbound>(e);
        core::WorkLedger& work = worker_->stats().work;
        ++work[core::WorkItem::kMsgsReceived];
        work[core::WorkItem::kWireBytesReceived] += in.bytes;
        charge(core::CostKind::kComm,
               cluster_->config_.worker.costs.recv_fixed +
                   cluster_->config_.worker.costs.recv_per_byte *
                       static_cast<double>(in.bytes));
        worker_->on_message(in.msg);
      } else {
        const TimerFire& fire = std::get<TimerFire>(e);
        worker_->on_timer(fire.kind, fire.gen);
      }
      if (!alive_ || worker_->halted()) {
        pending_.clear();
        return;
      }
    }
  }

  void schedule_wake() {
    const std::uint64_t gen = ++wake_gen_;
    cluster_->kernel_.at(busy_until_, static_cast<OwnerId>(id_), [this, gen]() {
      if (gen != wake_gen_) return;  // superseded by a later busy extension
      pump();
    });
  }

  SimCluster* cluster_;
  core::NodeId id_;
  support::Rng rng_;
  std::optional<core::BnbWorker> worker_;  // re-emplaced on revival
  core::WorkLedger prior_ledger_;          // spent by crashed incarnations
  std::uint64_t epoch_ = 0;                // incarnation counter

  bool alive_ = true;
  bool started_ = false;
  bool counts_toward_live_ = true;
  mutable std::vector<core::NodeId> peers_cache_;
  mutable std::uint64_t peers_version_ = ~0ULL;
  double crash_time_ = -1.0;
  double busy_until_ = 0.0;
  core::WaitHint wait_hint_ = core::WaitHint::kIdle;
  support::Fifo<Pending> pending_;  // the host's inbox
  std::uint64_t wake_gen_ = 0;
  /// Latest armed generation per timer kind (single-writer: only this
  /// worker's shard arms and fires its timers). Fires with an older gen are
  /// dropped at the kernel boundary instead of riding through pump().
  std::uint64_t timer_slot_[core::kTimerKinds] = {};
  core::ReportDeltaState delta_;   // per-incarnation; reset on revive()
  WireStats wire_;                 // all incarnations of this worker
  std::uint32_t report_streams_ = 0;  // incarnations that opened a v1 chain
  core::ExpansionLedger expansions_;  // every expansion this host performed
  trace::Timeline trace_;     // host-local; merged in collect()
};

// ---------------------------------------------------------------------------
// SimCluster
// ---------------------------------------------------------------------------

namespace {

/// Kernel policy for a cluster config: shard per-worker event streams when
/// asked to, with the network's latency floors as conservative lookahead
/// (global, plus per-channel when the topology is hierarchical; see
/// make_executor_config). make_executor falls back to sequential dispatch
/// when the lookahead is zero — results are identical either way.
ExecutorConfig executor_config(const ClusterConfig& config) {
  return make_executor_config(config.net, config.workers,
                              resolve_sim_threads(config.sim_threads),
                              config.per_channel_lookahead);
}

}  // namespace

SimCluster::SimCluster(const bnb::IProblemModel& model, const ClusterConfig& config)
    : model_(model),
      config_(config),
      codec_(config.wire),
      kernel_(executor_config(config)) {
  FTBB_CHECK(config_.workers >= 1);
  FTBB_CHECK(config_.root_holder < config_.workers);
  support::Rng master(config_.seed);
  network_ = std::make_unique<Network>(&kernel_, config_.net, master.split(0x6e657477),
                                       config_.workers);
  FTBB_CHECK_MSG(config_.join_times.empty() ||
                     config_.join_times.size() == config_.workers,
                 "join_times must be empty or one entry per worker");
  FTBB_CHECK_MSG(config_.join_times.empty() ||
                     config_.join_times[config_.root_holder] == 0.0,
                 "the root holder must join at time 0");
  for (core::NodeId id = 0; id < config_.workers; ++id) {
    hosts_.push_back(std::make_unique<WorkerHost>(this, id, master.split(id).next()));
  }
  join_pos_.assign(config_.workers, 0);
  live_count_ = config_.workers;

  // The cluster's fault surface is driven like any other backend's: the
  // config's fault fields become one compiled schedule and a FaultDriver
  // arms it on the kernel's control stream (see FaultPlane).
  fault::FaultSchedule schedule;
  schedule.population = config_.workers;
  for (const CrashEvent& crash : config_.crashes) {
    schedule.crashes.push_back(fault::CrashAt{crash.node, crash.time});
  }
  for (const ReviveEvent& rejoin : config_.rejoins) {
    schedule.revives.push_back(fault::ReviveAt{rejoin.node, rejoin.time});
  }
  schedule.join_times = config_.join_times;
  schedule.partitions = config_.partitions;
  schedule.loss_rules = config_.loss_rules;
  driver_.emplace(std::move(schedule), &fault_plane_, &fault_plane_);
}

SimCluster::~SimCluster() = default;

bool SimCluster::finished() const {
  return live_halted_.load(std::memory_order_relaxed) >= live_count_;
}

void SimCluster::join(core::NodeId id) {
  WorkerHost* host = hosts_[id].get();
  if (!host->alive()) return;  // crashed before joining; already uncounted
  join_pos_[id] = static_cast<std::uint32_t>(joined_.size());
  joined_.push_back(id);
  ++membership_version_;
  host->start(id == config_.root_holder);
}

void SimCluster::revive(core::NodeId id) {
  WorkerHost* host = hosts_[id].get();
  // Only a crashed, previously started worker can re-enter; a revive aimed
  // at a live worker (its crash was skipped because it had already halted)
  // is a no-op.
  if (host->alive() || !host->started()) return;
  host->revive();
  host->rejoin_live_set();
  // No membership update: the worker had started, so it joined, and crashed
  // members are never removed from joined_ (failures are not detectable,
  // Section 4) — peers still list it and their mail reaches the new
  // incarnation.
}

// ---- FaultPlane: the cluster as a fault-injectable backend ----

void SimCluster::FaultPlane::crash(std::uint32_t node) {
  // Crashing reduces the live population that must halt for the run to be
  // considered finished. A node that already crashed or already detected
  // termination absorbs the injection as a no-op.
  WorkerHost* host = cluster_->hosts_[node].get();
  if (!host->alive() || host->worker().halted()) return;
  host->kill(cluster_->kernel_.now());
  host->leave_live_set();
}

void SimCluster::FaultPlane::revive(std::uint32_t node) {
  cluster_->revive(node);
}

void SimCluster::FaultPlane::join(std::uint32_t node) { cluster_->join(node); }

void SimCluster::FaultPlane::abandon_join(std::uint32_t node) {
  cluster_->hosts_[node]->leave_live_set();
}

void SimCluster::FaultPlane::set_partition(const Partition& partition) {
  cluster_->network_->add_partition(partition);
}

void SimCluster::FaultPlane::set_loss_rule(const LossRule& rule) {
  cluster_->network_->add_loss_rule(rule);
}

void SimCluster::FaultPlane::call_at(double at, Callback fn) {
  // Control-context scheduling: under a sharded executor the injection runs
  // at an epoch barrier with every shard quiescent.
  cluster_->kernel_.at(at, std::move(fn));
}

void SimCluster::start() {
  driver_->arm(config_.time_limit);
  if (config_.storage_sample_interval > 0.0) {
    kernel_.after(config_.storage_sample_interval, [this]() { sample_storage(); });
  }
}

void SimCluster::sample_storage() {
  // Runs as a control event: every shard is quiescent at a barrier, so the
  // worker tables reflect exactly the events before the sample instant.
  std::size_t total = 0;
  for (const auto& host : hosts_) {
    if (!host->alive()) continue;
    total += host->worker().table().encoded_bytes();
  }
  if (total > peak_total_bytes_) {
    peak_total_bytes_ = total;
    const std::lock_guard<std::mutex> lock(completions_mu_);
    peak_unique_bytes_ = union_table_.encoded_bytes();
  }
  if (!finished()) {
    kernel_.after(config_.storage_sample_interval, [this]() { sample_storage(); });
  }
}

ClusterResult SimCluster::run(const bnb::IProblemModel& model,
                              const ClusterConfig& config) {
  SimCluster cluster(model, config);
  cluster.start();
  const Kernel::RunResult kr =
      cluster.kernel_.run(config.time_limit, config.event_limit);
  ClusterResult result = cluster.collect();
  result.hit_time_limit = kr.hit_time_limit;
  result.hit_event_limit = kr.hit_event_limit;
  result.kernel_events = kr.events;
  return result;
}

ClusterResult SimCluster::collect() {
  ClusterResult res;
  const double end_time = std::min(kernel_.now(), config_.time_limit);
  res.first_detection = bnb::kInfinity;
  std::uint32_t live_halted = 0;
  std::uint32_t live_total = 0;
  for (auto& host : hosts_) {
    host->finalize(end_time);
    const core::BnbWorker& w = host->worker();
    res.workers.push_back(host->lifetime_stats());
    res.work.add(res.workers.back().work);
    res.crashed.push_back(!host->alive());
    res.incumbents.push_back(w.incumbent());
    if (host->alive()) {
      ++live_total;
      if (w.halted()) {
        ++live_halted;
        res.makespan = std::max(res.makespan, w.stats().halted_at);
        res.first_detection = std::min(res.first_detection, w.stats().halted_at);
        if (w.incumbent() < res.solution) {
          res.solution = w.incumbent();
          res.solution_found = true;
        }
      }
      res.final_table_bytes_total += w.table().encoded_bytes();
    }
    res.wire.add(host->wire_stats());
    res.report_streams_per_worker.push_back(host->report_streams());
  }
  res.all_live_halted = live_total > 0 && live_halted == live_total;
  // The same host-order sums as the work ledger's, so bit-identical to it.
  for (int k = 0; k < core::kCostKinds; ++k) res.total_time[k] = res.work.seconds[k];
  res.total_expanded = res.work[core::WorkItem::kExpansions];
  if (!res.all_live_halted) res.makespan = end_time;

  // Merge the per-host expansion ledgers. The merged trie does not depend on
  // the merge order, and its preorder walk sums the redundant cost in
  // PathCode order, so the totals are bit-identical across executors and
  // thread counts (no dependence on which host's expansion of a shared code
  // happened to run first).
  core::ExpansionLedger merged;
  for (const auto& host : hosts_) merged.merge(host->expansions());
  const core::ExpansionLedger::Totals expansions = merged.totals();
  res.unique_expanded = expansions.unique;
  res.redundant_expansions = expansions.total - expansions.unique;
  res.redundant_cost = expansions.redundant_cost;
  res.work[core::WorkItem::kRedundantExpansions] = res.redundant_expansions;
  res.work.redundant_seconds = res.redundant_cost;

  res.peak_table_bytes_total = peak_total_bytes_;
  res.peak_table_bytes_unique = peak_unique_bytes_;
  res.net = network_->stats();
  if (config_.record_trace) {
    // Stitch the per-host charts together in worker order, then close the
    // chart with terminal states.
    for (const auto& host : hosts_) {
      for (const trace::Interval& iv : host->trace().intervals()) {
        res.timeline.add(iv.proc, iv.t0, iv.t1, iv.activity);
      }
    }
    for (core::NodeId id = 0; id < config_.workers; ++id) {
      const WorkerHost& host = *hosts_[id];
      if (!host.alive()) {
        res.timeline.add(id, host.crash_time(), end_time, trace::Activity::kDead);
      } else if (host.worker().halted()) {
        res.timeline.add(id, host.worker().stats().halted_at, end_time,
                         trace::Activity::kDone);
      }
    }
  }
  return res;
}

}  // namespace ftbb::sim
