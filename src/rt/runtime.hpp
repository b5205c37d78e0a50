// Real-time message-passing runtime (the MPI-on-one-box substitute).
//
// The paper's protocol is substrate independent; this runtime hosts the
// *identical* core::BnbWorker state machines on real threads with real
// queues, demonstrating the algorithm outside simulated time (the closest
// equivalent of an MPI run on one machine, which the reproduction notes call
// for; no MPI implementation is available offline, so the message-passing
// layer is built here: per-process mailboxes plus a wall-clock deadline
// scheduler that applies configurable latency and loss — the paper's network
// assumptions — before enqueueing).
//
// Fault parity with the simulator: the runtime is a first-class
// fault::IFaultBackend, so the same compiled FaultSchedule (crash, rejoin,
// partition + heal, windowed per-link loss, membership churn) that drives
// the discrete-event backends replays here against wall-clock deadlines.
// Crashed workers are torn down as whole incarnations (thread, mailbox,
// worker state) and revived as fresh ones; epoch guards drop messages and
// timers addressed to dead incarnations, and per-incarnation stats merge in
// the results exactly as SimCluster merges them. The in-process transport
// evaluates the same windowed loss rules and partition groups as the
// simulated Network (shared helpers in sim/network.hpp), against wall
// seconds since run start.
//
// Messages actually cross the wire format: they are encoded to bytes at the
// sender and decoded at the receiver.
//
// Unlike the simulator, runs are not deterministic (thread scheduling);
// tests assert protocol correctness — exact optimum, termination, crash and
// churn survival — not timing.
#pragma once

#include <cstdint>
#include <vector>

#include "bnb/problem.hpp"
#include "core/frame.hpp"
#include "core/worker.hpp"
#include "fault/schedule.hpp"
#include "sim/network.hpp"

namespace ftbb::rt {

struct RtConfig {
  /// Initial population floor; the fault schedule's population (churn
  /// arrivals) can raise the number of hosted members.
  std::uint32_t workers = 4;
  core::WorkerConfig worker;
  /// Wall seconds slept per virtual second of B&B cost (model costs are
  /// virtual; scale them down to keep runs quick).
  double time_scale = 1.0;
  /// Latency / jitter / loss model of the in-process transport, evaluated in
  /// wall seconds since run start (same structure the simulator uses in
  /// virtual time).
  sim::NetConfig net;
  std::uint64_t seed = 1;
  double wall_timeout = 60.0;  // hard cap; hitting it fails the run
  /// Compiled fault schedule; all times are wall seconds since run start.
  /// Joins at/after wall_timeout are abandoned (the member never enters).
  fault::FaultSchedule faults;
  /// Wire frame version. The runtime actually ships and decodes the bytes,
  /// so it defaults to the framed, delta-coded v1 encoding; kLegacy is
  /// available for apples-to-apples byte comparisons.
  core::FrameVersion wire = core::FrameVersion::kV1;
};

/// Transport counters (the rt analogue of sim::Network::Stats).
struct RtNetStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_lost = 0;        // random loss (base + windowed rules)
  std::uint64_t messages_partitioned = 0; // dropped at a partition
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_delivered = 0;
  /// Frames that arrived but failed FrameCodec::decode (corrupt, truncated,
  /// unknown version...). The transport drops them — a decode failure is a
  /// recoverable network event, never a crash. Zero on a healthy run.
  std::uint64_t decode_errors = 0;
};

struct RtResult {
  bool all_live_halted = false;
  bool timed_out = false;
  bool solution_found = false;
  double solution = bnb::kInfinity;
  double wall_seconds = 0.0;
  /// Per member, the work ledger merged across every incarnation (crashed
  /// incarnations' spend included) and the current incarnation's halt
  /// instant, plus the member-order aggregate of the ledgers. Real threads
  /// make the *values* nondeterministic run to run; the composition mirrors
  /// SimCluster's.
  std::vector<core::WorkerStats> workers;
  core::WorkLedger work;
  std::vector<bool> crashed;  // ever crash-injected
  std::vector<std::uint32_t> incarnations_per_worker;
  /// Per member: incarnations that opened a v1 report delta chain (sent at
  /// least one report/gossip batch). A worker crashed mid-stream and revived
  /// shows 2 — the revived incarnation restarted from a self-contained
  /// report rather than the dead predecessor's delta base.
  std::vector<std::uint32_t> report_streams_per_worker;
  /// Incarnation hygiene: every spawned worker thread must be joined by the
  /// time the result exists. The chaos-soak test asserts reaped ==
  /// incarnations, i.e. churn never leaks a thread.
  std::uint32_t incarnations = 0;
  std::uint32_t reaped = 0;
  /// Redundant-work accounting over all incarnations (total - unique).
  std::uint64_t total_expanded = 0;
  std::uint64_t unique_expanded = 0;
  std::uint64_t redundant_expansions = 0;
  RtNetStats net;
};

class Cluster {
 public:
  /// Spawns one thread per live worker incarnation, arms the fault schedule
  /// on a wall-clock deadline scheduler, runs to termination (all live
  /// workers detect completion and every scheduled injection has fired) or
  /// the wall timeout, joins everything, reports.
  static RtResult run(const bnb::IProblemModel& model, const RtConfig& config);
};

}  // namespace ftbb::rt
