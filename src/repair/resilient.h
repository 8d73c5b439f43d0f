// Resilient repair execution: the driver that turns a single-shot repair
// plan into a fault-tolerant repair session.
//
// The driver owns the session state (outstanding equation per failed block,
// partial sums already banked at each destination) and delegates each
// attempt to a repair::Engine (repair/attempt.h). An attempt either
// completes — returning the output blocks — or aborts with the nodes it
// declared lost plus every value that finished before the failure. On
// abort the driver:
//
//   1. banks reusable finished values into per-equation partial sums
//      (exact leaf-contribution match, see repair/replan.h),
//   2. patches every outstanding equation that references a block on a dead
//      node (equation substitution over the remaining healthy blocks),
//   3. plans the remainder with the rack-aware pipeline and tries again,
//
// up to a bounded number of re-plans. A partition that will heal is ridden
// out instead (Engine::wait_for_heal), with nothing substituted.
// Observability: `repair.replans`, `repair.retries`, `repair.faults_injected`
// counters plus one re-plan span per recovery round flow through the
// obs::Probe.
//
// Engines: `execute_resilient_with` is the one session entry; every engine
// (runtime::Testbed, net::TcpRuntime, the simulator's chaos engine) is an
// Engine. `simulate_resilient` builds the simulator engine (kills at
// simulated time, bit-exact values via DataExecutor) and runs the session
// on it.
#pragma once

#include <cstdint>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "repair/attempt.h"
#include "repair/planner.h"
#include "repair/replan.h"
#include "rs/rs_code.h"

namespace rpr::repair {

struct ResilientOptions {
  /// Maximum number of mid-repair re-plans before giving up.
  std::size_t max_replans = 8;
  /// Nodes known dead before the session starts (e.g. the failed nodes a
  /// storage system is repairing around): unusable to the replacement
  /// picker, and their blocks count toward no rack's load.
  std::set<topology::NodeId> unavailable;
  /// Nodes that can relay repair traffic but cannot hold a committed block
  /// (disk full): unusable to the replacement picker, so a replacement
  /// there is moved before the first plan and no re-plan picks one.
  std::set<topology::NodeId> no_commit;
  /// Telemetry: counters repair.replans / repair.retries /
  /// repair.faults_injected, plus one span per re-plan round.
  /// simulate_resilient also records every attempt's run (sim.*).
  obs::Probe probe;
};

struct ResilientOutcome {
  /// Rebuilt blocks, parallel to RepairProblem::failed.
  std::vector<rs::Block> outputs;
  /// Final destination per output (differs from the problem's replacement
  /// when that node cannot commit or died mid-repair).
  std::vector<topology::NodeId> destinations;
  std::size_t replans = 0;
  std::size_t retries = 0;
  std::size_t faults_injected = 0;
  /// Finished values banked into partials instead of being re-fetched.
  std::size_t reused_values = 0;
  /// Re-plans that changed an equation's cross-rack shape (RPR <-> CAR <->
  /// traditional) after its destination was relocated.
  std::size_t scheme_switches = 0;
  /// Aborts ridden out by waiting for a partition to heal (no substitution
  /// of the unreachable helpers).
  std::size_t partition_waits = 0;
  double total_time_s = 0.0;
  std::uint64_t cross_rack_bytes = 0;
  std::uint64_t inner_rack_bytes = 0;
  /// simulate_resilient only: transfer tasks, as repair::simulate counts
  /// them.
  std::size_t cross_rack_transfers = 0;
  std::size_t inner_rack_transfers = 0;
  bool used_decoding_matrix = false;
};

/// Thrown when a repair session runs out of re-plan budget. Carries the
/// salvage report: how much banked work survives for a future session.
class ReplanBudgetExhausted : public std::runtime_error {
 public:
  ReplanBudgetExhausted(std::size_t replans, std::size_t salvaged_values,
                        std::uint64_t salvaged_bytes, std::string report)
      : std::runtime_error("execute_resilient: re-plan budget exhausted"),
        replans_(replans),
        salvaged_values_(salvaged_values),
        salvaged_bytes_(salvaged_bytes),
        report_(std::move(report)) {}

  [[nodiscard]] std::size_t replans() const noexcept { return replans_; }
  [[nodiscard]] std::size_t salvaged_values() const noexcept {
    return salvaged_values_;
  }
  [[nodiscard]] std::uint64_t salvaged_bytes() const noexcept {
    return salvaged_bytes_;
  }
  /// Human-readable abort report: per-equation outstanding terms and
  /// banked partials at the moment the budget ran out.
  [[nodiscard]] const std::string& report() const noexcept { return report_; }

 private:
  std::size_t replans_;
  std::size_t salvaged_values_;
  std::uint64_t salvaged_bytes_;
  std::string report_;
};

/// The problem a session's first plan answers: `problem` with every
/// replacement on an `opts.no_commit` node moved by topology::pick_replacement,
/// so the plan's traffic and time reach where the block really lands.
[[nodiscard]] RepairProblem plan_around_full_disks(
    const RepairProblem& problem, const ResilientOptions& opts);

/// Runs a repair session to completion: plans with `planner`, executes
/// every attempt on `engine`, re-plans around failures with
/// `planner.rpr_options()`. `stripe` must hold the real bytes of every
/// healthy block (failed entries ignored). Throws std::runtime_error when
/// the re-plan budget is exhausted or the stripe becomes unrecoverable.
ResilientOutcome execute_resilient_with(Engine& engine,
                                        const RepairProblem& problem,
                                        const Planner& planner,
                                        std::span<const rs::Block> stripe,
                                        const ResilientOptions& opts = {});

/// Full resilient session on the discrete-event simulator: kills fire at
/// simulated time on a session-wide clock (attempt N+1 starts where attempt
/// N was cut), stragglers scale the afflicted node's transfer durations, and
/// values are bit-exact (DataExecutor). Deterministic: same schedule, same
/// outcome. An empty schedule is the zero-fault session: one attempt whose
/// bytes, traffic, time and sim.* telemetry are those of plan + simulate +
/// execute_on_data.
ResilientOutcome simulate_resilient(const RepairProblem& problem,
                                    const Planner& planner,
                                    std::span<const rs::Block> stripe,
                                    const topology::NetworkParams& net,
                                    const fault::FaultSchedule& faults,
                                    const ResilientOptions& opts = {});

}  // namespace rpr::repair
