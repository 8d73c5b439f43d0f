// Resilient repair execution: the driver that turns a single-shot repair
// plan into a fault-tolerant repair session.
//
// The driver owns the session state (outstanding equation per failed block,
// partial sums already banked at each destination) and delegates each
// attempt to an engine-agnostic AttemptFn. An attempt either completes —
// returning the output blocks — or aborts with the node it declared lost
// plus every value that finished before the failure. On abort the driver:
//
//   1. banks reusable finished values into per-equation partial sums
//      (exact leaf-contribution match, see repair/replan.h),
//   2. patches every outstanding equation that references a block on a dead
//      node (equation substitution over the remaining healthy blocks),
//   3. plans the remainder with the rack-aware pipeline and tries again,
//
// up to a bounded number of re-plans. Observability: `repair.replans`,
// `repair.retries`, `repair.faults_injected` counters plus one re-plan span
// per recovery round flow through the obs::Probe.
//
// Engines: `simulate_resilient` runs the whole session on the discrete-event
// simulator (kills at simulated time, bit-exact values via DataExecutor);
// `execute_resilient_with` adapts any threaded engine whose execute()
// returns a runtime::TestbedResult-shaped outcome (Testbed, TcpRuntime).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "repair/planner.h"
#include "repair/replan.h"
#include "rs/rs_code.h"

namespace rpr::repair {

/// Result of one execution attempt of one plan.
struct AttemptOutcome {
  bool completed = false;
  /// completed: the requested outputs' values (parallel to the `outputs`
  /// span the attempt was given).
  std::vector<rs::Block> outputs;
  /// aborted: the node declared lost (killed, or retries exhausted).
  topology::NodeId dead_node = fault::kNoNode;
  /// aborted: every node declared lost by this attempt (a whole-rack death
  /// names them all, so one re-plan absorbs the whole failure domain).
  /// When empty, `dead_node` alone is the casualty list.
  std::vector<topology::NodeId> dead_nodes;
  /// aborted by a fabric partition: the blamed endpoints are ALIVE but
  /// unreachable — the driver must not substitute their blocks away.
  bool partitioned = false;
  /// partitioned aborts: seconds until the cut heals (engine clock);
  /// < 0 means the partition is permanent and the driver must reroute.
  double heal_wait_s = -1.0;
  /// partitioned aborts: side of the cut per node (index = NodeId, value
  /// 0/1). Empty unless `partitioned`.
  std::vector<int> partition_side;
  /// aborted: values fully materialized before the failure, excluding any
  /// resident on a dead node.
  std::vector<std::pair<OpId, rs::Block>> finished;
  std::size_t retries = 0;
  std::size_t faults_injected = 0;
  double elapsed_s = 0.0;
  std::uint64_t cross_rack_bytes = 0;
  std::uint64_t inner_rack_bytes = 0;
  /// Transfer tasks that carried those bytes (one per slice when sliced);
  /// counted by the simulator only.
  std::size_t cross_rack_transfers = 0;
  std::size_t inner_rack_transfers = 0;
};

/// Executes one plan over `stripe` (which may be extended with pseudo
/// partial slots beyond n+k) and reports completion or failure.
using AttemptFn = std::function<AttemptOutcome(
    const RepairPlan& plan, std::span<const OpId> outputs,
    std::span<const rs::Block> stripe)>;

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
  /// Called when an attempt aborted on a healing partition: the driver
  /// waits this many engine-seconds before retrying instead of substituting
  /// the unreachable helpers. Threaded engines sleep scaled wall time; the
  /// simulator advances its session clock internally (hook may be empty).
  std::function<void(double)> wait_for_heal;
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

/// Runs a repair session to completion: plans with `planner`, executes with
/// `attempt`, re-plans around failures with `planner.rpr_options()`.
/// `stripe` must hold the real bytes of every healthy block (failed entries
/// ignored). Throws std::runtime_error when the re-plan budget is exhausted
/// or the stripe becomes unrecoverable.
ResilientOutcome execute_resilient(const RepairProblem& problem,
                                   const Planner& planner,
                                   const AttemptFn& attempt,
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

/// Adapts a threaded engine (runtime::Testbed, net::TcpRuntime — anything
/// whose execute(plan, outputs, stripe) returns a TestbedResult-shaped
/// struct with retries/faults_injected/abort fields) into a resilient
/// session. The engine instance persists across attempts so nodes it
/// declared dead stay dead.
template <typename Engine>
ResilientOutcome execute_resilient_with(Engine& engine,
                                        const RepairProblem& problem,
                                        const Planner& planner,
                                        std::span<const rs::Block> stripe,
                                        const ResilientOptions& opts = {}) {
  AttemptFn attempt = [&engine](const RepairPlan& plan,
                                std::span<const OpId> outputs,
                                std::span<const rs::Block> view) {
    auto r = engine.execute(plan, outputs, view);
    AttemptOutcome a;
    a.retries = r.retries;
    a.faults_injected = r.faults_injected;
    a.elapsed_s =
        std::chrono::duration_cast<std::chrono::duration<double>>(r.wall_time)
            .count();
    a.cross_rack_bytes = r.cross_rack_bytes;
    a.inner_rack_bytes = r.inner_rack_bytes;
    if (r.abort.has_value()) {
      a.dead_node = r.abort->dead_node;
      a.dead_nodes = std::move(r.abort->dead_nodes);
      a.partitioned = r.abort->partitioned;
      a.heal_wait_s = r.abort->heal_wait_s;
      a.partition_side = std::move(r.abort->partition_side);
      a.finished = std::move(r.abort->completed);
    } else {
      a.completed = true;
      a.outputs = std::move(r.outputs);
    }
    return a;
  };
  ResilientOptions adapted = opts;
  if (!adapted.wait_for_heal) {
    // Threaded engines run on a (scaled) wall clock: riding out a healing
    // partition means actually sleeping until the cut re-opens.
    adapted.wait_for_heal = [](double s) {
      if (s > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(s));
      }
    };
  }
  return execute_resilient(problem, planner, attempt, stripe, adapted);
}

}  // namespace rpr::repair
