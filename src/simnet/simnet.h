// Discrete-event network simulator for rack-organized clusters.
//
// This is the stand-in for the paper's Simics + wondershaper setup (§5.1):
// it executes a DAG of block transfers and compute steps over the two-level
// topology and reports the makespan and traffic, deterministically.
//
// Resource model (matches the paper's "timestep" reasoning in Figs. 3-5):
//  * each node has one transmit port and one receive port; a port carries
//    one transfer at a time (store-and-forward of whole blocks);
//  * each rack's TOR uplink has one transmit and one receive channel for
//    cross-rack traffic: a rack can send one cross-rack transfer and receive
//    one cross-rack transfer concurrently, but two simultaneous incoming
//    cross-rack transfers serialize (this is why schedule 1 in Fig. 5 costs
//    3 t_c: r1, r2, r3 all target the recovery rack);
//  * transfer duration = bytes / inner-bandwidth (same rack) or
//    bytes / cross-bandwidth (different racks); same-node "transfers" are
//    free (local disk read, not modelled);
//  * compute steps occupy the node's CPU, one at a time.
//
// Scheduling is greedy and work-conserving: whenever a task's dependencies
// are done, it starts as soon as all of its ports are free, FIFO-ordered by
// (ready time, submission order). This realizes the greedy behaviour of the
// paper's Cross algorithm (§3.2): a planner only encodes the transfer DAG
// and the simulator starts every transfer at the earliest feasible moment.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "topology/cluster.h"
#include "util/units.h"

namespace rpr::simnet {

using TaskId = std::size_t;
inline constexpr TaskId kNoTask = std::numeric_limits<TaskId>::max();

enum class TaskKind { kTransfer, kCompute };

/// Which workload a task belongs to. Repair traffic is the reconstruction
/// DAG; foreground is the competing client-read workload the fleet
/// scheduler injects. Only repair traffic is subject to the arbiter.
enum class TrafficClass : std::uint8_t { kRepair = 0, kForeground = 1 };

/// Hierarchical token-bucket bandwidth arbiter. Each node TX/RX port and
/// each rack cross-TX/RX channel carries a deficit bucket for the repair
/// class: credit accrues at `repair_share` port-seconds per second (capped
/// at zero, so idle time banks no burst), a repair transfer may start once
/// every port it occupies has non-negative credit, and starting deducts the
/// full port occupancy (credit may go negative — the borrow is what
/// throttles the *next* repair transfer, so arbitrary transfer sizes never
/// starve). Long-run repair usage of every port is therefore at most
/// `repair_share`, regardless of task granularity. Foreground traffic is
/// never gated.
struct ArbiterConfig {
  double repair_share = 1.0;  ///< (0, 1]; 1.0 disables gating
};

struct TaskStats {
  TaskKind kind = TaskKind::kTransfer;
  std::string label;
  /// Where the task's result lives: transfer destination / compute node.
  topology::NodeId node = 0;
  /// Transfer source (equals `node` for computes and local reads).
  topology::NodeId from = 0;
  util::SimTime ready = 0;   ///< all dependencies finished
  util::SimTime start = 0;   ///< ports acquired
  util::SimTime finish = 0;  ///< done
  bool cross_rack = false;
  std::uint64_t bytes = 0;
  TrafficClass cls = TrafficClass::kRepair;
  int priority = 0;
  /// Plan-op / slice identity stamped by the lowering (tag_task); -1 when
  /// the task was submitted directly rather than lowered from a plan.
  std::int64_t op = -1;
  std::int64_t slice = -1;
  /// The task ids this task waited on — the causal edges the instrument
  /// layer turns into trace flow arrows and the critical-path DAG.
  std::vector<TaskId> deps;
};

struct RunResult {
  util::SimTime makespan = 0;
  std::uint64_t cross_rack_bytes = 0;
  std::uint64_t inner_rack_bytes = 0;
  std::size_t cross_rack_transfers = 0;
  std::size_t inner_rack_transfers = 0;
  /// Cross-rack bytes uploaded (sent) per rack: the load-balance metric the
  /// paper cares about (traditional repair concentrates everything on the
  /// recovery rack).
  std::vector<std::uint64_t> rack_upload_bytes;
  std::vector<std::uint64_t> rack_download_bytes;
  /// Transferred bytes split by workload class (both directions of split
  /// sum to cross_rack_bytes + inner_rack_bytes).
  std::uint64_t repair_bytes = 0;
  std::uint64_t foreground_bytes = 0;
  std::vector<TaskStats> tasks;  ///< indexed by TaskId
};

class SimNetwork {
 public:
  SimNetwork(topology::Cluster cluster, topology::NetworkParams params);

  /// Adds a block transfer from `from` to `to`. Starts after all `deps`.
  /// A same-node transfer completes instantly (local read).
  TaskId add_transfer(topology::NodeId from, topology::NodeId to,
                      std::uint64_t bytes, std::vector<TaskId> deps,
                      std::string label = {});

  /// Adds a compute step of fixed `duration` at node `at`.
  TaskId add_compute(topology::NodeId at, util::SimTime duration,
                     std::vector<TaskId> deps, std::string label = {});

  /// Convenience: compute duration for decoding `bytes` at the given speed.
  [[nodiscard]] util::SimTime decode_duration(std::uint64_t bytes,
                                              bool with_matrix) const;

  /// Stamps a task with the plan op (and slice) it was lowered from, so
  /// post-run telemetry can reconstruct per-op causality. slice = -1 means
  /// whole-value.
  void tag_task(TaskId id, std::int64_t op, std::int64_t slice);

  /// Straggler mode: every transfer departing `node` takes `factor` times
  /// longer (a degraded NIC or flapping TOR port). factor must be >= 1.
  void slow_node(topology::NodeId node, double factor);

  /// Slow-disk mode: every compute/decode step at `node` takes `factor`
  /// times longer (degraded storage feeding the GF kernels). factor >= 1.
  void slow_compute(topology::NodeId node, double factor);

  /// Assigns a task to a workload class (default kRepair). Repair
  /// transfers are gated by the arbiter when one is configured.
  void set_class(TaskId id, TrafficClass cls);

  /// Start-order priority among tasks that become ready at the same
  /// instant (higher starts first; default 0). Never preempts.
  void set_priority(TaskId id, int priority);

  /// The task may not start before this absolute sim time even if its
  /// dependencies are done — models arrival processes (stripe failures,
  /// client reads) without fake dependency edges.
  void set_earliest_start(TaskId id, util::SimTime at);

  /// Installs the bandwidth arbiter (see ArbiterConfig). repair_share
  /// must be in (0, 1]; 1.0 leaves repair ungated.
  void set_arbiter(ArbiterConfig cfg);

  /// Called during run() after each batch of simultaneous completions,
  /// with the ids that just finished. The hook may add new tasks (and
  /// set their class/priority/earliest_start); they are integrated into
  /// the running simulation, starting no earlier than `now`. This is the
  /// reactive entry point the fleet scheduler uses for admission control
  /// and degraded-read resolution.
  using FinishHook =
      std::function<void(util::SimTime now, std::span<const TaskId> done)>;
  void set_finish_hook(FinishHook hook);

  [[nodiscard]] const topology::Cluster& cluster() const noexcept {
    return cluster_;
  }
  [[nodiscard]] const topology::NetworkParams& params() const noexcept {
    return params_;
  }
  [[nodiscard]] std::size_t task_count() const noexcept {
    return tasks_.size();
  }

  /// Runs the simulation to completion. May be called once per instance.
  RunResult run();

 private:
  struct Task {
    TaskKind kind;
    topology::NodeId from = 0;
    topology::NodeId to = 0;
    std::uint64_t bytes = 0;
    util::SimTime duration = 0;  // computes only
    std::vector<TaskId> deps;
    std::string label;
    std::int64_t op = -1;
    std::int64_t slice = -1;
    TrafficClass cls = TrafficClass::kRepair;
    int priority = 0;
    util::SimTime earliest_start = 0;
    std::size_t unmet_deps = 0;
    std::vector<TaskId> dependents;
  };

  TaskId add_task(Task t);

  topology::Cluster cluster_;
  topology::NetworkParams params_;
  std::vector<Task> tasks_;
  /// Per-node outgoing-transfer slowdown (1.0 = healthy); empty when unused.
  std::vector<double> tx_slowdown_;
  /// Per-node compute slowdown (slow disk feeding decode); empty = unused.
  std::vector<double> compute_slowdown_;
  ArbiterConfig arbiter_;
  bool arbiter_enabled_ = false;
  FinishHook finish_hook_;
  /// Set while run() is active so add_task knows to defer dependency
  /// accounting to the in-run integration step.
  bool running_phase_ = false;
  bool ran_ = false;
};

}  // namespace rpr::simnet
