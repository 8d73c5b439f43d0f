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
// Scheduling is greedy and work-conserving. Every task has a start-order
// key (ready time, priority, id): ready is when its last dependency
// finished (or its earliest_start, if later), higher priority goes first,
// and submission order breaks the remaining ties. At each instant the
// simulator offers ready tasks their ports in key order; a task starts the
// moment every port it needs is free, and never preempts. This realizes
// the greedy behaviour of the paper's Cross algorithm (§3.2): a planner
// only encodes the transfer DAG and the simulator starts every transfer at
// the earliest feasible moment.
//
// Cost follows events, not waiting tasks. A task that finds a port busy
// waits on that one port (node TX/RX/CPU, rack uplink TX/RX, or a repair
// credit bucket under the arbiter; see ArbiterConfig) and is looked at
// again only when it frees. A freed port wakes its waiters in key
// order, one at a time, and moves on to the next only while it is still
// free. The next event is the earliest of the next completion, the next
// bucket repayment and the earliest ready time still in the future
// (arrival timers, client reads), so a timed task starts on time even
// while other ready tasks are blocked.
//
// Every event queue (running completions, candidates, timed tasks, bucket
// repayments and each port's waiters) is one util::QuadHeap, a 4-ary
// min-heap. Every key carries its own tie-breaker ((ready, priority, id),
// (finish, id), (at, bucket)), and the only equal keys are identical
// repayments, so the pop sequence, and with it the schedule, is the one
// any correct priority queue gives. The engine's per-task state is one
// array: each task's count of unfinished deps, or a done sentinel.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "topology/cluster.h"
#include "util/segmented_array.h"
#include "util/units.h"

namespace rpr::simnet {

using TaskId = std::size_t;
inline constexpr TaskId kNoTask = std::numeric_limits<TaskId>::max();

enum class TaskKind : std::uint8_t { kTransfer, kCompute };

/// Which workload a task belongs to. Repair traffic is the reconstruction
/// DAG; foreground is the competing client-read workload the fleet
/// scheduler injects. Only repair traffic is subject to the arbiter.
enum class TrafficClass : std::uint8_t { kRepair = 0, kForeground = 1 };

/// Hierarchical token-bucket bandwidth arbiter. Each node TX/RX port and
/// each rack cross-TX/RX channel carries a deficit bucket for the repair
/// class: credit accrues at `repair_share` port-seconds per second (capped
/// at zero, so idle time banks no burst), a repair transfer may start once
/// every port it occupies has non-negative credit, and starting deducts the
/// full port occupancy (credit goes negative — the borrow is what throttles
/// the *next* repair transfer, so arbitrary transfer sizes never starve).
/// A bucket in debt is therefore busy for duration / repair_share after a
/// repair transfer starts on its port, and the simulator treats it like a
/// port: a throttled transfer keeps its place in the start order and waits
/// on the bucket until the debt is repaid. Long-run repair usage of every
/// port is at most `repair_share`, regardless of task granularity.
/// Foreground traffic is never gated.
struct ArbiterConfig {
  double repair_share = 1.0;  ///< (0, 1]; 1.0 disables gating
};

/// Index into RunResult's label table; RunResult::label(id) resolves it.
using LabelId = std::uint32_t;

/// One task's identity and schedule, in one 64-byte cache line. Identity
/// is written as the task is built (add_*, tag_task, set_*); ready/start/
/// finish when it runs. Node ids and op/slice stamps are stored in 32 bits:
/// add_* and tag_task throw std::out_of_range on values that do not fit.
struct TaskStats {
  util::SimTime ready = 0;   ///< all dependencies finished
  util::SimTime start = 0;   ///< ports acquired
  /// Done. Until a compute starts, its duration is parked here.
  util::SimTime finish = 0;
  std::uint64_t bytes = 0;
  /// Plan-op / slice identity stamped by the lowering (tag_task); -1 when
  /// the task was submitted directly rather than lowered from a plan.
  std::int32_t op = -1;
  std::int32_t slice = -1;
  /// Where the task's result lives: transfer destination / compute node.
  std::uint32_t node = 0;
  /// Transfer source (equals `node` for computes and local reads).
  std::uint32_t from = 0;
  int priority = 0;
  LabelId label = 0;
  TaskKind kind = TaskKind::kTransfer;
  TrafficClass cls = TrafficClass::kRepair;
  bool cross_rack = false;

 private:
  friend class TaskTable;
  friend struct RunResult;
  /// The task lists task id - 1 among its deps: that dependent edge is
  /// this bit, not a link (each slice's edge on its predecessor).
  bool after_prev_ = false;
  /// Size of the deps arena before this task's run was appended.
  std::uint32_t dep_begin_ = 0;
};
static_assert(sizeof(TaskStats) == 64, "TaskStats is one cache line");

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
  /// How many times the simulator examined a task for a start: once when
  /// it became ready, plus once per wake-up by a freed port or a repaid
  /// arbiter bucket. The simulator's cost in proportion to its tasks.
  std::size_t start_attempts = 0;
  /// Bytes the task store held at the end of the run: records, the deps
  /// arena, the dependent links and the simulator's own per-task state,
  /// counted in elements used (labels are not counted).
  std::size_t store_bytes = 0;
  /// Indexed by TaskId; read it by index, size() or range-for. Storage
  /// that never moves: a fleet run holds millions of tasks, and regrowing
  /// a vector of them would copy every record several times over.
  util::SegmentedArray<TaskStats> tasks;

  /// The task's label ("" when it has none).
  [[nodiscard]] const std::string& label(TaskId id) const {
    return labels_[tasks[id].label];
  }
  /// The task ids this task waited on, in the order they were given — the
  /// causal edges the instrument layer turns into trace flow arrows and
  /// the critical-path DAG. Stored in 32 bits (TaskTable caps ids below
  /// 2^32).
  [[nodiscard]] std::span<const std::uint32_t> deps(TaskId id) const {
    const std::size_t end = id + 1 < tasks.size()
                                ? tasks[id + 1].dep_begin_
                                : dep_ids_.size();
    return dep_ids_.run(tasks[id].dep_begin_, end);
  }

 private:
  friend class TaskTable;
  /// Interned labels; labels_[0] is "".
  std::vector<std::string> labels_{std::string()};
  /// Every task's deps, appended in id order as one contiguous run each;
  /// task i's run begins at tasks[i].dep_begin_ and ends where task i+1's
  /// begins (or at the arena's end).
  util::SegmentedArray<std::uint32_t> dep_ids_;
};

/// The task store both simulators build their RunResult in: one 64-byte
/// TaskStats per task, every task's deps in one arena of 32-bit ids with
/// each task's run contiguous, labels interned, and each task's dependents
/// as a linked list over one link arena (dependents arrive after the task,
/// even mid-run), except the task just after it, which carries that edge
/// as a bit in its own record. Every per-task array is a
/// util::SegmentedArray: it grows without copying, and once large it
/// faults its pages in 2 MiB at a time.
class TaskTable {
 public:
  /// Appends a transfer of `bytes` from `from` to `to` after `deps`. Throws
  /// std::invalid_argument unless both nodes are in `cluster` and every dep
  /// names an earlier task.
  TaskId add_transfer(const topology::Cluster& cluster, topology::NodeId from,
                      topology::NodeId to, std::uint64_t bytes,
                      std::span<const TaskId> deps, std::string_view label);
  /// Appends a compute of `duration` at node `at` after `deps` (checked
  /// likewise). The duration is parked in the record's `finish` until the
  /// task starts.
  TaskId add_compute(const topology::Cluster& cluster, topology::NodeId at,
                     util::SimTime duration, std::span<const TaskId> deps,
                     std::string_view label);
  /// SimNetwork::tag_task: throws std::out_of_range unless `op` and
  /// `slice` fit in TaskStats' 32-bit fields.
  void tag(TaskId id, std::int64_t op, std::int64_t slice);

  [[nodiscard]] std::size_t size() const noexcept {
    return result_.tasks.size();
  }
  /// Throws std::invalid_argument naming `what` unless `id` exists.
  TaskStats& at(TaskId id, const char* what);
  [[nodiscard]] TaskStats& operator[](TaskId id) {
    return result_.tasks[id];
  }
  [[nodiscard]] std::span<const std::uint32_t> deps(TaskId id) const {
    return result_.deps(id);
  }
  /// Calls f(dependent) for every task that lists `id` among its deps, in
  /// no particular order.
  template <typename F>
  void for_each_dependent(TaskId id, F&& f) const {
    if (id + 1 < size() && result_.tasks[id + 1].after_prev_) f(id + 1);
    for (std::uint32_t l = first_dependent_[id]; l != kNoLink;
         l = links_[l].next) {
      f(TaskId{links_[l].task});
    }
  }
  /// The result under construction; run() fills in the aggregates and
  /// moves it out.
  [[nodiscard]] RunResult& result() noexcept { return result_; }
  /// Bytes of the records, deps arena and dependent links so far.
  [[nodiscard]] std::size_t bytes() const noexcept;

 private:
  static constexpr std::uint32_t kNoLink = 0xffffffffu;
  struct Link {
    std::uint32_t task;  ///< the dependent
    std::uint32_t next;  ///< next link of the same dependency, or kNoLink
  };

  TaskId add(const TaskStats& st, std::span<const TaskId> deps,
             std::string_view label);
  LabelId intern(std::string_view label);

  RunResult result_;
  /// Lets label_ids_ be searched by string_view without a copy.
  struct LabelHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::unordered_map<std::string, LabelId, LabelHash, std::equal_to<>>
      label_ids_;
  LabelId last_label_ = 0;  ///< consecutive tasks usually share a label
  util::SegmentedArray<std::uint32_t> first_dependent_;
  util::SegmentedArray<Link> links_;
};

/// While alive, hands every RunResult that SimNetwork::run() returns on
/// this thread to `fn` (the innermost observer only). This is how a caller
/// sees the runs made inside sched::run_fleet or repair::simulate_resilient,
/// e.g. to fingerprint them.
class RunObserver {
 public:
  explicit RunObserver(std::function<void(const RunResult&)> fn);
  ~RunObserver();
  RunObserver(const RunObserver&) = delete;
  RunObserver& operator=(const RunObserver&) = delete;

  /// Passes `result` to the innermost live observer on this thread.
  static void notify(const RunResult& result);

 private:
  std::function<void(const RunResult&)> fn_;
  RunObserver* outer_;
};

class SimNetwork {
 public:
  SimNetwork(topology::Cluster cluster, topology::NetworkParams params);

  /// Adds a block transfer from `from` to `to`. Starts after all `deps`.
  /// A same-node transfer completes instantly (local read).
  TaskId add_transfer(topology::NodeId from, topology::NodeId to,
                      std::uint64_t bytes, const std::vector<TaskId>& deps,
                      std::string_view label = {});

  /// Adds a compute step of fixed `duration` at node `at`.
  TaskId add_compute(topology::NodeId at, util::SimTime duration,
                     const std::vector<TaskId>& deps,
                     std::string_view label = {});

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
  class Engine;

  topology::Cluster cluster_;
  topology::NetworkParams params_;
  TaskTable tasks_;
  /// Per-node outgoing-transfer slowdown (1.0 = healthy); empty when unused.
  std::vector<double> tx_slowdown_;
  /// Per-node compute slowdown (slow disk feeding decode); empty = unused.
  std::vector<double> compute_slowdown_;
  ArbiterConfig arbiter_;
  bool arbiter_enabled_ = false;
  FinishHook finish_hook_;
  bool ran_ = false;
};

}  // namespace rpr::simnet
