// Threaded repair executor: runs a RepairPlan with one thread per plan op,
// real block buffers, real GF(2^8) arithmetic and real transfers. It is the
// stand-in for the paper's EC2 evaluation (§5.2): where the simulator
// *models* transfer and decode costs, the executor *incurs* them.
// runtime::Testbed and net::TcpRuntime derive from it and differ only in
// their Transport — how the bytes of one send op cross from one node to
// another. It is a repair::Engine (repair/attempt.h): every execute()
// returns the one attempt record, and riding out a healing partition is a
// sleep.
//
// Every value streams through detail::ExecState in slices of `slice_size`
// bytes (slice pipelining, Li et al., "Repair Pipelining for Erasure-Coded
// Storage"): a combine or send starts on a slice the moment every input
// published it. Whole-block store-and-forward is the one-slice case
// (`slice_size` 0 or >= the block), not a separate code path.
//
// Only TCP moves real bytes. Before any op thread starts, the executor
// binds as views (exec_state.h) every read (its stripe block plus its
// coefficient), every local move, and — on a transport whose sends move no
// bytes (the testbed's paced channel) — every send: each is a view of its
// input and copies nothing. Consumers apply a view's coefficient as they
// touch the bytes.
//
// The executor owns everything that does not depend on the wire:
//  * reads (instant, or stalled by a slow disk), which only publish;
//  * local moves, which publish as their input does, and combines
//    (detail::stream_combine);
//  * sends: the straggle -> attempt -> jittered-backoff retry loop around
//    the transport, and who is declared lost when retries run out;
//  * the fault session: kills on the wall clock since construction (and
//    explorer-injected kills), dead nodes that persist across execute()
//    calls so repair::execute_resilient_with can re-plan around them,
//    straggler and slow-disk budgets, partition lookup;
//  * span recording and the repair::Attempt / repair::Abort it returns.
//
// Who is blamed when a send op fails: an endpoint found dead (at an attempt
// or mid-stream) is blamed as it is found and the op fails at once; when
// every attempt failed and a partition still separates the endpoints, the
// run aborts `partitioned` and nobody is declared lost; otherwise the
// sender is declared lost after straggling (or being cut by a partition
// that has since healed) and the receiver after being unreachable.
//
// `time_scale` multiplies every bandwidth so experiments finish quickly:
// with scale 32, a 1 Gb/s link moves a 4 MiB block in ~1 ms of wall time.
// Ratios between schemes — what the figures report — are scale-invariant.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>

#include "check/scheduler.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "repair/attempt.h"
#include "repair/plan.h"
#include "rs/rs_code.h"
#include "runtime/exec_state.h"
#include "runtime/region_net.h"
#include "topology/cluster.h"

namespace rpr::runtime {

/// Parameters of a threaded engine (the testbed and the TCP runtime take
/// the same ones; TestbedParams and net::TcpRuntimeParams name this type).
struct ExecutorParams {
  RegionNet net = RegionNet::uniform(1, util::Bandwidth::gbps(10),
                                     util::Bandwidth::gbps(1));
  /// Multiplies all bandwidths (1.0 = real time).
  double time_scale = 1.0;
  /// Dimension of the decoding matrix really inverted by matrix-path
  /// decodes (set it to the code's n; it only affects a micro-cost).
  std::size_t decode_matrix_dim = 8;
  /// Optional span recorder: every executed op becomes a wall-clock span
  /// (bytes + measured throughput) on its node's track — transfers on the
  /// receiving node's row — comparable 1:1 with a simulated trace of the
  /// same plan. Must outlive execute().
  obs::Recorder* recorder = nullptr;
  /// Faults to inject (kill times are seconds since engine construction).
  fault::FaultSchedule faults;
  /// Retry/backoff/straggler-detection policy for transfers; op_deadline_s
  /// also bounds every TCP connect and recv, so dead peers produce errors,
  /// not hangs.
  fault::RetryPolicy retry;
  /// Values move through the dataplane in slices of this many bytes; 0 (or
  /// anything >= the block) is whole-block store-and-forward, the one-slice
  /// case. Defaults from the RPR_SLICE_SIZE environment variable.
  std::size_t slice_size = default_slice_size();
  /// Optional registry for per-slice latency histograms, slice counters,
  /// the peak bytes-in-flight gauge and (TCP) connection-pool counters,
  /// under "testbed." / "tcp.". Must outlive execute().
  obs::MetricsRegistry* metrics = nullptr;
};

using TestbedParams = ExecutorParams;

/// Outcome of one transfer attempt (or one slice range of it).
enum class Xfer {
  kOk,
  kDead,         ///< an endpoint died (already blamed): retrying cannot help
  kCut,          ///< a partition separates the endpoints: back off, retry
  kUnreachable,  ///< connection error: back off, retry (receiver at fault)
  kStale,        ///< a pooled connection had gone stale: retry at once
  kStraggle,     ///< abandoned at the straggler deadline: back off, retry
  kInputFailed,  ///< the forwarded value failed upstream
};

class Executor;

/// One execute() call: the shared value state plus the run's counters and
/// blame, used by the op threads and the transport alike.
struct Run {
  /// Binds every read to its block of `blocks`, and every local move — and
  /// every send when `sends_are_views` — to its input (see
  /// ExecState::bind_view).
  Run(Executor& executor, const repair::RepairPlan& repair_plan,
      std::span<const rs::Block> blocks, bool sends_are_views);

  /// True iff `node` is dead (kill time passed, explorer kill, or lost).
  bool is_dead(topology::NodeId node);
  /// Records `node` as the abort's culprit unless one was recorded first.
  void blame(topology::NodeId node);
  /// is_dead(node), blaming it when it is.
  bool blame_if_dead(topology::NodeId node);
  /// Marks `node` dead for the rest of the session and blames it.
  void declare_lost(topology::NodeId node);
  void note_partition(const fault::Partition* p);
  /// Keeps the first unexpected exception; execute() rethrows it.
  void record_error(const std::string& what);

  Executor& ex;
  const repair::RepairPlan& plan;
  detail::ExecState state;
  detail::SliceMetrics metrics;
  std::atomic<std::uint64_t> cross_bytes{0};
  std::atomic<std::uint64_t> inner_bytes{0};
  std::atomic<std::size_t> retries{0};
  std::atomic<std::size_t> faults{0};
  /// First node whose loss failed an op, and first partition that exhausted
  /// an op's retries (its endpoints stay alive); reported in the abort.
  std::atomic<topology::NodeId> first_dead{fault::kNoNode};
  std::atomic<const fault::Partition*> first_cut{nullptr};

 private:
  friend class Executor;
  check::Mutex err_mu_{"exec.err"};
  std::string first_error_;
};

/// Moves the bytes of send ops between nodes. The executor drives one
/// attempt as open() once the first slice range is ready, then move() over
/// contiguous published slice ranges, then close(); the transport
/// publishes what it moved (directly, or from the receiving side).
class Transport {
 public:
  virtual ~Transport() = default;
  /// True iff a send's value is a view of its input: move() only paces
  /// the range and publishes it, and the receiver keeps no copy (the
  /// testbed's channel). False when the receiving side writes its own copy
  /// of the bytes (TCP ingest).
  [[nodiscard]] virtual bool sends_are_views() const { return false; }
  /// Per-run setup before any op thread starts (TCP: listeners, acceptors).
  virtual void begin(Run&) {}
  /// Per-run teardown after every op thread finished.
  virtual void end(Run&) {}
  /// The slice an attempt of send op `id` starts from. By default a retry
  /// resumes past the prefix the receiving side already published.
  virtual std::size_t first_slice(Run& run, repair::OpId id) {
    return run.state.progress(id);
  }
  /// Opens an attempt once its first slice range is ready (TCP: connect
  /// and write the frame header).
  virtual Xfer open(Run&, repair::OpId) { return Xfer::kOk; }
  /// Moves slices [first, upto) of send op `id`.
  virtual Xfer move(Run& run, repair::OpId id, std::size_t first,
                    std::size_t upto) = 0;
  /// Ends the attempt; `ok` iff every slice moved.
  virtual void close(Run&, repair::OpId, bool /*ok*/) {}
};

class Executor : public repair::Engine {
 public:
  /// Sleeps `seconds` of wall time (the engine clock, already scaled).
  void wait_for_heal(double seconds) override;

  [[nodiscard]] const topology::Cluster& cluster() const noexcept {
    return cluster_;
  }
  [[nodiscard]] const ExecutorParams& params() const noexcept {
    return params_;
  }
  /// Nodes that have died so far (kill times passed or retries exhausted).
  [[nodiscard]] std::set<topology::NodeId> dead_nodes() const;
  /// The active partition separating two racks right now, or nullptr.
  [[nodiscard]] const fault::Partition* active_partition(
      topology::RackId a, topology::RackId b) const;

 protected:
  /// `name` prefixes error messages; `metrics_prefix` names the run's
  /// metrics ("testbed", "tcp").
  Executor(const char* name, const char* metrics_prefix,
           topology::Cluster cluster, ExecutorParams params);

  /// Runs the plan to completion over `transport`: a derived engine's
  /// execute(). `stripe` supplies the block contents for kRead ops; each
  /// must be plan.block_size bytes.
  repair::Attempt execute_over(const repair::RepairPlan& plan,
                               std::span<const repair::OpId> outputs,
                               std::span<const rs::Block> stripe,
                               Transport& transport);

 private:
  friend struct Run;
  bool is_dead(topology::NodeId node);
  void mark_dead(topology::NodeId node);
  [[nodiscard]] double elapsed_s() const;
  /// Consumes one afflicted attempt of a straggling sender, if any is left.
  bool afflicted(topology::NodeId node, const fault::Straggle* straggle);

  bool read(Run& run, repair::OpId id, double& stall_s);
  bool move_local(Run& run, repair::OpId id,
                  std::chrono::steady_clock::time_point& op_start);
  bool send(Run& run, repair::OpId id, Transport& transport,
            std::chrono::steady_clock::time_point& op_start,
            double& stall_s);
  void assemble_abort(Run& run, repair::Attempt& result);

  const char* name_;
  const char* metrics_prefix_;
  topology::Cluster cluster_;
  ExecutorParams params_;
  /// Session clock origin for kill times.
  std::chrono::steady_clock::time_point session_start_;
  mutable check::Mutex fault_mu_{"exec.fault"};
  /// Nodes dead so far; persists across execute() calls.
  std::set<topology::NodeId> dead_;
  /// Afflicted transfer attempts consumed per straggling node (transient
  /// straggles clear once this reaches the schedule's attempt budget).
  std::map<topology::NodeId, std::size_t> afflicted_;
  /// Slow-disk nodes already counted as an injected fault this session.
  std::set<topology::NodeId> slowdisk_counted_;
};

}  // namespace rpr::runtime
