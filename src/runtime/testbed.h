// Threaded testbed: runtime::Executor over a paced channel — the
// simulator's port model on the wall clock, and nothing more. Partial
// decodes run the real region kernels, and matrix-path decodes run the
// general (unoptimized) GF path plus a real matrix inversion, but the
// channel moves no bytes: a send is a view of its input (exec_state.h),
// and the channel only holds the ports for the range's link time, then
// publishes it. (TCP is the engine that moves real bytes.) Total repair
// time is measured wall-clock; see runtime/executor.h for the op threads,
// slicing, fault injection and blame.
//
// Port model mirrors the simulator: moving a slice range holds the
// sender's TX port, the receiver's RX port and — when crossing racks — the
// two racks' uplink channels for its whole (paced) duration. Ports are
// taken per range, so concurrent streams through one port interleave at
// slice granularity. Acquisition follows a fixed stage order (node TX ->
// rack TX -> rack RX -> node RX), which rules out deadlock by
// construction. Pacing sleeps toward the range's deadline — its start plus
// its link time (util/pace.h) — in short steps, so a mid-transfer death or
// an active fabric partition interrupts the transfer rather than
// completing it, and a range whose deadline has already passed makes no
// sleep call; a retried attempt resumes from the first slice not yet
// published.
#pragma once

#include <cstdint>
#include <span>

#include "repair/plan.h"
#include "rs/rs_code.h"
#include "runtime/executor.h"
#include "topology/cluster.h"

namespace rpr::runtime {

class Testbed final : public Executor {
 public:
  Testbed(topology::Cluster cluster, TestbedParams params);

  /// Runs the plan to completion with one thread per op. `stripe` supplies
  /// the block contents for kRead ops.
  repair::Attempt execute(const repair::RepairPlan& plan,
                          std::span<const repair::OpId> outputs,
                          std::span<const rs::Block> stripe) override;

  /// Measures the achieved throughput between two nodes by timing a paced
  /// transfer of `bytes` (used to regenerate Table 1).
  [[nodiscard]] double measure_mbps(topology::NodeId from, topology::NodeId to,
                                    std::uint64_t bytes);
};

}  // namespace rpr::runtime
