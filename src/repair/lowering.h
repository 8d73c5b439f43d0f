// Internal: the one plan -> simulator-task lowering, shared by the
// SimExecutor entry points (executor_sim.cpp) and the discrete-event chaos
// engine (resilient.cpp), for both the port simulator and the fluid model.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "repair/plan.h"
#include "simnet/simnet.h"
#include "util/slice.h"

namespace rpr::repair::detail {

/// The simulator tasks an op lowered to: one per slice (exactly one in
/// whole-block mode). An op is finished when its last slice task finished;
/// it touches a node iff any of its tasks does.
struct LoweredPlan {
  std::vector<std::vector<simnet::TaskId>> slice_tasks;

  [[nodiscard]] simnet::TaskId last(OpId id) const {
    return slice_tasks[id].back();
  }
};

/// Lowers `plan` onto `net`.
///
/// Whole-block (slice_size == 0, or >= block_size): the historical
/// one-task-per-op lowering —
///  * kRead  -> zero-cost compute at the owning node;
///  * kSend  -> block transfer over node ports (+ rack ports when crossing);
///  * kCombine -> compute charged at the XOR- or matrix-decode speed, one
///    block pass per merged buffer beyond the first.
///
/// Sliced: every op becomes one task per slice with the same kind and
/// per-slice cost; slice s depends on slice s of each input plus slice s-1
/// of the op itself. The self-chain keeps each stream ordered (its ports or
/// CPU would serialize it anyway) while slices of *different* ops interleave
/// on shared ports — which is exactly the repair-pipelining effect: a
/// transfer's slice s departs while its producer combines slice s+1, so a
/// chain's makespan collapses from the sum of whole-block stage costs
/// toward the slowest stage plus a one-slice ramp per hop.
template <typename Network>
LoweredPlan lower_plan(Network& net, const RepairPlan& plan,
                       std::size_t slice_size) {
  const std::size_t nslices = util::slice_count(plan.block_size, slice_size);
  LoweredPlan lowered;
  lowered.slice_tasks.resize(plan.ops.size());
  std::vector<simnet::TaskId> deps;  // reused: the network copies it
  for (OpId id = 0; id < plan.ops.size(); ++id) {
    const PlanOp& op = plan.ops[id];
    std::vector<simnet::TaskId>& mine = lowered.slice_tasks[id];
    mine.reserve(nslices);
    const std::uint64_t passes =
        op.inputs.size() >= 2 ? op.inputs.size() - 1 : 1;
    for (std::size_t s = 0; s < nslices; ++s) {
      deps.clear();
      for (OpId in : op.inputs) deps.push_back(lowered.slice_tasks[in][s]);
      if (s > 0) deps.push_back(mine[s - 1]);
      const std::uint64_t bytes =
          util::slice_len(plan.block_size, slice_size, s);
      switch (op.kind) {
        case OpKind::kRead:
          mine.push_back(net.add_compute(op.node, 0, deps, op.label));
          break;
        case OpKind::kSend:
          mine.push_back(
              net.add_transfer(op.from, op.node, bytes, deps, op.label));
          break;
        case OpKind::kCombine:
          mine.push_back(net.add_compute(
              op.node,
              net.decode_duration(bytes * passes, op.with_matrix_cost), deps,
              op.label));
          break;
      }
      // Stamp the task with its plan identity where the network supports
      // it, so the telemetry layer can reconstruct per-op causality.
      if constexpr (requires {
                      net.tag_task(mine.back(), std::int64_t{},
                                   std::int64_t{});
                    }) {
        net.tag_task(mine.back(), static_cast<std::int64_t>(id),
                     nslices == 1 ? -1 : static_cast<std::int64_t>(s));
      }
    }
  }
  return lowered;
}

}  // namespace rpr::repair::detail
