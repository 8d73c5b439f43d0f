// Repair-plan intermediate representation.
//
// A repair plan is a DAG of three op kinds over block-sized values:
//
//   kRead    — materialize coeff * block at the node storing `block`
//              (coefficient scaling happens exactly once, at the leaf;
//              every later combination is a plain XOR, which is what makes
//              partial decoding legal — paper §2.1.2).
//   kSend    — move a value from its current node to another node.
//   kCombine — XOR one or more co-located values into one, optionally
//              charged at "decoding with matrix" speed (the traditional
//              decode path builds M'^-1 first; paper §3.3 measures that at
//              ~4x the XOR-path cost).
//
// The same plan is consumed by three executors:
//   * SimExecutor   — timing + traffic on the discrete-event simulator,
//   * DataExecutor  — bit-exact evaluation over real buffers (the
//                     correctness oracle used by tests and the storage
//                     layer); each requested value is computed from its
//                     leaf coefficients in one fused pass over the stripe,
//                     so only outputs allocate,
//   * runtime::Executor — real bytes through paced channels or TCP.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "topology/cluster.h"

namespace rpr::repair {

using OpId = std::size_t;
inline constexpr OpId kNoOp = std::numeric_limits<OpId>::max();

enum class OpKind { kRead, kSend, kCombine };

struct PlanOp {
  OpKind kind = OpKind::kRead;
  /// kRead/kCombine: the node the value lives on. kSend: the destination.
  topology::NodeId node = 0;
  /// kSend only: the source node (must match the input value's node).
  topology::NodeId from = 0;
  /// kRead only: stripe block index and scaling coefficient.
  std::size_t block = 0;
  std::uint8_t coeff = 1;
  /// kSend: exactly one input. kCombine: one or more inputs.
  std::vector<OpId> inputs;
  /// kCombine only: optional per-input coefficients (parallel to `inputs`;
  /// empty means all ones). Lets a receiver scale raw blocks locally — the
  /// traditional scheme ships unscaled blocks and applies the decoding
  /// matrix at the recovery node.
  std::vector<std::uint8_t> input_coeffs;
  /// kCombine only: charge the matrix-decode cost instead of the XOR cost.
  bool with_matrix_cost = false;
  std::string label;
};

struct RepairPlan {
  std::vector<PlanOp> ops;
  std::uint64_t block_size = 0;

  OpId read(topology::NodeId node, std::size_t block, std::uint8_t coeff,
            std::string label = {});
  OpId send(OpId value, topology::NodeId from, topology::NodeId to,
            std::string label = {});
  OpId combine(topology::NodeId node, std::vector<OpId> inputs,
               bool with_matrix_cost = false, std::string label = {});
  OpId combine_scaled(topology::NodeId node, std::vector<OpId> inputs,
                      std::vector<std::uint8_t> coeffs,
                      bool with_matrix_cost = false, std::string label = {});

  /// Node at which op `id`'s value is resident.
  [[nodiscard]] topology::NodeId node_of(OpId id) const {
    return ops[id].node;
  }
};

/// Structural validation: ids in range and topologically ordered (inputs
/// precede uses), sends depart from the input's node, combines only merge
/// co-located values. Throws std::logic_error on violation. Every planner
/// output is validated in tests; executors assume a valid plan.
void validate(const RepairPlan& plan, const topology::Cluster& cluster);

/// Static traffic accounting (no simulation needed): counts each kSend as
/// block_size bytes over an inner- or cross-rack link.
struct PlanTraffic {
  std::uint64_t cross_rack_bytes = 0;
  std::uint64_t inner_rack_bytes = 0;
  std::size_t cross_rack_transfers = 0;
  std::size_t inner_rack_transfers = 0;
};
[[nodiscard]] PlanTraffic traffic(const RepairPlan& plan,
                                  const topology::Cluster& cluster);

}  // namespace rpr::repair
