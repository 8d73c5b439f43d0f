// The node-loss recovery wave: the multi-stripe workload one node death
// causes. Consecutive stripes are rack-rotated copies of one RPR
// placement, so node 0 held a block of every one of them, and each stripe
// needs that block rebuilt. The CLI's fleet mode, the fleet benches and
// the fleet tests all build their waves here.
#pragma once

#include <cstdint>
#include <vector>

#include "rs/rs_code.h"
#include "sched/scheduler.h"
#include "topology/placement.h"

namespace rpr::sched {

/// `stripes` rack-rotated RS(cfg) stripes on an RPR-placed cluster of
/// cfg.racks_when_full() racks (k block slots and k spares each). Node 0,
/// slot 0 of rack 0, dies. Rotation shifts whole racks and slot 0 of every
/// rack holds a block, so every stripe kept one block there: each stripe
/// joins `workload` as one arrival at t = 0, priority 0, rebuilding that
/// block at a rack-local spare. Callers add arrival times, foreground load
/// and probe reads (probe_lost_blocks) to `workload`.
///
/// The wave owns the code, the cluster and the placements its workload
/// points at, so it is neither copyable nor movable.
struct NodeLossWave {
  NodeLossWave(rs::CodeConfig cfg, std::size_t stripes,
               std::uint64_t block_size);
  NodeLossWave(const NodeLossWave&) = delete;
  NodeLossWave& operator=(const NodeLossWave&) = delete;

  /// Appends to `workload` one read of the lost block of every
  /// `stride`-th stripe, at `at_s` from the cluster's last node.
  void probe_lost_blocks(double at_s, std::size_t stride = 1);

  /// The wave's stripes with nothing lost and no probe reads, foreground
  /// load kept: the idle baseline a damaged run is compared against.
  [[nodiscard]] FleetWorkload healthy() const;

  const rs::RSCode code;
  const topology::Cluster cluster;
  /// Every stripe's placement, in stripe order.
  const std::vector<topology::Placement> placements;
  FleetWorkload workload;
};

}  // namespace rpr::sched
