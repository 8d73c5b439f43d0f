// Fluid (max-min fair-sharing) network model.
//
// The paper's cost model — and SimNetwork — serialize transfers on ports:
// one block at a time per NIC / TOR uplink, which is where the "timestep"
// arithmetic of §3/§4 comes from. Real TCP fabrics behave differently:
// concurrent flows *share* links. This module re-executes the same task
// graphs under progressive max-min fair sharing so the repository can test
// whether the paper's conclusions depend on the contention model (they do
// not — see bench/ablation_linkmodel):
//
//  * every active transfer is a fluid flow with remaining bytes;
//  * capacities: each node has a TX and an RX interface at the inner-rack
//    bandwidth; each rack has a TOR uplink TX and RX at the cross-rack
//    bandwidth shared by that rack's cross-rack flows;
//  * rates are assigned by water-filling (repeatedly saturate the tightest
//    resource), re-solved whenever a flow starts or finishes;
//  * computes share their node's CPU evenly.
//
// The event loop advances to the next flow/compute completion, so runs are
// deterministic and exact up to integer-nanosecond rounding.
#pragma once

#include "obs/recorder.h"
#include "simnet/simnet.h"

namespace rpr::simnet {

/// Same construction/API shape as SimNetwork, different run() semantics.
class FluidNetwork {
 public:
  FluidNetwork(topology::Cluster cluster, topology::NetworkParams params);

  /// Attaches a recorder that samples each rack uplink's aggregate TX/RX
  /// bandwidth share (Gb/s) at every rate re-solve — the time-varying link
  /// utilization that end-of-run aggregates cannot show. Must be set before
  /// run(); pass nullptr to detach. The recorder must outlive run().
  void set_recorder(obs::Recorder* rec) noexcept { recorder_ = rec; }

  TaskId add_transfer(topology::NodeId from, topology::NodeId to,
                      std::uint64_t bytes, const std::vector<TaskId>& deps,
                      std::string_view label = {});
  TaskId add_compute(topology::NodeId at, util::SimTime duration,
                     const std::vector<TaskId>& deps,
                     std::string_view label = {});
  /// Stamps a task with the plan op/slice it was lowered from (see
  /// SimNetwork::tag_task).
  void tag_task(TaskId id, std::int64_t op, std::int64_t slice);
  [[nodiscard]] util::SimTime decode_duration(std::uint64_t bytes,
                                              bool with_matrix) const;

  [[nodiscard]] const topology::Cluster& cluster() const noexcept {
    return cluster_;
  }

  RunResult run();

 private:
  topology::Cluster cluster_;
  topology::NetworkParams params_;
  TaskTable tasks_;
  /// Bytes (transfers) or cpu-seconds (computes) each task has left.
  util::SegmentedArray<double> remaining_;
  obs::Recorder* recorder_ = nullptr;
  bool ran_ = false;
};

}  // namespace rpr::simnet
