// Randomized simulator workloads shared by the chaos fuzzer and the
// simulator golden test: fault schedules and fleet trials.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "repair/planner.h"
#include "rs/rs_code.h"
#include "sched/scheduler.h"
#include "sched/wave.h"
#include "topology/placement.h"
#include "util/rng.h"

namespace rpr::testing {

/// Uniform draw in [lo, hi) from the top 53 bits of one rng() call.
inline double frac(util::Xoshiro256& rng, double lo, double hi) {
  const double u =
      static_cast<double>(rng() >> 11) / static_cast<double>(1ull << 53);
  return lo + u * (hi - lo);
}

/// Draws a random fault schedule over a `racks` x `nodes` cluster. Kill
/// counts are bounded so most trials stay recoverable, but nothing
/// prevents the draw from exceeding tolerance — those trials must throw,
/// not mis-repair.
inline fault::FaultSchedule random_schedule(util::Xoshiro256& rng,
                                            std::size_t racks,
                                            std::size_t nodes) {
  using topology::NodeId;
  using topology::RackId;
  fault::FaultSchedule s;
  s.seed = rng();
  const std::size_t node_kills = rng() % 3;  // 0..2
  for (std::size_t i = 0; i < node_kills; ++i) {
    s.kills.push_back({static_cast<NodeId>(rng() % nodes),
                       frac(rng, 0.001, 0.050)});
  }
  if (rng() % 4 == 0) {
    s.rack_kills.push_back({static_cast<RackId>(rng() % racks),
                            frac(rng, 0.001, 0.050)});
  }
  if (rng() % 3 == 0) {
    s.stragglers.push_back({static_cast<NodeId>(rng() % nodes),
                            frac(rng, 2.0, 8.0), 1 + rng() % 3});
  }
  if (rng() % 3 == 0) {
    s.slow_disks.push_back({static_cast<NodeId>(rng() % nodes),
                            frac(rng, 2.0, 16.0)});
  }
  if (rng() % 4 == 0) {
    // One rack cut off, healing: alive-but-unreachable helpers must be
    // waited out, never substituted away.
    const auto cut = static_cast<RackId>(rng() % racks);
    std::vector<RackId> rest;
    for (std::size_t r = 0; r < racks; ++r) {
      if (r != cut) rest.push_back(static_cast<RackId>(r));
    }
    s.partitions.push_back({{cut}, rest, frac(rng, 0.001, 0.030),
                            frac(rng, 0.050, 0.300)});
  }
  return s;
}

/// One randomized fleet workload and scheduler configuration.
struct FleetTrial {
  sched::FleetWorkload workload;
  sched::SchedulerOptions options;
  std::size_t probes = 0;  ///< explicit probe reads in the workload
};

/// Draws a fleet trial over a node-loss wave: arrival times, priorities, read
/// probes and foreground load, under randomized scheduler knobs
/// (admission bound, repair share, slicing, aging, degraded policy, auto
/// scheme).
inline FleetTrial random_fleet_trial(util::Xoshiro256& rng,
                                     const sched::NodeLossWave& fleet) {
  const std::size_t nodes = fleet.cluster.total_nodes();
  FleetTrial t;
  const std::size_t damaged = fleet.workload.stripes.size();
  const std::size_t count = 2 + rng() % (damaged - 1);  // 2..damaged
  for (std::size_t s = 0; s < count; ++s) {
    sched::StripeArrival arrival;
    arrival.problem = fleet.workload.stripes[s].problem;
    arrival.arrival_s = frac(rng, 0.0, 0.05);
    arrival.priority = static_cast<int>(rng() % 3);
    t.workload.stripes.push_back(std::move(arrival));
    if (rng() % 2 == 0) {
      // Half the probes target the lost block (degraded path), half a
      // random block that is usually healthy.
      const std::size_t block =
          rng() % 2 == 0 ? fleet.workload.stripes[s].problem.failed[0]
                         : rng() % fleet.code.config().total();
      t.workload.reads.push_back(
          {frac(rng, 0.001, 0.1), s, block,
           static_cast<topology::NodeId>(rng() % nodes)});
      ++t.probes;
    }
  }
  if (rng() % 2 == 0) {
    t.workload.foreground.qps = frac(rng, 10.0, 80.0);
    t.workload.foreground.duration_s = 0.05;
    t.workload.foreground.read_size = 1 << 16;
    t.workload.foreground.seed = rng();
  }

  sched::SchedulerOptions& opts = t.options;
  opts.max_inflight = 1 + rng() % 4;
  const double shares[3] = {1.0, 0.5, 0.25};
  opts.repair_share = shares[rng() % 3];
  opts.slice_size = rng() % 2 == 0 ? 1 << 18 : 0;
  opts.aging_priority_per_s = rng() % 2 == 0 ? 25.0 : 0.0;
  opts.degraded = rng() % 2 == 0 ? sched::DegradedPolicy::kServe
                                 : sched::DegradedPolicy::kWaitForCommit;
  opts.auto_scheme = rng() % 2 == 0;
  return t;
}

}  // namespace rpr::testing
