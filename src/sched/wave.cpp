#include "sched/wave.h"

#include <utility>

namespace rpr::sched {

NodeLossWave::NodeLossWave(rs::CodeConfig cfg, std::size_t stripes,
                           std::uint64_t block_size)
    : code(cfg),
      cluster(cfg.racks_when_full(), cfg.k, cfg.k),
      placements([&] {
        const topology::Placement base = topology::make_placement(
            cluster, cfg, topology::PlacementPolicy::kRpr);
        std::vector<topology::Placement> rotated;
        rotated.reserve(stripes);
        for (std::size_t s = 0; s < stripes; ++s) {
          rotated.push_back(base.rotated(s));
        }
        return rotated;
      }()) {
  for (const topology::Placement& placement : placements) {
    std::size_t lost = 0;
    while (placement.node_of(lost) != 0) ++lost;  // always on node 0
    StripeArrival arrival;
    arrival.problem.code = &code;
    arrival.problem.placement = &placement;
    arrival.problem.block_size = block_size;
    arrival.problem.failed = {lost};
    arrival.problem.choose_default_replacements();
    workload.stripes.push_back(std::move(arrival));
  }
}

void NodeLossWave::probe_lost_blocks(double at_s, std::size_t stride) {
  const auto reader = static_cast<topology::NodeId>(cluster.total_nodes() - 1);
  for (std::size_t s = 0; s < workload.stripes.size(); s += stride) {
    workload.reads.push_back(
        ReadEvent{at_s, s, workload.stripes[s].problem.failed[0], reader});
  }
}

FleetWorkload NodeLossWave::healthy() const {
  FleetWorkload w = workload;
  w.reads.clear();
  for (StripeArrival& s : w.stripes) {
    s.problem.failed.clear();
    s.problem.replacements.clear();
  }
  return w;
}

}  // namespace rpr::sched
