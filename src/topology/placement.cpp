#include "topology/placement.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <stdexcept>

namespace rpr::topology {

Placement::Placement(Cluster cluster, rs::CodeConfig cfg,
                     std::vector<NodeId> node_of_block)
    : cluster_(cluster), cfg_(cfg), node_of_(std::move(node_of_block)) {
  if (node_of_.size() != cfg_.total()) {
    throw std::invalid_argument("Placement: one node per block required");
  }
  // Blocks must land on distinct nodes.
  auto sorted = node_of_;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    throw std::invalid_argument("Placement: duplicate node assignment");
  }
}

Placement Placement::rotated(std::size_t shift) const {
  std::vector<NodeId> nodes(node_of_.size());
  for (std::size_t b = 0; b < nodes.size(); ++b) {
    const RackId rack = (cluster_.rack_of(node_of_[b]) + shift) %
                        cluster_.racks();
    nodes[b] = rack * cluster_.nodes_per_rack() +
               node_of_[b] % cluster_.nodes_per_rack();
  }
  return Placement(cluster_, cfg_, std::move(nodes));
}

std::vector<std::size_t> Placement::blocks_in_rack(RackId rack) const {
  std::vector<std::size_t> out;
  for (std::size_t b = 0; b < node_of_.size(); ++b) {
    if (cluster_.rack_of(node_of_[b]) == rack) out.push_back(b);
  }
  return out;
}

std::vector<RackId> Placement::racks_used() const {
  std::vector<RackId> out;
  for (std::size_t b = 0; b < node_of_.size(); ++b) {
    const RackId r = cluster_.rack_of(node_of_[b]);
    if (std::find(out.begin(), out.end(), r) == out.end()) out.push_back(r);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t Placement::max_blocks_per_rack() const {
  std::map<RackId, std::size_t> count;
  for (std::size_t b = 0; b < node_of_.size(); ++b) {
    ++count[cluster_.rack_of(node_of_[b])];
  }
  std::size_t best = 0;
  for (const auto& [rack, c] : count) best = std::max(best, c);
  return best;
}

std::size_t racks_needed(rs::CodeConfig cfg, PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kFlat:
      return cfg.total();
    case PlacementPolicy::kContiguous:
    case PlacementPolicy::kRpr:
      return cfg.racks_when_full();
  }
  return cfg.total();
}

namespace {

std::vector<NodeId> contiguous_nodes(const Cluster& cluster,
                                     rs::CodeConfig cfg) {
  // Rack i receives blocks [i*k, (i+1)*k), matching Fig. 3: for RS(4,2),
  // r0 = {d0, d1}, r1 = {d2, d3}, r2 = {p0, p1}.
  std::vector<NodeId> nodes(cfg.total());
  for (std::size_t b = 0; b < cfg.total(); ++b) {
    const RackId rack = b / cfg.k;
    const std::size_t slot_in_rack = b % cfg.k;
    nodes[b] = cluster.slot(rack, slot_in_rack);
  }
  return nodes;
}

}  // namespace

Placement make_placement(const Cluster& cluster, rs::CodeConfig cfg,
                         PlacementPolicy policy) {
  if (cluster.racks() < racks_needed(cfg, policy)) {
    throw std::invalid_argument("make_placement: not enough racks");
  }

  switch (policy) {
    case PlacementPolicy::kFlat: {
      std::vector<NodeId> nodes(cfg.total());
      for (std::size_t b = 0; b < cfg.total(); ++b) {
        nodes[b] = cluster.slot(b, 0);
      }
      return Placement(cluster, cfg, std::move(nodes));
    }

    case PlacementPolicy::kContiguous: {
      if (cluster.block_slots_per_rack() < cfg.k) {
        throw std::invalid_argument("make_placement: rack slots < k");
      }
      return Placement(cluster, cfg, contiguous_nodes(cluster, cfg));
    }

    case PlacementPolicy::kRpr: {
      if (cluster.block_slots_per_rack() < cfg.k) {
        throw std::invalid_argument("make_placement: rack slots < k");
      }
      auto nodes = contiguous_nodes(cluster, cfg);
      // §3.3: move every parity that shares P0's rack into a data rack by
      // swapping with a data block; the displaced data joins P0. Distinct
      // data racks are chosen round-robin so no rack exceeds k blocks.
      // Example RS(4,2): contiguous r2 = {p0, p1}; swap p1 <-> d0 gives
      // r0 = {p1, d1}, r2 = {p0, d0} — exactly the paper's Fig. 4 layout.
      const std::size_t p0 = rs::p0_index(cfg);
      const auto p0_rack = [&] { return cluster.rack_of(nodes[p0]); };
      std::size_t next_data = 0;  // data block cursor for swaps
      for (std::size_t parity = p0 + 1; parity < cfg.total(); ++parity) {
        if (cluster.rack_of(nodes[parity]) != p0_rack()) continue;
        // Find the next data block outside P0's rack to swap with.
        while (next_data < cfg.n &&
               cluster.rack_of(nodes[next_data]) == p0_rack()) {
          ++next_data;
        }
        assert(next_data < cfg.n && "there is always a data rack to swap with");
        std::swap(nodes[parity], nodes[next_data]);
        ++next_data;
      }
      return Placement(cluster, cfg, std::move(nodes));
    }
  }
  throw std::logic_error("make_placement: unknown policy");
}

NodeId pick_replacement(const Placement& placement, RackId preferred_rack,
                        const std::set<std::size_t>& lost,
                        const std::set<NodeId>& unusable,
                        std::span<const NodeId> chosen) {
  const Cluster& cluster = placement.cluster();
  std::vector<bool> taken(cluster.total_nodes(), false);
  std::vector<std::size_t> load(cluster.racks(), 0);
  for (const NodeId node : unusable) taken.at(node) = true;
  for (std::size_t b = 0; b < placement.code().total(); ++b) {
    taken[placement.node_of(b)] = true;
    if (lost.count(b) == 0) ++load[placement.rack_of(b)];
  }
  for (const NodeId node : chosen) {
    ++load[cluster.rack_of(node)];
    taken[node] = true;
  }
  // The preferred rack, then every other rack that can take one more block
  // of the stripe, in rack order; then any free node.
  std::vector<RackId> racks = {preferred_rack};
  for (RackId r = 0; r < cluster.racks(); ++r) {
    if (r != preferred_rack && load[r] < placement.code().k) racks.push_back(r);
  }
  for (const RackId r : racks) {
    for (const NodeId node : cluster.nodes_in_rack(r)) {
      if (!taken[node]) return node;
    }
  }
  const auto it = std::find(taken.begin(), taken.end(), false);
  if (it == taken.end()) {
    throw std::runtime_error("pick_replacement: no free node");
  }
  return static_cast<NodeId>(it - taken.begin());
}

PlacedStripe make_placed_stripe(rs::CodeConfig cfg, PlacementPolicy policy) {
  const std::size_t racks = racks_needed(cfg, policy);
  const std::size_t slots =
      policy == PlacementPolicy::kFlat ? 1 : cfg.k;
  // k spares per rack: the worst multi-failure case puts k failures in one
  // rack, and each failed block gets a rack-local replacement node.
  Cluster cluster(racks, slots, /*spares_per_rack=*/cfg.k);
  Placement placement = make_placement(cluster, cfg, policy);
  return PlacedStripe{cluster, std::move(placement)};
}

}  // namespace rpr::topology
