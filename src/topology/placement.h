// Stripe-to-node placement policies (paper §2.2 and §3.3).
//
// All policies enforce single-rack fault tolerance: at most k blocks of one
// stripe per rack (§2.3). Three policies are provided:
//
//  * kFlat        — one block per rack (classic HDFS-style placement; needs
//                   q >= n + k racks). High repair traffic, used as context.
//  * kContiguous  — the paper's baseline layout (Fig. 3): racks are filled
//                   with k blocks each in stripe order, so data racks come
//                   first and parity blocks cluster in the last rack(s).
//  * kRpr         — the pre-placement optimization (§3.3): start from
//                   kContiguous, then move every parity block that shares a
//                   rack with P0 out into a data rack (swapping with a data
//                   block), so P0 lives among data blocks. After this, a
//                   single data-block failure can be repaired from
//                   {surviving data, P0} with pure XOR, with probability
//                   ~1/n even avoiding any cross-rack reach into parity
//                   racks, and never requires building a decoding matrix.
#pragma once

#include <set>
#include <span>
#include <vector>

#include "rs/rs_code.h"
#include "topology/cluster.h"

namespace rpr::topology {

enum class PlacementPolicy { kFlat, kContiguous, kRpr };

/// Maps every block index of one stripe to the node storing it.
/// Cluster is a small value type, so Placement stores its own copy; a
/// Placement is self-contained and safely copyable.
class Placement {
 public:
  Placement(Cluster cluster, rs::CodeConfig cfg,
            std::vector<NodeId> node_of_block);

  [[nodiscard]] const rs::CodeConfig& code() const noexcept { return cfg_; }
  [[nodiscard]] const Cluster& cluster() const noexcept { return cluster_; }

  [[nodiscard]] NodeId node_of(std::size_t block) const {
    return node_of_[block];
  }
  [[nodiscard]] RackId rack_of(std::size_t block) const {
    return cluster_.rack_of(node_of_[block]);
  }

  /// Blocks of this stripe living in `rack`, in block-index order.
  [[nodiscard]] std::vector<std::size_t> blocks_in_rack(RackId rack) const;

  /// Racks that hold at least one block of this stripe.
  [[nodiscard]] std::vector<RackId> racks_used() const;

  /// Max blocks co-located in one rack. Single-rack fault tolerance holds
  /// iff this is <= k.
  [[nodiscard]] std::size_t max_blocks_per_rack() const;

  [[nodiscard]] bool rack_fault_tolerant() const {
    return max_blocks_per_rack() <= cfg_.k;
  }

  /// This placement with every block moved `shift` racks on (modulo the
  /// rack count), keeping its slot within the rack: how consecutive
  /// stripes spread across a cluster.
  [[nodiscard]] Placement rotated(std::size_t shift) const;

 private:
  Cluster cluster_;
  rs::CodeConfig cfg_;
  std::vector<NodeId> node_of_;
};

/// Builds a placement under `policy`. The cluster must have enough racks /
/// slots; `racks_needed` reports the minimum rack count for a policy.
[[nodiscard]] Placement make_placement(const Cluster& cluster,
                                       rs::CodeConfig cfg,
                                       PlacementPolicy policy);

[[nodiscard]] std::size_t racks_needed(rs::CodeConfig cfg,
                                       PlacementPolicy policy);

/// Where a rebuilt block of `placement`'s stripe goes: the one replacement
/// decision of storage, the fleet wave and mid-repair re-plans. Never a node
/// in `unusable` (dead, or a full disk), of the placement, or in `chosen`
/// (destinations already picked for the stripe's other blocks). First
/// choice: the first such node of `preferred_rack`; then of the lowest other
/// rack whose load (blocks outside `lost` plus `chosen` nodes) is below k,
/// keeping single-rack fault tolerance; then any such node. Throws
/// std::runtime_error when no node is free.
[[nodiscard]] NodeId pick_replacement(const Placement& placement,
                                      RackId preferred_rack,
                                      const std::set<std::size_t>& lost,
                                      const std::set<NodeId>& unusable,
                                      std::span<const NodeId> chosen);

/// Convenience: builds a cluster just big enough for `cfg` under `policy`
/// (k spare nodes per rack, enough replacement targets for any recoverable
/// failure pattern) together with the placement itself.
struct PlacedStripe {
  Cluster cluster;
  Placement placement;
};
[[nodiscard]] PlacedStripe make_placed_stripe(rs::CodeConfig cfg,
                                              PlacementPolicy policy);

}  // namespace rpr::topology
