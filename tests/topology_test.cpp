// Cluster and placement-policy tests.
#include "topology/placement.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <stdexcept>
#include <vector>

#include "test_support.h"

using rpr::rs::CodeConfig;
using rpr::topology::Cluster;
using rpr::topology::make_placed_stripe;
using rpr::topology::make_placement;
using rpr::topology::Placement;
using rpr::topology::PlacementPolicy;

TEST(Cluster, NodeRackMapping) {
  const Cluster c(3, 2, 1);  // 3 racks x (2 slots + 1 spare)
  EXPECT_EQ(c.total_nodes(), 9u);
  EXPECT_EQ(c.nodes_per_rack(), 3u);
  EXPECT_EQ(c.rack_of(0), 0u);
  EXPECT_EQ(c.rack_of(2), 0u);
  EXPECT_EQ(c.rack_of(3), 1u);
  EXPECT_EQ(c.rack_of(8), 2u);
  EXPECT_TRUE(c.same_rack(0, 2));
  EXPECT_FALSE(c.same_rack(2, 3));
  EXPECT_EQ(c.slot(1, 0), 3u);
  EXPECT_EQ(c.spare(1), 5u);
  EXPECT_THROW((void)c.slot(1, 2), std::out_of_range);  // slot 2 is the spare
  EXPECT_THROW((void)c.rack_of(9), std::out_of_range);
}

TEST(Cluster, RejectsDegenerateShapes) {
  EXPECT_THROW(Cluster(0, 2), std::invalid_argument);
  EXPECT_THROW(Cluster(2, 0), std::invalid_argument);
}

class PlacementPolicyTest : public ::testing::TestWithParam<CodeConfig> {};

TEST_P(PlacementPolicyTest, ContiguousMatchesPaperLayout) {
  const CodeConfig cfg = GetParam();
  const auto ps = make_placed_stripe(cfg, PlacementPolicy::kContiguous);
  // Block b lives in rack b / k.
  for (std::size_t b = 0; b < cfg.total(); ++b) {
    EXPECT_EQ(ps.placement.rack_of(b), b / cfg.k);
  }
  EXPECT_TRUE(ps.placement.rack_fault_tolerant());
}

TEST_P(PlacementPolicyTest, RprPlacementIsRackFaultTolerant) {
  const CodeConfig cfg = GetParam();
  const auto ps = make_placed_stripe(cfg, PlacementPolicy::kRpr);
  EXPECT_TRUE(ps.placement.rack_fault_tolerant());
}

TEST_P(PlacementPolicyTest, RprPlacesP0AwayFromOtherParity) {
  const CodeConfig cfg = GetParam();
  const auto ps = make_placed_stripe(cfg, PlacementPolicy::kRpr);
  const auto p0_rack = ps.placement.rack_of(rpr::rs::p0_index(cfg));
  for (std::size_t parity = cfg.n + 1; parity < cfg.total(); ++parity) {
    EXPECT_NE(ps.placement.rack_of(parity), p0_rack)
        << "parity " << parity << " shares P0's rack";
  }
}

TEST_P(PlacementPolicyTest, RprKeepsEveryBlockPlacedExactlyOnce) {
  const CodeConfig cfg = GetParam();
  const auto ps = make_placed_stripe(cfg, PlacementPolicy::kRpr);
  std::vector<rpr::topology::NodeId> nodes;
  for (std::size_t b = 0; b < cfg.total(); ++b) {
    nodes.push_back(ps.placement.node_of(b));
  }
  std::sort(nodes.begin(), nodes.end());
  EXPECT_TRUE(std::adjacent_find(nodes.begin(), nodes.end()) == nodes.end());
}

TEST_P(PlacementPolicyTest, RprP0SharesRackWithDataWhenRackHoldsMultiple) {
  const CodeConfig cfg = GetParam();
  if (cfg.k < 2) GTEST_SKIP();
  const auto ps = make_placed_stripe(cfg, PlacementPolicy::kRpr);
  const auto p0_rack = ps.placement.rack_of(rpr::rs::p0_index(cfg));
  const auto mates = ps.placement.blocks_in_rack(p0_rack);
  // P0's rack holds k blocks; all non-P0 occupants must be data blocks.
  ASSERT_GE(mates.size(), 2u);
  for (std::size_t b : mates) {
    if (b == rpr::rs::p0_index(cfg)) continue;
    EXPECT_TRUE(cfg.is_data(b)) << "block " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperConfigs, PlacementPolicyTest,
    ::testing::ValuesIn(rpr::testing::paper_configs()),
    [](const ::testing::TestParamInfo<CodeConfig>& i) {
      return rpr::testing::config_name(i.param);
    });

TEST(Placement, FlatOneBlockPerRack) {
  const CodeConfig cfg{4, 2};
  const auto ps = make_placed_stripe(cfg, PlacementPolicy::kFlat);
  EXPECT_EQ(ps.placement.racks_used().size(), cfg.total());
  EXPECT_EQ(ps.placement.max_blocks_per_rack(), 1u);
}

TEST(Placement, BlocksInRackAndRacksUsed) {
  const CodeConfig cfg{4, 2};
  const auto ps = make_placed_stripe(cfg, PlacementPolicy::kContiguous);
  EXPECT_EQ(ps.placement.blocks_in_rack(0),
            (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(ps.placement.blocks_in_rack(2),
            (std::vector<std::size_t>{4, 5}));
  EXPECT_EQ(ps.placement.racks_used(),
            (std::vector<rpr::topology::RackId>{0, 1, 2}));
}

TEST(Placement, RprExampleMatchesPaperFig4) {
  // RS(4,2): contiguous gives r2 = {p0, p1}; the §3.3 swap moves p1 into
  // r0 and d0 into r2, exactly the Fig. 4 layout.
  const CodeConfig cfg{4, 2};
  const auto ps = make_placed_stripe(cfg, PlacementPolicy::kRpr);
  EXPECT_EQ(ps.placement.rack_of(5), 0u);  // p1 -> r0
  EXPECT_EQ(ps.placement.rack_of(0), 2u);  // d0 -> r2
  EXPECT_EQ(ps.placement.rack_of(4), 2u);  // p0 stays in r2
  EXPECT_EQ(ps.placement.rack_of(1), 0u);  // d1 stays in r0
}

TEST(Placement, RotatedShiftsRacksAndKeepsSlots) {
  const CodeConfig cfg{4, 2};
  const auto ps = make_placed_stripe(cfg, PlacementPolicy::kRpr);
  const auto& c = ps.cluster;
  const Placement once = ps.placement.rotated(1);
  for (std::size_t b = 0; b < cfg.total(); ++b) {
    EXPECT_EQ(once.rack_of(b), (ps.placement.rack_of(b) + 1) % c.racks());
    EXPECT_EQ(once.node_of(b) % c.nodes_per_rack(),
              ps.placement.node_of(b) % c.nodes_per_rack());
  }
  EXPECT_EQ(once.max_blocks_per_rack(), ps.placement.max_blocks_per_rack());
  // A full turn is the identity.
  const Placement full = ps.placement.rotated(c.racks());
  for (std::size_t b = 0; b < cfg.total(); ++b) {
    EXPECT_EQ(full.node_of(b), ps.placement.node_of(b));
  }
}

TEST(Placement, TooFewRacksRejected) {
  const Cluster small(2, 4, 1);
  EXPECT_THROW(
      make_placement(small, CodeConfig{4, 2}, PlacementPolicy::kContiguous),
      std::invalid_argument);
}

TEST(Placement, DuplicateNodesRejected) {
  const Cluster c(3, 2, 1);
  std::vector<rpr::topology::NodeId> nodes = {0, 0, 1, 3, 4, 6};
  EXPECT_THROW(Placement(c, CodeConfig{4, 2}, std::move(nodes)),
               std::invalid_argument);
}

// --- The replacement picker. RS(6,3) under kRpr on 4 racks of 3 slots and 3
// spares: racks 0-2 hold k = 3 blocks each on their slots (nodes 0-2, 6-8,
// 12-14), the spares are 3-5, 9-11 and 15-17, and rack 3 (18-23) is empty.

namespace {

using rpr::topology::NodeId;
using rpr::topology::pick_replacement;
using rpr::topology::RackId;

Placement picker_placement(std::size_t racks = 4) {
  return make_placement(Cluster(racks, 3, 3), CodeConfig{6, 3},
                        PlacementPolicy::kRpr);
}

std::size_t block_on(const Placement& p, NodeId node) {
  for (std::size_t b = 0; b < p.code().total(); ++b) {
    if (p.node_of(b) == node) return b;
  }
  throw std::logic_error("no block on node");
}

}  // namespace

TEST(ReplacementPicker, FirstChoiceIsThePreferredRacksFirstFreeNode) {
  const Placement p = picker_placement();
  EXPECT_EQ(pick_replacement(p, 0, {}, {}, {}), 3u);
  EXPECT_EQ(pick_replacement(p, 0, {}, {3}, {}), 4u);
  EXPECT_EQ(pick_replacement(p, 2, {}, {15, 16}, {}), 17u);
  EXPECT_EQ(pick_replacement(p, 3, {}, {}, {}), 18u);
}

TEST(ReplacementPicker, SecondChoiceIsTheLowestOtherRackBelowK) {
  const Placement p = picker_placement();
  const std::set<std::size_t> lost = {block_on(p, 0)};
  // Rack 0 is out of free nodes; racks 1 and 2 hold k blocks each.
  EXPECT_EQ(pick_replacement(p, 0, lost, {0, 3, 4, 5}, {}), 18u);
  // A dead holder in rack 1 drops that rack below k.
  const std::set<std::size_t> lost2 = {block_on(p, 0), block_on(p, 6)};
  EXPECT_EQ(pick_replacement(p, 0, lost2, {0, 3, 4, 5, 6}, {}), 9u);
}

TEST(ReplacementPicker, ThirdChoiceIsAnyFreeNode) {
  // No extra rack: every other rack holds k blocks, so the stripe accepts
  // degraded rack tolerance rather than stay unrepaired.
  const Placement p = picker_placement(3);
  const std::set<std::size_t> lost = {block_on(p, 0)};
  EXPECT_EQ(pick_replacement(p, 0, lost, {0, 3, 4, 5}, {}), 9u);
  EXPECT_EQ(pick_replacement(p, 0, lost, {0, 3, 4, 5, 9, 10}, {}), 11u);
}

TEST(ReplacementPicker, ChosenNodesCountTowardLoadAndAreNeverRepicked) {
  const Placement p = picker_placement();
  const std::set<std::size_t> lost = {block_on(p, 0), block_on(p, 1)};
  const std::set<NodeId> unusable = {0, 1, 3, 4, 5};
  EXPECT_EQ(pick_replacement(p, 0, lost, unusable, std::vector<NodeId>{18}),
            19u);
  // Three chosen destinations fill rack 3 up to k: only the third choice is
  // left.
  EXPECT_EQ(pick_replacement(p, 0, lost, unusable,
                             std::vector<NodeId>{18, 19, 20}),
            9u);
  // Rack 0 holds one intact block; two destinations chosen there bring it
  // up to k, so a rebuild whose own rack is full goes past it.
  const std::set<NodeId> rack2_full = {0, 1, 15, 16, 17};
  EXPECT_EQ(pick_replacement(p, 2, lost, rack2_full, {}), 3u);
  EXPECT_EQ(pick_replacement(p, 2, lost, rack2_full,
                             std::vector<NodeId>{3, 4}),
            18u);
}

TEST(ReplacementPicker, FailedBlockDoesNotCountTowardLoad) {
  const Placement p = picker_placement();
  // Node 6 is alive but its block failed (say, corrupt bytes): rack 1 then
  // holds only two intact blocks and can take the rebuild.
  const std::set<std::size_t> lost = {block_on(p, 0), block_on(p, 6)};
  EXPECT_EQ(pick_replacement(p, 0, lost, {0, 3, 4, 5}, {}), 9u);
  EXPECT_EQ(pick_replacement(p, 0, {block_on(p, 0)}, {0, 3, 4, 5}, {}), 18u);
}

TEST(ReplacementPicker, NeverPicksUnusablePlacementOrChosenNodes) {
  const Placement p = picker_placement();
  const std::size_t total = p.cluster().total_nodes();
  std::set<NodeId> holders;
  for (std::size_t b = 0; b < p.code().total(); ++b) {
    holders.insert(p.node_of(b));
  }
  std::uint64_t state = 12345;
  for (int trial = 0; trial < 500; ++trial) {
    std::set<NodeId> unusable;
    std::vector<NodeId> chosen;
    for (NodeId n = 0; n < total; ++n) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      const unsigned roll = static_cast<unsigned>(state >> 60);
      if (roll < 5) unusable.insert(n);
      if (roll == 5 && holders.count(n) == 0) chosen.push_back(n);
    }
    const RackId rack = static_cast<RackId>(trial) % p.cluster().racks();
    try {
      const NodeId got = pick_replacement(p, rack, {}, unusable, chosen);
      EXPECT_EQ(unusable.count(got), 0u);
      EXPECT_EQ(holders.count(got), 0u);
      EXPECT_EQ(std::count(chosen.begin(), chosen.end(), got), 0);
    } catch (const std::runtime_error&) {
      // Only when nothing is free.
      for (NodeId n = 0; n < total; ++n) {
        EXPECT_TRUE(unusable.count(n) != 0 || holders.count(n) != 0 ||
                    std::count(chosen.begin(), chosen.end(), n) != 0)
            << "node " << n << " was free";
      }
    }
  }
}

TEST(ReplacementPicker, ThrowsWhenNoNodeIsFree) {
  const Placement p = picker_placement(3);
  std::set<NodeId> spares;
  for (RackId r = 0; r < 3; ++r) {
    for (std::size_t i = 0; i < 3; ++i) spares.insert(p.cluster().spare(r, i));
  }
  EXPECT_THROW((void)pick_replacement(p, 0, {}, spares, {}),
               std::runtime_error);
  spares.erase(16);
  EXPECT_EQ(pick_replacement(p, 0, {}, spares, {}), 16u);
}

TEST(ReplacementPicker, FirstChoiceIsTheFirstAliveNodeOfTheRackHoldingNoBlock) {
  // The rule storage has always used for a rack-local replacement (and the
  // one the store-wave benchmark predicts repair traffic with).
  const Placement p = picker_placement();
  const auto reference = [&](RackId rack, const std::set<NodeId>& dead) {
    for (const NodeId n : p.cluster().nodes_in_rack(rack)) {
      bool holds = false;
      for (std::size_t b = 0; b < p.code().total(); ++b) {
        holds = holds || p.node_of(b) == n;
      }
      if (dead.count(n) == 0 && !holds) return std::optional<NodeId>(n);
    }
    return std::optional<NodeId>();
  };
  for (RackId rack = 0; rack < p.cluster().racks(); ++rack) {
    const auto nodes = p.cluster().nodes_in_rack(rack);
    for (unsigned mask = 0; mask < (1u << nodes.size()); ++mask) {
      std::set<NodeId> dead;
      std::set<std::size_t> lost;
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        if ((mask & (1u << i)) == 0) continue;
        dead.insert(nodes[i]);
        for (std::size_t b = 0; b < p.code().total(); ++b) {
          if (p.node_of(b) == nodes[i]) lost.insert(b);
        }
      }
      const auto want = reference(rack, dead);
      if (!want) continue;
      EXPECT_EQ(pick_replacement(p, rack, lost, dead, {}), *want)
          << "rack " << rack << " dead mask " << mask;
    }
  }
}
