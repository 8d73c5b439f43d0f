// Cluster and placement-policy tests.
#include "topology/placement.h"

#include <gtest/gtest.h>

#include <algorithm>

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
