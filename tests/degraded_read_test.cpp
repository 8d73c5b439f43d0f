// Direct tests for the degraded-read planner (DegradedReadPlanner, a
// one-block RPR repair rooted at the reader): correctness of the
// single-sub-equation plan, lost-source exclusion, XOR path behaviour, and
// delivery location.
#include <gtest/gtest.h>

#include "repair/executor_data.h"
#include "repair/executor_sim.h"
#include "repair/planner.h"
#include "test_support.h"

using rpr::repair::PlannedRepair;
using rpr::rs::CodeConfig;
using rpr::rs::RSCode;
using rpr::topology::PlacementPolicy;

namespace {

struct ReadHarness {
  CodeConfig cfg;
  RSCode code;
  rpr::topology::PlacedStripe placed;
  std::vector<rpr::rs::Block> stripe;

  explicit ReadHarness(CodeConfig c)
      : cfg(c),
        code(c),
        placed(rpr::topology::make_placed_stripe(c, PlacementPolicy::kRpr)),
        stripe(rpr::testing::random_stripe(code, 512, 0xD1AB10)) {}

  /// Plans the read of `target` at `reader` with every block of `lost`
  /// unavailable.
  [[nodiscard]] PlannedRepair read(std::uint64_t block_size,
                                   std::vector<std::size_t> lost,
                                   std::size_t target,
                                   rpr::topology::NodeId reader) const {
    rpr::repair::RepairProblem p;
    p.code = &code;
    p.placement = &placed.placement;
    p.block_size = block_size;
    p.failed = {target};
    p.replacements = {reader};
    return rpr::repair::DegradedReadPlanner(std::move(lost)).plan(p);
  }
};

}  // namespace

TEST(DegradedRead, ReconstructsTargetAtDestination) {
  ReadHarness h({8, 4});
  const auto reader = h.placed.cluster.spare(1, 0);
  for (std::size_t target = 0; target < h.cfg.total(); ++target) {
    const std::vector<std::size_t> lost = {target};
    const auto planned = h.read(512, lost, target, reader);
    ASSERT_NO_THROW(rpr::repair::validate(planned.plan, h.placed.cluster));
    EXPECT_EQ(planned.plan.node_of(planned.outputs[0]), reader);
    const auto rebuilt =
        rpr::repair::execute_on_data(planned.plan, planned.outputs, h.stripe);
    EXPECT_EQ(rebuilt[0], h.stripe[target]) << "target " << target;
  }
}

TEST(DegradedRead, NeverReadsAnyLostBlock) {
  ReadHarness h({12, 4});
  const std::vector<std::size_t> lost = {2, 7, 13};
  const auto planned = h.read(512, lost, 7, h.placed.cluster.spare(0));
  for (const auto& op : planned.plan.ops) {
    if (op.kind != rpr::repair::OpKind::kRead) continue;
    for (const auto l : lost) EXPECT_NE(op.block, l);
  }
  const auto rebuilt =
      rpr::repair::execute_on_data(planned.plan, planned.outputs, h.stripe);
  EXPECT_EQ(rebuilt[0], h.stripe[7]);
}

TEST(DegradedRead, SingleDataLossUsesXorPath) {
  ReadHarness h({6, 3});
  const auto planned = h.read(512, {1}, 1, h.placed.cluster.spare(2));
  EXPECT_FALSE(planned.used_decoding_matrix);
}

TEST(DegradedRead, MultiLossUsesMatrixPath) {
  ReadHarness h({6, 3});
  const auto planned = h.read(512, {1, 2}, 1, h.placed.cluster.spare(2));
  EXPECT_TRUE(planned.used_decoding_matrix);
}

TEST(DegradedRead, CheaperThanFullMultiRepair) {
  // A one-block degraded read must cost no more than repairing all lost
  // blocks (it evaluates a single sub-equation).
  ReadHarness h({12, 4});
  const std::vector<std::size_t> lost = {0, 4, 8};
  const auto reader = h.placed.cluster.spare(0);
  const auto read_planned = h.read(64 << 20, lost, 4, reader);
  rpr::repair::RepairProblem full;
  full.code = &h.code;
  full.placement = &h.placed.placement;
  full.block_size = 64 << 20;
  full.failed = lost;
  full.choose_default_replacements();
  const rpr::repair::RprPlanner planner;
  const auto full_planned = planner.plan(full);

  const rpr::topology::NetworkParams params;
  const auto read_cost = rpr::repair::simulate(read_planned.plan,
                                               h.placed.cluster, params);
  const auto full_cost = rpr::repair::simulate(full_planned.plan,
                                               h.placed.cluster, params);
  EXPECT_LE(read_cost.total_repair_time, full_cost.total_repair_time);
  EXPECT_LT(read_cost.cross_rack_bytes, full_cost.cross_rack_bytes);
}

TEST(DegradedRead, RejectsBadArguments) {
  ReadHarness h({6, 3});
  const auto reader = h.placed.cluster.spare(0);
  // target not in lost set
  EXPECT_THROW((void)h.read(512, {1}, 2, reader), std::invalid_argument);
  // too many losses
  EXPECT_THROW((void)h.read(512, {0, 1, 2, 3}, 0, reader),
               std::invalid_argument);
}
