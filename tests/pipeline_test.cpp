// Slice-pipelined dataplane tests: the slice arithmetic shared by every
// engine, byte-identical rebuilds under slicing on the threaded testbed and
// the TCP loopback runtime (odd tails, slice == block, slice > block), the
// simulator's slice-overlap lowering (traffic invariant, chained-plan
// makespan collapse) on both the port and fluid models, and the per-phase
// slice metrics emitted by the obs probe.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "net/tcp_runtime.h"
#include "obs/metrics.h"
#include "repair/executor_data.h"
#include "repair/executor_sim.h"
#include "repair/planner.h"
#include "runtime/testbed.h"
#include "test_support.h"
#include "topology/placement.h"
#include "util/slice.h"

using rpr::repair::OpId;
using rpr::repair::RepairProblem;
using rpr::rs::Block;
using rpr::runtime::RegionNet;
using rpr::runtime::Testbed;
using rpr::runtime::TestbedParams;
using rpr::util::Bandwidth;
using rpr::util::slice_count;
using rpr::util::slice_len;

namespace {

// --- slice arithmetic -----------------------------------------------------

TEST(SliceMath, ZeroSliceSizeMeansWholeBlock) {
  EXPECT_EQ(slice_count(1 << 20, 0), 1u);
  EXPECT_EQ(slice_len(1 << 20, 0, 0), std::size_t{1} << 20);
  EXPECT_EQ(slice_len(1 << 20, 0, 1), 0u);
}

TEST(SliceMath, SliceAtLeastBlockDegeneratesToWholeBlock) {
  EXPECT_EQ(slice_count(4096, 4096), 1u);
  EXPECT_EQ(slice_count(4096, 8192), 1u);
  EXPECT_EQ(slice_len(4096, 8192, 0), 4096u);
}

TEST(SliceMath, LastSliceAbsorbsOddTail) {
  // 100000 = 24 * 4096 + 1696.
  EXPECT_EQ(slice_count(100000, 4096), 25u);
  for (std::size_t s = 0; s < 24; ++s) {
    EXPECT_EQ(slice_len(100000, 4096, s), 4096u);
  }
  EXPECT_EQ(slice_len(100000, 4096, 24), 1696u);
  EXPECT_EQ(slice_len(100000, 4096, 25), 0u);
}

TEST(SliceMath, SliceLengthsSumToValueSize) {
  for (const std::size_t value : {std::size_t{1}, std::size_t{4095},
                                  std::size_t{4096}, std::size_t{100000}}) {
    for (const std::size_t slice :
         {std::size_t{0}, std::size_t{1000}, std::size_t{4096},
          std::size_t{1} << 20}) {
      std::size_t total = 0;
      const std::size_t n = slice_count(value, slice);
      for (std::size_t s = 0; s < n; ++s) total += slice_len(value, slice, s);
      EXPECT_EQ(total, value) << value << "/" << slice;
    }
  }
}

TEST(SliceMath, ZeroByteValueStillCountsOneSlice) {
  EXPECT_EQ(slice_count(0, 4096), 1u);
  EXPECT_EQ(slice_len(0, 4096, 0), 0u);
}

// --- shared repair fixture ------------------------------------------------

/// One single-failure (6,3) RPR repair over real bytes of `block_size`.
struct SlicedRepair {
  rpr::rs::RSCode code{rpr::rs::CodeConfig{6, 3}};
  rpr::topology::PlacedStripe placed = rpr::topology::make_placed_stripe(
      {6, 3}, rpr::topology::PlacementPolicy::kRpr);
  std::vector<Block> stripe;
  RepairProblem problem;
  rpr::repair::PlannedRepair planned;
  std::vector<Block> expected;

  explicit SlicedRepair(std::size_t block_size) {
    stripe = rpr::testing::random_stripe(code, block_size, 33);
    problem.code = &code;
    problem.placement = &placed.placement;
    problem.block_size = block_size;
    problem.failed = {0};
    problem.choose_default_replacements();
    planned = rpr::repair::make_planner(rpr::repair::Scheme::kRpr)
                  ->plan(problem);
    expected = rpr::repair::execute_on_data(planned.plan, planned.outputs,
                                            stripe);
  }
};

TestbedParams fast_testbed(std::size_t racks) {
  TestbedParams p;
  p.net = RegionNet::uniform(racks, Bandwidth::gbps(10), Bandwidth::gbps(1));
  p.time_scale = 256.0;
  p.decode_matrix_dim = 6;
  return p;
}

rpr::net::TcpRuntimeParams fast_tcp(std::size_t racks) {
  rpr::net::TcpRuntimeParams p;
  p.net = RegionNet::uniform(racks, Bandwidth::gbps(10), Bandwidth::gbps(1));
  p.time_scale = 256.0;
  p.decode_matrix_dim = 6;
  return p;
}

}  // namespace

// --- threaded testbed -----------------------------------------------------

TEST(SlicedTestbed, ByteIdenticalAcrossSliceSizes) {
  // Odd block size: every slice boundary case (odd tail, slice == block,
  // slice > block, whole-block) must reproduce the oracle bytes exactly.
  SlicedRepair r(100000);
  for (const std::size_t slice :
       {std::size_t{0}, std::size_t{4096}, std::size_t{100000},
        std::size_t{1} << 20}) {
    TestbedParams p = fast_testbed(r.placed.cluster.racks());
    p.slice_size = slice;
    Testbed bed(r.placed.cluster, p);
    const auto result =
        bed.execute(r.planned.plan, r.planned.outputs, r.stripe);
    ASSERT_EQ(result.outputs.size(), 1u) << "slice=" << slice;
    EXPECT_EQ(result.outputs[0], r.expected[0]) << "slice=" << slice;
    EXPECT_EQ(result.outputs[0], r.stripe[0]) << "slice=" << slice;
  }
}

TEST(SlicedTestbed, TrafficBytesMatchWholeBlockMode) {
  SlicedRepair r(100000);
  TestbedParams whole = fast_testbed(r.placed.cluster.racks());
  Testbed whole_bed(r.placed.cluster, whole);
  const auto base =
      whole_bed.execute(r.planned.plan, r.planned.outputs, r.stripe);

  TestbedParams sliced = whole;
  sliced.slice_size = 4096;
  Testbed sliced_bed(r.placed.cluster, sliced);
  const auto result =
      sliced_bed.execute(r.planned.plan, r.planned.outputs, r.stripe);
  EXPECT_EQ(result.cross_rack_bytes, base.cross_rack_bytes);
  EXPECT_EQ(result.inner_rack_bytes, base.inner_rack_bytes);
}

TEST(SlicedTestbed, EmitsPerPhaseSliceMetrics) {
  SlicedRepair r(100000);
  rpr::obs::MetricsRegistry registry;
  TestbedParams p = fast_testbed(r.placed.cluster.racks());
  p.slice_size = 4096;
  p.metrics = &registry;
  Testbed bed(r.placed.cluster, p);
  const auto result =
      bed.execute(r.planned.plan, r.planned.outputs, r.stripe);
  ASSERT_EQ(result.outputs[0], r.stripe[0]);

  const auto* count = registry.find_counter("testbed.slice.count");
  ASSERT_NE(count, nullptr);
  EXPECT_GT(count->value(), 0u);
  const auto* bytes = registry.find_counter("testbed.slice.bytes");
  ASSERT_NE(bytes, nullptr);
  EXPECT_GT(bytes->value(), 0u);
  const auto* combine =
      registry.find_histogram("testbed.slice.combine_latency_s");
  ASSERT_NE(combine, nullptr);
  EXPECT_GT(combine->count(), 0u);
  // The RPR plan for (6,3) always crosses racks at least once.
  const auto* cross =
      registry.find_histogram("testbed.slice.cross_latency_s");
  ASSERT_NE(cross, nullptr);
  EXPECT_GT(cross->count(), 0u);
}

TEST(SlicedTestbed, RejectsMismatchedReadSizeInSliceMode) {
  // Slice mode streams directly out of the stripe buffers, so a kRead whose
  // backing block disagrees with plan.block_size must be rejected up front.
  SlicedRepair r(4096);
  r.planned.plan.block_size = 8192;  // plan now disagrees with the stripe
  TestbedParams p = fast_testbed(r.placed.cluster.racks());
  p.slice_size = 1024;
  Testbed bed(r.placed.cluster, p);
  EXPECT_THROW(bed.execute(r.planned.plan, r.planned.outputs, r.stripe),
               std::invalid_argument);
}

// --- TCP loopback ---------------------------------------------------------

TEST(SlicedTcp, ByteIdenticalAcrossSliceSizes) {
  SlicedRepair r(100000);
  for (const std::size_t slice :
       {std::size_t{0}, std::size_t{4096}, std::size_t{100000},
        std::size_t{1} << 20}) {
    rpr::net::TcpRuntimeParams p = fast_tcp(r.placed.cluster.racks());
    p.slice_size = slice;
    rpr::net::TcpRuntime rt(r.placed.cluster, p);
    const auto result =
        rt.execute(r.planned.plan, r.planned.outputs, r.stripe);
    ASSERT_EQ(result.outputs.size(), 1u) << "slice=" << slice;
    EXPECT_EQ(result.outputs[0], r.expected[0]) << "slice=" << slice;
    EXPECT_EQ(result.outputs[0], r.stripe[0]) << "slice=" << slice;
  }
}

TEST(SlicedTcp, OddSliceSizeAndTrafficInvariant) {
  // A slice size that divides nothing (1000 into 100000-byte blocks) pushes
  // the odd-tail path through the streaming protocol; traffic totals must
  // still equal whole-block mode.
  SlicedRepair r(100000);
  rpr::net::TcpRuntimeParams whole = fast_tcp(r.placed.cluster.racks());
  rpr::net::TcpRuntime whole_rt(r.placed.cluster, whole);
  const auto base =
      whole_rt.execute(r.planned.plan, r.planned.outputs, r.stripe);

  rpr::net::TcpRuntimeParams sliced = whole;
  sliced.slice_size = 1000;
  rpr::net::TcpRuntime rt(r.placed.cluster, sliced);
  const auto result =
      rt.execute(r.planned.plan, r.planned.outputs, r.stripe);
  EXPECT_EQ(result.outputs[0], r.stripe[0]);
  EXPECT_EQ(result.cross_rack_bytes, base.cross_rack_bytes);
  EXPECT_EQ(result.inner_rack_bytes, base.inner_rack_bytes);
}

TEST(SlicedTcp, EmitsPerPhaseSliceMetrics) {
  SlicedRepair r(100000);
  rpr::obs::MetricsRegistry registry;
  rpr::net::TcpRuntimeParams p = fast_tcp(r.placed.cluster.racks());
  p.slice_size = 4096;
  p.metrics = &registry;
  rpr::net::TcpRuntime rt(r.placed.cluster, p);
  const auto result =
      rt.execute(r.planned.plan, r.planned.outputs, r.stripe);
  ASSERT_EQ(result.outputs[0], r.stripe[0]);

  const auto* count = registry.find_counter("tcp.slice.count");
  ASSERT_NE(count, nullptr);
  EXPECT_GT(count->value(), 0u);
  const auto* combine =
      registry.find_histogram("tcp.slice.combine_latency_s");
  ASSERT_NE(combine, nullptr);
  EXPECT_GT(combine->count(), 0u);
}

// --- discrete-event simulator --------------------------------------------

namespace {

/// A deep chained plan: RPR on (14,10) relays partial sums rack by rack, so
/// whole-block stage costs add up while slicing overlaps them.
struct ChainedSimRepair {
  rpr::rs::RSCode code{rpr::rs::CodeConfig{14, 10}};
  rpr::topology::PlacedStripe placed = rpr::topology::make_placed_stripe(
      {14, 10}, rpr::topology::PlacementPolicy::kRpr);
  RepairProblem problem;
  rpr::repair::PlannedRepair planned;

  ChainedSimRepair() {
    problem.code = &code;
    problem.placement = &placed.placement;
    problem.block_size = 64ull << 20;
    problem.failed = {0};
    problem.choose_default_replacements();
    planned = rpr::repair::make_planner(rpr::repair::Scheme::kRpr)
                  ->plan(problem);
  }
};

}  // namespace

TEST(SlicedSimnet, TrafficInvariantAndChainedMakespanCollapses) {
  ChainedSimRepair r;
  rpr::topology::NetworkParams whole;
  const auto base =
      rpr::repair::simulate(r.planned.plan, r.placed.cluster, whole);

  rpr::topology::NetworkParams sliced = whole;
  sliced.slice_size = 1 << 20;
  const auto result =
      rpr::repair::simulate(r.planned.plan, r.placed.cluster, sliced);

  EXPECT_EQ(result.cross_rack_bytes, base.cross_rack_bytes);
  EXPECT_EQ(result.inner_rack_bytes, base.inner_rack_bytes);
  EXPECT_EQ(result.rack_upload_bytes, base.rack_upload_bytes);
  // Pipelining strictly overlaps the relay chain's stages.
  EXPECT_LT(result.total_repair_time, base.total_repair_time);
  EXPECT_GT(result.total_repair_time, 0.0);
}

TEST(SlicedSimnet, FluidModelTrafficInvariantAndNoSlowdown) {
  ChainedSimRepair r;
  rpr::topology::NetworkParams whole;
  const auto base =
      rpr::repair::simulate_fluid(r.planned.plan, r.placed.cluster, whole);

  rpr::topology::NetworkParams sliced = whole;
  sliced.slice_size = 1 << 20;
  const auto result =
      rpr::repair::simulate_fluid(r.planned.plan, r.placed.cluster, sliced);

  EXPECT_EQ(result.cross_rack_bytes, base.cross_rack_bytes);
  EXPECT_EQ(result.inner_rack_bytes, base.inner_rack_bytes);
  EXPECT_GT(result.total_repair_time, 0.0);
  // Fluid fair-sharing may already overlap flows, but slicing must never
  // make the makespan worse (the self-chain serializes each stream exactly
  // as its ports would).
  EXPECT_LE(static_cast<double>(result.total_repair_time),
            static_cast<double>(base.total_repair_time) * 1.0001);
}

TEST(SlicedSimnet, WholeBlockSliceSizeIsIdentityLowering) {
  // slice_size >= block_size must reproduce the historical lowering bit for
  // bit: same makespan, same traffic, same transfer counts.
  SlicedRepair r(4096);
  rpr::topology::NetworkParams whole;
  const auto base =
      rpr::repair::simulate(r.planned.plan, r.placed.cluster, whole);

  rpr::topology::NetworkParams sliced = whole;
  sliced.slice_size = 64ull << 20;  // > block: one slice
  const auto result =
      rpr::repair::simulate(r.planned.plan, r.placed.cluster, sliced);
  EXPECT_EQ(result.total_repair_time, base.total_repair_time);
  EXPECT_EQ(result.cross_rack_bytes, base.cross_rack_bytes);
  EXPECT_EQ(result.cross_rack_transfers, base.cross_rack_transfers);
  EXPECT_EQ(result.inner_rack_transfers, base.inner_rack_transfers);
}
