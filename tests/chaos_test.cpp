// Chaos integration tests: helpers die mid-repair on every execution engine
// (discrete-event simulator, threaded testbed, TCP loopback) and the
// resilient driver re-plans to a byte-identical, checksum-verified result;
// transient stragglers trigger bounded retry without a re-plan, permanent
// ones get the straggler itself declared lost; the storage layer
// commits only verified blocks; failure injection honours the k-erasure
// recoverability boundary.
#include "repair/resilient.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "net/tcp_runtime.h"
#include "obs/metrics.h"
#include "repair/executor_data.h"
#include "repair/planner.h"
#include "repair/replan.h"
#include "runtime/testbed.h"
#include "simnet/simnet.h"
#include "storage/failure.h"
#include "storage/storage_system.h"
#include "test_support.h"
#include "topology/placement.h"

using rpr::fault::FaultSchedule;
using rpr::repair::OpId;
using rpr::repair::OpKind;
using rpr::repair::RepairPlan;
using rpr::rs::Block;
using rpr::topology::NodeId;

namespace {

/// One single-failure RPR repair over a (6,3) placed stripe. `plan_block`
/// drives simulated/paced timing; `data_bytes` is the materialized payload
/// (the simulator decouples them, the threaded engines ship real bytes so
/// callers pass equal values there).
struct RepairCase {
  rpr::rs::RSCode code{rpr::rs::CodeConfig{6, 3}};
  rpr::topology::PlacedStripe placed = rpr::topology::make_placed_stripe(
      {6, 3}, rpr::topology::PlacementPolicy::kRpr);
  std::vector<Block> stripe;
  rpr::repair::RepairProblem problem;
  std::unique_ptr<rpr::repair::Planner> planner =
      rpr::repair::make_planner(rpr::repair::Scheme::kRpr);

  RepairCase(std::uint64_t plan_block, std::size_t data_bytes) {
    stripe = rpr::testing::random_stripe(code, data_bytes, 21);
    problem.code = &code;
    problem.placement = &placed.placement;
    problem.block_size = plan_block;
    problem.failed = {0};
    problem.choose_default_replacements();
  }

  /// Source node of the first cross-rack transfer: guaranteed to still be
  /// busy when an early kill fires, because its paced/simulated transfer
  /// lasts at least one full cross-rack block time.
  [[nodiscard]] NodeId cross_send_source() const {
    const auto planned = planner->plan(problem);
    for (const auto& op : planned.plan.ops) {
      if (op.kind != OpKind::kSend) continue;
      const NodeId from = planned.plan.node_of(op.inputs[0]);
      if (placed.cluster.rack_of(from) != placed.cluster.rack_of(op.node)) {
        return from;
      }
    }
    throw std::runtime_error("plan has no cross-rack send");
  }
};

void expect_verified_output(const rpr::repair::ResilientOutcome& outcome,
                            const std::vector<Block>& stripe) {
  ASSERT_EQ(outcome.outputs.size(), 1u);
  EXPECT_EQ(outcome.outputs[0], stripe[0]) << "rebuilt block not identical";
}

}  // namespace

// --- the session, on a scripted engine ------------------------------------

namespace {

/// A repair::Engine that plays a fixed script, on the calling thread:
/// attempt 1 aborts on the death of `victim`, carrying the finished value
/// of `banked` and of its inputs; attempt 2 aborts on a partition expected
/// to heal in `heal_s` seconds; attempt 3 completes. Every plan it is given
/// and every call is logged.
class ScriptedEngine final : public rpr::repair::Engine {
 public:
  ScriptedEngine(NodeId victim, OpId banked, std::vector<int> sides,
                 double heal_s)
      : victim_(victim),
        banked_(banked),
        sides_(std::move(sides)),
        heal_s_(heal_s) {}

  rpr::repair::Attempt execute(const RepairPlan& plan,
                               std::span<const OpId> outputs,
                               std::span<const Block> stripe) override {
    plans.push_back(plan);
    log.push_back("execute");
    rpr::repair::Attempt a;
    switch (plans.size()) {
      case 1: {
        rpr::repair::Abort& abort = a.abort.emplace();
        abort.dead_nodes = {victim_};
        std::vector<OpId> done = plan.ops[banked_].inputs;
        done.push_back(banked_);
        auto values = rpr::repair::execute_on_data(plan, done, stripe);
        for (std::size_t i = 0; i < done.size(); ++i) {
          abort.finished.emplace_back(done[i], std::move(values[i]));
        }
        break;
      }
      case 2: {
        rpr::repair::Abort& abort = a.abort.emplace();
        abort.partitioned = true;
        abort.heal_wait_s = heal_s_;
        abort.partition_side = sides_;
        break;
      }
      default:
        a.outputs = rpr::repair::execute_on_data(plan, outputs, stripe);
        break;
    }
    return a;
  }

  void wait_for_heal(double seconds) override {
    log.push_back("wait " + std::to_string(seconds));
  }

  std::vector<RepairPlan> plans;
  std::vector<std::string> log;

 private:
  NodeId victim_;
  OpId banked_;
  std::vector<int> sides_;
  double heal_s_;
};

/// Blocks a plan reads (pseudo partial slots included).
std::multiset<std::size_t> blocks_read(const RepairPlan& plan) {
  std::multiset<std::size_t> blocks;
  for (const auto& op : plan.ops) {
    if (op.kind == OpKind::kRead) blocks.insert(op.block);
  }
  return blocks;
}

}  // namespace

TEST(ResilientSession, ScriptedDeathThenHealingPartitionThenCompletion) {
  RepairCase c(4096, 4096);
  const auto& cluster = c.placed.cluster;
  const auto& placement = c.placed.placement;
  const NodeId dest = c.problem.replacements[0];
  const auto first = c.planner->plan(c.problem);
  const auto contrib = rpr::repair::leaf_contributions(first.plan);

  // The victim: a helper read outside the recovery rack.
  NodeId victim = rpr::fault::kNoNode;
  std::size_t victim_block = 0;
  for (const auto& op : first.plan.ops) {
    if (op.kind == OpKind::kRead &&
        cluster.rack_of(op.node) != cluster.rack_of(dest)) {
      victim = op.node;
      victim_block = op.block;
      break;
    }
  }
  ASSERT_NE(victim, rpr::fault::kNoNode);
  // The banked value: the widest combine in a third rack, untouched by the
  // victim's block.
  OpId banked = first.plan.ops.size();
  for (OpId id = 0; id < first.plan.ops.size(); ++id) {
    const auto& op = first.plan.ops[id];
    const auto rack = cluster.rack_of(op.node);
    if (op.kind != OpKind::kCombine || rack == cluster.rack_of(dest) ||
        rack == cluster.rack_of(victim) ||
        contrib[id].count(victim_block) != 0) {
      continue;
    }
    if (banked == first.plan.ops.size() ||
        contrib[id].size() > contrib[banked].size()) {
      banked = id;
    }
  }
  ASSERT_LT(banked, first.plan.ops.size()) << "no combine in a third rack";
  ASSERT_GE(contrib[banked].size(), 2u);
  const NodeId holder = first.plan.ops[banked].node;

  // The partition cuts the banked partial's rack off the recovery rack.
  rpr::fault::Partition cut;
  cut.side_b = {cluster.rack_of(holder)};
  cut.at_s = 0.0;
  cut.heal_after_s = 0.25;
  ScriptedEngine engine(victim, banked, cut.sides(cluster), 0.25);

  const auto outcome = rpr::repair::execute_resilient_with(
      engine, c.problem, *c.planner, c.stripe, {});

  EXPECT_EQ(engine.log, (std::vector<std::string>{
                            "execute", "execute", "wait 0.250000", "execute"}));
  EXPECT_EQ(outcome.replans, 2u);
  EXPECT_EQ(outcome.partition_waits, 1u);
  // The widest value folds in; its own inputs are inside it.
  EXPECT_EQ(outcome.reused_values, 1u);
  EXPECT_EQ(outcome.destinations, c.problem.replacements);

  ASSERT_EQ(engine.plans.size(), 3u);
  const std::size_t total = c.code.config().total();
  for (std::size_t i = 1; i < engine.plans.size(); ++i) {
    for (const auto& op : engine.plans[i].ops) {
      EXPECT_NE(op.node, victim) << "plan " << i << " uses the dead helper";
      if (op.kind == OpKind::kRead && op.block < total) {
        EXPECT_NE(placement.node_of(op.block), victim);
      }
    }
    // The banked partial is read from its pseudo slot at its holder.
    EXPECT_EQ(std::count_if(engine.plans[i].ops.begin(),
                            engine.plans[i].ops.end(),
                            [&](const rpr::repair::PlanOp& op) {
                              return op.kind == OpKind::kRead &&
                                     op.block >= total && op.node == holder;
                            }),
              1)
        << "plan " << i;
  }
  // Across the partition nothing was substituted: the helpers on the cut-off
  // side are alive, so the retry reads exactly what the re-plan read.
  EXPECT_EQ(blocks_read(engine.plans[2]), blocks_read(engine.plans[1]));

  expect_verified_output(outcome, c.stripe);
  EXPECT_EQ(outcome.outputs, rpr::repair::execute_on_data(
                                 first.plan, first.outputs, c.stripe));
}

// --- simulator ------------------------------------------------------------

TEST(ChaosSimnet, HelperDeathMidRepairTriggersReplan) {
  // 64 MiB timing blocks: every transfer spans tens of simulated
  // milliseconds, so a 10 ms kill always lands mid-plan.
  RepairCase c(64ull << 20, 4096);
  const NodeId victim = c.cross_send_source();
  FaultSchedule chaos;
  chaos.kills.push_back({victim, 0.010});

  rpr::obs::MetricsRegistry registry;
  rpr::repair::ResilientOptions ropts;
  ropts.probe.metrics = &registry;
  const auto outcome = rpr::repair::simulate_resilient(
      c.problem, *c.planner, c.stripe, rpr::topology::NetworkParams{}, chaos,
      ropts);

  expect_verified_output(outcome, c.stripe);
  EXPECT_GE(outcome.replans, 1u);
  EXPECT_GE(outcome.faults_injected, 1u);
  const auto* replans = registry.find_counter("repair.replans");
  ASSERT_NE(replans, nullptr);
  EXPECT_GE(replans->value(), 1u);
  // The dead helper must not end up holding the rebuilt block.
  EXPECT_EQ(std::count(outcome.destinations.begin(),
                       outcome.destinations.end(), victim),
            0);
}

TEST(ChaosSimnet, StragglerSlowsRepairWithoutReplan) {
  RepairCase c(64ull << 20, 4096);
  const NodeId victim = c.cross_send_source();

  const auto baseline = rpr::repair::simulate_resilient(
      c.problem, *c.planner, c.stripe, rpr::topology::NetworkParams{},
      FaultSchedule{}, {});
  EXPECT_EQ(baseline.replans, 0u);
  EXPECT_EQ(baseline.faults_injected, 0u);

  FaultSchedule chaos;
  chaos.stragglers.push_back({victim, 4.0, /*attempts=*/
                              std::numeric_limits<std::size_t>::max()});
  const auto outcome = rpr::repair::simulate_resilient(
      c.problem, *c.planner, c.stripe, rpr::topology::NetworkParams{}, chaos,
      {});

  expect_verified_output(outcome, c.stripe);
  EXPECT_EQ(outcome.replans, 0u);
  EXPECT_GE(outcome.faults_injected, 1u);
  EXPECT_GT(outcome.total_time_s, baseline.total_time_s)
      << "a straggling helper must lengthen the repair";
}

TEST(ChaosSimnet, ChaosRunsAreSeedStableAndReproducible) {
  RepairCase c(64ull << 20, 4096);
  const NodeId victim = c.cross_send_source();
  FaultSchedule chaos;
  chaos.kills.push_back({victim, 0.010});
  chaos.seed = 777;

  const auto a = rpr::repair::simulate_resilient(
      c.problem, *c.planner, c.stripe, rpr::topology::NetworkParams{}, chaos,
      {});
  const auto b = rpr::repair::simulate_resilient(
      c.problem, *c.planner, c.stripe, rpr::topology::NetworkParams{}, chaos,
      {});

  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_EQ(a.destinations, b.destinations);
  EXPECT_EQ(a.replans, b.replans);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.reused_values, b.reused_values);
  EXPECT_DOUBLE_EQ(a.total_time_s, b.total_time_s);
  EXPECT_EQ(a.cross_rack_bytes, b.cross_rack_bytes);
  EXPECT_EQ(a.inner_rack_bytes, b.inner_rack_bytes);
}

TEST(ChaosSimnet, SliceModeHelperDeathMidStreamTriggersReplan) {
  // Slice-pipelined lowering: the kill lands while the victim's stream is
  // partially delivered; partial slices are charged as traffic but the op
  // only banks when every slice task finished before the cut.
  RepairCase c(64ull << 20, 4096);
  const NodeId victim = c.cross_send_source();
  FaultSchedule chaos;
  chaos.kills.push_back({victim, 0.010});

  rpr::topology::NetworkParams net;
  net.slice_size = 4 << 20;  // 16 slices per 64 MiB block
  const auto outcome = rpr::repair::simulate_resilient(
      c.problem, *c.planner, c.stripe, net, chaos, {});

  expect_verified_output(outcome, c.stripe);
  EXPECT_GE(outcome.replans, 1u);
  EXPECT_GE(outcome.faults_injected, 1u);
  EXPECT_EQ(std::count(outcome.destinations.begin(),
                       outcome.destinations.end(), victim),
            0);
}

TEST(ChaosSimnet, ReplanKeepsThePlannersPipelineShape) {
  // The Fig. 5 schedule-1 ablation: a star RprPlanner on a flat placement,
  // where every source sits in its own rack. A helper killed mid-repair
  // must be re-planned as a star too: every cross-rack transfer of the
  // re-plan's run lands in the destination's rack, none is merged at an
  // intermediate rack the way the default pipeline would.
  const rpr::rs::RSCode code{rpr::rs::CodeConfig{6, 3}};
  const auto placed = rpr::topology::make_placed_stripe(
      {6, 3}, rpr::topology::PlacementPolicy::kFlat);
  const auto stripe = rpr::testing::random_stripe(code, 4096, 23);
  rpr::repair::RepairProblem problem;
  problem.code = &code;
  problem.placement = &placed.placement;
  problem.block_size = 64ull << 20;
  problem.failed = {0};
  problem.choose_default_replacements();
  rpr::repair::RprOptions star;
  star.pipeline_cross = false;
  const rpr::repair::RprPlanner planner(star);

  // Block 1 is in the XOR set that rebuilds data block 0.
  FaultSchedule chaos;
  chaos.kills.push_back({placed.placement.node_of(1), 0.010});

  std::vector<rpr::simnet::RunResult> runs;
  const rpr::simnet::RunObserver observer(
      [&](const rpr::simnet::RunResult& r) { runs.push_back(r); });
  const auto outcome = rpr::repair::simulate_resilient(
      problem, planner, stripe, rpr::topology::NetworkParams{}, chaos, {});
  expect_verified_output(outcome, stripe);
  ASSERT_GE(outcome.replans, 1u);
  ASSERT_GE(runs.size(), 2u);
  const auto& cluster = placed.cluster;
  const auto dest_rack = cluster.rack_of(outcome.destinations[0]);
  std::size_t cross = 0;
  for (const auto& task : runs.back().tasks) {
    if (task.kind != rpr::simnet::TaskKind::kTransfer || !task.cross_rack) {
      continue;
    }
    ++cross;
    EXPECT_EQ(cluster.rack_of(task.node), dest_rack)
        << "cross-rack transfer " << task.from << " -> " << task.node
        << " bypasses the star";
  }
  EXPECT_GT(cross, 0u);
}

// --- threaded testbed -----------------------------------------------------

TEST(ChaosTestbed, HelperDeathMidRepairTriggersReplan) {
  // 1 MiB at 1 Gb/s cross: the victim's cross transfer is paced over
  // >= 8 ms of wall time, so a 2 ms kill always lands mid-transfer.
  RepairCase c(1 << 20, 1 << 20);
  const NodeId victim = c.cross_send_source();

  rpr::runtime::TestbedParams p;
  p.net = rpr::runtime::RegionNet::uniform(c.placed.cluster.racks(),
                                           rpr::util::Bandwidth::gbps(10),
                                           rpr::util::Bandwidth::gbps(1));
  p.decode_matrix_dim = 6;
  p.faults.kills.push_back({victim, 0.002});
  p.retry.base_backoff_s = 0.001;
  rpr::runtime::Testbed bed(c.placed.cluster, p);

  rpr::obs::MetricsRegistry registry;
  rpr::repair::ResilientOptions ropts;
  ropts.probe.metrics = &registry;
  const auto outcome = rpr::repair::execute_resilient_with(
      bed, c.problem, *c.planner, c.stripe, ropts);

  expect_verified_output(outcome, c.stripe);
  EXPECT_GE(outcome.replans, 1u);
  EXPECT_GE(outcome.faults_injected, 1u);
  const auto* replans = registry.find_counter("repair.replans");
  ASSERT_NE(replans, nullptr);
  EXPECT_GE(replans->value(), 1u);
  EXPECT_TRUE(bed.dead_nodes().count(victim));
}

TEST(ChaosTestbed, TransientStragglerRetriesWithoutReplan) {
  RepairCase c(1 << 20, 1 << 20);
  const NodeId victim = c.cross_send_source();

  rpr::runtime::TestbedParams p;
  p.net = rpr::runtime::RegionNet::uniform(c.placed.cluster.racks(),
                                           rpr::util::Bandwidth::gbps(10),
                                           rpr::util::Bandwidth::gbps(1));
  p.decode_matrix_dim = 6;
  // One afflicted attempt, detected quickly, then the link recovers: the
  // retry path must succeed with no re-plan.
  p.faults.stragglers.push_back({victim, 50.0, /*attempts=*/1});
  p.retry.straggler_threshold = 1.5;
  p.retry.base_backoff_s = 0.001;
  rpr::runtime::Testbed bed(c.placed.cluster, p);

  rpr::obs::MetricsRegistry registry;
  rpr::repair::ResilientOptions ropts;
  ropts.probe.metrics = &registry;
  const auto outcome = rpr::repair::execute_resilient_with(
      bed, c.problem, *c.planner, c.stripe, ropts);

  expect_verified_output(outcome, c.stripe);
  EXPECT_EQ(outcome.replans, 0u);
  EXPECT_GE(outcome.retries, 1u);
  EXPECT_GE(outcome.faults_injected, 1u);
  const auto* retries = registry.find_counter("repair.retries");
  ASSERT_NE(retries, nullptr);
  EXPECT_GE(retries->value(), 1u);
  EXPECT_TRUE(bed.dead_nodes().empty());
}

TEST(ChaosTestbed, SliceModeHelperDeathMidStreamTriggersReplan) {
  // Slice-pipelined execution: the victim dies while its cross-rack stream
  // is mid-flight (some slices published, the rest never arriving). The
  // driver must bank every fully-finished value on surviving nodes, re-plan
  // around the hole, and still produce byte-identical output.
  RepairCase c(1 << 20, 1 << 20);
  const NodeId victim = c.cross_send_source();

  rpr::runtime::TestbedParams p;
  p.net = rpr::runtime::RegionNet::uniform(c.placed.cluster.racks(),
                                           rpr::util::Bandwidth::gbps(10),
                                           rpr::util::Bandwidth::gbps(1));
  p.decode_matrix_dim = 6;
  p.slice_size = 64 << 10;  // 16 slices per block
  p.faults.kills.push_back({victim, 0.002});
  p.retry.base_backoff_s = 0.001;
  rpr::runtime::Testbed bed(c.placed.cluster, p);

  const auto outcome = rpr::repair::execute_resilient_with(
      bed, c.problem, *c.planner, c.stripe, {});

  expect_verified_output(outcome, c.stripe);
  EXPECT_GE(outcome.replans, 1u);
  EXPECT_GE(outcome.faults_injected, 1u);
  EXPECT_GE(outcome.reused_values, 1u)
      << "banked values from before the kill must survive the re-plan";
  EXPECT_TRUE(bed.dead_nodes().count(victim));
}

// --- TCP loopback ---------------------------------------------------------

TEST(ChaosTcp, HelperDeathMidRepairTriggersReplan) {
  RepairCase c(1 << 20, 1 << 20);
  const NodeId victim = c.cross_send_source();

  rpr::net::TcpRuntimeParams p;
  p.net = rpr::runtime::RegionNet::uniform(c.placed.cluster.racks(),
                                           rpr::util::Bandwidth::gbps(10),
                                           rpr::util::Bandwidth::gbps(1));
  p.decode_matrix_dim = 6;
  p.faults.kills.push_back({victim, 0.002});
  p.retry.base_backoff_s = 0.001;
  p.retry.op_deadline_s = 5.0;  // dead peers error out fast in tests
  rpr::net::TcpRuntime rt(c.placed.cluster, p);

  rpr::obs::MetricsRegistry registry;
  rpr::repair::ResilientOptions ropts;
  ropts.probe.metrics = &registry;
  const auto outcome = rpr::repair::execute_resilient_with(
      rt, c.problem, *c.planner, c.stripe, ropts);

  expect_verified_output(outcome, c.stripe);
  EXPECT_GE(outcome.replans, 1u);
  EXPECT_GE(outcome.faults_injected, 1u);
  const auto* replans = registry.find_counter("repair.replans");
  ASSERT_NE(replans, nullptr);
  EXPECT_GE(replans->value(), 1u);
  EXPECT_TRUE(rt.dead_nodes().count(victim));
}

TEST(ChaosTcp, TransientStragglerRetriesWithoutReplan) {
  RepairCase c(1 << 20, 1 << 20);
  const NodeId victim = c.cross_send_source();

  rpr::net::TcpRuntimeParams p;
  p.net = rpr::runtime::RegionNet::uniform(c.placed.cluster.racks(),
                                           rpr::util::Bandwidth::gbps(10),
                                           rpr::util::Bandwidth::gbps(1));
  p.decode_matrix_dim = 6;
  p.faults.stragglers.push_back({victim, 50.0, /*attempts=*/1});
  p.retry.straggler_threshold = 1.5;
  p.retry.base_backoff_s = 0.001;
  p.retry.op_deadline_s = 5.0;
  rpr::net::TcpRuntime rt(c.placed.cluster, p);

  const auto outcome = rpr::repair::execute_resilient_with(
      rt, c.problem, *c.planner, c.stripe, {});

  expect_verified_output(outcome, c.stripe);
  EXPECT_EQ(outcome.replans, 0u);
  EXPECT_GE(outcome.retries, 1u);
  EXPECT_TRUE(rt.dead_nodes().empty());
}

TEST(ChaosTcp, SliceModeHelperDeathMidStreamTriggersReplan) {
  // The kill severs the victim's streamed connection after some slices are
  // already published into the receiver's accumulator; the partially-built
  // op must not resolve, and the re-plan must route around the dead node
  // while reusing banked values from surviving helpers.
  RepairCase c(1 << 20, 1 << 20);
  const NodeId victim = c.cross_send_source();

  rpr::net::TcpRuntimeParams p;
  p.net = rpr::runtime::RegionNet::uniform(c.placed.cluster.racks(),
                                           rpr::util::Bandwidth::gbps(10),
                                           rpr::util::Bandwidth::gbps(1));
  p.decode_matrix_dim = 6;
  p.slice_size = 64 << 10;  // 16 slices per block
  p.faults.kills.push_back({victim, 0.002});
  p.retry.base_backoff_s = 0.001;
  p.retry.op_deadline_s = 5.0;
  rpr::net::TcpRuntime rt(c.placed.cluster, p);

  const auto outcome = rpr::repair::execute_resilient_with(
      rt, c.problem, *c.planner, c.stripe, {});

  expect_verified_output(outcome, c.stripe);
  EXPECT_GE(outcome.replans, 1u);
  EXPECT_GE(outcome.faults_injected, 1u);
  EXPECT_TRUE(rt.dead_nodes().count(victim));
}

// --- both threaded engines ------------------------------------------------

template <typename Engine>
class ChaosStraggler : public ::testing::Test {};
using ThreadedEngines =
    ::testing::Types<rpr::runtime::Testbed, rpr::net::TcpRuntime>;
TYPED_TEST_SUITE(ChaosStraggler, ThreadedEngines);

TYPED_TEST(ChaosStraggler, PermanentStragglerIsDeclaredLostNotItsReceivers) {
  // A sender that straggles on every attempt exhausts its retries. The
  // engine must declare the *sender* lost, so one re-plan around it
  // rebuilds the block — not blame the healthy receivers one by one.
  for (const std::size_t slice : {std::size_t{0}, std::size_t{4096}}) {
    RepairCase c(64 << 10, 64 << 10);
    const NodeId straggler = c.cross_send_source();
    rpr::runtime::ExecutorParams p;
    p.net = rpr::runtime::RegionNet::uniform(c.placed.cluster.racks(),
                                             rpr::util::Bandwidth::gbps(10),
                                             rpr::util::Bandwidth::gbps(1));
    p.decode_matrix_dim = 6;
    p.slice_size = slice;
    p.faults.stragglers.push_back(
        {straggler, 50.0, std::numeric_limits<std::size_t>::max()});
    p.retry.straggler_threshold = 1.5;
    p.retry.base_backoff_s = 0.001;
    p.retry.op_deadline_s = 5.0;

    {
      TypeParam engine(c.placed.cluster, p);
      const auto planned = c.planner->plan(c.problem);
      const auto result =
          engine.execute(planned.plan, planned.outputs, c.stripe);
      ASSERT_TRUE(result.abort.has_value()) << "slice=" << slice;
      EXPECT_EQ(result.abort->dead_nodes.front(), straggler)
          << "slice=" << slice;
      EXPECT_FALSE(result.abort->partitioned) << "slice=" << slice;
    }

    TypeParam engine(c.placed.cluster, p);
    const auto outcome = rpr::repair::execute_resilient_with(
        engine, c.problem, *c.planner, c.stripe, {});
    expect_verified_output(outcome, c.stripe);
    EXPECT_EQ(outcome.replans, 1u) << "slice=" << slice;
    EXPECT_EQ(engine.dead_nodes(), std::set<NodeId>{straggler})
        << "slice=" << slice;
  }
}

// --- storage layer --------------------------------------------------------

namespace {

std::vector<std::uint8_t> random_object(std::size_t size,
                                        std::uint64_t seed) {
  rpr::util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> v(size);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng() & 0xFF);
  return v;
}

rpr::storage::StorageOptions chaos_storage_opts() {
  rpr::storage::StorageOptions o;
  o.code = {6, 3};
  // Large enough that a cross-rack transfer spans several simulated
  // milliseconds — a 2 ms kill lands mid-repair.
  o.block_size = 1 << 20;
  return o;
}

}  // namespace

TEST(ChaosStorage, KilledHelperReplansAndCommitsVerifiedBlock) {
  const auto obj = random_object(6 << 20, 31);

  // Discovery pass: placement is deterministic, so a twin system tells us
  // where the stripe's blocks will land before we pick a victim.
  rpr::storage::StorageSystem twin(chaos_storage_opts());
  const auto layout = twin.stripe_nodes(twin.put(obj));

  auto opts = chaos_storage_opts();
  // Block 3 is a selected helper (XOR survivor set for a failed data
  // block), so its node always forwards its value somewhere; the earliest
  // such transfer still takes ~0.8 simulated ms (1 MiB inner-rack), so a
  // 0.5 ms kill is guaranteed to land before the node finishes its work.
  opts.chaos.kills.push_back({layout[3], 0.0005});
  rpr::storage::StorageSystem sys(opts);
  const auto id = sys.put(obj);
  ASSERT_EQ(sys.stripe_nodes(id), layout);

  sys.fail_node(layout[0]);
  const auto report = sys.repair(id);

  EXPECT_TRUE(report.verified);
  EXPECT_GE(report.replans, 1u);
  EXPECT_GE(report.faults_injected, 1u);
  EXPECT_TRUE(sys.lost_blocks(id).empty());
  EXPECT_EQ(sys.get(id), obj);
  // The rebuilt block must not live on the killed helper.
  EXPECT_NE(sys.stripe_nodes(id)[0], layout[3]);
}

TEST(ChaosStorage, DegradedReadSurvivesHelperDeathByteIdentical) {
  const auto obj = random_object(6 << 20, 34);
  rpr::storage::StorageSystem twin(chaos_storage_opts());
  const auto layout = twin.stripe_nodes(twin.put(obj));

  auto opts = chaos_storage_opts();
  // Kill a selected helper mid-read (block 3's node serves in the XOR
  // survivor set for a failed data block, and 0.5 ms lands inside its
  // first transfer): the degraded read must re-plan around the loss and
  // still deliver the exact bytes, never fail or serve garbage.
  opts.chaos.kills.push_back({layout[3], 0.0005});
  rpr::storage::StorageSystem sys(opts);
  const auto id = sys.put(obj);
  ASSERT_EQ(sys.stripe_nodes(id), layout);
  sys.fail_node(layout[0]);

  // A reader holding nothing of the stripe, and not the doomed helper.
  NodeId reader = 0;
  for (NodeId n = sys.cluster().total_nodes(); n-- > 0;) {
    if (n != layout[3] &&
        std::find(layout.begin(), layout.end(), n) == layout.end()) {
      reader = n;
      break;
    }
  }

  const auto report = sys.read_block(id, 0, reader);
  EXPECT_TRUE(report.degraded);
  EXPECT_TRUE(report.verified);
  EXPECT_GE(report.replans, 1u);
  EXPECT_GE(report.faults_injected, 1u);
  const Block want(obj.begin(),
                   obj.begin() + static_cast<std::ptrdiff_t>(1 << 20));
  EXPECT_EQ(report.data, want);
  // The read reconstructed in flight: nothing was committed, the block is
  // still lost and a later repair is still required.
  EXPECT_EQ(sys.lost_blocks(id), std::vector<std::size_t>{0});
}

TEST(ChaosStorage, ChaosCorruptionIsDetectedAndRepaired) {
  const auto obj = random_object(6 << 20, 32);
  auto opts = chaos_storage_opts();
  opts.chaos.corruptions.push_back({2});
  rpr::storage::StorageSystem sys(opts);
  const auto id = sys.put(obj);

  const auto reports = sys.repair_all();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].verified);
  EXPECT_EQ(reports[0].repaired_blocks, std::vector<std::size_t>{2});
  EXPECT_TRUE(sys.lost_blocks(id).empty());
  EXPECT_EQ(sys.get(id), obj);
}

TEST(ChaosStorage, CorruptBlockIsAnErasureAtReadAndRepairTime) {
  const auto obj = random_object(6 << 10, 33);
  rpr::storage::StorageOptions o;
  o.code = {6, 3};
  o.block_size = 1024;
  rpr::storage::StorageSystem sys(o);
  const auto id = sys.put(obj);

  sys.corrupt_block(id, 1);
  EXPECT_EQ(sys.lost_blocks(id), std::vector<std::size_t>{1});
  // Degraded read must decode around the corrupt copy, never return it.
  EXPECT_EQ(sys.get(id), obj);

  const auto report = sys.repair(id);
  EXPECT_TRUE(report.verified);
  EXPECT_EQ(report.repaired_blocks, std::vector<std::size_t>{1});
  EXPECT_TRUE(sys.lost_blocks(id).empty());
  EXPECT_EQ(sys.get(id), obj);
}

// --- failure injection at the recoverability boundary ---------------------

TEST(ChaosInjector, RecoverableModeStopsAtTheKMissingBoundary) {
  rpr::storage::StorageOptions o;
  o.code = {6, 3};
  o.block_size = 1024;
  rpr::storage::StorageSystem sys(o);
  const auto obj = random_object(6 * 1024, 41);
  const auto id = sys.put(obj);

  rpr::storage::FailureInjector injector(&sys, 9001);
  while (injector.fail_random_node(/*keep_recoverable=*/true).has_value()) {
    EXPECT_LE(sys.lost_blocks(id).size(), 3u)
        << "recoverable mode crossed the k-erasure boundary";
  }
  // Saturated: no further node is safe to fail, but everything written is
  // still readable and repairable.
  EXPECT_FALSE(injector.fail_random_node(true).has_value());
  EXPECT_EQ(sys.get(id), obj);
  const auto reports = sys.repair_all();
  EXPECT_TRUE(sys.lost_blocks(id).empty());
  for (const auto& r : reports) EXPECT_TRUE(r.verified);
  EXPECT_EQ(sys.get(id), obj);
}

TEST(ChaosInjector, UnrestrictedModeReachesDataLoss) {
  rpr::storage::StorageOptions o;
  o.code = {6, 3};
  o.block_size = 1024;
  rpr::storage::StorageSystem sys(o);
  const auto obj = random_object(6 * 1024, 42);
  const auto id = sys.put(obj);

  // Unrestricted mode may kill every node — the data-loss regime the
  // recoverable mode exists to avoid.
  while (sys.lost_blocks(id).size() <= 3) {
    const auto node =
        rpr::storage::FailureInjector(&sys, 5).fail_random_node(false);
    ASSERT_TRUE(node.has_value());
  }
  EXPECT_GT(sys.lost_blocks(id).size(), 3u);
  EXPECT_THROW((void)sys.get(id), std::runtime_error);
  EXPECT_THROW((void)sys.repair(id), std::runtime_error);
}

TEST(ChaosInjector, SameSeedFailsTheSameNodes) {
  const auto obj = random_object(6 * 1024, 43);
  rpr::storage::StorageOptions o;
  o.code = {6, 3};
  o.block_size = 1024;

  rpr::storage::StorageSystem a(o);
  rpr::storage::StorageSystem b(o);
  a.put(obj);
  b.put(obj);
  rpr::storage::FailureInjector ia(&a, 1234);
  rpr::storage::FailureInjector ib(&b, 1234);
  EXPECT_EQ(ia.fail_random_nodes(4), ib.fail_random_nodes(4));
}
