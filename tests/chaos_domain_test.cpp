// Rack-scale failure-domain chaos tests: whole racks die mid-repair and a
// scheme-switching re-plan relocates the rebuild; fabric partitions leave
// helpers alive-but-unreachable (banked partials stay valid, the session
// waits for a healing cut instead of substituting the far side away); slow
// disks stretch the repair without a re-plan; full disks are planned
// around from the first attempt; an exhausted re-plan budget aborts
// coherently with a salvage report. Every plan and re-plan is verified
// online along the way (the default), so these tests also exercise the
// always-on verifier.
#include "repair/resilient.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "net/tcp_runtime.h"
#include "obs/metrics.h"
#include "repair/planner.h"
#include "simnet/simnet.h"
#include "runtime/testbed.h"
#include "storage/storage_system.h"
#include "test_support.h"
#include "topology/placement.h"

using rpr::fault::FaultSchedule;
using rpr::repair::ReplanBudgetExhausted;
using rpr::rs::Block;
using rpr::topology::NodeId;
using rpr::topology::RackId;

namespace {

/// One single-failure RPR repair over a (6,3) placed stripe, with the
/// failed block chosen so its rack (and therefore the recovery rack) can
/// be killed without exceeding the code's fault tolerance: rack 1 holds
/// blocks 3..5, so failing block 3 and then cutting rack 1 loses exactly
/// k = 3 blocks.
struct DomainCase {
  rpr::rs::RSCode code{rpr::rs::CodeConfig{6, 3}};
  rpr::topology::PlacedStripe placed = rpr::topology::make_placed_stripe(
      {6, 3}, rpr::topology::PlacementPolicy::kRpr);
  std::vector<Block> stripe;
  rpr::repair::RepairProblem problem;
  std::unique_ptr<rpr::repair::Planner> planner =
      rpr::repair::make_planner(rpr::repair::Scheme::kRpr);

  DomainCase(std::uint64_t plan_block, std::size_t data_bytes,
             std::size_t failed_block = 3) {
    stripe = rpr::testing::random_stripe(code, data_bytes, 77);
    problem.code = &code;
    problem.placement = &placed.placement;
    problem.block_size = plan_block;
    problem.failed = {failed_block};
    problem.choose_default_replacements();
  }

  [[nodiscard]] RackId failed_rack() const {
    return placed.cluster.rack_of(
        placed.placement.node_of(problem.failed[0]));
  }

  /// Source node of the first cross-rack transfer: killing it after the
  /// inner-rack aggregation finished (but before its cross send lands)
  /// strands the plan with bankable finished values elsewhere.
  [[nodiscard]] NodeId cross_send_source() const {
    const auto planned = planner->plan(problem);
    for (const auto& op : planned.plan.ops) {
      if (op.kind != rpr::repair::OpKind::kSend) continue;
      const NodeId from = planned.plan.node_of(op.inputs[0]);
      if (placed.cluster.rack_of(from) != placed.cluster.rack_of(op.node)) {
        return from;
      }
    }
    throw std::runtime_error("plan has no cross-rack send");
  }

  void expect_rebuilt(const rpr::repair::ResilientOutcome& outcome) const {
    ASSERT_EQ(outcome.outputs.size(), 1u);
    EXPECT_EQ(outcome.outputs[0], stripe[problem.failed[0]])
        << "rebuilt block not byte-identical";
  }
};

}  // namespace

// --- TOR death: the failed block's whole rack (including the would-be
// --- replacement) dies mid-repair; one re-plan absorbs the domain, moves
// --- the destination to a surviving rack and switches remainder scheme.

TEST(DomainSimnet, RackKillMidRepairSwitchesSchemeAndRelocates) {
  DomainCase c(64ull << 20, 4096);
  FaultSchedule chaos;
  chaos.rack_kills.push_back({c.failed_rack(), 0.010});

  rpr::obs::MetricsRegistry registry;
  rpr::repair::ResilientOptions ropts;
  ropts.probe.metrics = &registry;
  const auto outcome = rpr::repair::simulate_resilient(
      c.problem, *c.planner, c.stripe, rpr::topology::NetworkParams{}, chaos,
      ropts);

  c.expect_rebuilt(outcome);
  EXPECT_GE(outcome.replans, 1u);
  EXPECT_GE(outcome.scheme_switches, 1u);
  // The rebuilt block must land outside the dead rack.
  ASSERT_EQ(outcome.destinations.size(), 1u);
  EXPECT_NE(c.placed.cluster.rack_of(outcome.destinations[0]),
            c.failed_rack());
  const auto* switches = registry.find_counter("repair.scheme_switches");
  ASSERT_NE(switches, nullptr);
  EXPECT_GE(switches->value(), 1u);
}

TEST(DomainTestbed, RackKillMidRepairSwitchesSchemeAndRelocates) {
  DomainCase c(1 << 20, 1 << 20);
  rpr::runtime::TestbedParams p;
  p.net = rpr::runtime::RegionNet::uniform(c.placed.cluster.racks(),
                                           rpr::util::Bandwidth::gbps(10),
                                           rpr::util::Bandwidth::gbps(1));
  p.decode_matrix_dim = 6;
  p.faults.rack_kills.push_back({c.failed_rack(), 0.002});
  p.retry.base_backoff_s = 0.001;
  rpr::runtime::Testbed bed(c.placed.cluster, p);

  const auto outcome = rpr::repair::execute_resilient_with(
      bed, c.problem, *c.planner, c.stripe, {});

  c.expect_rebuilt(outcome);
  EXPECT_GE(outcome.replans, 1u);
  EXPECT_GE(outcome.scheme_switches, 1u);
  ASSERT_EQ(outcome.destinations.size(), 1u);
  EXPECT_NE(c.placed.cluster.rack_of(outcome.destinations[0]),
            c.failed_rack());
  // The whole domain died, and one abort reported it.
  for (NodeId node : c.placed.cluster.nodes_in_rack(c.failed_rack())) {
    EXPECT_TRUE(bed.dead_nodes().count(node)) << "node " << node;
  }
}

TEST(DomainTcp, RackKillMidRepairSwitchesSchemeAndRelocates) {
  DomainCase c(1 << 20, 1 << 20);
  rpr::net::TcpRuntimeParams p;
  p.net = rpr::runtime::RegionNet::uniform(c.placed.cluster.racks(),
                                           rpr::util::Bandwidth::gbps(10),
                                           rpr::util::Bandwidth::gbps(1));
  p.decode_matrix_dim = 6;
  p.faults.rack_kills.push_back({c.failed_rack(), 0.002});
  p.retry.base_backoff_s = 0.001;
  p.retry.op_deadline_s = 5.0;
  rpr::net::TcpRuntime rt(c.placed.cluster, p);

  const auto outcome = rpr::repair::execute_resilient_with(
      rt, c.problem, *c.planner, c.stripe, {});

  c.expect_rebuilt(outcome);
  EXPECT_GE(outcome.replans, 1u);
  EXPECT_GE(outcome.scheme_switches, 1u);
  ASSERT_EQ(outcome.destinations.size(), 1u);
  EXPECT_NE(c.placed.cluster.rack_of(outcome.destinations[0]),
            c.failed_rack());
}

// --- Fabric partitions: the cut helpers are alive, not dead. A healing
// --- cut is ridden out (banked partials reused, nothing substituted); a
// --- permanent cut that starves the equation aborts as unrecoverable
// --- instead of silently producing a wrong plan.

TEST(DomainSimnet, HealingPartitionWaitsAndReusesBankedPartials) {
  DomainCase c(64ull << 20, 4096, /*failed_block=*/0);
  FaultSchedule chaos;
  // Cut the destination's rack (0) away from racks 1+2 shortly into the
  // repair; the cut heals 0.5 s later.
  chaos.partitions.push_back({{0}, {1, 2}, 0.050, 0.5});

  const auto outcome = rpr::repair::simulate_resilient(
      c.problem, *c.planner, c.stripe, rpr::topology::NetworkParams{}, chaos,
      {});

  c.expect_rebuilt(outcome);
  EXPECT_GE(outcome.partition_waits, 1u);
  EXPECT_GE(outcome.reused_values, 1u)
      << "banked partials must survive a partition";
  // Nobody died: a partition must never be treated as a node loss.
  ASSERT_EQ(outcome.destinations.size(), 1u);
  EXPECT_GT(outcome.total_time_s, 0.5) << "the session waited for the heal";
}

TEST(DomainSimnet, PermanentPartitionAbortsInsteadOfMisplanning) {
  DomainCase c(64ull << 20, 4096, /*failed_block=*/0);
  FaultSchedule chaos;
  // Permanent cut: rack 0 (3 surviving blocks + the destination) can never
  // reassemble n = 6 sources on its side.
  chaos.partitions.push_back({{0}, {1, 2}, 0.050, -1.0});

  EXPECT_THROW(rpr::repair::simulate_resilient(
                   c.problem, *c.planner, c.stripe,
                   rpr::topology::NetworkParams{}, chaos, {}),
               std::runtime_error);
}

TEST(DomainTestbed, HealingPartitionRidesOutTheCut) {
  DomainCase c(1 << 20, 1 << 20, /*failed_block=*/0);
  rpr::runtime::TestbedParams p;
  p.net = rpr::runtime::RegionNet::uniform(c.placed.cluster.racks(),
                                           rpr::util::Bandwidth::gbps(10),
                                           rpr::util::Bandwidth::gbps(1));
  p.decode_matrix_dim = 6;
  // The cut opens almost immediately and heals 80 ms later; jittered
  // backoff keeps retrying until transfers cross again.
  p.faults.partitions.push_back({{0}, {1, 2}, 0.001, 0.080});
  p.retry.base_backoff_s = 0.010;
  p.retry.max_attempts = 8;
  rpr::runtime::Testbed bed(c.placed.cluster, p);

  const auto outcome = rpr::repair::execute_resilient_with(
      bed, c.problem, *c.planner, c.stripe, {});

  c.expect_rebuilt(outcome);
  EXPECT_TRUE(bed.dead_nodes().empty())
      << "a partition must not declare anyone lost";
}

TEST(DomainTcp, HealingPartitionRidesOutTheCut) {
  DomainCase c(1 << 20, 1 << 20, /*failed_block=*/0);
  rpr::net::TcpRuntimeParams p;
  p.net = rpr::runtime::RegionNet::uniform(c.placed.cluster.racks(),
                                           rpr::util::Bandwidth::gbps(10),
                                           rpr::util::Bandwidth::gbps(1));
  p.decode_matrix_dim = 6;
  p.faults.partitions.push_back({{0}, {1, 2}, 0.001, 0.080});
  p.retry.base_backoff_s = 0.010;
  p.retry.max_attempts = 8;
  p.retry.op_deadline_s = 5.0;
  rpr::net::TcpRuntime rt(c.placed.cluster, p);

  const auto outcome = rpr::repair::execute_resilient_with(
      rt, c.problem, *c.planner, c.stripe, {});

  c.expect_rebuilt(outcome);
  EXPECT_TRUE(rt.dead_nodes().empty())
      << "a partition must not declare anyone lost";
}

// --- Slow disks: reads stall, the repair stretches, nothing re-plans.

TEST(DomainSimnet, SlowDiskStretchesRepairWithoutReplan) {
  DomainCase c(64ull << 20, 4096, /*failed_block=*/0);
  const NodeId victim = c.placed.placement.node_of(1);  // a helper's disk

  const auto baseline = rpr::repair::simulate_resilient(
      c.problem, *c.planner, c.stripe, rpr::topology::NetworkParams{},
      FaultSchedule{}, {});

  FaultSchedule chaos;
  chaos.slow_disks.push_back({victim, 50.0});
  const auto outcome = rpr::repair::simulate_resilient(
      c.problem, *c.planner, c.stripe, rpr::topology::NetworkParams{}, chaos,
      {});

  c.expect_rebuilt(outcome);
  EXPECT_EQ(outcome.replans, 0u);
  EXPECT_GE(outcome.faults_injected, 1u);
  EXPECT_GT(outcome.total_time_s, baseline.total_time_s)
      << "a 50x slower disk must lengthen the repair";
}

// --- Full disks: the storage layer never commits onto a diskfull node.

TEST(DomainStorage, DiskfullReplacementRelocatesTheCommit) {
  // First pass without chaos discovers which node the repair would commit
  // to; the second system marks that disk full and must relocate.
  rpr::storage::StorageOptions base;
  base.code = {6, 3};
  base.block_size = 4096;
  std::vector<std::uint8_t> object(6 * 4096);
  for (std::size_t i = 0; i < object.size(); ++i) {
    object[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }

  rpr::storage::StorageSystem probe_sys(base);
  const auto sid0 = probe_sys.put(object);
  const NodeId victim_node = probe_sys.stripe_nodes(sid0)[0];
  probe_sys.fail_node(victim_node);
  probe_sys.repair(sid0);
  const NodeId chosen = probe_sys.stripe_nodes(sid0)[0];

  auto opts = base;
  opts.chaos = rpr::fault::FaultSchedule::parse(
      "diskfull:" + std::to_string(chosen));
  rpr::storage::StorageSystem sys(opts);
  const auto sid = sys.put(object);
  sys.fail_node(victim_node);
  const auto report = sys.repair(sid);

  EXPECT_NE(sys.stripe_nodes(sid)[0], chosen)
      << "the commit must move off the full disk";
  EXPECT_TRUE(report.verified);
  EXPECT_EQ(sys.get(sid), object) << "round-trip after relocation";
}

TEST(DomainStorage, DiskfullRackSparesKeepRackFaultTolerance) {
  // Node 0 dies. Its rack's spares (nodes 3-5) have full disks and racks 1
  // and 2 hold k = 3 blocks each, so only the extra, empty rack 3 can take
  // the commit without one rack loss killing the stripe.
  rpr::storage::StorageOptions opts;
  opts.code = {6, 3};
  opts.block_size = 4096;
  opts.extra_racks = 1;
  opts.chaos = FaultSchedule::parse("diskfull:3;diskfull:4;diskfull:5");
  rpr::storage::StorageSystem sys(opts);
  const std::vector<std::uint8_t> object(6 * 4096, 0x5a);
  const auto sid = sys.put(object);
  sys.fail_node(0);
  EXPECT_TRUE(sys.repair(sid).verified);

  std::vector<std::size_t> per_rack(sys.cluster().racks(), 0);
  for (const NodeId node : sys.stripe_nodes(sid)) {
    ++per_rack[sys.cluster().rack_of(node)];
  }
  EXPECT_EQ(per_rack, (std::vector<std::size_t>{2, 3, 3, 1}));
  EXPECT_EQ(sys.get(sid), object);
}

namespace {

/// Blocks of a stripe per rack, for the rack-tolerance checks below.
std::vector<std::size_t> blocks_per_rack(const rpr::topology::Cluster& cluster,
                                         const std::vector<NodeId>& nodes) {
  std::vector<std::size_t> per_rack(cluster.racks(), 0);
  for (const NodeId node : nodes) ++per_rack[cluster.rack_of(node)];
  return per_rack;
}

}  // namespace

TEST(DomainStorage, ScheduledWaveTimesTheReplacementItCommits) {
  // The same cluster as above: the fleet wave must time the rebuild into
  // the rack the commit lands in, not into rack 0, whose spares are full.
  rpr::storage::StorageOptions opts;
  opts.code = {6, 3};
  opts.block_size = 4096;
  opts.extra_racks = 1;
  opts.chaos = FaultSchedule::parse("diskfull:3;diskfull:4;diskfull:5");
  rpr::storage::StorageSystem sys(opts);
  const std::vector<std::uint8_t> object(6 * 4096, 0x3c);
  const auto sid = sys.put(object);
  const auto before = sys.stripe_nodes(sid);
  const auto lost = static_cast<std::size_t>(
      std::find(before.begin(), before.end(), NodeId{0}) - before.begin());
  sys.fail_node(0);

  const auto report = sys.repair_all_scheduled(rpr::sched::SchedulerOptions{});
  ASSERT_EQ(report.repairs.size(), 1u);
  EXPECT_TRUE(report.repairs[0].verified);
  const RackId landed = sys.cluster().rack_of(sys.stripe_nodes(sid)[lost]);
  EXPECT_EQ(landed, 3u);
  EXPECT_GT(report.repairs[0].cross_rack_bytes, 0u);
  ASSERT_EQ(report.schedule.rack_download_bytes.size(), sys.cluster().racks());
  EXPECT_EQ(report.schedule.rack_download_bytes[landed],
            report.repairs[0].cross_rack_bytes)
      << "the wave timed another replacement than the one committed";
  EXPECT_EQ(sys.get(sid), object);
}

TEST(DomainStorage, DestinationKilledAfterSparesFullKeepsRackFaultTolerance) {
  // Rack 0's only committable spare (node 5) takes the rebuild and dies
  // mid-repair. Its re-plan must move the block into the empty rack 3, not
  // into a rack that already holds k blocks.
  rpr::storage::StorageOptions opts;
  opts.code = {6, 3};
  // 1 MiB blocks: the cross-rack transfers into node 5 run past 1 ms.
  opts.block_size = 1 << 20;
  opts.extra_racks = 1;
  opts.chaos = FaultSchedule::parse("diskfull:3;diskfull:4;kill:5@0.001");
  rpr::storage::StorageSystem sys(opts);
  std::vector<std::uint8_t> object(6 << 20);
  for (std::size_t i = 0; i < object.size(); ++i) {
    object[i] = static_cast<std::uint8_t>(i * 13 + 1);
  }
  const auto sid = sys.put(object);
  sys.fail_node(0);
  const auto report = sys.repair(sid);
  EXPECT_TRUE(report.verified);
  EXPECT_EQ(report.replans, 1u);
  EXPECT_EQ(blocks_per_rack(sys.cluster(), sys.stripe_nodes(sid)),
            (std::vector<std::size_t>{2, 3, 3, 1}));
  EXPECT_EQ(sys.get(sid), object);
}

TEST(DomainSimnet, RelocatedDestinationKeepsRackFaultTolerance) {
  // The direct-session twin of the storage test above: a placement with one
  // empty extra rack, rack 0's spares full but node 5, which dies mid-repair.
  const rpr::rs::RSCode code({6, 3});
  const rpr::topology::Placement placement = rpr::topology::make_placement(
      rpr::topology::Cluster(4, 3, 3), {6, 3},
      rpr::topology::PlacementPolicy::kRpr);
  std::vector<NodeId> nodes;
  for (std::size_t b = 0; b < 9; ++b) nodes.push_back(placement.node_of(b));
  const auto failed = static_cast<std::size_t>(
      std::find(nodes.begin(), nodes.end(), NodeId{0}) - nodes.begin());
  auto stripe = rpr::testing::random_stripe(code, 4096, 91);
  const Block truth = stripe[failed];
  stripe[failed].clear();

  rpr::repair::RepairProblem problem;
  problem.code = &code;
  problem.placement = &placement;
  problem.block_size = 1 << 20;
  problem.failed = {failed};
  problem.replacements = {5};
  rpr::repair::ResilientOptions ropts;
  ropts.unavailable = {0};
  ropts.no_commit = {3, 4};
  const auto planner = rpr::repair::make_planner(rpr::repair::Scheme::kRpr);
  const auto outcome = rpr::repair::simulate_resilient(
      problem, *planner, stripe, rpr::topology::NetworkParams{},
      FaultSchedule::parse("kill:5@0.001"), ropts);

  EXPECT_EQ(outcome.replans, 1u);
  ASSERT_EQ(outcome.outputs.size(), 1u);
  EXPECT_EQ(outcome.outputs[0], truth);
  nodes[failed] = outcome.destinations[0];
  EXPECT_EQ(blocks_per_rack(placement.cluster(), nodes),
            (std::vector<std::size_t>{2, 3, 3, 1}));
}

TEST(DomainSimnet, DiskfullReplacementIsPlannedAroundFromTheFirstAttempt) {
  // No fault ever aborts this session, so there is no re-plan to move the
  // destination: the session must pick a committable node before its first
  // plan, and the run must deliver the block there.
  DomainCase c(1 << 20, 4096);
  rpr::repair::ResilientOptions ropts;
  ropts.no_commit = {c.problem.replacements[0]};
  std::vector<rpr::simnet::RunResult> runs;
  const rpr::simnet::RunObserver observer(
      [&](const rpr::simnet::RunResult& r) { runs.push_back(r); });
  const auto outcome = rpr::repair::simulate_resilient(
      c.problem, *c.planner, c.stripe, rpr::topology::NetworkParams{},
      FaultSchedule{}, ropts);
  c.expect_rebuilt(outcome);
  EXPECT_EQ(outcome.replans, 0u);
  ASSERT_EQ(outcome.destinations.size(), 1u);
  EXPECT_NE(outcome.destinations[0], c.problem.replacements[0]);
  ASSERT_EQ(runs.size(), 1u);
  const rpr::simnet::TaskStats* last = nullptr;
  for (const auto& task : runs[0].tasks) {
    if (task.kind != rpr::simnet::TaskKind::kTransfer ||
        task.from == task.node) {
      continue;
    }
    if (last == nullptr || task.finish >= last->finish) last = &task;
  }
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->node, outcome.destinations[0])
      << "the final transfer must land at the relocated destination";
}

TEST(DomainStorage, ConstructorRejectsChaosOutsideTheTopology) {
  rpr::storage::StorageOptions opts;
  opts.code = {6, 3};
  opts.chaos = rpr::fault::FaultSchedule::parse("diskfull:99");
  EXPECT_THROW(rpr::storage::StorageSystem{opts}, std::invalid_argument);
}

TEST(DomainStorage, RackKillChaosRepairsAndRoundTrips) {
  rpr::storage::StorageOptions opts;
  opts.code = {6, 3};
  // 1 MiB blocks: the earliest transfer takes ~0.8 simulated ms, so a
  // 0.5 ms rack kill lands mid-repair.
  opts.block_size = 1 << 20;
  // Kill the failed block's rack mid-repair: the resilient session absorbs
  // the domain; the storage layer only sees a verified commit.
  opts.chaos = rpr::fault::FaultSchedule::parse("rack:1@0.0005");
  rpr::storage::StorageSystem sys(opts);

  std::vector<std::uint8_t> object(6 << 20, 0x5A);
  const auto sid = sys.put(object);
  // Fail the block stored in rack 1 so the rack kill stays within k.
  const auto nodes = sys.stripe_nodes(sid);
  std::size_t failed_block = 0;
  for (std::size_t b = 0; b < nodes.size(); ++b) {
    if (sys.cluster().rack_of(nodes[b]) == 1) {
      failed_block = b;
      break;
    }
  }
  sys.fail_node(nodes[failed_block]);

  const auto report = sys.repair(sid);
  EXPECT_TRUE(report.verified);
  EXPECT_GE(report.replans, 1u);
  EXPECT_EQ(sys.get(sid), object);
}

// --- Chained relay schedules under chaos. A chain is the most
// --- serialization-sensitive plan shape we emit: every relay depends on
// --- the full upstream prefix, so a mid-chain death strands the longest
// --- possible dependency tail. These tests pin the recovery contract: the
// --- banked upstream partials (merges that finished before the fault)
// --- survive into the re-plan, the remainder is re-planned as a star /
// --- direct shape over what is left, and the rebuilt block stays
// --- byte-identical on all three engines.

namespace {

/// One single-failure chained repair over a flat-placed (6,3) stripe: one
/// block per rack, so the relay chain crosses six racks (five mid-chain
/// relays plus the final hop into the replacement).
struct ChainedDomainCase {
  rpr::rs::RSCode code{rpr::rs::CodeConfig{6, 3}};
  rpr::topology::PlacedStripe placed = rpr::topology::make_placed_stripe(
      {6, 3}, rpr::topology::PlacementPolicy::kFlat);
  std::vector<Block> stripe;
  rpr::repair::RepairProblem problem;
  std::unique_ptr<rpr::repair::Planner> planner =
      rpr::repair::make_planner(rpr::repair::Scheme::kRprChained);

  ChainedDomainCase(std::uint64_t plan_block, std::size_t data_bytes) {
    stripe = rpr::testing::random_stripe(code, data_bytes, 77);
    problem.code = &code;
    problem.placement = &placed.placement;
    problem.block_size = plan_block;
    problem.failed = {0};
    problem.choose_default_replacements();
  }

  [[nodiscard]] RackId failed_rack() const {
    return placed.cluster.rack_of(
        placed.placement.node_of(problem.failed[0]));
  }

  /// The relay stations, in chain order (aggregators of "chain:merge"
  /// ops). Killing one in the middle strands the chain with finished
  /// upstream merges to bank.
  [[nodiscard]] std::vector<NodeId> relays() const {
    const auto planned = planner->plan(problem);
    std::vector<NodeId> out;
    for (const auto& op : planned.plan.ops) {
      if (op.label == "chain:merge") out.push_back(op.node);
    }
    if (out.size() < 3) {
      throw std::runtime_error("chain too short for a mid-chain kill");
    }
    return out;
  }

  void expect_rebuilt(const rpr::repair::ResilientOutcome& outcome) const {
    ASSERT_EQ(outcome.outputs.size(), 1u);
    EXPECT_EQ(outcome.outputs[0], stripe[problem.failed[0]])
        << "rebuilt block not byte-identical";
  }
};

}  // namespace

TEST(ChainedDomainSimnet, MidChainKillBanksUpstreamPartialsAndRebuilds) {
  ChainedDomainCase c(64ull << 20, 4096);
  // Cross hops take ~0.54 simulated s each; by 1.2 s the first two relay
  // merges are finished and banked, and the third relay is mid-transfer.
  FaultSchedule chaos;
  chaos.kills.push_back({c.relays()[2], 1.2});

  const auto outcome = rpr::repair::simulate_resilient(
      c.problem, *c.planner, c.stripe, rpr::topology::NetworkParams{}, chaos,
      {});

  c.expect_rebuilt(outcome);
  EXPECT_GE(outcome.replans, 1u);
  EXPECT_GE(outcome.reused_values, 1u)
      << "finished upstream chain merges must be banked, not refetched";
}

TEST(ChainedDomainSimnet, HelperLossReplansAsRelayChain) {
  ChainedDomainCase c(64ull << 20, 4096);
  // Per simulated attempt: how many sends relay the running sum across
  // racks ("chain:send" between racks).
  std::vector<std::size_t> cross_relays;
  const rpr::simnet::RunObserver observer(
      [&](const rpr::simnet::RunResult& r) {
        std::size_t n = 0;
        for (std::size_t t = 0; t < r.tasks.size(); ++t) {
          n += static_cast<std::size_t>(r.tasks[t].cross_rack &&
                                        r.label(t) == "chain:send");
        }
        cross_relays.push_back(n);
      });
  // Kill the third relay mid-chain (as in MidChainKill above): the
  // remainder still spans several racks, so a chained session must
  // re-plan it as a chain again, not as the merge tree.
  FaultSchedule chaos;
  chaos.kills.push_back({c.relays()[2], 1.2});

  // Online verification is on by default: the re-plan passes the verifier
  // or the session throws.
  const auto outcome = rpr::repair::simulate_resilient(
      c.problem, *c.planner, c.stripe, rpr::topology::NetworkParams{}, chaos,
      {});
  c.expect_rebuilt(outcome);
  ASSERT_EQ(outcome.replans, 1u);
  EXPECT_EQ(outcome.scheme_switches, 0u);
  EXPECT_GE(outcome.reused_values, 1u);
  ASSERT_EQ(cross_relays.size(), 2u);
  EXPECT_GE(cross_relays[0], 3u);
  EXPECT_GE(cross_relays[1], 2u)
      << "the re-plan must relay the running sum across racks";

  // Out of budget at the first abort: the salvage report surfaces the
  // banked chain prefix like every other scheme's.
  rpr::repair::ResilientOptions ropts;
  ropts.max_replans = 0;
  try {
    (void)rpr::repair::simulate_resilient(c.problem, *c.planner, c.stripe,
                                          rpr::topology::NetworkParams{},
                                          chaos, ropts);
    FAIL() << "expected ReplanBudgetExhausted";
  } catch (const ReplanBudgetExhausted& e) {
    EXPECT_NE(std::string(e.what()).find("budget"), std::string::npos);
    EXPECT_NE(e.report().find("outstanding"), std::string::npos)
        << e.report();
    EXPECT_GE(e.salvaged_values(), 1u);
    EXPECT_GT(e.salvaged_bytes(), 0u);
  }
}

TEST(ChainedDomainSimnet, RackCutMidChainRelocatesAndRebuilds) {
  ChainedDomainCase c(64ull << 20, 4096);
  // The failed block's rack (failed block + its replacement) dies while
  // the chain is still relaying toward it.
  FaultSchedule chaos;
  chaos.rack_kills.push_back({c.failed_rack(), 1.2});

  const auto outcome = rpr::repair::simulate_resilient(
      c.problem, *c.planner, c.stripe, rpr::topology::NetworkParams{}, chaos,
      {});

  c.expect_rebuilt(outcome);
  EXPECT_GE(outcome.replans, 1u);
  ASSERT_EQ(outcome.destinations.size(), 1u);
  EXPECT_NE(c.placed.cluster.rack_of(outcome.destinations[0]),
            c.failed_rack())
      << "the rebuilt block must land outside the dead rack";
}

TEST(ChainedDomainSimnet, HealingPartitionBanksChainPrefixAndWaits) {
  ChainedDomainCase c(64ull << 20, 4096);
  // Cut the recovery rack away from every helper rack at 0.6 s (first
  // relay merge is already finished and banked) and hold the cut open past
  // the ~2.8 s point where the final hop would cross into it. Every helper
  // lives on the far side, so the session is free to relocate the
  // destination there instead of waiting the cut out — what matters is
  // that the finished chain prefix is banked and reused, not refetched.
  FaultSchedule chaos;
  std::vector<RackId> rest;
  for (std::size_t r = 1; r < c.placed.cluster.racks(); ++r) {
    rest.push_back(static_cast<RackId>(r));
  }
  chaos.partitions.push_back({{c.failed_rack()}, rest, 0.6, 3.0});

  const auto outcome = rpr::repair::simulate_resilient(
      c.problem, *c.planner, c.stripe, rpr::topology::NetworkParams{}, chaos,
      {});

  c.expect_rebuilt(outcome);
  EXPECT_GE(outcome.partition_waits, 1u);
  EXPECT_GE(outcome.reused_values, 1u)
      << "banked chain partials must survive a partition";
  EXPECT_GT(outcome.total_time_s, 0.6)
      << "the cut landed mid-repair, not after it";
}

TEST(ChainedDomainTestbed, MidChainKillRebuildsByteIdentical) {
  ChainedDomainCase c(1 << 20, 1 << 20);
  rpr::runtime::TestbedParams p;
  p.net = rpr::runtime::RegionNet::uniform(c.placed.cluster.racks(),
                                           rpr::util::Bandwidth::gbps(10),
                                           rpr::util::Bandwidth::gbps(1));
  p.decode_matrix_dim = 6;
  // ~8 ms per cross hop: a 15 ms kill of the third relay lands mid-chain.
  p.faults.kills.push_back({c.relays()[2], 0.015});
  p.retry.base_backoff_s = 0.001;
  rpr::runtime::Testbed bed(c.placed.cluster, p);

  const auto outcome = rpr::repair::execute_resilient_with(
      bed, c.problem, *c.planner, c.stripe, {});

  c.expect_rebuilt(outcome);
  EXPECT_GE(outcome.replans, 1u);
}

TEST(ChainedDomainTestbed, HealingPartitionRidesOutTheCut) {
  ChainedDomainCase c(1 << 20, 1 << 20);
  rpr::runtime::TestbedParams p;
  p.net = rpr::runtime::RegionNet::uniform(c.placed.cluster.racks(),
                                           rpr::util::Bandwidth::gbps(10),
                                           rpr::util::Bandwidth::gbps(1));
  p.decode_matrix_dim = 6;
  std::vector<RackId> rest;
  for (std::size_t r = 1; r < c.placed.cluster.racks(); ++r) {
    rest.push_back(static_cast<RackId>(r));
  }
  p.faults.partitions.push_back({{c.failed_rack()}, rest, 0.001, 0.080});
  p.retry.base_backoff_s = 0.010;
  p.retry.max_attempts = 8;
  rpr::runtime::Testbed bed(c.placed.cluster, p);

  const auto outcome = rpr::repair::execute_resilient_with(
      bed, c.problem, *c.planner, c.stripe, {});

  c.expect_rebuilt(outcome);
  EXPECT_TRUE(bed.dead_nodes().empty())
      << "a partition must not declare anyone lost";
}

TEST(ChainedDomainTcp, MidChainKillRebuildsByteIdentical) {
  ChainedDomainCase c(1 << 20, 1 << 20);
  rpr::net::TcpRuntimeParams p;
  p.net = rpr::runtime::RegionNet::uniform(c.placed.cluster.racks(),
                                           rpr::util::Bandwidth::gbps(10),
                                           rpr::util::Bandwidth::gbps(1));
  p.decode_matrix_dim = 6;
  p.faults.kills.push_back({c.relays()[2], 0.015});
  p.retry.base_backoff_s = 0.001;
  p.retry.op_deadline_s = 5.0;
  rpr::net::TcpRuntime rt(c.placed.cluster, p);

  const auto outcome = rpr::repair::execute_resilient_with(
      rt, c.problem, *c.planner, c.stripe, {});

  c.expect_rebuilt(outcome);
  EXPECT_GE(outcome.replans, 1u);
}

TEST(ChainedDomainTcp, HealingPartitionRidesOutTheCut) {
  ChainedDomainCase c(1 << 20, 1 << 20);
  rpr::net::TcpRuntimeParams p;
  p.net = rpr::runtime::RegionNet::uniform(c.placed.cluster.racks(),
                                           rpr::util::Bandwidth::gbps(10),
                                           rpr::util::Bandwidth::gbps(1));
  p.decode_matrix_dim = 6;
  std::vector<RackId> rest;
  for (std::size_t r = 1; r < c.placed.cluster.racks(); ++r) {
    rest.push_back(static_cast<RackId>(r));
  }
  p.faults.partitions.push_back({{c.failed_rack()}, rest, 0.001, 0.080});
  p.retry.base_backoff_s = 0.010;
  p.retry.max_attempts = 8;
  p.retry.op_deadline_s = 5.0;
  rpr::net::TcpRuntime rt(c.placed.cluster, p);

  const auto outcome = rpr::repair::execute_resilient_with(
      rt, c.problem, *c.planner, c.stripe, {});

  c.expect_rebuilt(outcome);
  EXPECT_TRUE(rt.dead_nodes().empty())
      << "a partition must not declare anyone lost";
}

// --- Budget exhaustion: when the chaos outruns the re-plan budget the
// --- session aborts coherently — a typed exception carrying how many
// --- banked values (and bytes) a salvage pass could still reuse.

namespace {

void expect_salvage_report(const ReplanBudgetExhausted& e) {
  EXPECT_NE(std::string(e.what()).find("budget"), std::string::npos);
  EXPECT_FALSE(e.report().empty());
  EXPECT_NE(e.report().find("outstanding"), std::string::npos) << e.report();
  EXPECT_GE(e.salvaged_values(), 1u)
      << "finished work before the abort must be surfaced";
  EXPECT_GT(e.salvaged_bytes(), 0u);
}

}  // namespace

TEST(DomainSimnet, SliceModeBudgetExhaustionAbortsWithSalvageReport) {
  DomainCase c(64ull << 20, 4096, /*failed_block=*/0);
  FaultSchedule chaos;
  // Inner-rack 64 MiB transfers finish in ~50 simulated ms; the cross send
  // takes ~540 ms. A 100 ms kill of the cross sender lands in between, so
  // the aborting attempt has finished rack aggregates to salvage.
  chaos.kills.push_back({c.cross_send_source(), 0.100});

  rpr::topology::NetworkParams params;
  params.slice_size = 65536;  // slice-pipelined dataplane
  rpr::repair::ResilientOptions ropts;
  ropts.max_replans = 0;

  try {
    (void)rpr::repair::simulate_resilient(c.problem, *c.planner, c.stripe,
                                          params, chaos, ropts);
    FAIL() << "expected ReplanBudgetExhausted";
  } catch (const ReplanBudgetExhausted& e) {
    expect_salvage_report(e);
    EXPECT_EQ(e.replans(), 0u);
  }
}

TEST(DomainTestbed, SliceModeBudgetExhaustionAbortsWithSalvageReport) {
  DomainCase c(1 << 20, 1 << 20, /*failed_block=*/0);
  rpr::runtime::TestbedParams p;
  p.net = rpr::runtime::RegionNet::uniform(c.placed.cluster.racks(),
                                           rpr::util::Bandwidth::gbps(10),
                                           rpr::util::Bandwidth::gbps(1));
  p.decode_matrix_dim = 6;
  p.slice_size = 65536;
  // 1 MiB inner transfers pace over ~0.8 ms; the cross send takes ~8 ms.
  // Killing the cross sender at 4 ms leaves finished values to salvage.
  p.faults.kills.push_back({c.cross_send_source(), 0.004});
  p.retry.base_backoff_s = 0.001;
  rpr::runtime::Testbed bed(c.placed.cluster, p);

  rpr::repair::ResilientOptions ropts;
  ropts.max_replans = 0;
  try {
    (void)rpr::repair::execute_resilient_with(bed, c.problem, *c.planner,
                                              c.stripe, ropts);
    FAIL() << "expected ReplanBudgetExhausted";
  } catch (const ReplanBudgetExhausted& e) {
    expect_salvage_report(e);
  }
}

TEST(DomainTcp, SliceModeBudgetExhaustionAbortsWithSalvageReport) {
  DomainCase c(1 << 20, 1 << 20, /*failed_block=*/0);
  rpr::net::TcpRuntimeParams p;
  p.net = rpr::runtime::RegionNet::uniform(c.placed.cluster.racks(),
                                           rpr::util::Bandwidth::gbps(10),
                                           rpr::util::Bandwidth::gbps(1));
  p.decode_matrix_dim = 6;
  p.slice_size = 65536;
  p.faults.kills.push_back({c.cross_send_source(), 0.004});
  p.retry.base_backoff_s = 0.001;
  p.retry.op_deadline_s = 5.0;
  rpr::net::TcpRuntime rt(c.placed.cluster, p);

  rpr::repair::ResilientOptions ropts;
  ropts.max_replans = 0;
  try {
    (void)rpr::repair::execute_resilient_with(rt, c.problem, *c.planner,
                                              c.stripe, ropts);
    FAIL() << "expected ReplanBudgetExhausted";
  } catch (const ReplanBudgetExhausted& e) {
    expect_salvage_report(e);
  }
}
