// Storage-system integration tests: put/get round trips, degraded reads,
// failure injection, repair across schemes, replacement placement.
#include "storage/storage_system.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "obs/metrics.h"
#include "obs/sinks.h"
#include "repair/executor_data.h"
#include "sched/scheduler.h"
#include "storage/failure.h"
#include "util/rng.h"

using rpr::repair::Scheme;
using rpr::storage::FailureInjector;
using rpr::storage::StorageOptions;
using rpr::storage::StorageSystem;
using rpr::topology::PlacementPolicy;

namespace {

std::vector<std::uint8_t> random_object(std::size_t size, std::uint64_t seed) {
  rpr::util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> v(size);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng() & 0xFF);
  return v;
}

StorageOptions small_opts(Scheme scheme = Scheme::kRpr) {
  StorageOptions o;
  o.code = {6, 3};
  o.block_size = 1024;
  o.repair_scheme = scheme;
  return o;
}

}  // namespace

TEST(Storage, PutGetRoundTrip) {
  StorageSystem sys(small_opts());
  const auto obj = random_object(5000, 1);
  const auto id = sys.put(obj);
  EXPECT_EQ(sys.get(id), obj);
}

TEST(Storage, ShortAndEmptyObjects) {
  StorageSystem sys(small_opts());
  const auto tiny = random_object(3, 2);
  EXPECT_EQ(sys.get(sys.put(tiny)), tiny);
  const std::vector<std::uint8_t> empty;
  EXPECT_EQ(sys.get(sys.put(empty)), empty);
}

TEST(Storage, ObjectTooLargeRejected) {
  StorageSystem sys(small_opts());
  EXPECT_THROW(sys.put(random_object(6 * 1024 + 1, 3)), std::invalid_argument);
}

TEST(Storage, DegradedReadAfterNodeFailure) {
  StorageSystem sys(small_opts());
  const auto obj = random_object(6 * 1024, 4);
  const auto id = sys.put(obj);
  // Kill the node holding data block 0.
  sys.fail_node(sys.stripe_nodes(id)[0]);
  EXPECT_EQ(sys.lost_blocks(id), (std::vector<std::size_t>{0}));
  EXPECT_EQ(sys.get(id), obj);  // transparent degraded read
}

TEST(Storage, DegradedReadSurvivesKFailures) {
  StorageSystem sys(small_opts());
  const auto obj = random_object(6 * 1024, 5);
  const auto id = sys.put(obj);
  const auto nodes = sys.stripe_nodes(id);
  sys.fail_node(nodes[0]);
  sys.fail_node(nodes[3]);
  sys.fail_node(nodes[7]);  // a parity block
  EXPECT_EQ(sys.get(id), obj);
}

TEST(Storage, UnrecoverableStripeThrows) {
  StorageSystem sys(small_opts());
  const auto obj = random_object(1000, 6);
  const auto id = sys.put(obj);
  const auto nodes = sys.stripe_nodes(id);
  for (std::size_t b : {0u, 1u, 2u, 3u}) sys.fail_node(nodes[b]);
  EXPECT_THROW((void)sys.get(id), std::runtime_error);
  EXPECT_THROW((void)sys.repair(id), std::runtime_error);
}

class StorageRepairTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(StorageRepairTest, RepairRestoresDataOnNewNode) {
  StorageSystem sys(small_opts(GetParam()));
  const auto obj = random_object(6 * 1024, 7);
  const auto id = sys.put(obj);
  const auto old_nodes = sys.stripe_nodes(id);
  sys.fail_node(old_nodes[2]);

  const auto report = sys.repair(id);
  EXPECT_EQ(report.repaired_blocks, (std::vector<std::size_t>{2}));
  EXPECT_GT(report.simulated_repair_time, 0);
  EXPECT_TRUE(sys.lost_blocks(id).empty());
  EXPECT_EQ(sys.get(id), obj);

  // The block moved to a new node in the same rack.
  const auto new_nodes = sys.stripe_nodes(id);
  EXPECT_NE(new_nodes[2], old_nodes[2]);
  EXPECT_EQ(sys.cluster().rack_of(new_nodes[2]),
            sys.cluster().rack_of(old_nodes[2]));
}

TEST_P(StorageRepairTest, RepairAfterMultiFailure) {
  StorageSystem sys(small_opts(GetParam()));
  const auto obj = random_object(6 * 1024, 8);
  const auto id = sys.put(obj);
  const auto nodes = sys.stripe_nodes(id);
  sys.fail_node(nodes[1]);
  sys.fail_node(nodes[4]);

  const auto report = sys.repair(id);  // CAR falls back to RPR multi
  EXPECT_EQ(report.repaired_blocks.size(), 2u);
  EXPECT_TRUE(sys.lost_blocks(id).empty());
  EXPECT_EQ(sys.get(id), obj);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, StorageRepairTest,
                         ::testing::Values(Scheme::kTraditional, Scheme::kCar,
                                           Scheme::kRpr, Scheme::kRprChained),
                         [](const ::testing::TestParamInfo<Scheme>& i) {
                           switch (i.param) {
                             case Scheme::kTraditional: return "traditional";
                             case Scheme::kCar: return "car";
                             case Scheme::kRpr: return "rpr";
                             case Scheme::kRprChained: return "rpr_chained";
                           }
                           return "unknown";
                         });

TEST(Storage, RepairAllTouchesEveryDamagedStripe) {
  StorageSystem sys(small_opts());
  std::vector<rpr::storage::StripeId> ids;
  std::vector<std::vector<std::uint8_t>> objs;
  for (int i = 0; i < 8; ++i) {
    objs.push_back(random_object(4000, 100 + static_cast<std::uint64_t>(i)));
    ids.push_back(sys.put(objs.back()));
  }
  // Kill one node; stripes rotate across racks, so several stripes lose a
  // block while others stay intact.
  sys.fail_node(sys.stripe_nodes(ids[0])[0]);
  const auto reports = sys.repair_all();
  EXPECT_FALSE(reports.empty());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_TRUE(sys.lost_blocks(ids[i]).empty());
    EXPECT_EQ(sys.get(ids[i]), objs[i]);
  }
}

TEST(Storage, ReadBlockHealthyAndDegraded) {
  StorageSystem sys(small_opts());
  const auto obj = random_object(6 * 1024, 31);
  const auto id = sys.put(obj);
  const rpr::rs::Block want(obj.begin(), obj.begin() + 1024);
  // Reader off the stripe so even the healthy read crosses the network.
  rpr::topology::NodeId reader = 0;
  const auto nodes = sys.stripe_nodes(id);
  for (rpr::topology::NodeId n = sys.cluster().total_nodes(); n-- > 0;) {
    if (std::find(nodes.begin(), nodes.end(), n) == nodes.end()) {
      reader = n;
      break;
    }
  }

  auto healthy = sys.read_block(id, 0, reader);
  EXPECT_FALSE(healthy.degraded);
  EXPECT_TRUE(healthy.verified);
  EXPECT_EQ(healthy.data, want);

  sys.fail_node(nodes[0]);
  auto degraded = sys.read_block(id, 0, reader);
  EXPECT_TRUE(degraded.degraded);
  EXPECT_TRUE(degraded.verified);
  EXPECT_EQ(degraded.data, want);
  // Reconstruction pulls k helpers' worth of traffic, a plain read one
  // block's worth.
  EXPECT_GT(degraded.cross_rack_bytes + degraded.inner_rack_bytes,
            healthy.cross_rack_bytes + healthy.inner_rack_bytes);
  // A degraded read serves the client without committing a repair.
  EXPECT_EQ(sys.lost_blocks(id), (std::vector<std::size_t>{0}));
}

TEST(Storage, HealthyReadOfATailChunkBlockIsVerified) {
  // 1 MiB + 100 bytes: a healthy read copies and fingerprints the block
  // over several pool shards, and the last one ends in a tail chunk.
  StorageOptions o = small_opts();
  o.block_size = (1 << 20) + 100;
  StorageSystem sys(o);
  const auto obj = random_object(o.block_size + 5000, 37);
  const auto id = sys.put(obj);
  const auto nodes = sys.stripe_nodes(id);
  for (const std::size_t b : {0u, 1u}) {
    const auto read = sys.read_block(id, b, nodes.back());
    EXPECT_FALSE(read.degraded);
    EXPECT_TRUE(read.verified);
    rpr::rs::Block want(o.block_size);  // zero-padded past the object
    const std::size_t at = b * o.block_size;
    std::copy_n(obj.data() + at, std::min(o.block_size, obj.size() - at),
                want.data());
    EXPECT_EQ(read.data, want) << "block " << b;
  }
}

TEST(Storage, ZeroFaultSessionMatchesPlanSimulateAndExecute) {
  // With no chaos schedule, repair() and a degraded read_block() are the
  // zero-fault resilient session: the same rebuilt bytes, traffic, time
  // and sim.* telemetry as planning the problem and running simulate +
  // execute_on_data on it directly. The storage layer adds only its digest
  // counter: the n data blocks at put (the parity digests follow by
  // linearity), then one block per read and repair.
  for (const Scheme scheme : {Scheme::kTraditional, Scheme::kCar,
                              Scheme::kRpr, Scheme::kRprChained}) {
    for (const std::size_t lost : {std::size_t{1}, std::size_t{6}}) {
      SCOPED_TRACE(testing::Message() << "scheme " << static_cast<int>(scheme)
                                      << " lost block " << lost);
      rpr::obs::MetricsRegistry sys_reg;
      rpr::obs::MetricsRegistry ref_reg;
      const rpr::obs::Probe ref_probe{&ref_reg, nullptr};
      StorageOptions o = small_opts(scheme);
      o.probe.metrics = &sys_reg;
      StorageSystem sys(o);
      const auto obj = random_object(6 * 1024, 41);
      const auto id = sys.put(obj);
      const auto& cfg = sys.code().config();
      const auto& cluster = sys.cluster();
      auto& digested = ref_reg.counter("storage.digest_bytes");
      digested.add(cfg.n * o.block_size);

      // The stripe's true blocks, encoded the way put() does.
      std::vector<rpr::rs::Block> blocks(cfg.total());
      for (std::size_t b = 0; b < cfg.n; ++b) {
        const auto off = static_cast<std::ptrdiff_t>(b * o.block_size);
        blocks[b].assign(obj.begin() + off,
                         obj.begin() + off +
                             static_cast<std::ptrdiff_t>(o.block_size));
      }
      sys.code().encode_stripe(blocks);
      std::vector<rpr::rs::Block> view = blocks;
      view[lost].clear();

      const auto before = sys.stripe_nodes(id);
      sys.fail_node(before[lost]);
      const rpr::topology::Placement placement(cluster, cfg, before);
      rpr::repair::RepairProblem problem;
      problem.code = &sys.code();
      problem.placement = &placement;
      problem.block_size = o.block_size;
      problem.failed = {lost};

      // Degraded read, rooted at a reader holding nothing of the stripe.
      rpr::topology::NodeId reader = 0;
      for (rpr::topology::NodeId n = cluster.total_nodes(); n-- > 0;) {
        if (std::find(before.begin(), before.end(), n) == before.end()) {
          reader = n;
          break;
        }
      }
      const auto read = sys.read_block(id, lost, reader);
      problem.replacements = {reader};
      const auto read_plan =
          rpr::repair::DegradedReadPlanner({lost}).plan(problem);
      const auto read_sim = rpr::repair::simulate(read_plan.plan, cluster,
                                                  o.network, ref_probe);
      EXPECT_TRUE(read.degraded);
      EXPECT_EQ(read.data, blocks[lost]);
      EXPECT_EQ(read.data, rpr::repair::execute_on_data(
                               read_plan.plan, read_plan.outputs, view)[0]);
      EXPECT_EQ(read.cross_rack_bytes, read_sim.cross_rack_bytes);
      EXPECT_EQ(read.inner_rack_bytes, read_sim.inner_rack_bytes);
      EXPECT_EQ(read.simulated_read_time, read_sim.total_repair_time);
      EXPECT_EQ(read.replans, 0u);
      digested.add(o.block_size);
      EXPECT_EQ(rpr::obs::to_json(sys_reg), rpr::obs::to_json(ref_reg));

      // Repair, to the replacement the system picked.
      const auto report = sys.repair(id);
      problem.replacements = {sys.stripe_nodes(id)[lost]};
      const auto planned =
          rpr::repair::make_planner(scheme)->plan(problem);
      const auto sim =
          rpr::repair::simulate(planned.plan, cluster, o.network, ref_probe);
      EXPECT_EQ(rpr::repair::execute_on_data(planned.plan, planned.outputs,
                                             view)[0],
                blocks[lost]);
      EXPECT_EQ(report.cross_rack_bytes, sim.cross_rack_bytes);
      EXPECT_EQ(report.inner_rack_bytes, sim.inner_rack_bytes);
      EXPECT_EQ(report.simulated_repair_time, sim.total_repair_time);
      EXPECT_EQ(report.used_decoding_matrix, planned.used_decoding_matrix);
      EXPECT_EQ(report.replans, 0u);
      EXPECT_EQ(report.faults_injected, 0u);
      digested.add(o.block_size);
      EXPECT_EQ(rpr::obs::to_json(sys_reg), rpr::obs::to_json(ref_reg));
      EXPECT_EQ(sys.get(id), obj);
    }
  }
}

TEST(Storage, ChaosRepairRecordsSimMetrics) {
  // Every attempt of a chaos session is recorded like a plain simulate(),
  // so a repair that re-plans around a killed helper still reports sim.*.
  StorageSystem twin(small_opts());
  const auto obj = random_object(6 * 1024, 42);
  const auto layout = twin.stripe_nodes(twin.put(obj));

  rpr::obs::MetricsRegistry reg;
  StorageOptions o = small_opts();
  o.probe.metrics = &reg;
  o.chaos.kills.push_back({layout[3], 0.0});
  StorageSystem sys(o);
  const auto id = sys.put(obj);
  sys.fail_node(layout[0]);
  const auto report = sys.repair(id);
  EXPECT_GE(report.replans, 1u);
  ASSERT_NE(reg.find_counter("sim.tasks"), nullptr);
  EXPECT_GT(reg.find_counter("sim.tasks")->value(), 0u);
  ASSERT_NE(reg.find_histogram("sim.queue_wait_s"), nullptr);
  ASSERT_NE(reg.find_counter("repair.replans"), nullptr);
  EXPECT_EQ(reg.find_counter("repair.replans")->value(), report.replans);
  EXPECT_EQ(sys.get(id), obj);
}

TEST(Storage, RepairAllScheduledCommitsEverything) {
  StorageSystem sys(small_opts());
  std::vector<rpr::storage::StripeId> ids;
  std::vector<std::vector<std::uint8_t>> objs;
  for (int i = 0; i < 8; ++i) {
    objs.push_back(random_object(4000, 300 + static_cast<std::uint64_t>(i)));
    ids.push_back(sys.put(objs.back()));
  }
  sys.fail_node(sys.stripe_nodes(ids[0])[0]);

  rpr::sched::SchedulerOptions sopts;
  sopts.max_inflight = 2;
  sopts.repair_share = 0.5;
  rpr::sched::ForegroundWorkload fg;
  fg.qps = 20.0;
  fg.duration_s = 0.01;
  fg.read_size = 512;
  const auto report = sys.repair_all_scheduled(sopts, fg);

  EXPECT_FALSE(report.stripes.empty());
  ASSERT_EQ(report.repairs.size(), report.stripes.size());
  ASSERT_EQ(report.schedule.completion_s.size(), report.stripes.size());
  EXPECT_GT(report.schedule.makespan_s, 0.0);
  for (std::size_t i = 0; i < report.stripes.size(); ++i) {
    EXPECT_TRUE(report.repairs[i].verified);
    EXPECT_GT(report.schedule.completion_s[i], 0.0);
  }
  // Every stripe in the system is healthy again and round-trips.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_TRUE(sys.lost_blocks(ids[i]).empty());
    EXPECT_EQ(sys.get(ids[i]), objs[i]);
  }
  // Re-running finds nothing to do.
  EXPECT_TRUE(sys.repair_all_scheduled(sopts).stripes.empty());
}

TEST(Storage, RepairNoopOnHealthyStripe) {
  StorageSystem sys(small_opts());
  const auto id = sys.put(random_object(100, 9));
  const auto report = sys.repair(id);
  EXPECT_TRUE(report.repaired_blocks.empty());
}

TEST(Storage, RackFailureRepairedToOtherRacks) {
  StorageOptions opts = small_opts();
  opts.extra_racks = 1;  // somewhere to rebuild a whole lost rack
  StorageSystem sys(opts);
  const auto obj = random_object(6 * 1024, 10);
  const auto id = sys.put(obj);
  const auto rack = sys.cluster().rack_of(sys.stripe_nodes(id)[0]);
  sys.fail_rack(rack);
  ASSERT_LE(sys.lost_blocks(id).size(), 3u);  // single-rack fault tolerance

  const auto report = sys.repair(id);
  EXPECT_FALSE(report.repaired_blocks.empty());
  EXPECT_EQ(sys.get(id), obj);
  // Replacements must avoid overloading any rack beyond k blocks.
  std::map<rpr::topology::RackId, std::size_t> per_rack;
  for (const auto node : sys.stripe_nodes(id)) {
    ++per_rack[sys.cluster().rack_of(node)];
  }
  for (const auto& [r, count] : per_rack) EXPECT_LE(count, 3u);
}

TEST(Storage, FailureInjectorKeepsStripesRecoverable) {
  StorageSystem sys(small_opts());
  std::vector<rpr::storage::StripeId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(sys.put(random_object(3000, 200 + static_cast<std::uint64_t>(i))));
  }
  FailureInjector injector(&sys, 42);
  const auto failed = injector.fail_random_nodes(10);
  EXPECT_FALSE(failed.empty());
  for (const auto id : ids) {
    EXPECT_LE(sys.lost_blocks(id).size(), 3u);
    EXPECT_NO_THROW((void)sys.get(id));
  }
  // Everything must be repairable afterwards.
  const auto reports = sys.repair_all();
  for (const auto id : ids) EXPECT_TRUE(sys.lost_blocks(id).empty());
  (void)reports;
}

TEST(Storage, StripePlacementRotatesAcrossRacks) {
  StorageSystem sys(small_opts());
  const auto a = sys.put(random_object(100, 11));
  const auto b = sys.put(random_object(100, 12));
  // Consecutive stripes shift racks, spreading load.
  EXPECT_NE(sys.cluster().rack_of(sys.stripe_nodes(a)[0]),
            sys.cluster().rack_of(sys.stripe_nodes(b)[0]));
}

TEST(Storage, RejectsBadOptions) {
  StorageOptions o = small_opts();
  o.block_size = 0;
  EXPECT_THROW(StorageSystem{o}, std::invalid_argument);
}

TEST(Storage, UnknownStripeRejected) {
  StorageSystem sys(small_opts());
  EXPECT_THROW((void)sys.get(999), std::out_of_range);
  EXPECT_THROW((void)sys.repair(999), std::out_of_range);
  EXPECT_THROW((void)sys.lost_blocks(999), std::out_of_range);
}

TEST(Storage, DegradedReadCostHealthyVsLost) {
  StorageSystem sys(small_opts());
  const auto id = sys.put(random_object(6 * 1024, 20));
  const auto nodes = sys.stripe_nodes(id);
  const auto reader = sys.cluster().spare(0, 0);

  const auto healthy = sys.read_block(id, 0, reader);
  sys.fail_node(nodes[0]);
  const auto degraded = sys.read_block(id, 0, reader);
  EXPECT_FALSE(healthy.degraded);
  EXPECT_TRUE(degraded.degraded);
  EXPECT_EQ(degraded.data, healthy.data);
  // A degraded read moves strictly more data and takes longer than a
  // healthy read of the same block.
  EXPECT_GT(degraded.simulated_read_time, healthy.simulated_read_time);
  EXPECT_GE(degraded.cross_rack_bytes + degraded.inner_rack_bytes,
            healthy.cross_rack_bytes + healthy.inner_rack_bytes);
}

TEST(Storage, DegradedReadCostWithMultipleLost) {
  StorageSystem sys(small_opts());
  const auto id = sys.put(random_object(6 * 1024, 21));
  const auto nodes = sys.stripe_nodes(id);
  sys.fail_node(nodes[1]);
  sys.fail_node(nodes[2]);
  const auto reader = sys.cluster().spare(1, 0);
  const auto cost = sys.read_block(id, 1, reader);
  EXPECT_TRUE(cost.degraded);
  EXPECT_GT(cost.simulated_read_time, 0);
  // Only the requested sub-equation is evaluated: traffic is bounded by
  // one intermediate per involved rack.
  EXPECT_LE(cost.cross_rack_bytes / sys.options().block_size,
            sys.cluster().racks());
}

TEST(Storage, DegradedReadCostRejectsBadArgs) {
  StorageSystem sys(small_opts());
  const auto id = sys.put(random_object(100, 22));
  EXPECT_THROW((void)sys.read_block(999, 0, 0), std::out_of_range);
  EXPECT_THROW((void)sys.read_block(id, 99, 0), std::out_of_range);
  EXPECT_THROW((void)sys.read_block(id, 0, 9999), std::out_of_range);
}

TEST(Storage, ReviveNodeReturnsEmptyHealthyNode) {
  StorageSystem sys(small_opts());
  const auto id = sys.put(random_object(3000, 30));
  const auto node = sys.stripe_nodes(id)[0];
  sys.fail_node(node);
  (void)sys.repair(id);
  sys.revive_node(node);
  EXPECT_TRUE(sys.node_alive(node));
  // The revived node holds nothing; the stripe is healthy elsewhere.
  EXPECT_TRUE(sys.lost_blocks(id).empty());
  EXPECT_THROW(sys.revive_node(9999), std::out_of_range);
}

TEST(Storage, VandermondeMatrixKindRoundTrips) {
  StorageOptions o = small_opts();
  o.matrix = rpr::rs::MatrixKind::kVandermonde;
  StorageSystem sys(o);
  const auto obj = random_object(6 * 1024, 40);
  const auto id = sys.put(obj);
  sys.fail_node(sys.stripe_nodes(id)[0]);
  sys.fail_node(sys.stripe_nodes(id)[6]);  // a parity
  EXPECT_EQ(sys.get(id), obj);
  (void)sys.repair(id);
  EXPECT_EQ(sys.get(id), obj);
}

TEST(Storage, FlatPlacementPolicyWorksEndToEnd) {
  StorageOptions o = small_opts();
  o.policy = PlacementPolicy::kFlat;  // one block per rack
  StorageSystem sys(o);
  const auto obj = random_object(4000, 41);
  const auto id = sys.put(obj);
  // Every block in its own rack.
  std::set<rpr::topology::RackId> racks;
  for (const auto node : sys.stripe_nodes(id)) {
    racks.insert(sys.cluster().rack_of(node));
  }
  EXPECT_EQ(racks.size(), sys.code().config().total());
  sys.fail_node(sys.stripe_nodes(id)[2]);
  (void)sys.repair(id);
  EXPECT_EQ(sys.get(id), obj);
}

TEST(Storage, ContiguousPolicyWithTraditionalScheme) {
  StorageOptions o = small_opts(Scheme::kTraditional);
  o.policy = PlacementPolicy::kContiguous;
  StorageSystem sys(o);
  const auto obj = random_object(5000, 42);
  const auto id = sys.put(obj);
  sys.fail_node(sys.stripe_nodes(id)[5]);
  const auto report = sys.repair(id);
  EXPECT_TRUE(report.used_decoding_matrix);  // traditional always builds it
  EXPECT_EQ(sys.get(id), obj);
}

TEST(Storage, DigestsEachBlockOnce) {
  // Intact state is recorded when bytes are written, so an operation hashes
  // only the blocks it writes or hands out: a scan is a lookup.
  rpr::obs::MetricsRegistry reg;
  StorageOptions o = small_opts();
  o.probe.metrics = &reg;
  StorageSystem sys(o);
  const auto& cfg = sys.code().config();
  const auto obj = random_object(6 * 1024, 51);
  const auto blocks_hashed = [&](const auto& op) {
    auto& digested = reg.counter("storage.digest_bytes");
    const std::uint64_t before = digested.value();
    op();
    return (digested.value() - before) / o.block_size;
  };

  rpr::storage::StripeId id = 0;
  // put hashes the data blocks; the parity digests follow by linearity.
  EXPECT_EQ(blocks_hashed([&] { id = sys.put(obj); }), cfg.n);
  EXPECT_EQ(blocks_hashed([&] { EXPECT_EQ(sys.get(id), obj); }), 0u);
  const auto nodes = sys.stripe_nodes(id);
  rpr::topology::NodeId reader = 0;
  for (rpr::topology::NodeId n = sys.cluster().total_nodes(); n-- > 0;) {
    if (std::find(nodes.begin(), nodes.end(), n) == nodes.end()) {
      reader = n;
      break;
    }
  }
  EXPECT_EQ(blocks_hashed([&] {
              EXPECT_FALSE(sys.read_block(id, 2, reader).degraded);
            }),
            1u);
  EXPECT_EQ(blocks_hashed([&] {
              sys.fail_node(nodes[0]);
              EXPECT_EQ(sys.lost_blocks(id), std::vector<std::size_t>{0});
            }),
            0u);
  EXPECT_EQ(blocks_hashed([&] {
              EXPECT_TRUE(sys.read_block(id, 0, reader).degraded);
            }),
            1u);
  // A degraded get verifies each data block it decodes, and only those.
  EXPECT_EQ(blocks_hashed([&] { EXPECT_EQ(sys.get(id), obj); }), 1u);
  EXPECT_EQ(blocks_hashed([&] { EXPECT_TRUE(sys.repair(id).verified); }), 1u);
  EXPECT_EQ(blocks_hashed([&] { sys.corrupt_block(id, 4); }), 1u);
  EXPECT_EQ(blocks_hashed([&] {
              EXPECT_EQ(sys.repair(id).repaired_blocks,
                        std::vector<std::size_t>{4});
            }),
            1u);
  EXPECT_EQ(blocks_hashed([&] { EXPECT_EQ(sys.get(id), obj); }), 0u);
}

TEST(Storage, RecycledBlocksNeverLeakStaleBytes) {
  // put, repair and degraded reads take their blocks uninitialized from the
  // process-wide pool and never clear them: put must overwrite every byte (the
  // padded tail with zeros) and fingerprint what it wrote. A system full of
  // random objects is destroyed first, so the blocks a fresh system takes
  // hold its bytes; any byte put or a repair fails to write shows up as a
  // mismatch or a failed digest. Block sizes: one with a short tail chunk,
  // one that put's pass shards over the pool (with a tail chunk too).
  for (const std::size_t bs :
       {std::size_t{1000}, std::size_t{(256 << 10) + 100}}) {
    SCOPED_TRACE(testing::Message() << "block " << bs);
    StorageOptions o = small_opts();
    o.block_size = bs;
    const std::size_t n = o.code.n;
    {
      StorageSystem dirty(o);
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        (void)dirty.put(random_object(n * bs, seed));
      }
    }
    {
      const auto stale = rpr::rs::Block::uninitialized(bs);
      EXPECT_NE(stale, rpr::rs::Block(bs, 0)) << "no stale block to recycle";
    }

    StorageSystem sys(o);
    const auto& cfg = sys.code().config();
    std::vector<std::vector<std::uint8_t>> objects;
    std::vector<rpr::storage::StripeId> ids;
    std::uint64_t seed = 100;
    const auto put = [&](std::size_t size) {
      objects.push_back(random_object(size, ++seed));
      ids.push_back(sys.put(objects.back()));
    };
    // Every get and every block read, healthy or degraded, must deliver the
    // zero-padded split and its encode, verified.
    const auto check_all = [&] {
      for (std::size_t i = 0; i < ids.size(); ++i) {
        SCOPED_TRACE(testing::Message() << "object of " << objects[i].size());
        EXPECT_EQ(sys.get(ids[i]), objects[i]);
        std::vector<rpr::rs::Block> want(cfg.total(), rpr::rs::Block(bs, 0));
        for (std::size_t b = 0; b < objects[i].size(); ++b) {
          want[b / bs][b % bs] = objects[i][b];
        }
        sys.code().encode_stripe(want);
        const auto nodes = sys.stripe_nodes(ids[i]);
        rpr::topology::NodeId reader = 0;
        while (!sys.node_alive(reader) ||
               std::find(nodes.begin(), nodes.end(), reader) != nodes.end()) {
          ++reader;
        }
        for (std::size_t b = 0; b < cfg.total(); ++b) {
          const auto r = sys.read_block(ids[i], b, reader);
          EXPECT_TRUE(r.verified) << "block " << b;
          EXPECT_EQ(r.data, want[b]) << "block " << b;
        }
      }
    };
    for (const std::size_t size : {std::size_t{0}, std::size_t{1},
                                   std::size_t{255}, bs - 1, bs + 1, n * bs}) {
      put(size);
    }
    check_all();
    // Blocks given back by wipe_node are re-taken by degraded reads, by
    // repair and by the next put.
    for (std::size_t round = 0; round < 3; ++round) {
      SCOPED_TRACE(testing::Message() << "round " << round);
      const auto node = sys.stripe_nodes(ids[round])[round];
      sys.fail_node(node);
      check_all();
      EXPECT_FALSE(sys.repair_all().empty());
      sys.revive_node(node);
      put(round == 0 ? bs + 1 : n * bs - round);
      check_all();
    }
  }
}

TEST(Storage, GetOfOddSizesIntoDirtyRecycledBufferIsByteIdentical) {
  // get writes the object into an uninitialized pooled block by sharded
  // copies: an object whose size is a multiple of neither the block size
  // nor 64 B must come back byte-identical in a buffer dirtied with 0xA5,
  // from intact slots and with a lost data block decoded.
  StorageOptions o = small_opts();
  o.block_size = (std::size_t{1} << 20) + 100;  // sharded, with a ragged tail
  StorageSystem sys(o);
  const std::size_t bs = o.block_size;
  const std::size_t n = o.code.n;
  std::vector<std::vector<std::uint8_t>> objects;
  std::vector<rpr::storage::StripeId> ids;
  for (const std::size_t size :
       {n * bs - 37, 3 * bs + 1, std::size_t{77}, bs - 1}) {
    objects.push_back(random_object(size, size));
    ids.push_back(sys.put(objects.back()));
  }
  const auto check_all = [&] {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const std::size_t size = objects[i].size();
      SCOPED_TRACE(testing::Message() << "object of " << size);
      const std::uint8_t* pages = nullptr;
      {
        // A lost block's decode takes a block-sized buffer before the
        // object's: keeping one cached makes that take a hit, so no miss
        // evicts the dirtied buffer first.
        const auto decode_buffer = rpr::rs::Block::uninitialized(bs);
        auto dirty = rpr::rs::Block::uninitialized(size);
        std::fill(dirty.begin(), dirty.end(), std::uint8_t{0xA5});
        pages = dirty.data();
      }
      const auto got = sys.get(ids[i]);
      EXPECT_EQ(got.data(), pages) << "get did not reuse the dirtied buffer";
      EXPECT_EQ(got, objects[i]);
    }
  };
  check_all();
  for (const auto id : ids) {
    sys.corrupt_block(id, 0);
    ASSERT_EQ(sys.lost_blocks(id), std::vector<std::size_t>{0});
  }
  check_all();
}

TEST(Storage, IntactStateMatchesShadowModel) {
  // Seeded random operation sequences against a model that tracks, per
  // block, only whether its node still holds the bytes and how many times
  // they were corrupted since (a second corruption XORs the first back).
  // After every step lost_blocks() must match the model, and every byte
  // handed out must be the original.
  std::size_t xor_backs = 0;
  std::size_t rebuilt = 0;
  std::size_t degraded_reads = 0;
  std::size_t refused = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    rpr::util::Xoshiro256 rng(seed);
    StorageSystem sys(small_opts());
    const auto& cfg = sys.code().config();
    const std::size_t nodes = sys.cluster().total_nodes();

    struct Shadow {
      std::vector<std::uint8_t> object;
      std::vector<rpr::rs::Block> blocks;  // the true n+k blocks
      std::vector<bool> held;              // bytes on the block's node
      std::vector<bool> corrupt;           // odd corruption count
    };
    std::vector<Shadow> shadow;
    std::vector<bool> alive(nodes, true);
    std::size_t dead = 0;
    std::size_t last_corrupt_stripe = 0;
    std::size_t last_corrupt_block = 0;

    const auto expected_lost = [&](std::size_t id) {
      std::vector<std::size_t> lost;
      for (std::size_t b = 0; b < cfg.total(); ++b) {
        if (!shadow[id].held[b] || shadow[id].corrupt[b]) lost.push_back(b);
      }
      return lost;
    };
    const auto wipe = [&](rpr::topology::NodeId node) {
      for (std::size_t id = 0; id < shadow.size(); ++id) {
        const auto where = sys.stripe_nodes(id);
        for (std::size_t b = 0; b < cfg.total(); ++b) {
          if (where[b] != node) continue;
          shadow[id].held[b] = false;
          shadow[id].corrupt[b] = false;
        }
      }
    };
    const auto put = [&] {
      Shadow sh;
      const std::size_t size = 1 + rng.below(cfg.n * 1024);
      sh.object = random_object(size, rng());
      sh.blocks.assign(cfg.total(), rpr::rs::Block(1024, 0));
      for (std::size_t i = 0; i < sh.object.size(); ++i) {
        sh.blocks[i / 1024][i % 1024] = sh.object[i];
      }
      sys.code().encode_stripe(sh.blocks);
      const auto id = sys.put(sh.object);
      ASSERT_EQ(id, shadow.size());
      const auto where = sys.stripe_nodes(id);
      sh.held.resize(cfg.total());
      for (std::size_t b = 0; b < cfg.total(); ++b) {
        sh.held[b] = alive[where[b]];
      }
      sh.corrupt.assign(cfg.total(), false);
      shadow.push_back(std::move(sh));
    };

    put();
    put();
    for (int step = 0; step < 80; ++step) {
      const std::size_t id = rng.below(shadow.size());
      const auto lost = expected_lost(id);
      const bool recoverable = lost.size() <= cfg.k;
      const auto op = rng.below(9);
      SCOPED_TRACE(testing::Message() << "step " << step << " op " << op
                                      << " stripe " << id);
      if (op == 0 && shadow.size() < 5) {
        put();
      } else if (op == 1 && dead < 3) {
        auto node = static_cast<rpr::topology::NodeId>(rng.below(nodes));
        if (alive[node]) {
          sys.fail_node(node);
          alive[node] = false;
          ++dead;
          wipe(node);
        }
      } else if (op == 2) {
        // Replaced hardware: alive again, but empty.
        const auto node = static_cast<rpr::topology::NodeId>(rng.below(nodes));
        sys.revive_node(node);
        if (!alive[node]) --dead;
        alive[node] = true;
        wipe(node);
      } else if (op == 3 || op == 4) {
        // Half the time corrupt the last corrupted block again.
        std::size_t cs = id;
        std::size_t cb = rng.below(cfg.total());
        if (op == 4 && last_corrupt_stripe < shadow.size()) {
          cs = last_corrupt_stripe;
          cb = last_corrupt_block;
        }
        if (shadow[cs].held[cb]) {
          sys.corrupt_block(cs, cb);
          if (shadow[cs].corrupt[cb]) ++xor_backs;
          shadow[cs].corrupt[cb] = !shadow[cs].corrupt[cb];
          last_corrupt_stripe = cs;
          last_corrupt_block = cb;
        } else {
          EXPECT_THROW(sys.corrupt_block(cs, cb), std::runtime_error);
        }
      } else if (op == 5) {
        if (!recoverable) {
          EXPECT_THROW((void)sys.repair(id), std::runtime_error);
          ++refused;
        } else {
          const auto report = sys.repair(id);
          rebuilt += lost.size();
          EXPECT_EQ(report.repaired_blocks, lost);
          EXPECT_TRUE(lost.empty() || report.verified);
          for (std::size_t b = 0; b < cfg.total(); ++b) {
            shadow[id].held[b] = true;
            shadow[id].corrupt[b] = false;
          }
        }
      } else if (op == 6 || op == 7) {
        const std::size_t b = rng.below(cfg.total());
        const auto where = sys.stripe_nodes(id);
        rpr::topology::NodeId reader = 0;
        do {
          reader = static_cast<rpr::topology::NodeId>(rng.below(nodes));
        } while (!alive[reader] ||
                 std::find(where.begin(), where.end(), reader) != where.end());
        const bool degraded =
            std::find(lost.begin(), lost.end(), b) != lost.end();
        if (degraded && !recoverable) {
          EXPECT_THROW((void)sys.read_block(id, b, reader),
                       std::runtime_error);
        } else {
          const auto r = sys.read_block(id, b, reader);
          EXPECT_EQ(r.degraded, degraded);
          degraded_reads += degraded ? 1 : 0;
          EXPECT_TRUE(r.verified);
          EXPECT_EQ(r.data, shadow[id].blocks[b]);
        }
      } else {
        const bool lost_data = !lost.empty() && cfg.is_data(lost.front());
        if (lost_data && !recoverable) {
          EXPECT_THROW((void)sys.get(id), std::runtime_error);
        } else {
          EXPECT_EQ(sys.get(id), shadow[id].object);
        }
      }
      for (std::size_t s = 0; s < shadow.size(); ++s) {
        ASSERT_EQ(sys.lost_blocks(s), expected_lost(s)) << "stripe " << s;
      }
    }
  }
  // The sequences reach every state change the model distinguishes.
  EXPECT_GT(xor_backs, 0u);
  EXPECT_GT(rebuilt, 0u);
  EXPECT_GT(degraded_reads, 0u);
  EXPECT_GT(refused, 0u);
}
