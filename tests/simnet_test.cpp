// Discrete-event network simulator tests: bandwidth math, port
// serialization, parallelism, dependencies, determinism, task records.
#include "simnet/simnet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "util/pages.h"

using rpr::simnet::SimNetwork;
using rpr::topology::Cluster;
using rpr::topology::NetworkParams;
using rpr::util::Bandwidth;
using rpr::util::SimTime;

namespace {

NetworkParams round_params() {
  // 1 MB block at these speeds gives exact round numbers: inner transfer
  // 1 ms, cross transfer 10 ms.
  NetworkParams p;
  p.inner = Bandwidth::bytes_per_sec(1e9);
  p.cross = Bandwidth::bytes_per_sec(1e8);
  p.charge_compute = false;
  return p;
}

constexpr std::uint64_t kBlock = 1'000'000;  // 1 MB
constexpr SimTime kMs = rpr::util::kNsPerMs;

}  // namespace

TEST(SimNet, InnerTransferTime) {
  SimNetwork net(Cluster(2, 2, 0), round_params());
  net.add_transfer(0, 1, kBlock, {});
  EXPECT_EQ(net.run().makespan, 1 * kMs);
}

TEST(SimNet, CrossTransferTime) {
  SimNetwork net(Cluster(2, 2, 0), round_params());
  net.add_transfer(0, 2, kBlock, {});
  EXPECT_EQ(net.run().makespan, 10 * kMs);
}

TEST(SimNet, SameNodeTransferIsFree) {
  SimNetwork net(Cluster(1, 2, 0), round_params());
  net.add_transfer(0, 0, kBlock, {});
  EXPECT_EQ(net.run().makespan, 0);
}

TEST(SimNet, ReceiverPortSerializesTransfers) {
  // Two senders to the same node within a rack: 2 x 1 ms sequential.
  SimNetwork net(Cluster(1, 3, 0), round_params());
  net.add_transfer(1, 0, kBlock, {});
  net.add_transfer(2, 0, kBlock, {});
  EXPECT_EQ(net.run().makespan, 2 * kMs);
}

TEST(SimNet, DisjointPairsRunInParallel) {
  // 0->1 and 2->3 share no ports: both finish at 1 ms.
  SimNetwork net(Cluster(1, 4, 0), round_params());
  net.add_transfer(0, 1, kBlock, {});
  net.add_transfer(2, 3, kBlock, {});
  EXPECT_EQ(net.run().makespan, 1 * kMs);
}

TEST(SimNet, RackUplinkSerializesIncomingCrossTransfers) {
  // Racks 1 and 2 each send one block into rack 0 (distinct destination
  // nodes): the rack-0 downlink carries one at a time -> 20 ms.
  SimNetwork net(Cluster(3, 2, 0), round_params());
  net.add_transfer(2, 0, kBlock, {});  // rack1 node -> rack0 node
  net.add_transfer(4, 1, kBlock, {});  // rack2 node -> rack0 other node
  EXPECT_EQ(net.run().makespan, 20 * kMs);
}

TEST(SimNet, CrossTransfersBetweenDistinctRackPairsOverlap) {
  // rack0->rack1 and rack2->rack3 share nothing: 10 ms total.
  SimNetwork net(Cluster(4, 1, 0), round_params());
  net.add_transfer(0, 1, kBlock, {});
  net.add_transfer(2, 3, kBlock, {});
  EXPECT_EQ(net.run().makespan, 10 * kMs);
}

TEST(SimNet, RackCanSendAndReceiveSimultaneously) {
  // Full-duplex TOR uplink: rack0 sends to rack1 while rack2 sends into
  // rack0.
  SimNetwork net(Cluster(3, 2, 0), round_params());
  net.add_transfer(0, 2, kBlock, {});  // rack0 -> rack1
  net.add_transfer(4, 1, kBlock, {});  // rack2 -> rack0
  EXPECT_EQ(net.run().makespan, 10 * kMs);
}

TEST(SimNet, DependenciesChainTransfers) {
  SimNetwork net(Cluster(2, 2, 0), round_params());
  const auto a = net.add_transfer(0, 1, kBlock, {});        // 1 ms inner
  const auto b = net.add_transfer(1, 2, kBlock, {a});       // 10 ms cross
  net.add_transfer(2, 3, kBlock, {b});                      // 1 ms inner
  EXPECT_EQ(net.run().makespan, 12 * kMs);
}

TEST(SimNet, ComputeOccupiesCpu) {
  SimNetwork net(Cluster(1, 1, 0), round_params());
  net.add_compute(0, 5 * kMs, {});
  net.add_compute(0, 5 * kMs, {});
  EXPECT_EQ(net.run().makespan, 10 * kMs);
}

TEST(SimNet, ComputeAndTransferOverlapOnOneNode) {
  // CPU and NIC are separate resources.
  SimNetwork net(Cluster(1, 2, 0), round_params());
  net.add_compute(0, 1 * kMs, {});
  net.add_transfer(1, 0, kBlock, {});
  EXPECT_EQ(net.run().makespan, 1 * kMs);
}

TEST(SimNet, TrafficAccounting) {
  SimNetwork net(Cluster(2, 2, 0), round_params());
  net.add_transfer(0, 1, kBlock, {});  // inner
  net.add_transfer(0, 2, kBlock, {});  // cross
  net.add_transfer(1, 3, kBlock, {});  // cross
  const auto r = net.run();
  EXPECT_EQ(r.inner_rack_bytes, kBlock);
  EXPECT_EQ(r.cross_rack_bytes, 2 * kBlock);
  EXPECT_EQ(r.inner_rack_transfers, 1u);
  EXPECT_EQ(r.cross_rack_transfers, 2u);
  EXPECT_EQ(r.rack_upload_bytes[0], 2 * kBlock);
  EXPECT_EQ(r.rack_download_bytes[1], 2 * kBlock);
}

TEST(SimNet, DecodeDurationRespectsChargeComputeFlag) {
  NetworkParams p = round_params();
  p.charge_compute = true;
  p.decode_with_matrix = Bandwidth::bytes_per_sec(1e9);
  p.decode_xor = Bandwidth::bytes_per_sec(4e9);
  SimNetwork net(Cluster(1, 1, 0), p);
  EXPECT_EQ(net.decode_duration(kBlock, true), 1 * kMs);
  EXPECT_EQ(net.decode_duration(kBlock, false), kMs / 4);

  NetworkParams off = round_params();
  SimNetwork net2(Cluster(1, 1, 0), off);
  EXPECT_EQ(net2.decode_duration(kBlock, true), 0);
}

TEST(SimNet, DeterministicAcrossRuns) {
  auto build_and_run = [] {
    SimNetwork net(Cluster(3, 3, 0), round_params());
    rpr::simnet::TaskId prev = 0;
    for (int i = 0; i < 20; ++i) {
      const auto from = static_cast<rpr::topology::NodeId>((i * 7) % 9);
      const auto to = static_cast<rpr::topology::NodeId>((i * 5 + 3) % 9);
      if (from == to) continue;
      std::vector<rpr::simnet::TaskId> deps;
      if (i > 10) deps.push_back(prev);
      prev = net.add_transfer(from, to, kBlock, std::move(deps));
    }
    return net.run().makespan;
  };
  const auto first = build_and_run();
  for (int i = 0; i < 5; ++i) EXPECT_EQ(build_and_run(), first);
}

TEST(SimNet, FifoTieBreakByReadyTimeThenId) {
  // Three transfers into one node, all ready at t=0: executed in id order;
  // the stats should show start times 0, 1 ms, 2 ms.
  SimNetwork net(Cluster(1, 4, 0), round_params());
  const auto a = net.add_transfer(1, 0, kBlock, {});
  const auto b = net.add_transfer(2, 0, kBlock, {});
  const auto c = net.add_transfer(3, 0, kBlock, {});
  const auto r = net.run();
  EXPECT_EQ(r.tasks[a].start, 0);
  EXPECT_EQ(r.tasks[b].start, 1 * kMs);
  EXPECT_EQ(r.tasks[c].start, 2 * kMs);
}

TEST(SimNet, RejectsInvalidInputs) {
  SimNetwork net(Cluster(1, 2, 0), round_params());
  EXPECT_THROW(net.add_transfer(0, 99, kBlock, {}), std::invalid_argument);
  EXPECT_THROW(net.add_transfer(0, 1, kBlock, {42}), std::invalid_argument);
  EXPECT_THROW(net.add_compute(99, 1, {}), std::invalid_argument);
}

TEST(SimNet, RunTwiceRejected) {
  SimNetwork net(Cluster(1, 2, 0), round_params());
  net.add_transfer(0, 1, kBlock, {});
  net.run();
  EXPECT_THROW(net.run(), std::logic_error);
}

TEST(SimNet, TimedTaskStartsWhileOthersArePortBlocked) {
  // Two 1 s transfers 0->1 (the second waits for the port) and a transfer
  // 2->3 on free ports that may not start before 0.3 s: it must start at
  // 0.3 s, not when the blocked transfer's port frees at 1 s.
  SimNetwork net(Cluster(2, 2, 2), round_params());
  const std::uint64_t one_second = 1'000'000'000;
  const auto a = net.add_transfer(0, 1, one_second, {});
  const auto b = net.add_transfer(0, 1, one_second, {});
  const auto c = net.add_transfer(2, 3, kBlock, {});
  net.set_earliest_start(c, 300 * kMs);
  const auto r = net.run();
  EXPECT_EQ(r.tasks[a].start, 0);
  EXPECT_EQ(r.tasks[b].start, 1000 * kMs);
  EXPECT_EQ(r.tasks[c].ready, 300 * kMs);
  EXPECT_EQ(r.tasks[c].start, 300 * kMs);
  EXPECT_EQ(r.tasks[c].finish, 301 * kMs);
}

TEST(SimNet, DepsAcrossTheFirstArenaSegmentStayWhole) {
  // Task 0, then tasks that each wait on it until the deps arena's first
  // segment has one slot left; the next task's five deps do not fit there
  // and must come back whole from the next segment.
  using rpr::simnet::TaskId;
  constexpr std::size_t kFirst =
      rpr::util::SegmentedArray<std::uint32_t>::kBase;
  SimNetwork net(Cluster(1, 2, 0), round_params());
  const TaskId root = net.add_compute(0, 1, {});
  for (std::size_t i = 0; i + 1 < kFirst; ++i) net.add_compute(0, 1, {root});
  const std::vector<TaskId> five{1, 2, 3, 4, 5};
  const TaskId across = net.add_compute(1, 1, five);
  const TaskId after = net.add_compute(1, 1, {across, root});
  const auto r = net.run();
  ASSERT_EQ(r.tasks.size(), kFirst + 2);
  EXPECT_TRUE(r.deps(root).empty());
  for (TaskId id = 1; id < kFirst; ++id) {
    ASSERT_EQ(r.deps(id).size(), 1u);
    EXPECT_EQ(r.deps(id)[0], root);
  }
  EXPECT_EQ(std::vector<TaskId>(r.deps(across).begin(), r.deps(across).end()),
            five);
  EXPECT_EQ(std::vector<TaskId>(r.deps(after).begin(), r.deps(after).end()),
            (std::vector<TaskId>{across, root}));
  EXPECT_EQ(r.tasks[across].start, r.tasks[5].finish);
}

TEST(TaskTable, DepsRoundTripAsThirtyTwoBitIds) {
  // Every dep shape the lowering makes: none, the task just before (kept
  // as a record bit, not a link), the one before listed twice, far ones,
  // and runs that cross the arena's segment boundaries. deps() must give
  // back each list as given, and for_each_dependent every reverse edge
  // once per listing.
  using rpr::simnet::TaskId;
  rpr::simnet::TaskTable table;
  const Cluster cluster(2, 2, 0);
  std::vector<std::vector<TaskId>> given;
  const auto add = [&](std::vector<TaskId> deps) {
    const TaskId id =
        given.size() % 3 == 0
            ? table.add_compute(cluster, 0, 5, deps, "c")
            : table.add_transfer(cluster, 0, 3, kBlock, deps, "t");
    ASSERT_EQ(id, given.size());
    given.push_back(std::move(deps));
  };
  add({});
  for (TaskId id = 1; id < 3000; ++id) {
    switch (id % 7) {
      case 0: add({}); break;
      case 1: add({id - 1}); break;
      case 2: add({id / 2, id - 1}); break;
      case 3: add({id - 1, id - 1, 0}); break;
      case 4: add({0, id / 3, id - 2}); break;
      case 5: {
        std::vector<TaskId> run;
        for (TaskId back = 1; back <= id && run.size() < 40; back += 3) {
          run.push_back(id - back);
        }
        add(std::move(run));
        break;
      }
      default: add({id - 1, id - 2, id - 1}); break;
    }
  }
  std::vector<std::vector<TaskId>> dependents(given.size());
  for (TaskId id = 0; id < given.size(); ++id) {
    for (const TaskId d : given[id]) dependents[d].push_back(id);
  }
  for (TaskId id = 0; id < given.size(); ++id) {
    const auto deps = table.deps(id);
    ASSERT_EQ(std::vector<TaskId>(deps.begin(), deps.end()), given[id])
        << "task " << id;
    std::vector<TaskId> seen;
    table.for_each_dependent(id, [&](TaskId d) { seen.push_back(d); });
    std::sort(seen.begin(), seen.end());
    ASSERT_EQ(seen, dependents[id]) << "task " << id;
  }
  EXPECT_THROW(table.add_compute(cluster, 0, 1, std::vector<TaskId>{5000},
                                 {}),
               std::invalid_argument);
}

TEST(TaskTable, ComputeDurationParkedInFinishGivesItsStartAndFinish) {
  // A compute's duration waits in `finish` until it starts; then start is
  // when its dependency and its CPU freed, and finish start + duration
  // (times a slow-disk factor).
  rpr::simnet::TaskTable table;
  const Cluster cluster(1, 2, 0);
  const auto id = table.add_compute(cluster, 1, 7 * kMs,
                                    std::vector<rpr::simnet::TaskId>{}, {});
  EXPECT_EQ(table[id].finish, 7 * kMs);
  EXPECT_EQ(table[id].start, 0);

  SimNetwork net(Cluster(1, 3, 0), round_params());
  const auto a = net.add_transfer(0, 1, kBlock, {});
  const auto c1 = net.add_compute(1, 3 * kMs, {a});
  const auto c2 = net.add_compute(1, 2 * kMs, {});
  const auto c3 = net.add_compute(2, 4 * kMs, {a});
  net.slow_compute(2, 1.5);
  const auto r = net.run();
  EXPECT_EQ(r.tasks[c2].start, 0);
  EXPECT_EQ(r.tasks[c2].finish, 2 * kMs);
  EXPECT_EQ(r.tasks[c1].ready, 1 * kMs);
  EXPECT_EQ(r.tasks[c1].start, 2 * kMs);  // the CPU frees after c2
  EXPECT_EQ(r.tasks[c1].finish, 5 * kMs);
  EXPECT_EQ(r.tasks[c3].start, 1 * kMs);
  EXPECT_EQ(r.tasks[c3].finish, 7 * kMs);
  EXPECT_EQ(r.makespan, 7 * kMs);
}

TEST(SimNet, CopiedRunResultEqualsTheOriginal) {
  SimNetwork net(Cluster(2, 2, 0), round_params());
  const auto a = net.add_transfer(0, 2, kBlock, {}, "cross:a");
  const auto b = net.add_transfer(1, 0, kBlock, {});
  const auto c = net.add_compute(0, 3 * kMs, {a, b}, "decode");
  net.tag_task(c, 7, 2);
  net.set_priority(b, 3);
  net.set_class(b, rpr::simnet::TrafficClass::kForeground);
  const auto r = net.run();
  const rpr::simnet::RunResult copy = r;
  EXPECT_EQ(copy.makespan, r.makespan);
  EXPECT_EQ(copy.cross_rack_bytes, r.cross_rack_bytes);
  EXPECT_EQ(copy.inner_rack_bytes, r.inner_rack_bytes);
  EXPECT_EQ(copy.cross_rack_transfers, r.cross_rack_transfers);
  EXPECT_EQ(copy.inner_rack_transfers, r.inner_rack_transfers);
  EXPECT_EQ(copy.rack_upload_bytes, r.rack_upload_bytes);
  EXPECT_EQ(copy.rack_download_bytes, r.rack_download_bytes);
  EXPECT_EQ(copy.repair_bytes, r.repair_bytes);
  EXPECT_EQ(copy.foreground_bytes, r.foreground_bytes);
  EXPECT_EQ(copy.start_attempts, r.start_attempts);
  ASSERT_EQ(copy.tasks.size(), r.tasks.size());
  for (rpr::simnet::TaskId id = 0; id < r.tasks.size(); ++id) {
    const auto& x = copy.tasks[id];
    const auto& y = r.tasks[id];
    EXPECT_NE(&x, &y);
    EXPECT_EQ(x.ready, y.ready);
    EXPECT_EQ(x.start, y.start);
    EXPECT_EQ(x.finish, y.finish);
    EXPECT_EQ(x.bytes, y.bytes);
    EXPECT_EQ(x.op, y.op);
    EXPECT_EQ(x.slice, y.slice);
    EXPECT_EQ(x.node, y.node);
    EXPECT_EQ(x.from, y.from);
    EXPECT_EQ(x.priority, y.priority);
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(x.cls, y.cls);
    EXPECT_EQ(x.cross_rack, y.cross_rack);
    EXPECT_EQ(copy.label(id), r.label(id));
    EXPECT_EQ(std::vector<rpr::simnet::TaskId>(copy.deps(id).begin(),
                                               copy.deps(id).end()),
              std::vector<rpr::simnet::TaskId>(r.deps(id).begin(),
                                               r.deps(id).end()));
  }
  EXPECT_EQ(copy.label(a), "cross:a");
  EXPECT_EQ(copy.tasks[c].op, 7);
  EXPECT_EQ(copy.tasks[c].slice, 2);
}

TEST(SimNet, TagOutsideThirtyTwoBitsThrows) {
  SimNetwork net(Cluster(1, 2, 0), round_params());
  const auto t = net.add_transfer(0, 1, kBlock, {});
  constexpr std::int64_t kBig =
      std::int64_t{std::numeric_limits<std::int32_t>::max()} + 1;
  constexpr std::int64_t kSmall =
      std::int64_t{std::numeric_limits<std::int32_t>::min()} - 1;
  EXPECT_THROW(net.tag_task(t, kBig, 0), std::out_of_range);
  EXPECT_THROW(net.tag_task(t, 0, kBig), std::out_of_range);
  EXPECT_THROW(net.tag_task(t, kSmall, -1), std::out_of_range);
  EXPECT_THROW(net.tag_task(t, -1, kSmall), std::out_of_range);
  net.tag_task(t, std::numeric_limits<std::int32_t>::max(), -1);
  const auto r = net.run();
  EXPECT_EQ(r.tasks[t].op, std::numeric_limits<std::int32_t>::max());
  EXPECT_EQ(r.tasks[t].slice, -1);
}

TEST(SimNet, SecondRunOfAPlanTakesEverySegmentFromThePool) {
  // Enough tasks that the task store's segments reach the pooled sizes.
  // The first run leaves those segments in the page pool; running the same
  // plan again takes every one of them back, with no new miss.
  using rpr::simnet::TaskId;
  using rpr::util::PagePool;
  const auto simulate = [] {
    SimNetwork net(Cluster(2, 4, 0), round_params());
    std::vector<TaskId> last;
    for (std::size_t i = 0; i < 100'000; ++i) {
      const auto from = static_cast<rpr::topology::NodeId>(i % 8);
      std::vector<TaskId> deps;
      if (i >= 8) deps.push_back(last[i - 8]);
      last.push_back(net.add_transfer(from, (from + 3) % 8, kBlock, deps));
    }
    return net.run().makespan;
  };
  const SimTime first = simulate();
  const PagePool::Stats before = PagePool::shared().stats();
  EXPECT_EQ(simulate(), first);
  const PagePool::Stats after = PagePool::shared().stats();
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_GT(after.hits, before.hits);
}
