// Simulator-output golden test: every SimNetwork run of a fixed workload
// set is hashed task by task and compared with a checked-in digest table.
// The simulator is deterministic, so any change to a schedule — a task's
// kind, node, sender, ready/start/finish time, bytes, rack crossing,
// traffic class, priority, op/slice stamp, label or dependencies — or to
// the run's makespan and traffic totals shows up as a digest mismatch.
//
// Cells:
//  * the `rpr_sim --verify` grid (RS(6,3), RS(9,6), RS(14,10) x the
//    contiguous/rpr/flat placements x every failure set of size 1..3),
//    RPR plans through repair::simulate, whole-block and at 256 KiB and
//    64 KiB slices of a 1 MiB block;
//  * the five bench/fleet_sweep scenarios;
//  * the ChaosFuzz randomized fleet trials at the default fuzz seed;
//  * a reduced perfbench fleet-sim wave at max_inflight 4, 16 and 64;
//  * seeded repair::simulate_resilient chaos runs.
//
// On a mismatch the test prints the freshly computed table in the form of
// the array below; a change that is meant to alter schedules replaces the
// table with that output.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "repair/executor_sim.h"
#include "repair/planner.h"
#include "repair/resilient.h"
#include "sched/scheduler.h"
#include "sched/wave.h"
#include "sim_workloads.h"
#include "simnet/simnet.h"
#include "test_support.h"
#include "topology/placement.h"
#include "util/combinatorics.h"
#include "util/hash.h"

namespace {

using rpr::simnet::RunResult;
using rpr::simnet::TaskId;

struct Golden {
  const char* cell;
  std::uint64_t digest;
};

/// FNV-1a over a canonical byte string of run results, hashed as they are
/// produced.
class RunHasher {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }
  void add(const std::vector<std::uint64_t>& v) {
    add(static_cast<std::uint64_t>(v.size()));
    for (const std::uint64_t x : v) add(x);
  }
  void add(const RunResult& r) {
    add(r.makespan);
    add(r.cross_rack_bytes);
    add(r.inner_rack_bytes);
    add(static_cast<std::uint64_t>(r.cross_rack_transfers));
    add(static_cast<std::uint64_t>(r.inner_rack_transfers));
    add(r.rack_upload_bytes);
    add(r.rack_download_bytes);
    add(r.repair_bytes);
    add(r.foreground_bytes);
    add(static_cast<std::uint64_t>(r.tasks.size()));
    for (TaskId id = 0; id < r.tasks.size(); ++id) {
      const auto& t = r.tasks[id];
      add(static_cast<std::uint64_t>(t.kind));
      add(static_cast<std::uint64_t>(t.node));
      add(static_cast<std::uint64_t>(t.from));
      add(t.ready);
      add(t.start);
      add(t.finish);
      add(t.bytes);
      add(static_cast<std::uint64_t>(t.cross_rack ? 1 : 0));
      add(static_cast<std::uint64_t>(t.cls));
      add(static_cast<std::int64_t>(t.priority));
      add(static_cast<std::int64_t>(t.op));
      add(static_cast<std::int64_t>(t.slice));
      add(r.label(id));
      const auto deps = r.deps(id);
      add(static_cast<std::uint64_t>(deps.size()));
      for (const TaskId d : deps) add(static_cast<std::uint64_t>(d));
    }
  }
  [[nodiscard]] std::uint64_t digest() const { return hash_; }

 private:
  void byte(std::uint8_t b) {
    hash_ ^= b;
    hash_ *= rpr::util::kFnv1aPrime;
  }
  std::uint64_t hash_ = rpr::util::kFnv1aOffset;
};

/// The perfbench fleet-sim wave at reduced size: RS(14,10) with 64 MiB
/// blocks, rack-rotated stripes that each lose the block they kept on
/// node 0, repaired by RPR at 256 KiB slices under a 0.5 repair share
/// while 20 qps of 4 MiB foreground reads run for 600 s and every tenth
/// lost block is probed at 0.2 s.
struct FleetSimShape : rpr::sched::NodeLossWave {
  explicit FleetSimShape(std::size_t stripes)
      : NodeLossWave({14, 10}, stripes, 64ull << 20) {
    workload.foreground = {20.0, 600.0, 4ull << 20, 1};
    probe_lost_blocks(0.2, 10);
  }

  [[nodiscard]] rpr::sched::SchedulerOptions options(
      std::size_t max_inflight) const {
    rpr::sched::SchedulerOptions o;
    o.max_inflight = max_inflight;
    o.repair_share = 0.5;
    o.slice_size = 256 << 10;
    o.scheme = rpr::repair::Scheme::kRpr;
    o.degraded = rpr::sched::DegradedPolicy::kServe;
    return o;
  }
};

using Table = std::vector<std::pair<std::string, std::uint64_t>>;

/// Runs `body` and digests every simulator run it makes, in order.
template <typename Body>
void digest_cell(Table& out, std::string cell, Body&& body) {
  RunHasher h;
  std::size_t runs = 0;
  {
    const rpr::simnet::RunObserver observer([&](const RunResult& r) {
      h.add(r);
      ++runs;
    });
    body();
  }
  h.add(static_cast<std::uint64_t>(runs));
  out.emplace_back(std::move(cell), h.digest());
}

void verify_grid(Table& out) {
  using rpr::topology::PlacementPolicy;
  const std::vector<rpr::rs::CodeConfig> codes = {{6, 3}, {9, 6}, {14, 10}};
  const std::vector<std::pair<PlacementPolicy, const char*>> policies = {
      {PlacementPolicy::kContiguous, "contiguous"},
      {PlacementPolicy::kRpr, "rpr"},
      {PlacementPolicy::kFlat, "flat"}};
  const std::vector<std::pair<std::size_t, const char*>> slicings = {
      {0, "whole"}, {256 << 10, "slice256k"}, {64 << 10, "slice64k"}};
  for (const auto& cfg : codes) {
    const rpr::rs::RSCode code(cfg);
    for (const auto& [policy, policy_name] : policies) {
      const auto placed = rpr::topology::make_placed_stripe(cfg, policy);
      for (const auto& [slice, slice_name] : slicings) {
        rpr::topology::NetworkParams params;
        params.slice_size = slice;
        digest_cell(
            out,
            "simulate/rs" + std::to_string(cfg.n) + "_" +
                std::to_string(cfg.k) + "/" + policy_name + "/" + slice_name,
            [&] {
              for (std::size_t f = 1; f <= std::min<std::size_t>(3, cfg.k);
                   ++f) {
                rpr::util::for_each_combination(
                    cfg.total(), f,
                    [&](const std::vector<std::size_t>& failed) {
                      rpr::repair::RepairProblem p;
                      p.code = &code;
                      p.placement = &placed.placement;
                      p.block_size = 1 << 20;
                      p.failed = failed;
                      p.choose_default_replacements();
                      const auto planned = rpr::repair::RprPlanner{}.plan(p);
                      (void)rpr::repair::simulate(
                          planned.plan, placed.placement.cluster(), params);
                    });
              }
            });
      }
    }
  }
}

/// bench/fleet_sweep's scenario: RS(14,10), 12 rack-rotated stripes that
/// lose node 0's block, 1 MiB slices, 2 in flight, 50 qps of 4 MiB reads
/// for 30 s, and a probe of every lost block at 0.2 s.
void fleet_sweep(Table& out) {
  rpr::sched::NodeLossWave wave({14, 10}, 12, 64ull << 20);
  rpr::sched::FleetWorkload& damaged = wave.workload;
  damaged.foreground = {50.0, 30.0, 4ull << 20, 7};
  wave.probe_lost_blocks(0.2);
  const rpr::sched::FleetWorkload idle = wave.healthy();

  const auto run = [&](const char* name, const rpr::sched::FleetWorkload& w,
                       double share, rpr::sched::DegradedPolicy degraded) {
    rpr::sched::SchedulerOptions opts;
    opts.max_inflight = 2;
    opts.repair_share = share;
    opts.slice_size = 1 << 20;
    opts.degraded = degraded;
    digest_cell(out, std::string("fleet_sweep/") + name, [&] {
      (void)rpr::sched::run_fleet(w, wave.cluster, {}, opts);
    });
  };
  using rpr::sched::DegradedPolicy;
  run("idle", idle, 1.0, DegradedPolicy::kServe);
  run("share:1.00", damaged, 1.0, DegradedPolicy::kServe);
  run("share:0.50", damaged, 0.5, DegradedPolicy::kServe);
  run("share:0.25", damaged, 0.25, DegradedPolicy::kServe);
  run("share:0.25-wait", damaged, 0.25, DegradedPolicy::kWaitForCommit);
}

/// ChaosFuzz.RandomizedFleetSchedulesStayStructurallySound's trials at
/// its default seed.
void fleet_fuzz(Table& out) {
  rpr::util::Xoshiro256 rng(20260808ULL ^ 0xF1EE7);
  const rpr::sched::NodeLossWave fleet({6, 3}, 8, 4ull << 20);
  for (int trial = 0; trial < 12; ++trial) {
    const auto t = rpr::testing::random_fleet_trial(rng, fleet);
    digest_cell(out, "fleet_fuzz/trial" + std::to_string(trial), [&] {
      (void)rpr::sched::run_fleet(t.workload, fleet.cluster, {}, t.options);
    });
  }
}

void fleet_sim(Table& out) {
  const FleetSimShape shape(20);
  for (const std::size_t inflight : {4u, 16u, 64u}) {
    digest_cell(out, "fleet_sim/inflight" + std::to_string(inflight), [&] {
      (void)rpr::sched::run_fleet(shape.workload, shape.cluster, {},
                                  shape.options(inflight));
    });
  }
}

/// Chaos runs of one RS(6,3) repair under random fault schedules, star
/// and chained plans alternating, as in ChaosFuzz.
void resilient_chaos(Table& out) {
  constexpr std::uint64_t kSeed = 20260808ULL;
  rpr::util::Xoshiro256 rng(kSeed);
  const rpr::rs::RSCode code{rpr::rs::CodeConfig{6, 3}};
  const auto placed = rpr::topology::make_placed_stripe(
      {6, 3}, rpr::topology::PlacementPolicy::kRpr);
  const std::unique_ptr<rpr::repair::Planner> planners[2] = {
      rpr::repair::make_planner(rpr::repair::Scheme::kRpr),
      rpr::repair::make_planner(rpr::repair::Scheme::kRprChained)};
  const auto stripe = rpr::testing::random_stripe(code, 4096, kSeed ^ 0x9E37);
  for (int trial = 0; trial < 16; ++trial) {
    const std::size_t failed = rng() % code.config().total();
    auto chaos = rpr::testing::random_schedule(
        rng, placed.cluster.racks(), placed.cluster.total_nodes());
    chaos.validate(placed.cluster, code.config().total());
    rpr::repair::RepairProblem problem;
    problem.code = &code;
    problem.placement = &placed.placement;
    problem.block_size = 64ull << 20;
    problem.failed = {failed};
    problem.choose_default_replacements();
    rpr::repair::ResilientOptions ropts;
    ropts.max_replans = 6;
    digest_cell(out, "resilient/trial" + std::to_string(trial), [&] {
      try {
        (void)rpr::repair::simulate_resilient(problem, *planners[trial % 2],
                                              stripe, {}, chaos, ropts);
      } catch (const std::runtime_error&) {
        // An unrecoverable draw still ran (and digested) its attempts.
      }
    });
  }
}

Table compute() {
  Table out;
  verify_grid(out);
  fleet_sweep(out);
  fleet_fuzz(out);
  fleet_sim(out);
  resilient_chaos(out);
  return out;
}

// Expected digests, one per cell, in compute() order.
const std::vector<Golden> kGolden = {
    {"simulate/rs6_3/contiguous/whole", 0xd9c5b3e3cd7c03aaULL},
    {"simulate/rs6_3/contiguous/slice256k", 0x25863587979ced33ULL},
    {"simulate/rs6_3/contiguous/slice64k", 0x15a30a2ed57c8637ULL},
    {"simulate/rs6_3/rpr/whole", 0x43fe2129308e5480ULL},
    {"simulate/rs6_3/rpr/slice256k", 0xa58d487baee0d080ULL},
    {"simulate/rs6_3/rpr/slice64k", 0x88ba89546bab910cULL},
    {"simulate/rs6_3/flat/whole", 0xd893e42d9b4e38b5ULL},
    {"simulate/rs6_3/flat/slice256k", 0x72ffe417a617350fULL},
    {"simulate/rs6_3/flat/slice64k", 0xacb13d2c683b332aULL},
    {"simulate/rs9_6/contiguous/whole", 0xfc31b1f11da4f1afULL},
    {"simulate/rs9_6/contiguous/slice256k", 0x2eda985af8f8cab3ULL},
    {"simulate/rs9_6/contiguous/slice64k", 0x4385ace064e1d319ULL},
    {"simulate/rs9_6/rpr/whole", 0x0bc13b744d71f35aULL},
    {"simulate/rs9_6/rpr/slice256k", 0x79a373cf5b63674bULL},
    {"simulate/rs9_6/rpr/slice64k", 0x47dd17f65f0b1caeULL},
    {"simulate/rs9_6/flat/whole", 0xa983d6818db6585bULL},
    {"simulate/rs9_6/flat/slice256k", 0xa0be5ede1e4dec04ULL},
    {"simulate/rs9_6/flat/slice64k", 0x483b320f3c96746aULL},
    {"simulate/rs14_10/contiguous/whole", 0x20c305a067d0524bULL},
    {"simulate/rs14_10/contiguous/slice256k", 0x17c201c6482cea8aULL},
    {"simulate/rs14_10/contiguous/slice64k", 0xf25cf795e08afa8eULL},
    {"simulate/rs14_10/rpr/whole", 0xd78196cf13883379ULL},
    {"simulate/rs14_10/rpr/slice256k", 0x4b59d2e34f702115ULL},
    {"simulate/rs14_10/rpr/slice64k", 0x83c64be92cd830c3ULL},
    {"simulate/rs14_10/flat/whole", 0x19db2b9d0b2b594eULL},
    {"simulate/rs14_10/flat/slice256k", 0x4428e277dc038053ULL},
    {"simulate/rs14_10/flat/slice64k", 0xc7818e4f4e2cbdefULL},
    {"fleet_sweep/idle", 0xc0d7dc8c7baede6fULL},
    {"fleet_sweep/share:1.00", 0xc43b8def1b6603d9ULL},
    {"fleet_sweep/share:0.50", 0x1b8dea08d12cdc02ULL},
    {"fleet_sweep/share:0.25", 0xa55dfe80b550d230ULL},
    {"fleet_sweep/share:0.25-wait", 0x667d5776840011e1ULL},
    {"fleet_fuzz/trial0", 0x0f38fa8aa72804acULL},
    {"fleet_fuzz/trial1", 0x0a5a119539f73f36ULL},
    {"fleet_fuzz/trial2", 0xe925f0d47512970cULL},
    {"fleet_fuzz/trial3", 0x760b4e67d646f4e9ULL},
    {"fleet_fuzz/trial4", 0x5d9c65fa01b1678bULL},
    {"fleet_fuzz/trial5", 0x5c6d60b446e112c0ULL},
    {"fleet_fuzz/trial6", 0x410cf7bc67af3f78ULL},
    {"fleet_fuzz/trial7", 0xc0cbcb901180eb56ULL},
    {"fleet_fuzz/trial8", 0x6d80c5013553110dULL},
    {"fleet_fuzz/trial9", 0xe44e1291c473d3bbULL},
    {"fleet_fuzz/trial10", 0x4d0fadc337051bb4ULL},
    {"fleet_fuzz/trial11", 0x37d4413931867303ULL},
    {"fleet_sim/inflight4", 0xeceae3f4914c06dbULL},
    {"fleet_sim/inflight16", 0x0452c7890ef17ce5ULL},
    {"fleet_sim/inflight64", 0x2d78a7d612d156c2ULL},
    {"resilient/trial0", 0x19fcd3059c79a0afULL},
    {"resilient/trial1", 0xafe0eecea79af844ULL},
    {"resilient/trial2", 0x4f13961d92690e1eULL},
    {"resilient/trial3", 0x6cfd517bc78460f2ULL},
    {"resilient/trial4", 0x63d6e2c2ec4c6113ULL},
    {"resilient/trial5", 0x1c8d199aaf812aa3ULL},
    {"resilient/trial6", 0x4beb40ea3075e2cfULL},
    {"resilient/trial7", 0xe934aa2f7d61fb55ULL},
    {"resilient/trial8", 0x60403c284baf625eULL},
    {"resilient/trial9", 0x6a00d98af02b2e8bULL},
    {"resilient/trial10", 0xe3757764d92ed16cULL},
    {"resilient/trial11", 0x2e41f03fae0e4260ULL},
    {"resilient/trial12", 0x76c3067c04a4db89ULL},
    {"resilient/trial13", 0x050c85509afef891ULL},
    {"resilient/trial14", 0x3faa52c379337734ULL},
    {"resilient/trial15", 0x66214be75f327e25ULL},
};

}  // namespace

TEST(SimNet, RunResultsMatchParentGolden) {
  const Table actual = compute();
  bool same = actual.size() == kGolden.size();
  for (std::size_t i = 0; same && i < actual.size(); ++i) {
    same = actual[i].first == kGolden[i].cell &&
           actual[i].second == kGolden[i].digest;
  }
  if (same) return;
  std::string table;
  for (const auto& [cell, digest] : actual) {
    char line[128];
    std::snprintf(line, sizeof line, "    {\"%s\", 0x%016llxULL},\n",
                  cell.c_str(), static_cast<unsigned long long>(digest));
    table += line;
  }
  for (std::size_t i = 0; i < actual.size() && i < kGolden.size(); ++i) {
    EXPECT_EQ(actual[i].first, kGolden[i].cell);
    EXPECT_EQ(actual[i].second, kGolden[i].digest) << actual[i].first;
  }
  ADD_FAILURE() << "simulator digests differ from the golden table; "
                   "computed:\n"
                << table;
}

// The simulator's cost follows events: each task is examined for a start
// once when it becomes ready and again only when the port or bucket it
// waits on frees, so the attempts per task stay small and flat in the
// number of stripes repairing at once.
TEST(SimNet, StartAttemptsStayProportionalToTasks) {
  const FleetSimShape shape(20);
  for (const std::size_t inflight : {4u, 16u, 64u}) {
    rpr::obs::MetricsRegistry reg;
    rpr::sched::SchedulerOptions opts = shape.options(inflight);
    opts.probe.metrics = &reg;
    (void)rpr::sched::run_fleet(shape.workload, shape.cluster, {}, opts);
    const auto* tasks = reg.find_counter("sim.tasks");
    const auto* attempts = reg.find_counter("sim.start_attempts");
    ASSERT_NE(tasks, nullptr);
    ASSERT_NE(attempts, nullptr);
    ASSERT_GT(tasks->value(), 0u);
    const double per_task = static_cast<double>(attempts->value()) /
                            static_cast<double>(tasks->value());
    EXPECT_LE(per_task, 4.0) << "max_inflight " << inflight << ": "
                             << attempts->value() << " attempts for "
                             << tasks->value() << " tasks";
  }
}

// The task store's diet, pinned: perfbench's fleet-sim wave at 20 stripes
// and 16 in flight (242,194 tasks, about two dependency edges each, half
// of them a slice's edge on the task just before it) takes 86.1 bytes per
// task. With 64-bit dep ids and run ends, a link per edge, a separate
// compute-time array and separate unmet and done arrays it took 117.4.
TEST(SimNet, TaskStoreStaysWithinItsBytesPerTaskBudget) {
  constexpr double kBudget = 87.0;
  const FleetSimShape shape(20);
  std::size_t tasks = 0;
  std::size_t bytes = 0;
  {
    const rpr::simnet::RunObserver observer([&](const RunResult& r) {
      tasks += r.tasks.size();
      bytes += r.store_bytes;
    });
    (void)rpr::sched::run_fleet(shape.workload, shape.cluster, {},
                                shape.options(16));
  }
  ASSERT_GT(tasks, 0u);
  const double per_task =
      static_cast<double>(bytes) / static_cast<double>(tasks);
  EXPECT_LE(per_task, kBudget) << bytes << " bytes for " << tasks << " tasks";
}
