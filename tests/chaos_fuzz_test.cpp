// Chaos fuzzing: randomized fault schedules (node kills, rack kills,
// stragglers, slow disks, healing partitions) against the resilient
// simulator. Every recoverable trial must end byte-identical; trials that
// exceed the code's tolerance or the re-plan budget must abort with a
// typed error, never a wrong block. Online plan verification stays at its
// default (on), so every randomized re-plan is checked as it is planned.
//
// The seed comes from RPR_FUZZ_SEED (default below) and is embedded in
// every assertion message, so a CI failure prints everything needed to
// replay it locally:
//
//   RPR_FUZZ_SEED=<seed> ./chaos_fuzz_test
#include "repair/resilient.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>

#include "repair/planner.h"
#include "sched/scheduler.h"
#include "sim_workloads.h"
#include "test_support.h"
#include "topology/placement.h"
#include "util/rng.h"

using rpr::fault::FaultSchedule;
using rpr::rs::Block;

namespace {

std::uint64_t fuzz_seed() {
  if (const char* env = std::getenv("RPR_FUZZ_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 20260808;
}

}  // namespace

TEST(ChaosFuzz, RandomizedSchedulesNeverProduceAWrongBlock) {
  const std::uint64_t seed = fuzz_seed();
  rpr::util::Xoshiro256 rng(seed);

  rpr::rs::RSCode code{rpr::rs::CodeConfig{6, 3}};
  const auto placed = rpr::topology::make_placed_stripe(
      {6, 3}, rpr::topology::PlacementPolicy::kRpr);
  // The scheme is a fuzz axis too: even trials run the star aggregation,
  // odd trials the chained relay schedule, over identical fault draws —
  // no plan shape may turn survivable chaos into a wrong block.
  const std::unique_ptr<rpr::repair::Planner> planners[2] = {
      rpr::repair::make_planner(rpr::repair::Scheme::kRpr),
      rpr::repair::make_planner(rpr::repair::Scheme::kRprChained)};
  const auto stripe = rpr::testing::random_stripe(code, 4096, seed ^ 0x9E37);
  const std::size_t nodes = placed.cluster.total_nodes();
  const std::size_t racks = placed.cluster.racks();

  constexpr int kTrials = 40;
  int recovered = 0;
  int aborted = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto& planner = planners[trial % 2];
    const std::size_t failed = rng() % code.config().total();
    FaultSchedule chaos = rpr::testing::random_schedule(rng, racks, nodes);
    chaos.validate(placed.cluster, code.config().total());

    std::ostringstream ctx;
    ctx << "RPR_FUZZ_SEED=" << seed << " trial=" << trial
        << " scheme=" << planner->name() << " failed_block=" << failed
        << " schedule={" << chaos.describe() << "}";

    rpr::repair::RepairProblem problem;
    problem.code = &code;
    problem.placement = &placed.placement;
    problem.block_size = 64ull << 20;  // kills land mid-transfer
    problem.failed = {failed};
    problem.choose_default_replacements();

    rpr::repair::ResilientOptions ropts;
    ropts.max_replans = 6;
    try {
      const auto outcome = rpr::repair::simulate_resilient(
          problem, *planner, stripe, rpr::topology::NetworkParams{}, chaos,
          ropts);
      ASSERT_EQ(outcome.outputs.size(), 1u) << ctx.str();
      ASSERT_EQ(outcome.outputs[0], stripe[failed])
          << ctx.str() << " — recovered block differs from the original";
      ++recovered;
    } catch (const rpr::repair::ReplanBudgetExhausted& e) {
      // Coherent abort: the salvage report must exist and describe the
      // outstanding work.
      EXPECT_FALSE(e.report().empty()) << ctx.str();
      ++aborted;
    } catch (const std::runtime_error&) {
      // Unrecoverable draw (too many erasures / permanent starvation):
      // acceptable, as long as it is a typed abort and not a wrong result.
      ++aborted;
    }
  }

  // The schedule generator is tuned so chaos is survivable most of the
  // time; an all-abort run means the driver lost its resilience.
  EXPECT_GE(recovered, kTrials / 2)
      << "RPR_FUZZ_SEED=" << seed << " recovered=" << recovered
      << " aborted=" << aborted;
}

// The scheduler is a fuzz axis of its own: randomized fleet workloads
// (arrival times, priorities, read probes, foreground load) under
// randomized scheduler knobs (admission bound, repair share, slicing,
// aging, degraded policy, auto scheme) must always produce a structurally
// sound schedule — every stripe commits, every read is answered and
// classified, the queue never exceeds the backlog — and the same inputs
// must reproduce the same schedule bit-for-bit.
TEST(ChaosFuzz, RandomizedFleetSchedulesStayStructurallySound) {
  const std::uint64_t seed = fuzz_seed();
  rpr::util::Xoshiro256 rng(seed ^ 0xF1EE7);
  const rpr::sched::NodeLossWave fleet({6, 3}, 8, 4ull << 20);
  ASSERT_GE(fleet.workload.stripes.size(), 3u);

  constexpr int kTrials = 12;
  for (int trial = 0; trial < kTrials; ++trial) {
    const rpr::testing::FleetTrial t =
        rpr::testing::random_fleet_trial(rng, fleet);
    const rpr::sched::FleetWorkload& w = t.workload;
    const rpr::sched::SchedulerOptions& opts = t.options;
    const std::size_t count = w.stripes.size();
    const std::size_t probes = t.probes;

    std::ostringstream ctx;
    ctx << "RPR_FUZZ_SEED=" << seed << " trial=" << trial
        << " stripes=" << count << " probes=" << probes
        << " fg_qps=" << w.foreground.qps
        << " max_inflight=" << opts.max_inflight
        << " share=" << opts.repair_share
        << " slice=" << opts.slice_size
        << " aging=" << opts.aging_priority_per_s << " degraded="
        << (opts.degraded == rpr::sched::DegradedPolicy::kServe ? "serve"
                                                                : "wait")
        << " auto=" << opts.auto_scheme;

    const auto out = rpr::sched::run_fleet(
        w, fleet.cluster, rpr::topology::NetworkParams{}, opts);

    // Every stripe commits, after its arrival, within the makespan.
    ASSERT_EQ(out.completion_s.size(), count) << ctx.str();
    ASSERT_EQ(out.admission_wait_s.size(), count) << ctx.str();
    ASSERT_EQ(out.scheme_of.size(), count) << ctx.str();
    for (std::size_t s = 0; s < count; ++s) {
      EXPECT_GE(out.admission_wait_s[s], 0.0) << ctx.str();
      EXPECT_GE(out.completion_s[s],
                w.stripes[s].arrival_s + out.admission_wait_s[s])
          << ctx.str() << " stripe=" << s;
      EXPECT_LE(out.completion_s[s], out.makespan_s + 1e-9)
          << ctx.str() << " stripe=" << s;
    }
    EXPECT_LE(out.last_commit_s, out.makespan_s + 1e-9) << ctx.str();
    EXPECT_GT(out.repair_bytes, 0u) << ctx.str();
    EXPECT_LE(out.max_queue_depth, count) << ctx.str();

    // Every read is answered and classified exactly once.
    EXPECT_GE(out.reads.size(), probes) << ctx.str();
    std::size_t classified = 0;
    for (const auto& r : out.reads) {
      EXPECT_GE(r.latency_s, 0.0) << ctx.str();
      EXPECT_LT(static_cast<std::size_t>(r.path), rpr::sched::kReadPathCount)
          << ctx.str();
      if (opts.degraded == rpr::sched::DegradedPolicy::kWaitForCommit) {
        EXPECT_NE(r.path, rpr::sched::ReadPath::kBanked) << ctx.str();
        EXPECT_NE(r.path, rpr::sched::ReadPath::kPromoted) << ctx.str();
      }
    }
    for (const std::size_t n : out.reads_by_path) classified += n;
    EXPECT_EQ(classified, out.reads.size()) << ctx.str();
    if (opts.auto_scheme) {
      EXPECT_EQ(out.auto_star_picks + out.auto_chained_picks, count)
          << ctx.str();
    }

    // Identical inputs replay to an identical schedule.
    const auto replay = rpr::sched::run_fleet(
        w, fleet.cluster, rpr::topology::NetworkParams{}, opts);
    EXPECT_EQ(replay.makespan_s, out.makespan_s) << ctx.str();
    EXPECT_EQ(replay.completion_s, out.completion_s) << ctx.str();
    EXPECT_EQ(replay.reads.size(), out.reads.size()) << ctx.str();
    EXPECT_EQ(replay.repair_bytes, out.repair_bytes) << ctx.str();
    for (std::size_t p = 0; p < rpr::sched::kReadPathCount; ++p) {
      EXPECT_EQ(replay.reads_by_path[p], out.reads_by_path[p]) << ctx.str();
    }
  }
}

TEST(ChaosFuzz, SameSeedIsBitReproducible) {
  const std::uint64_t seed = fuzz_seed();
  rpr::rs::RSCode code{rpr::rs::CodeConfig{6, 3}};
  const auto placed = rpr::topology::make_placed_stripe(
      {6, 3}, rpr::topology::PlacementPolicy::kRpr);
  const auto stripe = rpr::testing::random_stripe(code, 4096, seed ^ 0x9E37);

  rpr::util::Xoshiro256 rng_a(seed);
  rpr::util::Xoshiro256 rng_b(seed);
  FaultSchedule sched_a = rpr::testing::random_schedule(
      rng_a, placed.cluster.racks(), placed.cluster.total_nodes());
  FaultSchedule sched_b = rpr::testing::random_schedule(
      rng_b, placed.cluster.racks(), placed.cluster.total_nodes());
  EXPECT_EQ(sched_a.describe(), sched_b.describe())
      << "RPR_FUZZ_SEED=" << seed;

  rpr::repair::RepairProblem problem;
  problem.code = &code;
  problem.placement = &placed.placement;
  problem.block_size = 64ull << 20;
  problem.failed = {1};
  problem.choose_default_replacements();

  for (const auto scheme :
       {rpr::repair::Scheme::kRpr, rpr::repair::Scheme::kRprChained}) {
    const auto planner = rpr::repair::make_planner(scheme);
    const auto run = [&](const FaultSchedule& chaos) {
      try {
        return rpr::repair::simulate_resilient(
            problem, *planner, stripe, rpr::topology::NetworkParams{}, chaos,
            {});
      } catch (const std::runtime_error&) {
        return rpr::repair::ResilientOutcome{};
      }
    };
    const auto a = run(sched_a);
    const auto b = run(sched_b);
    EXPECT_EQ(a.outputs, b.outputs)
        << "RPR_FUZZ_SEED=" << seed << " scheme=" << planner->name();
    EXPECT_EQ(a.destinations, b.destinations)
        << "RPR_FUZZ_SEED=" << seed << " scheme=" << planner->name();
    EXPECT_EQ(a.replans, b.replans)
        << "RPR_FUZZ_SEED=" << seed << " scheme=" << planner->name();
    EXPECT_EQ(a.cross_rack_bytes, b.cross_rack_bytes)
        << "RPR_FUZZ_SEED=" << seed << " scheme=" << planner->name();
  }
}
