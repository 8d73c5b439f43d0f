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
#include "test_support.h"
#include "topology/placement.h"
#include "util/rng.h"

using rpr::fault::FaultSchedule;
using rpr::rs::Block;
using rpr::topology::NodeId;
using rpr::topology::RackId;

namespace {

std::uint64_t fuzz_seed() {
  if (const char* env = std::getenv("RPR_FUZZ_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 20260808;
}

/// Draws a random schedule over the (6,3) RPR-placed cluster. Kill counts
/// are bounded so most trials stay recoverable, but nothing prevents the
/// draw from exceeding tolerance — those trials must throw, not mis-repair.
FaultSchedule random_schedule(rpr::util::Xoshiro256& rng, std::size_t racks,
                              std::size_t nodes) {
  FaultSchedule s;
  s.seed = rng();
  const auto frac = [&rng](double lo, double hi) {
    const double u =
        static_cast<double>(rng() >> 11) / static_cast<double>(1ull << 53);
    return lo + u * (hi - lo);
  };

  const std::size_t node_kills = rng() % 3;  // 0..2
  for (std::size_t i = 0; i < node_kills; ++i) {
    s.kills.push_back({static_cast<NodeId>(rng() % nodes),
                       frac(0.001, 0.050)});
  }
  if (rng() % 4 == 0) {
    s.rack_kills.push_back({static_cast<RackId>(rng() % racks),
                            frac(0.001, 0.050)});
  }
  if (rng() % 3 == 0) {
    s.stragglers.push_back({static_cast<NodeId>(rng() % nodes),
                            frac(2.0, 8.0), 1 + rng() % 3});
  }
  if (rng() % 3 == 0) {
    s.slow_disks.push_back({static_cast<NodeId>(rng() % nodes),
                            frac(2.0, 16.0)});
  }
  if (rng() % 4 == 0) {
    // One rack cut off, healing: alive-but-unreachable helpers must be
    // waited out, never substituted away.
    const auto cut = static_cast<RackId>(rng() % racks);
    std::vector<RackId> rest;
    for (std::size_t r = 0; r < racks; ++r) {
      if (r != cut) rest.push_back(static_cast<RackId>(r));
    }
    s.partitions.push_back({{cut}, rest, frac(0.001, 0.030),
                            frac(0.050, 0.300)});
  }
  // De-duplicate per-node/per-rack entries the parser would reject; the
  // programmatic API tolerates them but validate() keeps ids honest.
  return s;
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
    FaultSchedule chaos = random_schedule(rng, racks, nodes);
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

namespace {

/// Rack-rotated damaged fleet (the sched_test / fleet_test harness shape):
/// node 0 dies and every stripe holding a block there needs repair.
struct FuzzFleet {
  rpr::rs::CodeConfig cfg{6, 3};
  rpr::rs::RSCode code{cfg};
  rpr::topology::Cluster cluster{cfg.racks_when_full(), cfg.k, cfg.k};
  std::vector<rpr::topology::Placement> placements;
  std::vector<rpr::repair::RepairProblem> damaged;
  std::vector<std::size_t> lost_block;  ///< failed block, parallel to damaged

  explicit FuzzFleet(std::size_t stripes) {
    const auto base = rpr::topology::make_placement(
        cluster, cfg, rpr::topology::PlacementPolicy::kRpr);
    placements.reserve(stripes);
    for (std::size_t s = 0; s < stripes; ++s) {
      placements.push_back(base.rotated(s));
    }
    for (const auto& placement : placements) {
      for (std::size_t b = 0; b < cfg.total(); ++b) {
        if (placement.node_of(b) != 0) continue;
        rpr::repair::RepairProblem p;
        p.code = &code;
        p.placement = &placement;
        p.block_size = 4ull << 20;
        p.failed = {b};
        p.choose_default_replacements();
        damaged.push_back(std::move(p));
        lost_block.push_back(b);
        break;
      }
    }
  }
};

}  // namespace

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
  const auto frac = [&rng](double lo, double hi) {
    const double u =
        static_cast<double>(rng() >> 11) / static_cast<double>(1ull << 53);
    return lo + u * (hi - lo);
  };

  FuzzFleet fleet(8);
  ASSERT_GE(fleet.damaged.size(), 3u);
  const std::size_t nodes = fleet.cluster.total_nodes();

  constexpr int kTrials = 12;
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::size_t count =
        2 + rng() % (fleet.damaged.size() - 1);  // 2..damaged.size()

    rpr::sched::FleetWorkload w;
    std::size_t probes = 0;
    for (std::size_t s = 0; s < count; ++s) {
      rpr::sched::StripeArrival arrival;
      arrival.problem = fleet.damaged[s];
      arrival.arrival_s = frac(0.0, 0.05);
      arrival.priority = static_cast<int>(rng() % 3);
      w.stripes.push_back(std::move(arrival));
      if (rng() % 2 == 0) {
        // Half the probes target the lost block (degraded path), half a
        // random block that is usually healthy.
        const std::size_t block =
            rng() % 2 == 0 ? fleet.lost_block[s] : rng() % fleet.cfg.total();
        w.reads.push_back({frac(0.001, 0.1), s, block,
                           static_cast<NodeId>(rng() % nodes)});
        ++probes;
      }
    }
    if (rng() % 2 == 0) {
      w.foreground.qps = frac(10.0, 80.0);
      w.foreground.duration_s = 0.05;
      w.foreground.read_size = 1 << 16;
      w.foreground.seed = rng();
    }

    rpr::sched::SchedulerOptions opts;
    opts.max_inflight = 1 + rng() % 4;
    const double shares[3] = {1.0, 0.5, 0.25};
    opts.repair_share = shares[rng() % 3];
    opts.slice_size = rng() % 2 == 0 ? 1 << 18 : 0;
    opts.aging_priority_per_s = rng() % 2 == 0 ? 25.0 : 0.0;
    opts.degraded = rng() % 2 == 0 ? rpr::sched::DegradedPolicy::kServe
                                   : rpr::sched::DegradedPolicy::kWaitForCommit;
    opts.auto_scheme = rng() % 2 == 0;

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
  FaultSchedule sched_a = random_schedule(rng_a, placed.cluster.racks(),
                                          placed.cluster.total_nodes());
  FaultSchedule sched_b = random_schedule(rng_b, placed.cluster.racks(),
                                          placed.cluster.total_nodes());
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
