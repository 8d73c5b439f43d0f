// Fleet repair scheduler tests: admission control, bandwidth arbitration,
// degraded reads from in-flight repairs, priority aging, and the simnet
// primitives (traffic classes, earliest_start, token-bucket arbiter) the
// scheduler builds on.
#include "sched/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "obs/metrics.h"
#include "sched/wave.h"
#include "repair/executor_sim.h"
#include "simnet/simnet.h"
#include "test_support.h"
#include "topology/placement.h"

using rpr::repair::RepairProblem;
using rpr::rs::CodeConfig;
using rpr::rs::RSCode;
using rpr::sched::DegradedPolicy;
using rpr::sched::FleetSchedOutcome;
using rpr::sched::FleetWorkload;
using rpr::sched::NodeLossWave;
using rpr::sched::ReadEvent;
using rpr::sched::ReadPath;
using rpr::sched::SchedulerOptions;
using rpr::sched::StripeArrival;
using rpr::topology::Cluster;
using rpr::topology::NetworkParams;

namespace {

/// The RS(6,3) node-loss wave these tests schedule: node 0 dies and every
/// stripe holding a block there needs repair.
constexpr CodeConfig kWaveCode{6, 3};

}  // namespace

// ---------------------------------------------------------------- simnet

TEST(SchedSimNet, EarliestStartDelaysRootTasks) {
  Cluster cluster(3, 3, 1);
  rpr::simnet::SimNetwork net(cluster, NetworkParams{});
  const auto t = net.add_transfer(0, 1, 1 << 20, {}, "late");
  net.set_earliest_start(t, rpr::util::kNsPerSec);
  const auto r = net.run();
  EXPECT_EQ(r.tasks[t].start, rpr::util::kNsPerSec);
  EXPECT_GT(r.makespan, rpr::util::kNsPerSec);
}

TEST(SchedSimNet, ArbiterCapsRepairThroughputAtShare) {
  // A train of back-to-back repair transfers over one node pair: with
  // share s the port may only be busy an s-fraction of wall time, so the
  // makespan stretches by ~1/s (the first transfer rides free, hence the
  // small ramp tolerance).
  const auto run_with = [](double share) {
    Cluster cluster(2, 2, 0);
    rpr::simnet::SimNetwork net(cluster, NetworkParams{});
    rpr::simnet::TaskId prev = rpr::simnet::kNoTask;
    for (int i = 0; i < 32; ++i) {
      std::vector<rpr::simnet::TaskId> deps;
      if (prev != rpr::simnet::kNoTask) deps.push_back(prev);
      prev = net.add_transfer(0, 1, 1 << 20, std::move(deps));
    }
    if (share < 1.0) net.set_arbiter({share});
    return net.run().makespan;
  };
  const auto full = run_with(1.0);
  const auto half = run_with(0.5);
  const auto quarter = run_with(0.25);
  EXPECT_NEAR(static_cast<double>(half) / static_cast<double>(full), 2.0,
              0.1);
  EXPECT_NEAR(static_cast<double>(quarter) / static_cast<double>(full), 4.0,
              0.2);
}

TEST(SchedSimNet, ForegroundClassIsNeverThrottled) {
  Cluster cluster(2, 2, 0);
  rpr::simnet::SimNetwork net(cluster, NetworkParams{});
  const auto t = net.add_transfer(0, 1, 1 << 20, {});
  net.set_class(t, rpr::simnet::TrafficClass::kForeground);
  net.set_arbiter({0.1});
  const auto r = net.run();
  EXPECT_EQ(r.tasks[t].start, 0);
  EXPECT_EQ(r.foreground_bytes, std::uint64_t{1} << 20);
  EXPECT_EQ(r.repair_bytes, 0u);
}

TEST(SchedSimNet, FinishHookCanGrowTheTaskGraph) {
  Cluster cluster(2, 2, 0);
  rpr::simnet::SimNetwork net(cluster, NetworkParams{});
  const auto seedling = net.add_transfer(0, 1, 1 << 20, {}, "seed");
  bool grown = false;
  net.set_finish_hook([&](rpr::util::SimTime, std::span<const rpr::simnet::TaskId> done) {
    if (!grown &&
        std::find(done.begin(), done.end(), seedling) != done.end()) {
      grown = true;
      net.add_transfer(1, 0, 1 << 20, {}, "grown");
    }
  });
  const auto r = net.run();
  ASSERT_TRUE(grown);
  ASSERT_EQ(r.tasks.size(), 2u);
  EXPECT_GE(r.tasks[1].start, r.tasks[0].finish);
  EXPECT_EQ(r.makespan, r.tasks[1].finish);
}

// ------------------------------------------------------------- scheduler

TEST(Sched, AdmissionBoundsConcurrencyButCommitsEverything) {
  const NodeLossWave h(kWaveCode, 9, 1 << 20);
  const NetworkParams params;
  SchedulerOptions narrow;
  narrow.max_inflight = 1;
  SchedulerOptions wide;
  wide.max_inflight = 16;

  const auto serial = run_fleet(h.workload, h.cluster, params, narrow);
  const auto conc = run_fleet(h.workload, h.cluster, params, wide);

  // Everything commits either way.
  for (const double c : serial.completion_s) EXPECT_GT(c, 0.0);
  for (const double c : conc.completion_s) EXPECT_GT(c, 0.0);
  // Admission is the only difference: one-at-a-time is slower end-to-end
  // and makes later stripes wait, while the wide run admits immediately.
  EXPECT_GT(serial.last_commit_s, conc.last_commit_s);
  EXPECT_GT(serial.max_queue_depth, conc.max_queue_depth);
  const double serial_max_wait = *std::max_element(
      serial.admission_wait_s.begin(), serial.admission_wait_s.end());
  const double conc_max_wait = *std::max_element(
      conc.admission_wait_s.begin(), conc.admission_wait_s.end());
  EXPECT_GT(serial_max_wait, 0.0);
  EXPECT_EQ(conc_max_wait, 0.0);
}

TEST(Sched, ArrivalTimesAreHonored) {
  const NodeLossWave h(kWaveCode, 3, 1 << 20);
  FleetWorkload w = h.workload;
  w.stripes[2].arrival_s = 5.0;
  SchedulerOptions opts;
  const auto out = run_fleet(w, h.cluster, NetworkParams{}, opts);
  EXPECT_GE(out.completion_s[2], 5.0);
  EXPECT_LT(out.completion_s[0], 5.0);
}

TEST(Sched, ArbitrationTradesRepairSpeedForForegroundLatency) {
  const NodeLossWave h(kWaveCode, 9, 4 << 20);
  const NetworkParams params;

  FleetWorkload loaded = h.workload;
  loaded.foreground.qps = 200;
  loaded.foreground.duration_s = 1.0;
  loaded.foreground.read_size = 1 << 20;
  loaded.foreground.seed = 7;

  FleetWorkload idle = h.healthy();
  idle.foreground = loaded.foreground;

  SchedulerOptions unarb;
  unarb.max_inflight = 9;
  SchedulerOptions arb = unarb;
  arb.repair_share = 0.2;

  const auto base = run_fleet(idle, h.cluster, params, unarb);
  const auto flat_out = run_fleet(loaded, h.cluster, params, unarb);
  const auto capped = run_fleet(loaded, h.cluster, params, arb);

  // Repair saturating every port inflates foreground p99 well over the
  // idle baseline; capping the repair class pulls it back down, at the
  // price of a longer repair wave.
  EXPECT_GT(flat_out.foreground_p99_s, base.foreground_p99_s);
  EXPECT_LT(capped.foreground_p99_s, flat_out.foreground_p99_s);
  EXPECT_GT(capped.last_commit_s, flat_out.last_commit_s);
  EXPECT_GT(capped.foreground_bytes, 0u);
  EXPECT_GT(capped.repair_bytes, 0u);
}

TEST(Sched, DegradedReadsBeatWaitingForCommit) {
  // Probe every damaged stripe's lost block shortly after failure.
  NodeLossWave h(kWaveCode, 6, 8 << 20);
  h.probe_lost_blocks(0.001);
  const FleetWorkload& w = h.workload;

  SchedulerOptions serve;
  serve.max_inflight = 1;
  serve.slice_size = 1 << 20;
  serve.repair_share = 0.25;
  SchedulerOptions wait = serve;
  wait.degraded = DegradedPolicy::kWaitForCommit;

  const auto out_serve = run_fleet(w, h.cluster, NetworkParams{}, serve);
  const auto out_wait = run_fleet(w, h.cluster, NetworkParams{}, wait);

  ASSERT_EQ(out_serve.reads.size(), w.reads.size());
  // With admission bounded at 1, probes of queued stripes promote and
  // the probe of the in-flight stripe streams banked slices.
  EXPECT_GT(out_serve.reads_by_path[static_cast<std::size_t>(
                ReadPath::kPromoted)],
            0u);
  EXPECT_GT(
      out_serve.reads_by_path[static_cast<std::size_t>(ReadPath::kBanked)],
      0u);
  EXPECT_EQ(out_wait.reads_by_path[static_cast<std::size_t>(
                ReadPath::kCommitWait)],
            w.reads.size());
  // Serving from in-flight state beats waiting for the stripe commit by a
  // wide margin: promoted single-block reads skip the queue entirely and
  // banked reads stream the published prefix. The bench documents >= 2x
  // on RS(14,10); the small harness clears the same bar.
  EXPECT_LT(out_serve.degraded_p99_s, out_wait.degraded_p99_s);
  EXPECT_LT(out_serve.degraded_p50_s * 2.0, out_wait.degraded_p50_s);
}

TEST(Sched, BankedReadStreamsPublishedPrefixUnderSlicing) {
  const NodeLossWave h(kWaveCode, 2, 8 << 20);
  FleetWorkload w = h.workload;
  const auto reader =
      static_cast<rpr::topology::NodeId>(h.cluster.total_nodes() - 1);
  // Probe stripe 0 mid-repair: admitted immediately, so the read lands on
  // the in-flight path and streams slices.
  w.reads.push_back(ReadEvent{0.01, 0, w.stripes[0].problem.failed[0],
                              reader});
  SchedulerOptions opts;
  opts.max_inflight = 4;
  opts.slice_size = 1 << 20;
  const auto out = run_fleet(w, h.cluster, NetworkParams{}, opts);
  ASSERT_EQ(out.reads.size(), 1u);
  EXPECT_EQ(out.reads[0].path, ReadPath::kBanked);
  // The banked stream finishes before the whole wave does and never
  // before the repair could possibly deliver the block.
  EXPECT_GT(out.reads[0].latency_s, 0.0);
  EXPECT_LT(out.reads[0].latency_s, out.makespan_s);
}

TEST(Sched, AgingPreventsStarvation) {
  const NodeLossWave h(kWaveCode, 8, 4 << 20);
  FleetWorkload w = h.workload;
  // Stripe 0 is low priority; stripe 1 outranks it at the same instant
  // (so stripe 0 loses the t=0 slot) and the rest keep arriving with the
  // same high priority faster than repairs retire. Without aging stripe 0
  // is always outbid and lands last; with aging (100 priority points per
  // second against a base gap of 10) it outgrows any competitor that
  // arrived more than 0.1 s after it and wins a slot mid-backlog.
  for (std::size_t s = 1; s < w.stripes.size(); ++s) {
    w.stripes[s].priority = 10;
    w.stripes[s].arrival_s = s == 1 ? 0.0 : 0.025 * static_cast<double>(s);
  }
  SchedulerOptions starve;
  starve.max_inflight = 1;
  starve.aging_priority_per_s = 0.0;
  SchedulerOptions aged = starve;
  aged.aging_priority_per_s = 100.0;

  const auto out_starve = run_fleet(w, h.cluster, NetworkParams{}, starve);
  const auto out_aged = run_fleet(w, h.cluster, NetworkParams{}, aged);

  // Without aging the low-priority stripe waits longest of all stripes.
  const double starve_wait = out_starve.admission_wait_s[0];
  for (std::size_t s = 1; s < w.stripes.size(); ++s) {
    EXPECT_GE(starve_wait, out_starve.admission_wait_s[s]);
  }
  // Aging admits it strictly earlier.
  EXPECT_LT(out_aged.admission_wait_s[0], starve_wait);
}

TEST(Sched, AutoSchemeSelectsPerStripeFromMakespanFloors) {
  const NodeLossWave h(kWaveCode, 4, 4 << 20);
  SchedulerOptions opts;
  opts.auto_scheme = true;
  opts.slice_size = 1 << 18;
  const auto out = run_fleet(h.workload, h.cluster, NetworkParams{}, opts);
  EXPECT_EQ(out.auto_star_picks + out.auto_chained_picks,
            h.workload.stripes.size());
  for (const auto scheme : out.scheme_of) {
    EXPECT_TRUE(scheme == rpr::repair::Scheme::kRpr ||
                scheme == rpr::repair::Scheme::kRprChained);
  }
}

TEST(Sched, DeterministicForAFixedSeed) {
  const NodeLossWave h(kWaveCode, 6, 1 << 20);
  FleetWorkload w = h.workload;
  w.foreground.qps = 100;
  w.foreground.duration_s = 0.5;
  w.foreground.seed = 42;
  SchedulerOptions opts;
  opts.repair_share = 0.5;
  const auto a = run_fleet(w, h.cluster, NetworkParams{}, opts);
  const auto b = run_fleet(w, h.cluster, NetworkParams{}, opts);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.foreground_p99_s, b.foreground_p99_s);
  EXPECT_EQ(a.reads.size(), b.reads.size());
  ASSERT_EQ(a.completion_s.size(), b.completion_s.size());
  for (std::size_t i = 0; i < a.completion_s.size(); ++i) {
    EXPECT_EQ(a.completion_s[i], b.completion_s[i]);
  }
}

TEST(Sched, MetricsRecordedWhenProbeSet) {
  const NodeLossWave h(kWaveCode, 4, 1 << 20);
  FleetWorkload w = h.workload;
  const auto reader =
      static_cast<rpr::topology::NodeId>(h.cluster.total_nodes() - 1);
  w.reads.push_back(ReadEvent{0.001, 0, w.stripes[0].problem.failed[0],
                              reader});
  rpr::obs::MetricsRegistry reg;
  SchedulerOptions opts;
  opts.max_inflight = 2;
  opts.probe.metrics = &reg;
  const auto out = run_fleet(w, h.cluster, NetworkParams{}, opts);
  ASSERT_NE(reg.find_histogram("sched.stripe_completion_s"), nullptr);
  EXPECT_EQ(reg.find_histogram("sched.stripe_completion_s")->count(),
            h.workload.stripes.size());
  ASSERT_NE(reg.find_histogram("sched.degraded_read_latency_s"), nullptr);
  EXPECT_EQ(reg.find_histogram("sched.degraded_read_latency_s")->count(), 1u);
  ASSERT_NE(reg.find_max_gauge("sched.queue_depth"), nullptr);
  EXPECT_EQ(static_cast<std::size_t>(
                reg.find_max_gauge("sched.queue_depth")->value()),
            out.max_queue_depth);
  ASSERT_NE(reg.find_counter("sched.repair_bytes"), nullptr);
  EXPECT_EQ(reg.find_counter("sched.repair_bytes")->value(),
            out.repair_bytes);
}

TEST(Sched, RejectsBadArguments) {
  const NodeLossWave h(kWaveCode, 1, 1 << 20);
  SchedulerOptions opts;
  opts.max_inflight = 0;
  EXPECT_THROW(run_fleet(h.workload, h.cluster, NetworkParams{}, opts),
               std::invalid_argument);
  SchedulerOptions ok;
  FleetWorkload w = h.workload;
  w.foreground.qps = 10;  // duration missing
  EXPECT_THROW(run_fleet(w, h.cluster, NetworkParams{}, ok),
               std::invalid_argument);
  FleetWorkload bad_read = h.workload;
  bad_read.reads.push_back(ReadEvent{0.0, 99, 0, 0});
  EXPECT_THROW(run_fleet(bad_read, h.cluster, NetworkParams{}, ok),
               std::invalid_argument);
}

TEST(Fleet, CompletionPercentilesComputed) {
  // A whole wave at t=0 with unlimited admission reports per-stripe
  // completion percentiles; its p99 over 9 stripes is the last commit.
  const NodeLossWave h(kWaveCode, 9, 1 << 20);
  SchedulerOptions opts;
  opts.max_inflight = std::numeric_limits<std::size_t>::max();
  const auto out = run_fleet(h.workload, h.cluster, NetworkParams{}, opts);
  ASSERT_EQ(out.completion_s.size(), h.workload.stripes.size());
  for (const double c : out.completion_s) {
    EXPECT_GT(c, 0.0);
    EXPECT_LE(c, out.makespan_s + 1e-12);
  }
  EXPECT_LE(out.completion_p50_s, out.completion_p95_s);
  EXPECT_LE(out.completion_p95_s, out.completion_p99_s);
  EXPECT_NEAR(out.completion_p99_s, out.makespan_s, 1e-9);
}

TEST(Sched, SingleStripeMatchesSimulate) {
  // One stripe arriving at t=0 is exactly that plan's simulate(): same
  // makespan, traffic and per-rack load, whole-block and sliced.
  std::size_t cases = 0;
  for (const CodeConfig cfg : {CodeConfig{6, 3}, CodeConfig{8, 4},
                               CodeConfig{12, 4}}) {
    const RSCode code(cfg);
    for (const auto policy : {rpr::topology::PlacementPolicy::kRpr,
                              rpr::topology::PlacementPolicy::kFlat}) {
      const auto placed = rpr::topology::make_placed_stripe(cfg, policy);
      for (const auto scheme :
           {rpr::repair::Scheme::kTraditional, rpr::repair::Scheme::kCar,
            rpr::repair::Scheme::kRpr, rpr::repair::Scheme::kRprChained}) {
        for (const std::size_t slice : {std::size_t{0}, std::size_t{1} << 18}) {
          NetworkParams params = NetworkParams::simics_like();
          params.slice_size = slice;
          SchedulerOptions opts;
          opts.scheme = scheme;
          opts.slice_size = slice;
          for (std::size_t b = 0; b < cfg.total(); ++b) {
            RepairProblem p;
            p.code = &code;
            p.placement = &placed.placement;
            p.block_size = 4u << 20;
            p.failed = {b};
            p.choose_default_replacements();
            const auto planned = rpr::repair::make_planner(scheme)->plan(p);
            const auto sim =
                rpr::repair::simulate(planned.plan, placed.cluster, params);
            FleetWorkload w;
            w.stripes.push_back(StripeArrival{p, 0.0, 0});
            const auto out = run_fleet(w, placed.cluster, params, opts);
            SCOPED_TRACE(testing::Message()
                         << "RS(" << cfg.n << "," << cfg.k << ") scheme "
                         << static_cast<int>(scheme) << " slice " << slice
                         << " block " << b);
            EXPECT_EQ(out.makespan_s,
                      rpr::util::to_sec(sim.total_repair_time));
            EXPECT_EQ(out.completion_s[0], out.makespan_s);
            EXPECT_EQ(out.cross_rack_bytes, sim.cross_rack_bytes);
            EXPECT_EQ(out.inner_rack_bytes, sim.inner_rack_bytes);
            EXPECT_EQ(out.rack_upload_bytes, sim.rack_upload_bytes);
            EXPECT_EQ(out.rack_download_bytes, sim.rack_download_bytes);
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 2u * 4u * 2u * (9u + 12u + 16u));
}
