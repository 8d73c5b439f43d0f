// Fleet (multi-stripe concurrent repair) tests: a recovery wave is
// sched::run_fleet with every stripe arriving at t=0 and unlimited
// admission.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "sched/scheduler.h"
#include "sched/wave.h"
#include "test_support.h"

using rpr::repair::Scheme;
using rpr::rs::CodeConfig;
using rpr::sched::FleetSchedOutcome;
using rpr::sched::FleetWorkload;
using rpr::sched::NodeLossWave;
using rpr::topology::Cluster;

namespace {

/// The RS(6,3) node-loss wave these tests run: node 0 dies and every
/// stripe holding a block there needs repair.
constexpr CodeConfig kWaveCode{6, 3};

/// The whole wave at once: every stripe at t=0, no admission limit.
FleetSchedOutcome run_wave(const FleetWorkload& w, const Cluster& cluster,
                           const rpr::topology::NetworkParams& params,
                           Scheme scheme = Scheme::kRpr) {
  rpr::sched::SchedulerOptions opts;
  opts.scheme = scheme;
  opts.max_inflight = std::numeric_limits<std::size_t>::max();
  return rpr::sched::run_fleet(w, cluster, params, opts);
}

/// The wave cut down to its stripe `s` alone.
FleetWorkload only_stripe(const NodeLossWave& h, std::size_t s) {
  FleetWorkload w;
  w.stripes = {h.workload.stripes[s]};
  return w;
}

}  // namespace

TEST(Fleet, DamagedStripeCountMatchesRotation) {
  // Contiguous-style placement uses slot 0 of every rack, so a slot-0 node
  // holds one block of every rack-rotated stripe: all 9 are damaged.
  const NodeLossWave h(kWaveCode, 9, 1 << 20);
  EXPECT_EQ(h.workload.stripes.size(), 9u);
}

TEST(Fleet, ConcurrentRepairSlowerThanSingleButFasterThanSerial) {
  const NodeLossWave h(kWaveCode, 9, 1 << 20);
  const rpr::topology::NetworkParams params;

  const auto one = run_wave(only_stripe(h, 0), h.cluster, params);
  const auto all = run_wave(h.workload, h.cluster, params);

  EXPECT_GE(all.makespan_s, one.makespan_s);
  // Concurrency must beat a fully serial execution of the wave.
  EXPECT_LT(all.makespan_s,
            one.makespan_s * static_cast<double>(h.workload.stripes.size()));
}

TEST(Fleet, TrafficAddsUpAcrossStripes) {
  const NodeLossWave h(kWaveCode, 6, 1 << 20);
  const rpr::topology::NetworkParams params;
  const auto all = run_wave(h.workload, h.cluster, params);
  std::uint64_t sum = 0;
  for (std::size_t s = 0; s < h.workload.stripes.size(); ++s) {
    sum += run_wave(only_stripe(h, s), h.cluster, params).cross_rack_bytes;
  }
  EXPECT_EQ(all.cross_rack_bytes, sum);
}

TEST(Fleet, RprFleetFasterAndBetterBalancedThanTraditional) {
  const NodeLossWave h(kWaveCode, 12, 1 << 20);
  const rpr::topology::NetworkParams params;
  const auto out_tra =
      run_wave(h.workload, h.cluster, params, Scheme::kTraditional);
  const auto out_rpr = run_wave(h.workload, h.cluster, params, Scheme::kRpr);
  EXPECT_LT(out_rpr.makespan_s, out_tra.makespan_s);
  EXPECT_LE(out_rpr.cross_rack_bytes, out_tra.cross_rack_bytes);
}

TEST(Fleet, UploadStatsComputed) {
  const NodeLossWave h(kWaveCode, 6, 1 << 20);
  const auto out =
      run_wave(h.workload, h.cluster, rpr::topology::NetworkParams{});
  ASSERT_EQ(out.rack_upload_bytes.size(), h.cluster.racks());
  ASSERT_EQ(out.rack_download_bytes.size(), h.cluster.racks());
  EXPECT_GT(*std::max_element(out.rack_upload_bytes.begin(),
                              out.rack_upload_bytes.end()),
            0u);
  std::uint64_t up = 0;
  std::uint64_t down = 0;
  for (const auto b : out.rack_upload_bytes) up += b;
  for (const auto b : out.rack_download_bytes) down += b;
  EXPECT_EQ(up, out.cross_rack_bytes);
  EXPECT_EQ(down, out.cross_rack_bytes);
}

TEST(Fleet, EmptyFleetIsTrivial) {
  const NodeLossWave h(kWaveCode, 0, 1 << 20);
  const auto out = run_wave({}, h.cluster, rpr::topology::NetworkParams{});
  EXPECT_EQ(out.makespan_s, 0.0);
  EXPECT_EQ(out.cross_rack_bytes, 0u);
}
