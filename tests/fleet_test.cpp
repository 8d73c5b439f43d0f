// Fleet (multi-stripe concurrent repair) tests: a recovery wave is
// sched::run_fleet with every stripe arriving at t=0 and unlimited
// admission.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "sched/scheduler.h"
#include "test_support.h"

using rpr::repair::RepairProblem;
using rpr::repair::Scheme;
using rpr::rs::CodeConfig;
using rpr::rs::RSCode;
using rpr::sched::FleetSchedOutcome;
using rpr::sched::FleetWorkload;
using rpr::sched::StripeArrival;
using rpr::topology::Cluster;
using rpr::topology::Placement;

namespace {

struct FleetHarness {
  CodeConfig cfg{6, 3};
  RSCode code{cfg};
  Cluster cluster{cfg.racks_when_full(), cfg.k, cfg.k};
  std::vector<Placement> placements;
  std::vector<RepairProblem> damaged;

  explicit FleetHarness(std::size_t stripes, std::uint64_t block = 1 << 20) {
    const Placement base = rpr::topology::make_placement(
        cluster, cfg, rpr::topology::PlacementPolicy::kRpr);
    for (std::size_t s = 0; s < stripes; ++s) {
      placements.push_back(base.rotated(s));
    }
    // Fail node 0; every stripe with a block there becomes a repair.
    for (const auto& placement : placements) {
      for (std::size_t b = 0; b < cfg.total(); ++b) {
        if (placement.node_of(b) != 0) continue;
        RepairProblem p;
        p.code = &code;
        p.placement = &placement;
        p.block_size = block;
        p.failed = {b};
        p.choose_default_replacements();
        damaged.push_back(std::move(p));
        break;
      }
    }
  }
};

/// The whole wave at once: every stripe at t=0, no admission limit.
FleetSchedOutcome run_wave(const std::vector<RepairProblem>& stripes,
                           const Cluster& cluster,
                           const rpr::topology::NetworkParams& params,
                           Scheme scheme = Scheme::kRpr) {
  FleetWorkload w;
  for (const RepairProblem& p : stripes) {
    w.stripes.push_back(StripeArrival{p, 0.0, 0});
  }
  rpr::sched::SchedulerOptions opts;
  opts.scheme = scheme;
  opts.max_inflight = std::numeric_limits<std::size_t>::max();
  return rpr::sched::run_fleet(w, cluster, params, opts);
}

}  // namespace

TEST(Fleet, DamagedStripeCountMatchesRotation) {
  // Contiguous-style placement uses slot 0 of every rack, so a slot-0 node
  // holds one block of every rack-rotated stripe: all 9 are damaged.
  FleetHarness h(9);
  EXPECT_EQ(h.damaged.size(), 9u);
}

TEST(Fleet, ConcurrentRepairSlowerThanSingleButFasterThanSerial) {
  FleetHarness h(9);
  const rpr::topology::NetworkParams params;

  const auto one = run_wave({h.damaged[0]}, h.cluster, params);
  const auto all = run_wave(h.damaged, h.cluster, params);

  EXPECT_GE(all.makespan_s, one.makespan_s);
  // Concurrency must beat a fully serial execution of the wave.
  EXPECT_LT(all.makespan_s,
            one.makespan_s * static_cast<double>(h.damaged.size()));
}

TEST(Fleet, TrafficAddsUpAcrossStripes) {
  FleetHarness h(6);
  const rpr::topology::NetworkParams params;
  const auto all = run_wave(h.damaged, h.cluster, params);
  std::uint64_t sum = 0;
  for (const auto& stripe : h.damaged) {
    sum += run_wave({stripe}, h.cluster, params).cross_rack_bytes;
  }
  EXPECT_EQ(all.cross_rack_bytes, sum);
}

TEST(Fleet, RprFleetFasterAndBetterBalancedThanTraditional) {
  FleetHarness h(12);
  const rpr::topology::NetworkParams params;
  const auto out_tra =
      run_wave(h.damaged, h.cluster, params, Scheme::kTraditional);
  const auto out_rpr = run_wave(h.damaged, h.cluster, params, Scheme::kRpr);
  EXPECT_LT(out_rpr.makespan_s, out_tra.makespan_s);
  EXPECT_LE(out_rpr.cross_rack_bytes, out_tra.cross_rack_bytes);
}

TEST(Fleet, UploadStatsComputed) {
  FleetHarness h(6);
  const auto out =
      run_wave(h.damaged, h.cluster, rpr::topology::NetworkParams{});
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
  FleetHarness h(0);
  const auto out = run_wave({}, h.cluster, rpr::topology::NetworkParams{});
  EXPECT_EQ(out.makespan_s, 0.0);
  EXPECT_EQ(out.cross_rack_bytes, 0u);
}
