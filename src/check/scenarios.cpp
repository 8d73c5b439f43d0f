#include "check/scenarios.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "repair/plan.h"
#include "repair/planner.h"
#include "repair/resilient.h"
#include "rs/rs_code.h"
#include "runtime/testbed.h"
#include "topology/cluster.h"
#include "topology/placement.h"
#include "util/units.h"

namespace rpr::check::scenarios {

namespace {

/// Deterministic pseudo-random bytes (no global RNG state: every explored
/// run must see identical inputs).
rs::Block pattern_block(std::size_t size, std::uint8_t seed) {
  rs::Block b(size);
  std::uint8_t x = seed;
  for (auto& byte : b) {
    x = static_cast<std::uint8_t>(x * 167u + 41u);
    byte = x;
  }
  return b;
}

/// Fast testbed params for scheduled runs: at a huge time_scale a range's
/// link time is nanoseconds, its deadline has passed before the channel
/// looks (util/pace.h), and pacing makes no sleep call, so wall time per
/// explored schedule is spawn + scheduling cost, not pacing.
runtime::TestbedParams fast_params(std::size_t racks, std::size_t slice) {
  runtime::TestbedParams p;
  p.net = runtime::RegionNet::uniform(racks, util::Bandwidth::gbps(10),
                                      util::Bandwidth::gbps(1));
  p.time_scale = 1 << 20;
  p.slice_size = slice;
  p.retry.base_backoff_s = 1e-6;
  return p;
}

}  // namespace

Scenario testbed_micro(std::size_t slices) {
  return [slices](ScenarioCtx& ctx) {
    constexpr std::size_t kSlice = 1024;
    const std::size_t block = kSlice * (slices == 0 ? 1 : slices);

    // 2 racks x (1 slot + 1 spare): nodes 0,1 in rack 0 and 2,3 in rack 1.
    topology::Cluster cluster(2, 1, 1);
    repair::RepairPlan plan;
    plan.block_size = block;
    const repair::OpId r0 = plan.read(0, 0, 1, "read.b0");
    const repair::OpId r1 = plan.read(2, 1, 1, "read.b1");
    const repair::OpId s1 = plan.send(r1, 2, 0, "send.cross");
    const repair::OpId c0 = plan.combine(0, {r0, s1}, false, "combine");

    std::vector<rs::Block> stripe(2);
    stripe[0] = pattern_block(block, 3);
    stripe[1] = pattern_block(block, 59);
    rs::Block expect(block);
    for (std::size_t i = 0; i < block; ++i) {
      expect[i] = static_cast<std::uint8_t>(stripe[0][i] ^ stripe[1][i]);
    }

    runtime::Testbed bed(cluster, fast_params(2, kSlice));
    const std::vector<repair::OpId> outs{c0};
    repair::Attempt res;
    bool ran = false;
    ctx.shield([&] {
      res = bed.execute(plan, outs, stripe);
      ran = true;
    });
    if (ctx.aborted() || !ran) return;

    if (res.abort.has_value()) {
      const auto& lost = res.abort->dead_nodes;
      const auto dead = static_cast<std::uint32_t>(
          lost.empty() ? fault::kNoNode : lost.front());
      if (!ctx.scheduler().node_killed(dead)) {
        ctx.fail("abort blamed node " + std::to_string(dead) +
                 ", which was never killed");
      }
      return;
    }
    if (res.outputs.size() != 1 || res.outputs[0] != expect) {
      ctx.fail("rebuilt bytes differ from the reference (testbed_micro)");
    }
  };
}

std::vector<std::uint32_t> testbed_micro_fault_candidates() {
  // Node 0 hosts the combine (killing it makes the output unreachable);
  // node 2 is the cross-rack sender (killing it interrupts the stream).
  return {0, 2};
}

Scenario resilient_testbed(bool kill_destination) {
  return [kill_destination](ScenarioCtx& ctx) {
    constexpr std::size_t kSlice = 512;
    constexpr std::size_t kBlock = 1024;

    rs::RSCode code(rs::CodeConfig{4, 2});
    const topology::PlacedStripe placed = topology::make_placed_stripe(
        {4, 2}, topology::PlacementPolicy::kRpr);

    std::vector<rs::Block> stripe(code.config().total());
    for (std::size_t b = 0; b < code.config().n; ++b) {
      stripe[b] = pattern_block(kBlock, static_cast<std::uint8_t>(17 + b));
    }
    code.encode_stripe(stripe);

    repair::RepairProblem problem;
    problem.code = &code;
    problem.placement = &placed.placement;
    problem.block_size = kBlock;
    problem.failed = {0};
    problem.choose_default_replacements();
    const std::unique_ptr<repair::Planner> planner =
        repair::make_planner(repair::Scheme::kRpr);

    runtime::TestbedParams p = fast_params(placed.cluster.racks(), kSlice);
    if (kill_destination) {
      // Dead before the first slice moves: every schedule's first attempt
      // aborts at the destination, banks the finished reads, re-plans.
      p.faults.kills.push_back({problem.replacements[0], 0.0});
    }
    runtime::Testbed bed(placed.cluster, p);

    repair::ResilientOutcome outcome;
    bool ran = false;
    ctx.shield([&] {
      outcome = repair::execute_resilient_with(bed, problem, *planner,
                                               stripe, {});
      ran = true;
    });
    if (ctx.aborted() || !ran) return;

    if (outcome.outputs.size() != 1 || outcome.outputs[0] != stripe[0]) {
      ctx.fail("rebuilt block differs from the reference "
               "(resilient_testbed)");
    }
  };
}

}  // namespace rpr::check::scenarios
