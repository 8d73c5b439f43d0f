// Shared helpers for the testbed (EC2-analogue) benches, Figs. 12-14.
//
// Testbed runs move real bytes through paced channels, so the sweeps are
// kept affordable: 2 MiB blocks, Table-1 bandwidths scaled up 32x, and a
// capped number of failure positions per configuration. Ratios between
// schemes — what the paper's figures report — are preserved.
#pragma once

#include <vector>

#include "bench_support.h"
#include "runtime/testbed.h"
#include "util/rng.h"

namespace rpr::bench {

inline constexpr std::uint64_t kTestbedBlock = 2 << 20;
inline constexpr double kTestbedScale = 12.0;

inline runtime::TestbedParams testbed_params(std::size_t racks,
                                             std::size_t n) {
  runtime::TestbedParams p;
  p.net = runtime::RegionNet::ec2_table1(racks);
  p.time_scale = kTestbedScale;
  p.decode_matrix_dim = n;
  return p;
}

/// Wall-clock milliseconds for one repair on the testbed.
inline double run_testbed_ms(const repair::Planner& planner,
                             const rs::RSCode& code,
                             const topology::PlacedStripe& placed,
                             const std::vector<std::size_t>& failed,
                             const std::vector<rs::Block>& stripe) {
  repair::RepairProblem problem;
  problem.code = &code;
  problem.placement = &placed.placement;
  problem.block_size = kTestbedBlock;
  problem.failed = failed;
  problem.choose_default_replacements();
  const auto planned = planner.plan(problem);

  runtime::Testbed bed(placed.cluster,
                       testbed_params(placed.cluster.racks(),
                                      code.config().n));
  const auto result = bed.execute(planned.plan, planned.outputs, stripe);
  // Sanity: reconstructions must be bit-exact, every run.
  for (std::size_t i = 0; i < failed.size(); ++i) {
    if (result.outputs[i] != stripe[failed[i]]) {
      std::fprintf(stderr, "testbed reconstruction mismatch!\n");
      std::exit(1);
    }
  }
  return result.elapsed_s * 1e3;
}

/// RPR planner whose greedy pipeline knows the real (Table-1) link costs —
/// without this, the uniform-cost greedy can pair intermediates across the
/// slowest region links (see RprOptions::cross_cost).
inline repair::RprPlanner hetero_rpr_planner(std::size_t racks) {
  const runtime::RegionNet net = runtime::RegionNet::ec2_table1(racks);
  repair::RprOptions o;
  o.cross_cost = [net](topology::RackId a, topology::RackId b) {
    return 10.0 * net.mean_cross_mbps() / net.between_racks(a, b).as_mbps();
  };
  return repair::RprPlanner(o);
}

/// Deterministic encoded stripe for testbed runs.
inline std::vector<rs::Block> testbed_stripe(const rs::RSCode& code) {
  std::vector<rs::Block> stripe(code.config().total());
  util::Xoshiro256 rng(0xEC2);
  for (std::size_t b = 0; b < code.config().n; ++b) {
    stripe[b].resize(kTestbedBlock);
    for (auto& byte : stripe[b]) byte = static_cast<std::uint8_t>(rng());
  }
  code.encode_stripe(stripe);
  return stripe;
}

/// Evenly-spaced sample of `want` combinations of z failures (testbed runs
/// are too slow for the full enumeration the simulator benches do).
inline std::vector<std::vector<std::size_t>> sample_patterns(
    std::size_t total_blocks, std::size_t z, std::size_t want) {
  std::vector<std::vector<std::size_t>> all;
  util::for_each_combination(total_blocks, z,
                             [&](const std::vector<std::size_t>& failed) {
                               all.push_back(failed);
                             });
  if (all.size() <= want) return all;
  std::vector<std::vector<std::size_t>> out;
  for (std::size_t i = 0; i < want; ++i) {
    out.push_back(all[i * all.size() / want]);
  }
  return out;
}

}  // namespace rpr::bench
