// Geo-distributed testbed demo: repairs a stripe over the paper's Table-1
// EC2 bandwidth matrix (five regions as racks) with real bytes flowing
// through throttled channels — the repository's analogue of the paper's
// §5.2 real-world evaluation.
//
// Usage: ./build/examples/testbed_demo [time_scale]
//        time_scale > 1 speeds the links up for a quicker demo (default 64).
#include <cstdio>
#include <cstdlib>

#include "repair/planner.h"
#include "runtime/testbed.h"
#include "topology/placement.h"
#include "util/rng.h"

int main(int argc, char** argv) {
  using namespace rpr;
  const double scale = argc > 1 ? std::atof(argv[1]) : 64.0;

  const rs::CodeConfig cfg{8, 2};  // q = 5 racks: one per EC2 region
  const rs::RSCode code(cfg);
  const auto placed =
      topology::make_placed_stripe(cfg, topology::PlacementPolicy::kRpr);

  const std::size_t block_size = 4 << 20;
  std::vector<rs::Block> stripe(cfg.total());
  util::Xoshiro256 rng(11);
  for (std::size_t b = 0; b < cfg.n; ++b) {
    stripe[b].resize(block_size);
    for (auto& byte : stripe[b]) byte = static_cast<std::uint8_t>(rng());
  }
  code.encode_stripe(stripe);

  runtime::TestbedParams params;
  params.net = runtime::RegionNet::ec2_table1(placed.cluster.racks());
  params.time_scale = scale;
  params.decode_matrix_dim = cfg.n;
  runtime::Testbed bed(placed.cluster, params);

  std::printf("RS(%zu,%zu) across %zu regions (racks), 4 MiB blocks, "
              "Table-1 bandwidths x%.0f\n", cfg.n, cfg.k,
              placed.cluster.racks(), scale);
  std::printf("  mean intra-region %.1f Mbps, mean cross-region %.1f Mbps "
              "(ratio %.2f)\n\n",
              params.net.mean_intra_mbps(), params.net.mean_cross_mbps(),
              params.net.mean_intra_mbps() / params.net.mean_cross_mbps());

  repair::RepairProblem problem;
  problem.code = &code;
  problem.placement = &placed.placement;
  problem.block_size = block_size;
  problem.failed = {3};
  problem.choose_default_replacements();

  std::printf("%-12s %14s %16s %10s\n", "scheme", "wall ms", "cross-rack MB",
              "correct");
  for (const auto scheme : {repair::Scheme::kTraditional, repair::Scheme::kCar,
                            repair::Scheme::kRpr}) {
    const auto planner = repair::make_planner(scheme);
    const auto planned = planner->plan(problem);
    const auto result = bed.execute(planned.plan, planned.outputs, stripe);
    const bool ok = result.outputs[0] == stripe[3];
    std::printf("%-12s %14.1f %16.2f %10s\n", planner->name().c_str(),
                result.elapsed_s * 1e3,
                static_cast<double>(result.cross_rack_bytes) / 1e6,
                ok ? "yes" : "NO");
    if (!ok) return 1;
  }
  std::printf("\n(wall times are under time_scale; multiply by %.0f for "
              "real-link durations)\n", scale);
  return 0;
}
