// Slice-pipelining sweep: whole-block vs sliced repair wall time on the two
// real-byte engines (threaded testbed, TCP loopback), plus the chained
// cross-rack schedule on the testbed and the discrete-event simulator.
//
// Part 1 — star schedules: one RPR single-failure repair of a 64 MiB block
// over a (12,4) stripe runs at slice sizes {whole-block, 16 KiB, 64 KiB,
// 256 KiB}; each row reports the best-of-N wall time and its speedup over
// whole-block mode on the same engine. The TCP loopback paces each
// connection independently and wins ~1.8x; the testbed enforces exclusive
// rack TX/RX ports, and a port-bound star cannot be pipelined below the
// recovery rack's RX busy time, so slicing only trims the inner collection
// phase (~1.05x).
//
// Part 2 — chained schedules: the same repair re-planned as a relay chain
// (Scheme::kRprChained) on an RS(14,10) stripe spread one-block-per-rack,
// where the star's port bound actually bites (14 contributing racks). The
// chained whole-block row documents the store-and-forward serialization
// (chains are a slice-mode scheme); the sliced rows collapse toward the
// pipeline-depth bound. Chained rows report speedup against the *star*
// whole-block baseline — the schedule the system ran before this scheme —
// and the sweep hard-fails unless the best chained testbed row is >= 1.5x
// that baseline with byte-identical rebuilds and identical cross-rack
// traffic.
//
// BENCH_pipeline.json at the repo root is a checked-in capture of this
// binary's JSON output (first argument, default "BENCH_pipeline.json";
// "-" skips the file).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

#include "net/tcp_runtime.h"
#include "repair/executor_sim.h"
#include "repair/planner.h"
#include "runtime/testbed.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/units.h"

namespace {

constexpr std::uint64_t kBlock = 64ull << 20;
constexpr double kTimeScale = 4.0;  // keeps paced 0.1 Gb/s cross affordable
constexpr int kReps = 2;            // best-of, absorbs scheduler noise

// The chained fixture trades block size for time scale so the serialized
// whole-block chain row stays affordable.
constexpr std::uint64_t kChainBlock = 32ull << 20;
constexpr double kChainTimeScale = 8.0;

struct Run {
  std::string engine;
  std::size_t slice_size;
  double wall_s;
  std::uint64_t cross_bytes;
  std::uint64_t inner_bytes;
  double speedup = 0.0;
};

struct Fixture {
  rpr::rs::RSCode code;
  rpr::topology::PlacedStripe placed;
  std::uint64_t block_size;
  std::vector<rpr::rs::Block> stripe;
  rpr::repair::RepairProblem problem;

  Fixture(rpr::rs::CodeConfig cfg, rpr::topology::PlacementPolicy policy,
          std::uint64_t block)
      : code(cfg),
        placed(rpr::topology::make_placed_stripe(cfg, policy)),
        block_size(block) {
    stripe.resize(code.config().total());
    rpr::util::Xoshiro256 rng(0x51705);
    for (std::size_t b = 0; b < code.config().n; ++b) {
      stripe[b].resize(block_size);
      for (auto& byte : stripe[b]) byte = static_cast<std::uint8_t>(rng());
    }
    code.encode_stripe(stripe);

    problem.code = &code;
    problem.placement = &placed.placement;
    problem.block_size = block_size;
    problem.failed = {0};
    problem.choose_default_replacements();
  }

  [[nodiscard]] rpr::repair::PlannedRepair plan(
      rpr::repair::Scheme scheme) const {
    return rpr::repair::make_planner(scheme)->plan(problem);
  }

  /// The paper's simulator bandwidths (§5.1): 1 Gb/s inner, 0.1 Gb/s cross.
  [[nodiscard]] rpr::runtime::RegionNet net() const {
    return rpr::runtime::RegionNet::uniform(
        placed.cluster.racks(), rpr::util::Bandwidth::gbps(1),
        rpr::util::Bandwidth::gbps(0.1));
  }

  template <typename Engine>
  Run measure(const char* name, const rpr::repair::PlannedRepair& planned,
              Engine&& make, std::size_t slice) const {
    Run run{name, slice, 1e30, 0, 0};
    for (int rep = 0; rep < kReps; ++rep) {
      auto engine = make(slice);
      const auto result =
          engine.execute(planned.plan, planned.outputs, stripe);
      if (result.outputs[0] != stripe[0]) {
        std::fprintf(stderr, "%s reconstruction mismatch (slice %zu)!\n",
                     name, slice);
        std::exit(1);
      }
      const double s = result.elapsed_s;
      if (s < run.wall_s) run.wall_s = s;
      run.cross_bytes = result.cross_rack_bytes;
      run.inner_bytes = result.inner_rack_bytes;
    }
    return run;
  }

  /// Discrete-event makespan of `planned` at `slice` (exact, no reps).
  Run simulate(const char* name, const rpr::repair::PlannedRepair& planned,
               std::size_t slice) const {
    rpr::topology::NetworkParams p = rpr::topology::NetworkParams::simics_like();
    p.slice_size = slice;
    const auto sim =
        rpr::repair::simulate(planned.plan, placed.cluster, p);
    return Run{name, slice, rpr::util::to_sec(sim.total_repair_time),
               sim.cross_rack_bytes, sim.inner_rack_bytes};
  }
};

std::string slice_name(std::size_t slice) {
  if (slice == 0) return "whole";
  return std::to_string(slice >> 10) + "K";
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = argc > 1 ? argv[1] : "BENCH_pipeline.json";

  std::vector<Run> runs;

  // -------- Part 1: RPR star, (12,4), rpr placement (historical rows).
  Fixture star_f({12, 4}, rpr::topology::PlacementPolicy::kRpr, kBlock);
  const auto star_plan = star_f.plan(rpr::repair::Scheme::kRpr);

  const std::vector<std::size_t> slices = {0, 16 << 10, 64 << 10, 256 << 10};
  for (const std::size_t slice : slices) {
    runs.push_back(star_f.measure(
        "testbed", star_plan,
        [&](std::size_t s) {
          rpr::runtime::TestbedParams p;
          p.net = star_f.net();
          p.time_scale = kTimeScale;
          p.decode_matrix_dim = 12;
          p.slice_size = s;
          return rpr::runtime::Testbed(star_f.placed.cluster, p);
        },
        slice));
  }
  for (const std::size_t slice : slices) {
    runs.push_back(star_f.measure(
        "tcp", star_plan,
        [&](std::size_t s) {
          rpr::net::TcpRuntimeParams p;
          p.net = star_f.net();
          p.time_scale = kTimeScale;
          p.decode_matrix_dim = 12;
          p.slice_size = s;
          return rpr::net::TcpRuntime(star_f.placed.cluster, p);
        },
        slice));
  }

  // -------- Part 2: chained relay schedule, RS(14,10), one block per rack.
  Fixture chain_f({14, 10}, rpr::topology::PlacementPolicy::kFlat,
                  kChainBlock);
  const auto star14 = chain_f.plan(rpr::repair::Scheme::kRpr);
  const auto chained14 = chain_f.plan(rpr::repair::Scheme::kRprChained);

  const auto chain_testbed = [&](std::size_t s) {
    rpr::runtime::TestbedParams p;
    p.net = chain_f.net();
    p.time_scale = kChainTimeScale;
    p.decode_matrix_dim = 14;
    p.slice_size = s;
    return rpr::runtime::Testbed(chain_f.placed.cluster, p);
  };
  const std::vector<std::size_t> chain_slices = {0, 64 << 10, 256 << 10,
                                                 1 << 20};
  runs.push_back(
      chain_f.measure("testbed-star14", star14, chain_testbed, 0));
  const double star14_whole = runs.back().wall_s;
  const std::uint64_t star14_cross = runs.back().cross_bytes;
  for (const std::size_t slice : chain_slices) {
    runs.push_back(
        chain_f.measure("testbed-chained14", chained14, chain_testbed, slice));
    if (runs.back().cross_bytes != star14_cross) {
      std::fprintf(stderr,
                   "chained cross-rack traffic %llu differs from the star's "
                   "%llu — the chain must move identical bytes!\n",
                   static_cast<unsigned long long>(runs.back().cross_bytes),
                   static_cast<unsigned long long>(star14_cross));
      return 1;
    }
  }

  runs.push_back(chain_f.simulate("sim-star14", star14, 0));
  const double sim_star14_whole = runs.back().wall_s;
  for (const std::size_t slice : chain_slices) {
    runs.push_back(chain_f.simulate("sim-chained14", chained14, slice));
  }

  // Speedups: star engines against their own whole-block row; chained rows
  // against the whole-block *star* on the same engine (the pre-chained
  // schedule — a chain run whole-block is strictly worse, and the row
  // documents that too).
  const auto whole_of = [&](const char* engine) {
    for (const Run& r : runs) {
      if (r.slice_size == 0 && r.engine == engine) return r.wall_s;
    }
    return 0.0;
  };
  for (Run& r : runs) {
    double base = whole_of(r.engine.c_str());
    if (r.engine == "testbed-chained14") base = star14_whole;
    if (r.engine == "sim-chained14") base = sim_star14_whole;
    r.speedup = base / r.wall_s;
  }

  std::printf(
      "Slice-pipelined repair — star: RPR (12,4), 64 MiB block; chained: "
      "RS(14,10)\nflat placement, 32 MiB block. 1 Gb/s inner / 0.1 Gb/s "
      "cross, best of %d\n(chained rows: speedup vs the whole-block star on "
      "the same engine)\n\n",
      kReps);
  rpr::util::TextTable t({"engine", "slice", "wall (s)", "speedup"});
  for (const Run& r : runs) {
    t.add_row({r.engine, slice_name(r.slice_size),
               rpr::util::fmt(r.wall_s, 3), rpr::util::fmt(r.speedup, 2)});
  }
  std::printf("%s\n", t.render().c_str());

  double tcp64 = 0.0;
  double chained_best = 0.0;
  double sim_chained_best = 0.0;
  for (const Run& r : runs) {
    if (r.slice_size == (64u << 10) && r.engine == "tcp") tcp64 = r.speedup;
    if (r.engine == "testbed-chained14" && r.slice_size != 0) {
      chained_best = std::max(chained_best, r.speedup);
    }
    if (r.engine == "sim-chained14" && r.slice_size != 0) {
      sim_chained_best = std::max(sim_chained_best, r.speedup);
    }
  }
  std::printf(
      "headline: tcp @64K slices %.2fx whole-block (floor 1.40x); chained "
      "testbed %.2fx / sim %.2fx vs whole-block star (floor 1.50x)\n",
      tcp64, chained_best, sim_chained_best);

  if (std::strcmp(json_path, "-") != 0) {
    std::FILE* out = std::fopen(json_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path);
      return 1;
    }
    char date[64];
    const std::time_t now = std::time(nullptr);
    std::strftime(date, sizeof date, "%Y-%m-%dT%H:%M:%S+00:00",
                  std::gmtime(&now));
    std::fprintf(out,
                 "{\n  \"context\": {\n"
                 "    \"date\": \"%s\",\n"
                 "    \"executable\": \"./build/bench/pipeline_sweep\",\n"
                 "    \"star\": \"(12,4) rpr placement, %llu MiB block\",\n"
                 "    \"chained\": \"(14,10) flat placement, %llu MiB "
                 "block\",\n"
                 "    \"inner_gbps\": 1.0,\n"
                 "    \"cross_gbps\": 0.1,\n"
                 "    \"time_scale\": %.1f,\n"
                 "    \"chained_time_scale\": %.1f,\n"
                 "    \"reps\": %d\n  },\n  \"benchmarks\": [\n",
                 date, static_cast<unsigned long long>(kBlock >> 20),
                 static_cast<unsigned long long>(kChainBlock >> 20),
                 kTimeScale, kChainTimeScale, kReps);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const Run& r = runs[i];
      std::fprintf(out,
                   "    {\n"
                   "      \"name\": \"pipeline/%s/slice:%zu\",\n"
                   "      \"engine\": \"%s\",\n"
                   "      \"slice_size\": %zu,\n"
                   "      \"wall_s\": %.6f,\n"
                   "      \"speedup_vs_whole\": %.4f,\n"
                   "      \"cross_rack_bytes\": %llu,\n"
                   "      \"inner_rack_bytes\": %llu\n    }%s\n",
                   r.engine.c_str(), r.slice_size, r.engine.c_str(),
                   r.slice_size, r.wall_s, r.speedup,
                   static_cast<unsigned long long>(r.cross_bytes),
                   static_cast<unsigned long long>(r.inner_bytes),
                   i + 1 == runs.size() ? "" : ",");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", json_path);
  }
  const bool ok = tcp64 >= 1.4 && chained_best >= 1.5 &&
                  sim_chained_best >= 1.5;
  return ok ? 0 : 2;
}
