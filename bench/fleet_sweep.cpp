// Fleet scheduler sweep: the repair-share trade-off curves the scheduler
// subsystem (sched/scheduler.h) exists to navigate.
//
// Scenario: an RS(14,10) fleet loses node 0, damaging every stripe that
// kept a block there. The damaged stripes queue through admission control
// while a synthetic foreground read load runs and a probe read hits each
// stripe's lost block shortly after the failure. Three curves come out:
//
//  * Foreground protection. With the arbiter off (repair share 1.0) the
//    recovery wave saturates every port and foreground p99 blows up past
//    kFgProtectionBound x the idle baseline. At the arbitrated shares the
//    repair class is capped, foreground traffic rides the unthrottled
//    class, and p99 stays within the bound. Both sides are hard gates:
//    the sweep fails if arbitration stops protecting foreground reads OR
//    if the unarbitrated wave stops hurting them (which would mean the
//    arbiter solves a non-problem).
//  * Repair cost. The same shares stretch the wave's completion
//    percentiles and cut rebuilt throughput — the price of protection,
//    reported so the curve documents both sides of the knob.
//  * Degraded reads. At the production share (0.25), answering lost-block
//    reads from the in-flight repair (banked slices / promoted one-block
//    plans) must beat DegradedPolicy::kWaitForCommit by >= 2x at p50 —
//    the third hard gate, and the reason the read path exists.
//
// BENCH_fleet.json at the repo root is a checked-in capture of this
// binary's JSON output (first argument, default "BENCH_fleet.json"; "-"
// skips the file). CI re-runs the sweep and bench_diff's the fresh JSON
// against the baseline warn-only; the three gates above are the binary's
// own exit code and always hard.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>
#include <utility>
#include <vector>

#include "sched/scheduler.h"
#include "sched/wave.h"
#include "util/table.h"

namespace {

using rpr::sched::DegradedPolicy;
using rpr::sched::FleetSchedOutcome;
using rpr::sched::FleetWorkload;
using rpr::sched::SchedulerOptions;
using rpr::topology::NetworkParams;

constexpr rpr::rs::CodeConfig kCfg{14, 10};
constexpr std::uint64_t kBlock = 64ull << 20;
constexpr std::size_t kStripes = 12;
constexpr std::size_t kSlice = 1 << 20;
constexpr std::size_t kMaxInflight = 2;
constexpr double kFgQps = 50.0;
constexpr double kFgDuration = 30.0;
constexpr std::uint64_t kFgReadSize = 4ull << 20;
constexpr double kProbeAt = 0.2;  ///< lost-block probe time, seconds
/// Foreground p99 must stay within this factor of the idle baseline when
/// arbitrated, and must exceed it when the arbiter is off.
constexpr double kFgProtectionBound = 4.0;
constexpr double kDegradedFloor = 2.0;  ///< serve vs wait p50 ratio

struct Row {
  std::string name;
  FleetSchedOutcome out;
  double fg_p99_vs_idle = 0.0;
};

FleetSchedOutcome run(const rpr::sched::NodeLossWave& fleet,
                      const FleetWorkload& w, double share,
                      DegradedPolicy degraded) {
  SchedulerOptions opts;
  opts.max_inflight = kMaxInflight;
  opts.repair_share = share;
  opts.slice_size = kSlice;
  opts.degraded = degraded;
  return rpr::sched::run_fleet(w, fleet.cluster, NetworkParams{}, opts);
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = argc > 1 ? argv[1] : "BENCH_fleet.json";

  // The wave rpr_sim --fleet runs: node 0 died, and each stripe repairs
  // the block it kept there.
  rpr::sched::NodeLossWave fleet(kCfg, kStripes, kBlock);
  FleetWorkload& damaged = fleet.workload;
  damaged.foreground = {kFgQps, kFgDuration, kFgReadSize, 7};
  // Probe every lost block shortly after the failure.
  fleet.probe_lost_blocks(kProbeAt);
  const FleetWorkload idle_w = fleet.healthy();

  std::vector<Row> rows;
  const FleetSchedOutcome idle =
      run(fleet, idle_w, 1.0, DegradedPolicy::kServe);
  rows.push_back({"fleet/idle", idle, 1.0});

  const std::pair<double, DegradedPolicy> cells[] = {
      {1.0, DegradedPolicy::kServe},
      {0.5, DegradedPolicy::kServe},
      {0.25, DegradedPolicy::kServe},
      {0.25, DegradedPolicy::kWaitForCommit}};
  for (const auto& [share, degraded] : cells) {
    FleetSchedOutcome out = run(fleet, damaged, share, degraded);
    char name[48];
    std::snprintf(name, sizeof name, "fleet/share:%.2f%s", share,
                  degraded == DegradedPolicy::kWaitForCommit ? "-wait" : "");
    const double ratio = idle.foreground_p99_s > 0.0
                             ? out.foreground_p99_s / idle.foreground_p99_s
                             : 0.0;
    rows.push_back({name, std::move(out), ratio});
  }

  rpr::util::TextTable table(
      {"run", "makespan s", "compl p50", "compl p99", "fg p99 s",
       "fg/idle", "degr p50", "degr p99", "MB/s rebuilt"});
  for (const Row& r : rows) {
    table.add_row({r.name, rpr::util::fmt(r.out.makespan_s, 1),
                   rpr::util::fmt(r.out.completion_p50_s, 1),
                   rpr::util::fmt(r.out.completion_p99_s, 1),
                   rpr::util::fmt(r.out.foreground_p99_s, 3),
                   rpr::util::fmt(r.fg_p99_vs_idle, 2),
                   rpr::util::fmt(r.out.degraded_p50_s, 2),
                   rpr::util::fmt(r.out.degraded_p99_s, 2),
                   rpr::util::fmt(r.out.repair_throughput_bps / 8e6, 1)});
  }
  std::fputs(table.render().c_str(), stdout);

  // ---- the three hard gates -------------------------------------------
  const Row& unarb = rows[1];     // share 1.00
  const Row& arb = rows[3];       // share 0.25, serve
  const Row& wait = rows.back();  // share 0.25, wait-for-commit
  const double degr_ratio =
      arb.out.degraded_p50_s > 0.0
          ? wait.out.degraded_p50_s / arb.out.degraded_p50_s
          : 0.0;
  std::printf(
      "headline: unarbitrated fg p99 %.1fx idle, share-0.25 %.1fx idle "
      "(bound %.1fx); degraded serve beats wait-for-commit %.1fx at p50 "
      "(floor %.1fx)\n",
      unarb.fg_p99_vs_idle, arb.fg_p99_vs_idle, kFgProtectionBound,
      degr_ratio, kDegradedFloor);

  bool ok = true;
  if (arb.fg_p99_vs_idle > kFgProtectionBound) {
    std::fprintf(stderr,
                 "FAIL: arbitrated foreground p99 %.2fx idle exceeds the "
                 "%.1fx protection bound\n",
                 arb.fg_p99_vs_idle, kFgProtectionBound);
    ok = false;
  }
  if (unarb.fg_p99_vs_idle <= kFgProtectionBound) {
    std::fprintf(stderr,
                 "FAIL: unarbitrated foreground p99 %.2fx idle does not "
                 "exceed %.1fx — the arbiter is protecting against "
                 "nothing\n",
                 unarb.fg_p99_vs_idle, kFgProtectionBound);
    ok = false;
  }
  if (degr_ratio < kDegradedFloor) {
    std::fprintf(stderr,
                 "FAIL: degraded serve only %.2fx better than "
                 "wait-for-commit at p50 (floor %.1fx)\n",
                 degr_ratio, kDegradedFloor);
    ok = false;
  }

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
    std::fprintf(
        out,
        "{\n  \"context\": {\n"
        "    \"date\": \"%s\",\n"
        "    \"executable\": \"./build/bench/fleet_sweep\",\n"
        "    \"scenario\": \"RS(14,10), %zu damaged stripes, %llu MiB "
        "blocks, slice %zu KiB, max-inflight %zu\",\n"
        "    \"foreground\": \"%.0f qps x %.0f s, %llu MiB reads\",\n"
        "    \"fg_protection_bound\": %.1f,\n"
        "    \"degraded_floor\": %.1f\n  },\n  \"benchmarks\": [\n",
        date, kStripes, static_cast<unsigned long long>(kBlock >> 20),
        kSlice >> 10, kMaxInflight, kFgQps, kFgDuration,
        static_cast<unsigned long long>(kFgReadSize >> 20),
        kFgProtectionBound, kDegradedFloor);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      // Simulated-time metrics are deterministic, so the row diff is
      // exact: any drift is a behavior change, not runner noise.
      std::fprintf(
          out,
          "    {\n"
          "      \"name\": \"%s\",\n"
          "      \"makespan_s\": %.4f,\n"
          "      \"completion_p50_s\": %.4f,\n"
          "      \"completion_p95_s\": %.4f,\n"
          "      \"completion_p99_s\": %.4f,\n"
          "      \"foreground_p99_s\": %.5f,\n"
          "      \"fg_p99_vs_idle\": %.4f,\n"
          "      \"degraded_p50_s\": %.5f,\n"
          "      \"degraded_p99_s\": %.5f,\n"
          "      \"repair_throughput_MBps\": %.3f,\n"
          "      \"max_queue_depth\": %zu\n    }%s\n",
          r.name.c_str(), r.out.makespan_s, r.out.completion_p50_s,
          r.out.completion_p95_s, r.out.completion_p99_s,
          r.out.foreground_p99_s, r.fg_p99_vs_idle, r.out.degraded_p50_s,
          r.out.degraded_p99_s, r.out.repair_throughput_bps / 8e6,
          r.out.max_queue_depth, i + 1 == rows.size() ? "" : ",");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", json_path);
  }
  return ok ? 0 : 2;
}
