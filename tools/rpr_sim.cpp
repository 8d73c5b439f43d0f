// rpr_sim: what-if repair simulation from the command line.
//
//   rpr_sim [options]
//     --code n,k            RS configuration            (default 6,3)
//     --scheme NAME         traditional | car | rpr | chained | auto
//                           (default rpr; auto picks star vs chained per
//                           stripe from the makespan lower-bound floors)
//     --failed i[,j...]     failed block indices        (default 0)
//     --placement NAME      contiguous | rpr | flat     (default rpr)
//     --block BYTES         block size in bytes         (default 256 MiB)
//     --inner GBPS          inner-rack bandwidth, Gb/s  (default 1)
//     --cross GBPS          cross-rack bandwidth, Gb/s  (default 0.1)
//     --fluid               use the fair-sharing link model
//     --tcp                 execute over real loopback TCP (wall clock)
//     --time-scale X        multiply TCP pacing bandwidths (default 32)
//     --slice-size BYTES    slice-pipelined streaming: values move through
//                           the dataplane (and the simulator's timing
//                           model) in slices of this many bytes; 0 =
//                           whole-block store-and-forward
//                           (default $RPR_SLICE_SIZE, else 0)
//     --trace FILE          write a Chrome trace of the schedule
//     --metrics FILE        write a metrics snapshot (JSON)
//     --metrics-csv FILE    write a metrics snapshot (CSV)
//     --critpath            reconstruct the repair's causal DAG from the
//                           recorded spans, print the critical path's
//                           per-category makespan breakdown (port waits,
//                           GF compute, propagation, queueing, stalls),
//                           the top critical wait edges, and the idle-port
//                           headroom a chained schedule could recover
//     --prom-port N         serve live metrics in Prometheus text format
//                           on 127.0.0.1:N (0 = pick an ephemeral port)
//                           for the duration of the run
//     --chaos SPEC          inject faults into the repair session.
//                           Entries (';' or ','-separated): kill:N@T,
//                           straggle:N*F[xA], corrupt:B, rack:R@T,
//                           partition:{A|B}@T[~D], slowdisk:N*F,
//                           diskfull:N, seed:S — see fault/fault.h for the
//                           full grammar. All fault flags add entries to
//                           one schedule, parsed as a whole and validated
//                           against the cluster and code before the run
//     --fail-helper-at T    shorthand: kill the first helper node at T
//                           seconds (simulated for simnet, wall for --tcp)
//     --max-replans N       re-plan budget for resilient sessions
//                           (default 8); an exhausted budget aborts the
//                           repair coherently with exit code 3 and a
//                           salvage report of every banked partial
//     --straggler N,F[,A]   shorthand: slow node N's transfers by factor F
//                           (clearing after A afflicted attempts if given)
//     --verify              exhaustive plan lint: run the static verifier
//                           over every (code, placement, failure set, scheme)
//                           combination of a fixed grid and report any plan
//                           that violates an algebraic, topological or
//                           conservation invariant
//     --verify-json FILE    with --verify: also write per-cell wall-clock
//                           timings as bench_diff-compatible JSON (the CI
//                           regression gate compares them to BENCH_verify.json)
//
//   Fleet mode (--fleet N): instead of one stripe, run N damaged stripes
//   through the repair scheduler (admission control, bandwidth arbitration,
//   degraded reads — see sched/scheduler.h) on one simulated network and
//   print the wave's completion percentiles and read latencies.
//     --fleet N             number of damaged stripes       (fleet mode on)
//     --arrival RATE        stripe failure arrivals per second, seeded
//                           exponential gaps; 0 = all damaged at t=0
//                           (default 0)
//     --max-inflight N      concurrent repair bound         (default 4)
//     --repair-share S      repair class's port share (0,1]; < 1 installs
//                           the token-bucket arbiter        (default 1)
//     --fg-qps Q            synthetic foreground read QPS   (default 0)
//     --fg-duration T       foreground duration, seconds    (default 1)
//     --fg-read-size B      bytes per healthy foreground read
//                           (default: the block size)
//     --degraded POLICY     serve | wait: answer lost-block reads from the
//                           in-flight repair (banked slices / promoted
//                           degraded-read plan) or block until the stripe
//                           commits                         (default serve)
//     --aging P             priority points a queued stripe gains per
//                           second waited (starvation freedom; default 1)
//     --seed S              workload seed                   (default 1)
//   Fleet mode composes with --slice-size / --inner / --cross / --block /
//   --trace / --metrics; it is exclusive with --tcp, --fluid and chaos.
//
// Prints repair time, traffic and the transfer schedule — the library's
// planners and simulators behind a single adoptable command.
//
// Every single-stripe run except the timing-only --fluid is the resilient
// session StorageSystem::repair runs (repair/resilient.h), over one encoded
// stripe on the port simulator or --tcp: the plan is verified online, any
// fault flag is ridden out (retry with backoff, equation-patching and
// scheme-switching re-plans, wait-or-reroute on partitions, full disks
// planned around), and the rebuilt blocks are checked byte-identical.
// Exit codes: 0 success, 1 runtime error, 2 usage, 3 repair impossible
// (more failures than the code tolerates, or the re-plan budget ran out —
// the abort report lists every salvageable banked partial), 4 a --verify
// sweep found a violated invariant.
//
// --trace works with every engine: the port simulator and the fluid model
// emit simulated-time spans (the fluid model additionally samples rack
// uplink bandwidth shares over time), the TCP runtime emits wall-clock
// spans. All use the same track layout, so traces compare side by side in
// Perfetto / chrome://tracing.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "net/tcp_runtime.h"
#include "obs/attribution.h"
#include "obs/critpath.h"
#include "obs/metrics.h"
#include "obs/prom.h"
#include "obs/recorder.h"
#include "obs/sinks.h"
#include "repair/analysis.h"
#include "repair/executor_sim.h"
#include "repair/planner.h"
#include "repair/resilient.h"
#include "runtime/region_net.h"
#include "sched/scheduler.h"
#include "sched/wave.h"
#include "topology/placement.h"
#include "util/combinatorics.h"
#include "util/rng.h"
#include "util/slice.h"
#include "verify/plan_verifier.h"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: rpr_sim [--code n,k] [--scheme traditional|car|rpr|chained|auto]\n"
      "               [--failed i,j,...] [--placement contiguous|rpr|flat]\n"
      "               [--block BYTES] [--inner GBPS] [--cross GBPS]\n"
      "               [--fluid | --tcp] [--time-scale X] [--slice-size BYTES]\n"
      "               [--trace FILE] [--metrics FILE] [--metrics-csv FILE]\n"
      "               [--critpath] [--prom-port N]\n"
      "               [--chaos SPEC] [--fail-helper-at T] [--max-replans N]\n"
      "               [--straggler NODE,FACTOR[,ATTEMPTS]]\n"
      "       rpr_sim --fleet N [--arrival RATE] [--max-inflight N]\n"
      "               [--repair-share S] [--fg-qps Q] [--fg-duration T]\n"
      "               [--fg-read-size B] [--degraded serve|wait] [--aging P]\n"
      "               [--seed S] [common options]\n"
      "       rpr_sim --verify [--verify-json FILE]\n"
      "chaos SPEC entries: kill:N@T  straggle:N*F[xA]  corrupt:B  rack:R@T\n"
      "                    partition:{A|B}@T[~D]  slowdisk:N*F  diskfull:N\n"
      "                    seed:S\n");
  return 2;
}

[[noreturn]] void die_bad_value(const char* flag, const char* value) {
  std::fprintf(stderr, "rpr_sim: bad value '%s' for %s\n", value, flag);
  std::exit(usage());
}

/// Parses a non-negative integer; rejects junk, trailing characters and
/// overflow instead of throwing or silently truncating.
std::uint64_t parse_u64(const char* flag, const char* s) {
  if (*s == '\0' || *s == '-') die_bad_value(flag, s);
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') die_bad_value(flag, s);
  return v;
}

/// Parses a strictly positive double (bandwidths, scales).
double parse_positive(const char* flag, const char* s) {
  if (*s == '\0') die_bad_value(flag, s);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (errno != 0 || end == s || *end != '\0' || !(v > 0.0)) {
    die_bad_value(flag, s);
  }
  return v;
}

/// Parses a non-negative double (fault times; 0 = dead from the start).
double parse_nonneg(const char* flag, const char* s) {
  if (*s == '\0') die_bad_value(flag, s);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (errno != 0 || end == s || *end != '\0' || !(v >= 0.0)) {
    die_bad_value(flag, s);
  }
  return v;
}

std::vector<std::size_t> parse_list(const char* flag, const char* s) {
  std::vector<std::size_t> out;
  std::string token;
  for (const char* p = s;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!token.empty()) {
        out.push_back(
            static_cast<std::size_t>(parse_u64(flag, token.c_str())));
      }
      token.clear();
      if (*p == '\0') break;
    } else {
      token.push_back(*p);
    }
  }
  if (out.empty()) die_bad_value(flag, s);
  return out;
}

/// One stripe of `bytes`-byte blocks: seeded random data, encoded parity.
std::vector<rpr::rs::Block> encoded_stripe(const rpr::rs::RSCode& code,
                                           std::uint64_t bytes) {
  rpr::util::Xoshiro256 rng(42);
  std::vector<rpr::rs::Block> stripe(code.config().total());
  for (std::size_t b = 0; b < code.config().n; ++b) {
    stripe[b].resize(bytes);
    for (auto& byte : stripe[b]) byte = static_cast<std::uint8_t>(rng());
  }
  code.encode_stripe(stripe);
  return stripe;
}

/// --verify: exhaustive static lint of every planner over a fixed grid of
/// codes x placements x failure sets x schemes. Every emitted plan runs
/// through the PlanVerifier; a violation prints the full report (op index,
/// rack, expected-vs-actual equation diff) and the sweep exits 4 at the end.
int run_verify_sweep(const char* json_path) {
  using namespace rpr;

  const std::vector<rs::CodeConfig> codes = {{6, 3}, {9, 6}, {14, 10}};
  const std::vector<std::pair<topology::PlacementPolicy, const char*>>
      policies = {{topology::PlacementPolicy::kContiguous, "contiguous"},
                  {topology::PlacementPolicy::kRpr, "rpr"},
                  {topology::PlacementPolicy::kFlat, "flat"}};
  const std::size_t max_failures = 3;

  std::size_t plans = 0;
  std::size_t violated = 0;
  // name -> wall seconds, one row per (code, placement) sweep cell.
  std::vector<std::pair<std::string, double>> timings;
  const auto sweep_start = std::chrono::steady_clock::now();

  for (const rs::CodeConfig& cfg : codes) {
    const rs::RSCode code(cfg);
    for (const auto& [policy, policy_name] : policies) {
      const auto cell_start = std::chrono::steady_clock::now();
      const auto placed = topology::make_placed_stripe(cfg, policy);

      // Every failure set of size 1..min(3, k), in lexicographic order.
      for (std::size_t f = 1; f <= std::min(max_failures, cfg.k); ++f) {
        const auto check = [&](const std::vector<std::size_t>& idx) {
          repair::RepairProblem problem;
          problem.code = &code;
          problem.placement = &placed.placement;
          problem.block_size = 1 << 20;
          problem.failed = idx;
          problem.choose_default_replacements();

          for (const repair::Scheme scheme :
               {repair::Scheme::kTraditional, repair::Scheme::kCar,
                repair::Scheme::kRpr, repair::Scheme::kRprChained}) {
            if (scheme == repair::Scheme::kCar && f != 1) continue;
            const auto planner = repair::make_planner(scheme);
            const auto planned = planner->plan(problem);
            auto report =
                verify::verify_planned_repair(planned, problem, scheme);
            if (scheme == repair::Scheme::kRprChained && report.ok()) {
              // Chained schedules are additionally *timing*-verified: the
              // sliced simulated makespan must meet the pipeline-depth +
              // port-load lower bound from the port model, and a single
              // chain must also land within tolerance of it (multi-failure
              // plans run one chain per sub-equation over shared ports, so
              // only the floor itself applies).
              topology::NetworkParams net;
              net.slice_size = 64 << 10;  // 16 slices of the 1 MiB block
              const auto sim = repair::simulate(
                  planned.plan, placed.placement.cluster(), net);
              report = verify::verify_makespan(
                  planned.plan, placed.placement.cluster(), net,
                  net.slice_size, util::to_sec(sim.total_repair_time),
                  /*expect_tight=*/f == 1);
            }
            ++plans;
            if (!report.ok()) {
              ++violated;
              std::string failset;
              for (const std::size_t b : idx) {
                if (!failset.empty()) failset += ",";
                failset += std::to_string(b);
              }
              std::fprintf(stderr,
                           "VIOLATION: RS(%zu,%zu) %s placement, scheme %s, "
                           "failed {%s}:\n%s",
                           cfg.n, cfg.k, policy_name,
                           planner->name().c_str(), failset.c_str(),
                           report.to_string().c_str());
            }
          }
        };
        util::for_each_combination(cfg.total(), f, check);
      }
      timings.emplace_back(
          "verify/rs" + std::to_string(cfg.n) + "_" + std::to_string(cfg.k) +
              "/" + policy_name,
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        cell_start)
              .count());
    }
  }
  timings.emplace_back(
      "verify/total",
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    sweep_start)
          .count());

  if (json_path != nullptr) {
    std::FILE* out = std::fopen(json_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "rpr_sim: cannot write '%s': %s\n", json_path,
                   std::strerror(errno));
      return 1;
    }
    std::fprintf(out, "{\n  \"benchmarks\": [\n");
    for (std::size_t i = 0; i < timings.size(); ++i) {
      std::fprintf(out,
                   "    {\"name\": \"%s\", \"wall_s\": %.6f, "
                   "\"threshold_pct\": 300.0}%s\n",
                   timings[i].first.c_str(), timings[i].second,
                   i + 1 < timings.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("verify timings   : %s\n", json_path);
  }

  std::printf("verify sweep: %zu plans checked, %zu with violations\n", plans,
              violated);
  return violated == 0 ? 0 : 4;
}

/// Per-phase slice latency summary from the engine's slice histograms
/// (written under "<prefix>.slice."); silent when no slices were recorded.
void print_slice_latency(const rpr::obs::MetricsRegistry& registry,
                         const char* prefix) {
  const std::pair<const char*, const char*> phases[] = {
      {"cross", ".slice.cross_latency_s"},
      {"inner", ".slice.inner_latency_s"},
      {"combine", ".slice.combine_latency_s"},
  };
  for (const auto& [name, suffix] : phases) {
    const rpr::obs::Histogram* h =
        registry.find_histogram(std::string(prefix) + suffix);
    if (h == nullptr || h->count() == 0) continue;
    std::printf(
        "slice latency     : %-7s mean %7.3f ms  p50 %7.3f ms  p95 %7.3f "
        "ms  p99 %7.3f ms  max %7.3f ms  (%llu slices)\n",
        name, h->mean() * 1e3, h->quantile(0.5) * 1e3,
        h->quantile(0.95) * 1e3, h->quantile(0.99) * 1e3, h->max() * 1e3,
        static_cast<unsigned long long>(h->count()));
  }
}

/// Simulated-time phase latency summary from the simulator's duration
/// histograms (record_metrics); printed with --metrics on simulator runs.
void print_sim_phase_latency(const rpr::obs::MetricsRegistry& registry) {
  const std::pair<const char*, const char*> phases[] = {
      {"queue wait", "sim.queue_wait_s"},
      {"inner xfer", "sim.inner_transfer_s"},
      {"cross xfer", "sim.cross_transfer_s"},
      {"compute", "sim.compute_s"},
  };
  for (const auto& [name, metric] : phases) {
    const rpr::obs::Histogram* h = registry.find_histogram(metric);
    if (h == nullptr || h->count() == 0) continue;
    std::printf(
        "phase latency     : %-10s mean %8.3f s  p50 %8.3f s  p95 %8.3f "
        "s  p99 %8.3f s  (%llu tasks)\n",
        name, h->mean(), h->quantile(0.5), h->quantile(0.95),
        h->quantile(0.99), static_cast<unsigned long long>(h->count()));
  }
}

/// The simulators' traffic lines: transfer tasks and bytes per link class.
void print_traffic(std::size_t cross_transfers, std::uint64_t cross_bytes,
                   std::size_t inner_transfers, std::uint64_t inner_bytes) {
  std::printf("cross-rack traffic: %zu transfers, %.1f MB\n",
              cross_transfers, static_cast<double>(cross_bytes) / 1e6);
  std::printf("inner-rack traffic: %zu transfers, %.1f MB\n",
              inner_transfers, static_cast<double>(inner_bytes) / 1e6);
}

/// --critpath: rebuild the causal DAG left in the recorder, attribute the
/// makespan, print the report, and mirror the headline numbers into the
/// registry (when metrics are on) so sinks and the Prometheus endpoint
/// carry them too.
void report_critical_path(const rpr::obs::Recorder& recorder,
                          const rpr::topology::Cluster& cluster,
                          rpr::obs::MetricsRegistry* registry) {
  namespace obs = rpr::obs;
  const obs::CausalGraph graph = obs::build_causal_graph(recorder);
  if (graph.empty()) {
    std::printf("critical path     : no causal spans recorded\n");
    return;
  }
  const obs::CriticalPath cp = obs::critical_path(graph);
  obs::AttributionOptions aopts;
  aopts.rack_of = [&cluster](obs::TrackId t) -> std::size_t {
    const auto node = static_cast<rpr::topology::NodeId>(t);
    return node < cluster.total_nodes() ? cluster.rack_of(node) : 0;
  };
  const obs::Attribution attr = obs::attribute(graph, cp, aopts);
  std::fputs(obs::attribution_report(graph, cp, attr).c_str(), stdout);
  if (registry == nullptr) return;
  static constexpr const char* kSlugs[obs::kCategoryCount] = {
      "cross_port_wait_s", "inner_port_wait_s", "gf_compute_s",
      "propagation_s",     "queueing_s",        "stall_s"};
  registry->gauge("critpath.makespan_s")
      .set(static_cast<double>(attr.total_ns) / 1e9);
  for (std::size_t i = 0; i < obs::kCategoryCount; ++i) {
    registry->gauge(std::string("critpath.") + kSlugs[i])
        .set(static_cast<double>(attr.by_category[i]) / 1e9);
  }
  registry->gauge("critpath.headroom_s")
      .set(static_cast<double>(attr.headroom_ns) / 1e9);
  registry->gauge("critpath.bottleneck_rack")
      .set(static_cast<double>(attr.bottleneck_rack));
}

/// The file sinks every mode shares: --trace, --metrics, --metrics-csv.
struct Sinks {
  std::string trace_path;
  std::string metrics_path;
  std::string metrics_csv_path;

  [[nodiscard]] bool wants_metrics() const {
    return !metrics_path.empty() || !metrics_csv_path.empty();
  }

  /// Writes every requested file and names it on stdout.
  void write(const rpr::obs::Recorder& recorder,
             const rpr::obs::MetricsRegistry& registry) const {
    if (!trace_path.empty()) {
      rpr::obs::write_chrome_trace(recorder, trace_path);
      std::printf("schedule trace    : %s (open in chrome://tracing)\n",
                  trace_path.c_str());
    }
    if (!metrics_path.empty()) {
      rpr::obs::write_json(registry, metrics_path);
      std::printf("metrics (JSON)    : %s\n", metrics_path.c_str());
    }
    if (!metrics_csv_path.empty()) {
      rpr::obs::write_csv(registry, metrics_csv_path);
      std::printf("metrics (CSV)     : %s\n", metrics_csv_path.c_str());
    }
  }
};

/// --fleet: CLI-level knobs for the scheduler run.
struct FleetCli {
  std::size_t stripes = 0;
  double arrival_rate = 0.0;  ///< 0 = everything damaged at t=0
  double fg_qps = 0.0;
  double fg_duration = 1.0;
  std::uint64_t fg_read_size = 0;
  std::uint64_t seed = 1;
  rpr::sched::SchedulerOptions sopts;
};

/// Runs the node-loss wave (node 0 died; each rack-rotated stripe repairs
/// the block it kept there) through sched::run_fleet and prints the wave's
/// completion percentiles, read-path mix and latency numbers.
int run_fleet_mode(const rpr::rs::CodeConfig& cfg, std::uint64_t block,
                   const rpr::topology::NetworkParams& params, FleetCli fc,
                   const Sinks& sinks) {
  using namespace rpr;

  sched::NodeLossWave wave(cfg, fc.stripes, block);
  sched::FleetWorkload& w = wave.workload;
  if (fc.arrival_rate > 0.0) {
    util::Xoshiro256 rng(fc.seed);
    double t = 0.0;
    for (sched::StripeArrival& arrival : w.stripes) {
      // Seeded exponential inter-arrival gaps (Poisson failure process).
      const double u =
          (static_cast<double>(rng()) + 1.0) / 18446744073709551616.0;
      t += -std::log(u) / fc.arrival_rate;
      arrival.arrival_s = t;
    }
  }
  w.foreground = {fc.fg_qps, fc.fg_duration, fc.fg_read_size, fc.seed};

  obs::MetricsRegistry registry;
  obs::Recorder recorder;
  if (sinks.wants_metrics()) fc.sopts.probe.metrics = &registry;
  if (!sinks.trace_path.empty()) fc.sopts.probe.trace = &recorder;
  fc.sopts.slice_size = static_cast<std::size_t>(params.slice_size);

  const sched::FleetSchedOutcome out =
      sched::run_fleet(w, wave.cluster, params, fc.sopts);

  std::printf(
      "RS(%zu,%zu) fleet   : %zu stripes, max-inflight %zu, repair share "
      "%.2f\n",
      cfg.n, cfg.k, fc.stripes, fc.sopts.max_inflight,
      fc.sopts.repair_share);
  if (fc.arrival_rate > 0.0) {
    std::printf("arrivals          : %.1f stripes/s (seed %llu)\n",
                fc.arrival_rate, static_cast<unsigned long long>(fc.seed));
  } else {
    std::printf("arrivals          : all damaged at t=0\n");
  }
  if (fc.sopts.auto_scheme) {
    std::printf("scheme            : auto (star %zu / chained %zu picks)\n",
                out.auto_star_picks, out.auto_chained_picks);
  } else {
    std::printf("scheme            : %s\n",
                repair::make_planner(fc.sopts.scheme)->name().c_str());
  }
  if (fc.fg_qps > 0.0) {
    std::printf("foreground        : %.0f reads/s for %.2f s\n", fc.fg_qps,
                fc.fg_duration);
  }
  std::printf("makespan          : %.3f s (last commit %.3f s)\n",
              out.makespan_s, out.last_commit_s);
  std::printf("stripe completion : p50 %.3f s  p95 %.3f s  p99 %.3f s\n",
              out.completion_p50_s, out.completion_p95_s,
              out.completion_p99_s);
  double wait_sum = 0.0;
  double wait_max = 0.0;
  for (const double v : out.admission_wait_s) {
    wait_sum += v;
    wait_max = std::max(wait_max, v);
  }
  std::printf("admission wait    : mean %.3f s  max %.3f s  (queue depth "
              "max %zu)\n",
              out.admission_wait_s.empty()
                  ? 0.0
                  : wait_sum / static_cast<double>(out.admission_wait_s.size()),
              wait_max, out.max_queue_depth);
  std::printf("repair traffic    : %.1f MB (%.1f MB cross-rack, %.1f MB/s "
              "rebuilt)\n",
              static_cast<double>(out.repair_bytes) / 1e6,
              static_cast<double>(out.cross_rack_bytes) / 1e6,
              out.repair_throughput_bps / 8e6);
  if (out.foreground_bytes > 0) {
    std::printf("foreground traffic: %.1f MB\n",
                static_cast<double>(out.foreground_bytes) / 1e6);
  }
  if (!out.reads.empty()) {
    std::string mix;
    for (std::size_t p = 0; p < sched::kReadPathCount; ++p) {
      if (out.reads_by_path[p] == 0) continue;
      if (!mix.empty()) mix += ", ";
      mix += std::to_string(out.reads_by_path[p]);
      mix += " ";
      mix += sched::read_path_name(static_cast<sched::ReadPath>(p));
    }
    std::printf("reads             : %zu (%s)\n", out.reads.size(),
                mix.c_str());
    if (out.foreground_p99_s > 0.0) {
      std::printf(
          "foreground latency: p50 %.4f s  p95 %.4f s  p99 %.4f s\n",
          out.foreground_p50_s, out.foreground_p95_s, out.foreground_p99_s);
    }
    if (out.degraded_p99_s > 0.0) {
      std::printf("degraded latency  : p50 %.4f s  p99 %.4f s\n",
                  out.degraded_p50_s, out.degraded_p99_s);
    }
  }

  sinks.write(recorder, registry);
  return 0;
}

/// Parses the accumulated fault spec and, given the stripe, validates it
/// against the cluster and the code: a malformed, self-contradicting or
/// out-of-topology schedule is a usage error.
rpr::fault::FaultSchedule parse_faults(
    const std::string& spec,
    const rpr::topology::PlacedStripe* placed = nullptr) {
  try {
    auto schedule = rpr::fault::FaultSchedule::parse(spec);
    if (placed != nullptr) {
      schedule.validate(placed->cluster, placed->placement.code().total());
    }
    return schedule;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rpr_sim: fault schedule: %s\n", e.what());
    std::exit(usage());
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rpr;

  rs::CodeConfig cfg{6, 3};
  repair::Scheme scheme = repair::Scheme::kRpr;
  std::vector<std::size_t> failed = {0};
  topology::PlacementPolicy policy = topology::PlacementPolicy::kRpr;
  std::uint64_t block = 256ull << 20;
  double inner_gbps = 1.0;
  double cross_gbps = 0.1;
  bool fluid = false;
  bool tcp = false;
  double time_scale = 32.0;
  std::uint64_t slice_size = util::default_slice_size();
  Sinks sinks;
  bool critpath = false;
  long prom_port = -1;  // -1 = no exporter; 0 = ephemeral port
  bool verify_sweep = false;
  const char* verify_json = nullptr;
  // Every fault flag appends its entries here; the schedule is parsed from
  // the whole spec, so duplicates and conflicts are caught across flags.
  std::string fault_spec;
  const auto add_faults = [&fault_spec](const std::string& entries) {
    if (!fault_spec.empty()) fault_spec += ';';
    fault_spec += entries;
  };
  const char* fail_helper_at = nullptr;  // kill time, seconds
  std::uint64_t max_replans = 8;
  FleetCli fc;
  bool scheme_auto = false;

  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "rpr_sim: %s needs a value\n", argv[i]);
        std::exit(usage());
      }
      return argv[++i];
    };
    if (a == "--code") {
      const auto v = parse_list("--code", next());
      if (v.size() != 2) return usage();
      cfg = {v[0], v[1]};
    } else if (a == "--scheme") {
      const std::string_view s = next();
      if (s == "traditional") scheme = repair::Scheme::kTraditional;
      else if (s == "car") scheme = repair::Scheme::kCar;
      else if (s == "rpr") scheme = repair::Scheme::kRpr;
      else if (s == "chained") scheme = repair::Scheme::kRprChained;
      else if (s == "auto") scheme_auto = true;
      else return usage();
    } else if (a == "--failed") {
      failed = parse_list("--failed", next());
    } else if (a == "--placement") {
      const std::string_view s = next();
      if (s == "contiguous") policy = topology::PlacementPolicy::kContiguous;
      else if (s == "rpr") policy = topology::PlacementPolicy::kRpr;
      else if (s == "flat") policy = topology::PlacementPolicy::kFlat;
      else return usage();
    } else if (a == "--block") {
      block = parse_u64("--block", next());
      if (block == 0) die_bad_value("--block", "0");
    } else if (a == "--inner") {
      inner_gbps = parse_positive("--inner", next());
    } else if (a == "--cross") {
      cross_gbps = parse_positive("--cross", next());
    } else if (a == "--fluid") {
      fluid = true;
    } else if (a == "--tcp") {
      tcp = true;
    } else if (a == "--time-scale") {
      time_scale = parse_positive("--time-scale", next());
    } else if (a == "--slice-size") {
      slice_size = parse_u64("--slice-size", next());
    } else if (a == "--trace") {
      sinks.trace_path = next();
    } else if (a == "--metrics") {
      sinks.metrics_path = next();
    } else if (a == "--metrics-csv") {
      sinks.metrics_csv_path = next();
    } else if (a == "--critpath") {
      critpath = true;
    } else if (a == "--prom-port") {
      const char* v = next();
      const std::uint64_t port = parse_u64("--prom-port", v);
      if (port > 65535) die_bad_value("--prom-port", v);
      prom_port = static_cast<long>(port);
    } else if (a == "--chaos") {
      add_faults(next());
    } else if (a == "--fail-helper-at") {
      fail_helper_at = next();
      (void)parse_nonneg("--fail-helper-at", fail_helper_at);
    } else if (a == "--max-replans") {
      max_replans = parse_u64("--max-replans", next());
    } else if (a == "--fleet") {
      fc.stripes = static_cast<std::size_t>(parse_u64("--fleet", next()));
      if (fc.stripes == 0) die_bad_value("--fleet", "0");
    } else if (a == "--arrival") {
      fc.arrival_rate = parse_nonneg("--arrival", next());
    } else if (a == "--max-inflight") {
      const char* v = next();
      fc.sopts.max_inflight =
          static_cast<std::size_t>(parse_u64("--max-inflight", v));
      if (fc.sopts.max_inflight == 0) die_bad_value("--max-inflight", v);
    } else if (a == "--repair-share") {
      const char* v = next();
      fc.sopts.repair_share = parse_positive("--repair-share", v);
      if (fc.sopts.repair_share > 1.0) die_bad_value("--repair-share", v);
    } else if (a == "--fg-qps") {
      fc.fg_qps = parse_nonneg("--fg-qps", next());
    } else if (a == "--fg-duration") {
      fc.fg_duration = parse_positive("--fg-duration", next());
    } else if (a == "--fg-read-size") {
      fc.fg_read_size = parse_u64("--fg-read-size", next());
    } else if (a == "--degraded") {
      const std::string_view s = next();
      if (s == "serve") fc.sopts.degraded = sched::DegradedPolicy::kServe;
      else if (s == "wait") {
        fc.sopts.degraded = sched::DegradedPolicy::kWaitForCommit;
      } else return usage();
    } else if (a == "--aging") {
      fc.sopts.aging_priority_per_s = parse_nonneg("--aging", next());
    } else if (a == "--seed") {
      fc.seed = parse_u64("--seed", next());
    } else if (a == "--verify") {
      verify_sweep = true;
    } else if (a == "--verify-json") {
      verify_sweep = true;
      verify_json = next();
    } else if (a == "--straggler") {
      // N,F[,A] is straggle:N*F[xA] in the schedule grammar, which checks
      // the numbers.
      std::string entry = std::string("straggle:") + next();
      const std::size_t factor_at = entry.find(',');
      if (factor_at != std::string::npos) {
        entry[factor_at] = '*';
        const std::size_t attempts_at = entry.find(',', factor_at);
        if (attempts_at != std::string::npos) entry[attempts_at] = 'x';
      }
      add_faults(entry);
    } else {
      std::fprintf(stderr, "rpr_sim: unknown option '%s'\n", argv[i]);
      return usage();
    }
  }
  if (verify_sweep) return run_verify_sweep(verify_json);
  if (fluid && tcp) {
    std::fprintf(stderr, "rpr_sim: --fluid and --tcp are exclusive\n");
    return usage();
  }
  // Parsed up front for the checks below; corruptions also widen the
  // failure set before planning.
  fault::FaultSchedule chaos = parse_faults(fault_spec);
  const bool wants_chaos = !chaos.empty() || fail_helper_at != nullptr;
  if (wants_chaos && fluid) {
    std::fprintf(stderr,
                 "rpr_sim: chaos runs are not supported on the fluid model "
                 "(use the port simulator or --tcp)\n");
    return usage();
  }
  topology::NetworkParams params;
  params.inner = util::Bandwidth::gbps(inner_gbps);
  params.cross = util::Bandwidth::gbps(cross_gbps);
  params.slice_size = static_cast<std::size_t>(slice_size);
  if (fc.stripes > 0) {
    if (tcp || fluid || wants_chaos) {
      std::fprintf(stderr,
                   "rpr_sim: --fleet runs on the port simulator only "
                   "(no --tcp, --fluid or chaos flags)\n");
      return usage();
    }
    fc.sopts.scheme = scheme;
    fc.sopts.auto_scheme = scheme_auto;
    try {
      return run_fleet_mode(cfg, block, params, std::move(fc), sinks);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }

  // Corrupt source blocks are checksum-detected at read time and treated as
  // erasures (the storage layer's convention), so they count against the
  // code's fault tolerance like any other failure.
  for (const std::size_t b : chaos.corrupt_blocks()) {
    if (std::find(failed.begin(), failed.end(), b) == failed.end()) {
      failed.push_back(b);
    }
  }

  // A stripe with more than k blocks gone is beyond the code's fault
  // tolerance: no planner, retry policy or re-plan can bring it back.
  // Distinct exit code so scripts can tell "impossible" from "crashed".
  if (failed.size() > cfg.k) {
    std::fprintf(stderr,
                 "rpr_sim: %zu failed blocks exceed RS(%zu,%zu)'s fault "
                 "tolerance of %zu erasures: repair impossible\n",
                 failed.size(), cfg.n, cfg.k, cfg.k);
    return 3;
  }

  try {
    const rs::RSCode code(cfg);
    const auto placed = topology::make_placed_stripe(cfg, policy);

    repair::RepairProblem problem;
    problem.code = &code;
    problem.placement = &placed.placement;
    problem.block_size = block;
    problem.failed = failed;
    problem.choose_default_replacements();

    if (scheme_auto) {
      // Same adaptive pick the fleet scheduler makes per stripe.
      const auto pick = repair::analysis::choose_star_or_chain(
          problem, placed.cluster, params,
          static_cast<std::size_t>(slice_size));
      scheme = pick.scheme;
      std::printf("scheme auto       : floors star %.2f s / chained %.2f s "
                  "-> %s\n",
                  pick.star_floor_s, pick.chain_floor_s,
                  scheme == repair::Scheme::kRprChained ? "chained" : "star");
    }
    const auto planner = repair::make_planner(scheme);

    repair::ResilientOptions ropts;
    ropts.max_replans = static_cast<std::size_t>(max_replans);
    // Full disks serve reads but can never hold the rebuilt block: the
    // session plans every destination off them.
    for (topology::NodeId node = 0; node < placed.cluster.total_nodes();
         ++node) {
      if (chaos.diskfull(node)) ropts.no_commit.insert(node);
    }

    if (fail_helper_at != nullptr) {
      // Kill the first helper of the plan the session runs first: a node
      // it reads a source block on that is not a replacement destination.
      const auto first = repair::plan_around_full_disks(problem, ropts);
      const std::set<topology::NodeId> dests(first.replacements.begin(),
                                             first.replacements.end());
      for (const auto& op : planner->plan(first).plan.ops) {
        if (op.kind == repair::OpKind::kRead && dests.count(op.node) == 0) {
          add_faults("kill:" + std::to_string(op.node) + "@" +
                     fail_helper_at);
          break;
        }
      }
    }
    // The run's schedule: every fault flag's entries, parsed as one. A
    // schedule naming nodes, racks or blocks this cluster does not have
    // must fail loudly before the run, not silently never fire.
    chaos = parse_faults(fault_spec, &placed);

    std::printf("RS(%zu,%zu) %s placement, scheme %s, %zu failure(s), "
                "block %.1f MiB\n", cfg.n, cfg.k,
                policy == topology::PlacementPolicy::kContiguous ? "contiguous"
                : policy == topology::PlacementPolicy::kRpr      ? "rpr"
                                                                 : "flat",
                planner->name().c_str(), failed.size(),
                static_cast<double>(block) / (1 << 20));
    if (slice_size > 0) {
      std::printf("slice size        : %llu bytes (%zu slices/block)\n",
                  static_cast<unsigned long long>(slice_size),
                  util::slice_count(block, slice_size));
    }

    // One probe feeds every engine; sinks run at the end. --critpath needs
    // the recorder and --prom-port the registry even when no file sink asked
    // for them.
    obs::MetricsRegistry registry;
    obs::Recorder recorder;
    obs::Probe probe;
    if (sinks.wants_metrics() || prom_port >= 0) probe.metrics = &registry;
    if (!sinks.trace_path.empty() || critpath) probe.trace = &recorder;

    std::unique_ptr<obs::PromExporter> prom;
    if (prom_port >= 0) {
      obs::PromExporter::Options popts;
      popts.port = static_cast<std::uint16_t>(prom_port);
      prom = std::make_unique<obs::PromExporter>(registry, popts);
      std::printf("prometheus        : http://127.0.0.1:%u/metrics\n",
                  static_cast<unsigned>(prom->port()));
    }

    bool used_matrix = false;
    if (fluid) {
      // Timing only: the fair-sharing model moves no bytes.
      const auto planned = planner->plan(problem);
      used_matrix = planned.used_decoding_matrix;
      const auto outcome = repair::simulate_fluid(
          planned.plan, placed.cluster, params, probe);
      std::printf("link model: fluid fair-sharing\n");
      std::printf("total repair time : %.2f s\n",
                  util::to_sec(outcome.total_repair_time));
      print_traffic(outcome.cross_rack_transfers, outcome.cross_rack_bytes,
                    outcome.inner_rack_transfers, outcome.inner_rack_bytes);
      if (probe.metrics != nullptr) print_sim_phase_latency(registry);
    } else {
      if (wants_chaos) {
        std::printf("chaos schedule    : %s\n", chaos.describe().c_str());
      }
      // The session runs on real bytes so the rebuilt blocks can be checked
      // against the encoded stripe. Simulated timing follows --block while
      // the simulator's bytes are capped, so huge simulated blocks do not
      // allocate huge buffers; TCP ships the block itself.
      const auto stripe = encoded_stripe(
          code, tcp ? block : std::min<std::uint64_t>(block, 4ull << 20));

      ropts.probe = probe;
      repair::ResilientOutcome outcome;
      if (tcp) {
        net::TcpRuntimeParams tp;
        tp.net = runtime::RegionNet::uniform(placed.cluster.racks(),
                                             params.inner, params.cross);
        tp.time_scale = time_scale;
        tp.decode_matrix_dim = cfg.n;
        tp.recorder = probe.trace;
        tp.faults = chaos;
        tp.slice_size = static_cast<std::size_t>(slice_size);
        tp.metrics = &registry;
        net::TcpRuntime rt(placed.cluster, tp);
        outcome = repair::execute_resilient_with(rt, problem, *planner,
                                                 stripe, ropts);
        std::printf("link model: real TCP loopback (time-scale %.0fx)\n",
                    time_scale);
        std::printf("wall-clock time   : %.3f s (%.2f s at link speed)\n",
                    outcome.total_time_s, outcome.total_time_s * time_scale);
      } else {
        outcome = repair::simulate_resilient(problem, *planner, stripe,
                                             params, chaos, ropts);
        std::printf("link model: store-and-forward ports\n");
        std::printf("total repair time : %.2f s\n", outcome.total_time_s);
      }
      used_matrix = outcome.used_decoding_matrix;
      std::printf("re-plans          : %zu\n", outcome.replans);
      std::printf("retries           : %zu\n", outcome.retries);
      std::printf("faults injected   : %zu\n", outcome.faults_injected);
      std::printf("reused values     : %zu\n", outcome.reused_values);
      std::printf("scheme switches   : %zu\n", outcome.scheme_switches);
      std::printf("partition waits   : %zu\n", outcome.partition_waits);
      if (tcp) {
        std::printf("cross-rack traffic: %.1f MB\n",
                    static_cast<double>(outcome.cross_rack_bytes) / 1e6);
        std::printf("inner-rack traffic: %.1f MB\n",
                    static_cast<double>(outcome.inner_rack_bytes) / 1e6);
        print_slice_latency(registry, "tcp");
        if (probe.metrics != nullptr) {
          registry.gauge("tcp.wall_time_s").set(outcome.total_time_s);
          registry.gauge("tcp.time_scale").set(time_scale);
          registry.counter("tcp.cross_rack_bytes")
              .add(outcome.cross_rack_bytes);
          registry.counter("tcp.inner_rack_bytes")
              .add(outcome.inner_rack_bytes);
        }
      } else {
        print_traffic(outcome.cross_rack_transfers, outcome.cross_rack_bytes,
                      outcome.inner_rack_transfers, outcome.inner_rack_bytes);
        if (probe.metrics != nullptr) print_sim_phase_latency(registry);
      }

      bool ok = outcome.outputs.size() == failed.size();
      for (std::size_t i = 0; ok && i < failed.size(); ++i) {
        ok = outcome.outputs[i] == stripe[failed[i]];
      }
      std::printf("rebuilt blocks    : %s\n",
                  ok ? "verified byte-identical" : "MISMATCH");
      if (!ok) {
        std::fprintf(stderr,
                     "error: rebuilt blocks differ from the originals\n");
        return 1;
      }
    }
    std::printf("decoding matrix   : %s\n",
                used_matrix ? "built" : "avoided (XOR path)");

    if (critpath) {
      report_critical_path(recorder, placed.cluster, probe.metrics);
    }
    sinks.write(recorder, registry);
    return 0;
  } catch (const repair::ReplanBudgetExhausted& e) {
    // The chaos schedule outran the re-plan budget: the repair is abandoned
    // coherently. Print what the session salvaged (an operator could feed
    // the banked partials into a manual recovery) and exit "impossible".
    std::fprintf(stderr, "error: %s\n", e.what());
    std::fprintf(stderr, "%s\n", e.report().c_str());
    std::fprintf(stderr,
                 "salvaged: %zu banked value(s), %.1f MB across %zu "
                 "re-plan(s)\n",
                 e.salvaged_values(),
                 static_cast<double>(e.salvaged_bytes()) / 1e6, e.replans());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
