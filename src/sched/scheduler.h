// Fleet repair scheduler: admission control, bandwidth arbitration and
// degraded reads over the discrete-event port model. It is the one fleet
// entry point.
//
// Production repair damages stripes over time, a controller bounds how
// many repair concurrently so the wave does not flatten user traffic, a
// bandwidth arbiter caps the repair class's share of every port, and a
// client read of a lost block is served *from the repair in flight* (its
// published slice prefix) or by promoting a one-equation degraded-read plan
// to the front of the queue — never by waiting for the whole stripe to
// commit. The planning question "how long does a recovery wave take when
// every plan is dumped into the network at once" is the degenerate case:
// every stripe arriving at t=0, max_inflight = SIZE_MAX, repair_share 1
// and no reads.
//
// The scheduler drives one SimNetwork reactively through its finish hook:
// arrival timers model the failure/read processes, admission lowers a
// stripe's plan into the running simulation when a slot frees up, and
// degraded reads are resolved against the live repair state at the instant
// the read arrives. Everything is deterministic given the workload seed.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "obs/recorder.h"
#include "repair/planner.h"
#include "simnet/simnet.h"
#include "topology/cluster.h"

namespace rpr::sched {

/// How a client read of a *lost* block is answered.
enum class DegradedPolicy {
  /// Baseline: block until the stripe's repair commits, then transfer the
  /// rebuilt block. What you get with no degraded-read path at all.
  kWaitForCommit,
  /// Serve from the in-flight repair's published slice prefix (banked
  /// streaming), or promote a high-priority one-block DegradedReadPlanner
  /// plan when the repair has not been admitted yet.
  kServe,
};

/// How each completed read was ultimately answered.
enum class ReadPath : std::uint8_t {
  kHealthy = 0,    ///< block was never lost: direct transfer from its owner
  kCommitted,      ///< repair already committed: transfer from replacement
  kBanked,         ///< streamed slice-by-slice from the in-flight repair
  kPromoted,       ///< dedicated degraded-read plan jumped the queue
  kCommitWait,     ///< kWaitForCommit baseline path
};
inline constexpr std::size_t kReadPathCount = 5;
[[nodiscard]] const char* read_path_name(ReadPath p);

/// A damaged stripe entering the repair queue.
struct StripeArrival {
  repair::RepairProblem problem;
  double arrival_s = 0.0;
  /// Base admission priority (higher first). Aging is added on top; see
  /// SchedulerOptions::aging_priority_per_s.
  int priority = 0;
};

/// One explicit client read (bench probes use this to hit lost blocks at
/// controlled instants).
struct ReadEvent {
  double time_s = 0.0;
  std::size_t stripe = 0;  ///< index into FleetWorkload::stripes
  std::size_t block = 0;   ///< block index within the stripe
  topology::NodeId reader = 0;
};

/// Synthetic foreground read load: `qps` reads per second for
/// `duration_s`, each from a seeded-uniform (stripe, block) to a
/// seeded-uniform reader node. Reads that land on a lost block take the
/// degraded path; the rest measure foreground latency under repair load.
struct ForegroundWorkload {
  double qps = 0.0;
  double duration_s = 0.0;
  /// Bytes per healthy read; 0 = the stripe's block size.
  std::uint64_t read_size = 0;
  std::uint64_t seed = 1;
};

struct FleetWorkload {
  std::vector<StripeArrival> stripes;
  ForegroundWorkload foreground;
  std::vector<ReadEvent> reads;
};

struct SchedulerOptions {
  /// Maximum stripes repairing concurrently; further arrivals queue.
  std::size_t max_inflight = 4;
  /// Repair class's port share in (0,1]; < 1 installs the simnet arbiter.
  double repair_share = 1.0;
  repair::Scheme scheme = repair::Scheme::kRpr;
  /// Pick star (kRpr) vs chained (kRprChained) per stripe with
  /// analysis::choose_star_or_chain instead of using `scheme`.
  bool auto_scheme = false;
  /// Priority points a queued stripe gains per second waited. > 0 makes
  /// admission starvation-free: any base-priority deficit is eventually
  /// outgrown. 0 = strict base-priority order.
  double aging_priority_per_s = 1.0;
  std::size_t slice_size = 0;  ///< 0 = whole-block lowering
  DegradedPolicy degraded = DegradedPolicy::kServe;
  obs::Probe probe;
};

/// One completed read, in arrival order.
struct ReadRecord {
  double arrival_s = 0.0;
  double latency_s = 0.0;
  ReadPath path = ReadPath::kHealthy;
  std::size_t stripe = 0;
  std::size_t block = 0;
};

struct FleetSchedOutcome {
  /// End of the whole simulation (last repair commit or read completion).
  double makespan_s = 0.0;
  /// Time the last repair committed.
  double last_commit_s = 0.0;

  /// Per-stripe results, indexed like FleetWorkload::stripes.
  std::vector<double> admission_wait_s;   ///< admit - arrival
  std::vector<double> completion_s;       ///< commit time (absolute)
  std::vector<repair::Scheme> scheme_of;  ///< scheme actually planned
  double completion_p50_s = 0.0;
  double completion_p95_s = 0.0;
  double completion_p99_s = 0.0;

  /// Foreground (healthy-path) read latency percentiles.
  double foreground_p50_s = 0.0;
  double foreground_p95_s = 0.0;
  double foreground_p99_s = 0.0;
  /// Degraded (lost-block) read latency percentiles, over every
  /// non-healthy path.
  double degraded_p50_s = 0.0;
  double degraded_p99_s = 0.0;

  std::vector<ReadRecord> reads;
  std::size_t reads_by_path[kReadPathCount] = {};

  std::size_t max_queue_depth = 0;
  std::size_t auto_star_picks = 0;
  std::size_t auto_chained_picks = 0;

  std::uint64_t repair_bytes = 0;
  std::uint64_t foreground_bytes = 0;
  std::uint64_t cross_rack_bytes = 0;
  std::uint64_t inner_rack_bytes = 0;
  /// Cross-rack bytes uploaded / downloaded per rack, every traffic class
  /// (the load-balance evidence: traditional repair funnels downloads into
  /// the recovery rack, rack-aware schemes spread both directions).
  std::vector<std::uint64_t> rack_upload_bytes;
  std::vector<std::uint64_t> rack_download_bytes;
  /// Rebuilt bytes per wall second up to the last commit.
  double repair_throughput_bps = 0.0;
};

/// Runs the workload to completion on one simulated network.
///
/// Every stripe must reference a placement on `cluster`. Obs (when
/// options.probe is set): sched.admission_wait_s / sched.stripe_completion_s
/// / sched.foreground_latency_s / sched.degraded_read_latency_s histograms,
/// sched.queue_depth max-gauge, sched.repair_bytes / sched.foreground_bytes
/// / sched.reads.<path> / sched.auto.star / sched.auto.chained counters.
[[nodiscard]] FleetSchedOutcome run_fleet(const FleetWorkload& workload,
                                          const topology::Cluster& cluster,
                                          const topology::NetworkParams& params,
                                          const SchedulerOptions& options);

}  // namespace rpr::sched
