// Bridges simulator results into the rpr::obs telemetry layer.
//
// Everything here is derived *after* a run from the per-task stats the
// simulators already collect (TaskStats carries ready/start/finish, bytes
// and the cross-rack flag), so the simulators' hot loops stay untouched and
// a disabled probe costs nothing.
//
// Phase attribution keys off task labels, mirroring the paper's three-stage
// decomposition of a repair (inner aggregation -> cross-rack pipeline ->
// final decode): labels carry an "inner:" / "cross:" prefix placed by the
// planners' reduction helpers, "finalize"/"decode" marks the final combine,
// and unlabeled transfers fall back to their cross-rack flag.
#pragma once

#include "obs/metrics.h"
#include "obs/recorder.h"
#include "simnet/simnet.h"

namespace rpr::simnet {

enum class Phase { kRead, kInner, kCross, kDecode, kOther };

[[nodiscard]] Phase phase_of(const RunResult& result, TaskId id);
/// Label-only variant shared with the wall-clock executors (testbed, TCP
/// runtime), which classify plan ops rather than simulator tasks.
[[nodiscard]] Phase phase_of_label(const std::string& label, bool is_transfer,
                                   bool cross_rack);
[[nodiscard]] const char* phase_name(Phase p);

struct PhaseStats {
  std::size_t tasks = 0;
  std::uint64_t bytes = 0;
  /// Sum of task durations (resource-seconds, may exceed wall time).
  util::SimTime busy = 0;
  /// Earliest start / latest finish over the phase's tasks.
  util::SimTime first_start = 0;
  util::SimTime last_finish = 0;

  /// Wall-clock extent of the phase (last finish - first start).
  [[nodiscard]] util::SimTime span() const {
    return tasks == 0 ? 0 : last_finish - first_start;
  }
};

/// Per-phase decomposition of a run: where the makespan went.
struct PhaseBreakdown {
  PhaseStats read, inner, cross, decode, other;

  [[nodiscard]] const PhaseStats& of(Phase p) const;
  [[nodiscard]] PhaseStats& of(Phase p);
};

[[nodiscard]] PhaseBreakdown phase_breakdown(const RunResult& result);

/// Converts every task into a recorder span: transfers land on the
/// receiving node's track, computes on their node's, categories carry the
/// phase. Also names one track per cluster node ("rack r / node n").
void record_spans(const RunResult& result, const topology::Cluster& cluster,
                  obs::Recorder& rec);

/// Snapshots a run into the registry under the "sim." prefix: traffic
/// counters, per-rack upload/download, per-node and per-rack port busy
/// gauges, queue-wait and duration histograms, per-phase gauges, and the
/// simulator's own cost (sim.start_attempts).
void record_metrics(const RunResult& result, const topology::Cluster& cluster,
                    obs::MetricsRegistry& reg);

/// record_spans + record_metrics for whichever halves of `probe` are set.
void record_run(const RunResult& result, const topology::Cluster& cluster,
                const obs::Probe& probe);

}  // namespace rpr::simnet
