// Internal helper: wall-clock span recording for runtime::Executor (the
// engine under runtime::Testbed and net::TcpRuntime).
//
// The executor runs the same RepairPlan ops the simulators lower, one
// thread per op; this header turns each executed op into an obs::Span on
// the same track layout the simulators use (transfers on the receiving
// node's row, computes on their own node's row), so a simulated and a real
// trace of one plan line up row-for-row in Perfetto.
#pragma once

#include <chrono>
#include <string>

#include "obs/recorder.h"
#include "repair/plan.h"
#include "simnet/instrument.h"
#include "topology/cluster.h"

namespace rpr::runtime::detail {

using TraceClock = std::chrono::steady_clock;

/// Names one recorder track per cluster node. No-op on a null recorder.
inline void name_node_tracks(const topology::Cluster& cluster,
                             obs::Recorder* rec) {
  if (rec == nullptr) return;
  for (topology::NodeId n = 0; n < cluster.total_nodes(); ++n) {
    rec->set_track_name(n, "rack " + std::to_string(cluster.rack_of(n)) +
                               " / node " + std::to_string(n));
  }
}

/// Records one executed plan op as a span. `bytes` is the payload size the
/// op touched (block size for transfers, total region-pass bytes for
/// combines); throughput is derived from it and the measured duration.
///
/// `span_base` is the id block the engine reserved for this plan
/// (reserve_span_ids(plan.ops.size()); 0 = no DAG identity): the op's span
/// gets id `span_base + id` and a causal flow edge from each of its inputs,
/// so Perfetto draws the op chains and the critical-path analyzer can
/// rebuild the repair DAG. `stall_ns` is retry/straggler stall wall time
/// the span contains; attribution charges it to the stall category.
inline void record_op_span(obs::Recorder* rec, const repair::PlanOp& op,
                           repair::OpId id, const topology::Cluster& cluster,
                           TraceClock::time_point run_start,
                           TraceClock::time_point start,
                           TraceClock::time_point finish,
                           std::uint64_t bytes, obs::SpanId span_base = 0,
                           std::int64_t stall_ns = 0) {
  if (rec == nullptr) return;
  const bool is_transfer =
      op.kind == repair::OpKind::kSend && op.from != op.node;
  const bool cross =
      is_transfer && cluster.rack_of(op.from) != cluster.rack_of(op.node);

  obs::Span s;
  switch (op.kind) {
    case repair::OpKind::kRead:
      s.name = "read";
      break;
    case repair::OpKind::kSend:
      s.name = !is_transfer          ? "local move"
               : cross               ? "cross-rack transfer"
                                     : "inner-rack transfer";
      break;
    case repair::OpKind::kCombine:
      s.name = "combine";
      break;
  }
  if (!op.label.empty()) s.name += " [" + op.label + "]";
  s.category = simnet::phase_name(
      simnet::phase_of_label(op.label, is_transfer, cross));
  s.track = op.node;
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   start - run_start)
                   .count();
  s.dur_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(finish - start)
          .count();
  s.bytes = bytes;
  s.op = static_cast<std::int64_t>(id);
  s.stall_ns = stall_ns;
  switch (op.kind) {
    case repair::OpKind::kRead:
      s.kind = obs::SpanKind::kRead;
      break;
    case repair::OpKind::kSend:
      s.kind = !is_transfer ? obs::SpanKind::kOther
               : cross      ? obs::SpanKind::kTransferCross
                            : obs::SpanKind::kTransferInner;
      break;
    case repair::OpKind::kCombine:
      s.kind = obs::SpanKind::kCompute;
      break;
  }
  if (span_base != 0) s.span_id = span_base + id;
  if (bytes > 0 && s.dur_ns > 0) {
    const double mbps = static_cast<double>(bytes) /
                        (static_cast<double>(s.dur_ns) / 1e9) / 1e6;
    s.args.emplace_back(
        op.kind == repair::OpKind::kCombine ? "gf_MBps" : "throughput_MBps",
        mbps);
  }
  rec->add_span(std::move(s));
  if (span_base != 0) {
    for (const repair::OpId in : op.inputs) {
      rec->add_flow(span_base + in, span_base + id);
    }
  }
}

}  // namespace rpr::runtime::detail
