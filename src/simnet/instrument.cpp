#include "simnet/instrument.h"

#include <algorithm>
#include <string>
#include <vector>

namespace rpr::simnet {

namespace {

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

std::string span_name(const TaskStats& t, const std::string& label) {
  std::string name;
  if (t.kind == TaskKind::kTransfer) {
    name = t.cross_rack ? "cross-rack transfer" : "inner-rack transfer";
  } else {
    name = "compute";
  }
  if (!label.empty()) name += " [" + label + "]";
  return name;
}

}  // namespace

Phase phase_of_label(const std::string& label, bool is_transfer,
                     bool cross_rack) {
  if (starts_with(label, "inner:")) return Phase::kInner;
  if (starts_with(label, "cross:")) return Phase::kCross;
  if (starts_with(label, "decode") || starts_with(label, "finalize")) {
    return Phase::kDecode;
  }
  if (starts_with(label, "read")) return Phase::kRead;
  if (is_transfer) return cross_rack ? Phase::kCross : Phase::kInner;
  return Phase::kOther;
}

Phase phase_of(const RunResult& result, TaskId id) {
  const TaskStats& t = result.tasks[id];
  return phase_of_label(result.label(id), t.kind == TaskKind::kTransfer,
                        t.cross_rack);
}

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kRead: return "read";
    case Phase::kInner: return "inner";
    case Phase::kCross: return "cross";
    case Phase::kDecode: return "decode";
    case Phase::kOther: return "other";
  }
  return "other";
}

const PhaseStats& PhaseBreakdown::of(Phase p) const {
  switch (p) {
    case Phase::kRead: return read;
    case Phase::kInner: return inner;
    case Phase::kCross: return cross;
    case Phase::kDecode: return decode;
    case Phase::kOther: return other;
  }
  return other;
}

PhaseStats& PhaseBreakdown::of(Phase p) {
  switch (p) {
    case Phase::kRead: return read;
    case Phase::kInner: return inner;
    case Phase::kCross: return cross;
    case Phase::kDecode: return decode;
    case Phase::kOther: return other;
  }
  return other;
}

PhaseBreakdown phase_breakdown(const RunResult& result) {
  PhaseBreakdown out;
  for (TaskId id = 0; id < result.tasks.size(); ++id) {
    const TaskStats& t = result.tasks[id];
    PhaseStats& s = out.of(phase_of(result, id));
    if (s.tasks == 0 || t.start < s.first_start) s.first_start = t.start;
    s.last_finish = std::max(s.last_finish, t.finish);
    s.busy += t.finish - t.start;
    s.bytes += t.kind == TaskKind::kTransfer ? t.bytes : 0;
    ++s.tasks;
  }
  return out;
}

void record_spans(const RunResult& result, const topology::Cluster& cluster,
                  obs::Recorder& rec) {
  for (topology::NodeId n = 0; n < cluster.total_nodes(); ++n) {
    rec.set_track_name(n, "rack " + std::to_string(cluster.rack_of(n)) +
                              " / node " + std::to_string(n));
  }
  // One id per task, from a contiguous block so ids stay unique when
  // several runs (e.g. resilient re-plans) share the recorder.
  const obs::SpanId base = rec.reserve_span_ids(result.tasks.size());
  for (std::size_t id = 0; id < result.tasks.size(); ++id) {
    const TaskStats& t = result.tasks[id];
    obs::Span s;
    const Phase phase = phase_of(result, id);
    s.name = span_name(t, result.label(id));
    s.category = phase_name(phase);
    s.track = t.node;
    s.start_ns = t.start;
    s.dur_ns = t.finish - t.start;
    s.bytes = t.bytes;
    s.span_id = base + id;
    s.op = t.op;
    s.slice = t.slice;
    if (t.kind == TaskKind::kTransfer) {
      s.kind = t.from == t.node ? obs::SpanKind::kOther
               : t.cross_rack  ? obs::SpanKind::kTransferCross
                               : obs::SpanKind::kTransferInner;
    } else {
      s.kind = phase == Phase::kRead ? obs::SpanKind::kRead
                                           : obs::SpanKind::kCompute;
    }
    s.args.emplace_back("task", static_cast<double>(id));
    if (t.start > t.ready) {
      s.args.emplace_back("queue_wait_s", util::to_sec(t.start - t.ready));
    }
    rec.add_span(std::move(s));
    for (const TaskId d : result.deps(id)) rec.add_flow(base + d, base + id);
  }
}

void record_metrics(const RunResult& result, const topology::Cluster& cluster,
                    obs::MetricsRegistry& reg) {
  reg.gauge("sim.makespan_s").set(util::to_sec(result.makespan));
  reg.counter("sim.tasks").add(result.tasks.size());
  reg.counter("sim.start_attempts").add(result.start_attempts);
  reg.counter("sim.cross_rack_bytes").add(result.cross_rack_bytes);
  reg.counter("sim.inner_rack_bytes").add(result.inner_rack_bytes);
  reg.counter("sim.cross_rack_transfers").add(result.cross_rack_transfers);
  reg.counter("sim.inner_rack_transfers").add(result.inner_rack_transfers);
  for (topology::RackId r = 0; r < result.rack_upload_bytes.size(); ++r) {
    const std::string prefix = "sim.rack." + std::to_string(r);
    reg.counter(prefix + ".upload_bytes").add(result.rack_upload_bytes[r]);
    reg.counter(prefix + ".download_bytes")
        .add(result.rack_download_bytes[r]);
  }

  // Port busy time, reconstructed from the task intervals: a transfer holds
  // the sender's TX and receiver's RX (plus both rack uplink channels when
  // crossing) for its whole duration; a compute holds its node's CPU. Busy
  // time is reported on the receiving side only: RX and CPU per node, the
  // downlink per rack.
  std::vector<util::SimTime> node_rx(cluster.total_nodes(), 0);
  std::vector<util::SimTime> node_cpu(cluster.total_nodes(), 0);
  std::vector<util::SimTime> rack_rx(cluster.racks(), 0);
  obs::Histogram& wait = reg.histogram("sim.queue_wait_s");
  obs::Histogram& inner_dur = reg.histogram("sim.inner_transfer_s");
  obs::Histogram& cross_dur = reg.histogram("sim.cross_transfer_s");
  obs::Histogram& compute_dur = reg.histogram("sim.compute_s");
  for (const TaskStats& t : result.tasks) {
    const util::SimTime dur = t.finish - t.start;
    wait.observe(util::to_sec(t.start - t.ready));
    if (t.kind == TaskKind::kTransfer) {
      (t.cross_rack ? cross_dur : inner_dur).observe(util::to_sec(dur));
      node_rx[t.node] += dur;
      if (t.cross_rack) rack_rx[cluster.rack_of(t.node)] += dur;
    } else {
      compute_dur.observe(util::to_sec(dur));
      node_cpu[t.node] += dur;
    }
  }
  const double makespan_s = util::to_sec(result.makespan);
  for (topology::NodeId n = 0; n < cluster.total_nodes(); ++n) {
    if (node_rx[n] == 0 && node_cpu[n] == 0) continue;
    const std::string prefix = "sim.node." + std::to_string(n);
    reg.gauge(prefix + ".rx_busy_s").set(util::to_sec(node_rx[n]));
    reg.gauge(prefix + ".cpu_busy_s").set(util::to_sec(node_cpu[n]));
    if (makespan_s > 0) {
      reg.gauge(prefix + ".rx_utilization")
          .set(util::to_sec(node_rx[n]) / makespan_s);
    }
  }
  for (topology::RackId r = 0; r < cluster.racks(); ++r) {
    if (rack_rx[r] == 0) continue;
    reg.gauge("sim.rack." + std::to_string(r) + ".downlink_busy_s")
        .set(util::to_sec(rack_rx[r]));
  }

  const PhaseBreakdown phases = phase_breakdown(result);
  for (const Phase p : {Phase::kRead, Phase::kInner, Phase::kCross,
                        Phase::kDecode, Phase::kOther}) {
    const PhaseStats& s = phases.of(p);
    if (s.tasks == 0) continue;
    const std::string prefix = std::string("sim.phase.") + phase_name(p);
    reg.counter(prefix + ".tasks").add(s.tasks);
    reg.counter(prefix + ".bytes").add(s.bytes);
    reg.gauge(prefix + ".busy_s").set(util::to_sec(s.busy));
    reg.gauge(prefix + ".span_s").set(util::to_sec(s.span()));
  }
}

void record_run(const RunResult& result, const topology::Cluster& cluster,
                const obs::Probe& probe) {
  if (probe.trace != nullptr) record_spans(result, cluster, *probe.trace);
  if (probe.metrics != nullptr) record_metrics(result, cluster, *probe.metrics);
}

}  // namespace rpr::simnet
