#include "simnet/fluid.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>

namespace rpr::simnet {

using topology::NodeId;
using topology::RackId;
using util::SimTime;

FluidNetwork::FluidNetwork(topology::Cluster cluster,
                           topology::NetworkParams params)
    : cluster_(cluster), params_(params) {
  if (!params_.inner.valid() || !params_.cross.valid()) {
    throw std::invalid_argument("FluidNetwork: bandwidths must be positive");
  }
}

TaskId FluidNetwork::add_transfer(NodeId from, NodeId to, std::uint64_t bytes,
                                  const std::vector<TaskId>& deps,
                                  std::string_view label) {
  const TaskId id = tasks_.add_transfer(cluster_, from, to, bytes, deps, label);
  remaining_.push_back(static_cast<double>(bytes));
  return id;
}

TaskId FluidNetwork::add_compute(NodeId at, SimTime duration,
                                 const std::vector<TaskId>& deps,
                                 std::string_view label) {
  const TaskId id = tasks_.add_compute(cluster_, at, duration, deps, label);
  remaining_.push_back(util::to_sec(duration));  // cpu-seconds
  return id;
}

void FluidNetwork::tag_task(TaskId id, std::int64_t op, std::int64_t slice) {
  tasks_.tag(id, op, slice);
}

SimTime FluidNetwork::decode_duration(std::uint64_t bytes,
                                      bool with_matrix) const {
  if (!params_.charge_compute) return 0;
  const auto& speed =
      with_matrix ? params_.decode_with_matrix : params_.decode_xor;
  return speed.time_for(bytes);
}

namespace {

// Resource index space: node TX | node RX | rack TX | rack RX | node CPU.
struct ResourceMap {
  std::size_t nodes, racks;
  explicit ResourceMap(const topology::Cluster& c)
      : nodes(c.total_nodes()), racks(c.racks()) {}
  [[nodiscard]] std::size_t node_tx(NodeId n) const { return n; }
  [[nodiscard]] std::size_t node_rx(NodeId n) const { return nodes + n; }
  [[nodiscard]] std::size_t rack_tx(RackId r) const { return 2 * nodes + r; }
  [[nodiscard]] std::size_t rack_rx(RackId r) const {
    return 2 * nodes + racks + r;
  }
  [[nodiscard]] std::size_t cpu(NodeId n) const {
    return 2 * nodes + 2 * racks + n;
  }
  [[nodiscard]] std::size_t total() const { return 3 * nodes + 2 * racks; }
};

constexpr double kEps = 1e-9;

}  // namespace

RunResult FluidNetwork::run() {
  if (ran_) {
    throw std::logic_error("FluidNetwork::run may only be called once");
  }
  ran_ = true;

  const ResourceMap rmap(cluster_);
  std::vector<double> capacity(rmap.total());
  for (NodeId n = 0; n < cluster_.total_nodes(); ++n) {
    capacity[rmap.node_tx(n)] = params_.inner.as_bytes_per_sec();
    capacity[rmap.node_rx(n)] = params_.inner.as_bytes_per_sec();
    capacity[rmap.cpu(n)] = 1.0;  // one cpu-second per second
  }
  for (RackId r = 0; r < cluster_.racks(); ++r) {
    capacity[rmap.rack_tx(r)] = params_.cross.as_bytes_per_sec();
    capacity[rmap.rack_rx(r)] = params_.cross.as_bytes_per_sec();
  }

  // Resources each task occupies while active.
  auto resources_of = [&](const TaskStats& t) {
    std::vector<std::size_t> out;
    if (t.kind == TaskKind::kCompute) {
      out.push_back(rmap.cpu(t.from));
      return out;
    }
    if (t.from == t.node) return out;  // local move: free
    out.push_back(rmap.node_tx(t.from));
    out.push_back(rmap.node_rx(t.node));
    const RackId rf = cluster_.rack_of(t.from);
    const RackId rt = cluster_.rack_of(t.node);
    if (rf != rt) {
      out.push_back(rmap.rack_tx(rf));
      out.push_back(rmap.rack_rx(rt));
    }
    return out;
  };

  RunResult& result = tasks_.result();
  result.rack_upload_bytes.assign(cluster_.racks(), 0);
  result.rack_download_bytes.assign(cluster_.racks(), 0);

  std::vector<TaskId> active;
  std::vector<TaskId> newly_ready;
  std::size_t completed = 0;
  double now = 0.0;

  // Rack-uplink bandwidth sampling: one sample per rate re-solve, emitted
  // only when a series' value changes (Chrome counter plots render steps).
  std::vector<double> last_tx(cluster_.racks(),
                              -std::numeric_limits<double>::infinity());
  std::vector<double> last_rx(cluster_.racks(),
                              -std::numeric_limits<double>::infinity());
  auto sample_uplinks = [&](const std::vector<double>& rate) {
    if (recorder_ == nullptr) return;
    std::vector<double> tx(cluster_.racks(), 0.0);
    std::vector<double> rx(cluster_.racks(), 0.0);
    for (TaskId id : active) {
      const TaskStats& t = tasks_[id];
      if (t.kind != TaskKind::kTransfer || t.from == t.node) continue;
      const RackId rf = cluster_.rack_of(t.from);
      const RackId rt = cluster_.rack_of(t.node);
      if (rf == rt || !std::isfinite(rate[id])) continue;
      tx[rf] += rate[id];
      rx[rt] += rate[id];
    }
    const auto t_ns = static_cast<std::int64_t>(now * 1e9);
    for (RackId r = 0; r < cluster_.racks(); ++r) {
      const double tx_gbps = tx[r] * 8.0 / 1e9;
      const double rx_gbps = rx[r] * 8.0 / 1e9;
      if (tx_gbps != last_tx[r]) {
        recorder_->add_sample({"rack " + std::to_string(r) + " uplink tx Gb/s",
                               t_ns, tx_gbps});
        last_tx[r] = tx_gbps;
      }
      if (rx_gbps != last_rx[r]) {
        recorder_->add_sample({"rack " + std::to_string(r) + " uplink rx Gb/s",
                               t_ns, rx_gbps});
        last_rx[r] = rx_gbps;
      }
    }
  };

  auto record_start = [&](TaskId id) {
    TaskStats& st = tasks_[id];
    st.ready = static_cast<SimTime>(now * 1e9);
    st.start = st.ready;
  };

  std::vector<std::size_t> unmet(tasks_.size());
  auto finish_task = [&](TaskId id) {
    TaskStats& st = tasks_[id];
    st.finish = static_cast<SimTime>(now * 1e9);
    if (st.kind == TaskKind::kTransfer && st.from != st.node) {
      const RackId rf = cluster_.rack_of(st.from);
      const RackId rt = cluster_.rack_of(st.node);
      if (rf != rt) {
        result.cross_rack_bytes += st.bytes;
        ++result.cross_rack_transfers;
        result.rack_upload_bytes[rf] += st.bytes;
        result.rack_download_bytes[rt] += st.bytes;
      } else {
        result.inner_rack_bytes += st.bytes;
        ++result.inner_rack_transfers;
      }
    }
    ++completed;
    tasks_.for_each_dependent(id, [&](TaskId dep) {
      if (--unmet[dep] == 0) newly_ready.push_back(dep);
    });
  };

  for (TaskId id = 0; id < tasks_.size(); ++id) {
    unmet[id] = tasks_.deps(id).size();
    if (unmet[id] == 0) newly_ready.push_back(id);
  }

  while (true) {
    // Absorb ready tasks; zero-cost ones complete immediately (may cascade).
    while (!newly_ready.empty()) {
      std::sort(newly_ready.begin(), newly_ready.end());
      std::vector<TaskId> batch;
      batch.swap(newly_ready);
      for (TaskId id : batch) {
        record_start(id);
        const TaskStats& t = tasks_[id];
        const bool instant =
            remaining_[id] <= kEps ||
            (t.kind == TaskKind::kTransfer && t.from == t.node);
        if (instant) {
          finish_task(id);
        } else {
          active.push_back(id);
        }
      }
    }
    if (active.empty()) break;

    // Max-min fair rates by water-filling.
    std::vector<double> rate(tasks_.size(), 0.0);
    std::vector<char> fixed(tasks_.size(), 0);
    std::vector<double> cap = capacity;
    // Member lists per resource for the active set.
    std::map<std::size_t, std::vector<TaskId>> members;
    std::vector<TaskId> unconstrained;  // e.g. nothing uses a resource
    for (TaskId id : active) {
      const auto res = resources_of(tasks_[id]);
      if (res.empty()) {
        unconstrained.push_back(id);
        continue;
      }
      for (const auto r : res) members[r].push_back(id);
    }
    for (TaskId id : unconstrained) {
      rate[id] = std::numeric_limits<double>::infinity();
      fixed[id] = 1;
    }
    for (;;) {
      // Find the tightest resource among those with unfixed members.
      double best_share = std::numeric_limits<double>::infinity();
      std::size_t best_res = SIZE_MAX;
      for (const auto& [r, flows] : members) {
        std::size_t unfixed = 0;
        for (TaskId id : flows) {
          if (!fixed[id]) ++unfixed;
        }
        if (unfixed == 0) continue;
        const double share = cap[r] / static_cast<double>(unfixed);
        if (share < best_share) {
          best_share = share;
          best_res = r;
        }
      }
      if (best_res == SIZE_MAX) break;
      for (TaskId id : members[best_res]) {
        if (fixed[id]) continue;
        fixed[id] = 1;
        rate[id] = best_share;
        for (const auto r : resources_of(tasks_[id])) {
          cap[r] = std::max(0.0, cap[r] - best_share);
        }
      }
    }

    sample_uplinks(rate);

    // Advance to the earliest completion.
    double dt = std::numeric_limits<double>::infinity();
    for (TaskId id : active) {
      if (rate[id] <= 0) continue;  // fully starved: cannot happen with
                                    // positive capacities, defensive
      dt = std::min(dt, remaining_[id] / rate[id]);
    }
    if (!std::isfinite(dt)) {
      // All remaining active tasks are unconstrained/instant.
      dt = 0.0;
    }
    now += dt;
    std::vector<TaskId> still_active;
    for (TaskId id : active) {
      double& left = remaining_[id];
      if (std::isinf(rate[id])) {
        left = 0.0;
      } else {
        left -= rate[id] * dt;
      }
      if (left <= kEps * std::max(1.0, rate[id])) {
        finish_task(id);
      } else {
        still_active.push_back(id);
      }
    }
    active.swap(still_active);
  }

  if (completed != tasks_.size()) {
    throw std::logic_error(
        "FluidNetwork::run: task graph has a cycle or unreachable tasks");
  }
  // Close every sampled series at the makespan (active is empty here).
  sample_uplinks(std::vector<double>(tasks_.size(), 0.0));
  result.makespan = static_cast<SimTime>(now * 1e9);
  result.store_bytes = tasks_.bytes() + remaining_.size() * sizeof(double) +
                       unmet.size() * sizeof(std::size_t);
  return std::move(result);
}

}  // namespace rpr::simnet
