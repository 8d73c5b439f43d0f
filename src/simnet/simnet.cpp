#include "simnet/simnet.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>

#include "util/contracts.h"

namespace rpr::simnet {

using topology::NodeId;
using topology::RackId;
using util::SimTime;

SimNetwork::SimNetwork(topology::Cluster cluster,
                       topology::NetworkParams params)
    : cluster_(cluster), params_(params) {
  if (!params_.inner.valid() || !params_.cross.valid()) {
    throw std::invalid_argument("SimNetwork: bandwidths must be positive");
  }
}

TaskId SimNetwork::add_task(Task t) {
  for (TaskId d : t.deps) {
    if (d >= tasks_.size()) {
      throw std::invalid_argument("SimNetwork: dependency on unknown task");
    }
  }
  t.unmet_deps = t.deps.size();
  const TaskId id = tasks_.size();
  tasks_.push_back(std::move(t));
  for (TaskId d : tasks_.back().deps) {
    tasks_[d].dependents.push_back(id);
  }
  return id;
}

TaskId SimNetwork::add_transfer(NodeId from, NodeId to, std::uint64_t bytes,
                                std::vector<TaskId> deps, std::string label) {
  if (from >= cluster_.total_nodes() || to >= cluster_.total_nodes()) {
    throw std::invalid_argument("add_transfer: node out of range");
  }
  Task t;
  t.kind = TaskKind::kTransfer;
  t.from = from;
  t.to = to;
  t.bytes = bytes;
  t.deps = std::move(deps);
  t.label = std::move(label);
  return add_task(std::move(t));
}

TaskId SimNetwork::add_compute(NodeId at, SimTime duration,
                               std::vector<TaskId> deps, std::string label) {
  if (at >= cluster_.total_nodes()) {
    throw std::invalid_argument("add_compute: node out of range");
  }
  Task t;
  t.kind = TaskKind::kCompute;
  t.from = at;
  t.to = at;
  t.duration = duration;
  t.deps = std::move(deps);
  t.label = std::move(label);
  return add_task(std::move(t));
}

void SimNetwork::tag_task(TaskId id, std::int64_t op, std::int64_t slice) {
  if (id >= tasks_.size()) {
    throw std::invalid_argument("tag_task: unknown task");
  }
  tasks_[id].op = op;
  tasks_[id].slice = slice;
}

void SimNetwork::slow_node(NodeId node, double factor) {
  if (node >= cluster_.total_nodes()) {
    throw std::invalid_argument("slow_node: node out of range");
  }
  if (factor < 1.0) {
    throw std::invalid_argument("slow_node: factor must be >= 1");
  }
  if (tx_slowdown_.empty()) {
    tx_slowdown_.assign(cluster_.total_nodes(), 1.0);
  }
  tx_slowdown_[node] = factor;
}

void SimNetwork::set_class(TaskId id, TrafficClass cls) {
  if (id >= tasks_.size()) {
    throw std::invalid_argument("set_class: unknown task");
  }
  tasks_[id].cls = cls;
}

void SimNetwork::set_priority(TaskId id, int priority) {
  if (id >= tasks_.size()) {
    throw std::invalid_argument("set_priority: unknown task");
  }
  tasks_[id].priority = priority;
}

void SimNetwork::set_earliest_start(TaskId id, SimTime at) {
  if (id >= tasks_.size()) {
    throw std::invalid_argument("set_earliest_start: unknown task");
  }
  tasks_[id].earliest_start = at;
}

void SimNetwork::set_arbiter(ArbiterConfig cfg) {
  if (!(cfg.repair_share > 0.0) || cfg.repair_share > 1.0) {
    throw std::invalid_argument("set_arbiter: repair_share must be in (0,1]");
  }
  arbiter_ = cfg;
  arbiter_enabled_ = cfg.repair_share < 1.0;
}

void SimNetwork::set_finish_hook(FinishHook hook) {
  finish_hook_ = std::move(hook);
}

void SimNetwork::slow_compute(NodeId node, double factor) {
  if (node >= cluster_.total_nodes()) {
    throw std::invalid_argument("slow_compute: node out of range");
  }
  if (factor < 1.0) {
    throw std::invalid_argument("slow_compute: factor must be >= 1");
  }
  if (compute_slowdown_.empty()) {
    compute_slowdown_.assign(cluster_.total_nodes(), 1.0);
  }
  compute_slowdown_[node] = factor;
}

SimTime SimNetwork::decode_duration(std::uint64_t bytes,
                                    bool with_matrix) const {
  if (!params_.charge_compute) return 0;
  const auto& speed =
      with_matrix ? params_.decode_with_matrix : params_.decode_xor;
  return speed.time_for(bytes);
}

RunResult SimNetwork::run() {
  if (ran_) throw std::logic_error("SimNetwork::run may only be called once");
  ran_ = true;
  running_phase_ = true;

  // Port state: the time at which each port becomes free.
  std::vector<SimTime> node_tx(cluster_.total_nodes(), 0);
  std::vector<SimTime> node_rx(cluster_.total_nodes(), 0);
  std::vector<SimTime> node_cpu(cluster_.total_nodes(), 0);
  std::vector<SimTime> rack_tx(cluster_.racks(), 0);
  std::vector<SimTime> rack_rx(cluster_.racks(), 0);

  // Deficit token buckets for the repair class, one per port (node TX/RX
  // and rack cross TX/RX). `credit` is in port-nanoseconds, capped at 0;
  // see ArbiterConfig.
  struct Bucket {
    double credit = 0.0;
    SimTime last = 0;
  };
  std::vector<Bucket> tok_node_tx, tok_node_rx, tok_rack_tx, tok_rack_rx;
  if (arbiter_enabled_) {
    tok_node_tx.assign(cluster_.total_nodes(), Bucket{});
    tok_node_rx.assign(cluster_.total_nodes(), Bucket{});
    tok_rack_tx.assign(cluster_.racks(), Bucket{});
    tok_rack_rx.assign(cluster_.racks(), Bucket{});
  }
  const double rate = arbiter_.repair_share;  // credit ns per elapsed ns
  auto refill = [&](Bucket& b, SimTime now) {
    if (b.last < now) {
      b.credit = std::min(
          0.0, b.credit + static_cast<double>(now - b.last) * rate);
      b.last = now;
    }
  };

  RunResult result;
  result.tasks.resize(tasks_.size());
  result.rack_upload_bytes.assign(cluster_.racks(), 0);
  result.rack_download_bytes.assign(cluster_.racks(), 0);
  std::vector<char> done(tasks_.size(), 0);
  // Static identity is copied up front (timing fields are filled as tasks
  // are scheduled below). Tasks added mid-run by the finish hook get the
  // same treatment in integrate_new below.
  auto copy_identity = [&](TaskId id) {
    result.tasks[id].op = tasks_[id].op;
    result.tasks[id].slice = tasks_[id].slice;
    result.tasks[id].deps = tasks_[id].deps;
    result.tasks[id].cls = tasks_[id].cls;
    result.tasks[id].priority = tasks_[id].priority;
  };
  for (TaskId id = 0; id < tasks_.size(); ++id) copy_identity(id);

  struct Pending {
    SimTime ready;
    int priority;
    TaskId id;
    /// Start order: earliest ready first, then highest priority, then
    /// submission order. With default priorities this is the original
    /// FIFO-by-(ready, id) greedy order.
    bool operator<(const Pending& o) const {
      if (ready != o.ready) return ready < o.ready;
      if (priority != o.priority) return priority > o.priority;
      return id < o.id;
    }
  };
  std::vector<Pending> pending;  // min-heap by the order above

  struct Completion {
    SimTime finish;
    TaskId id;
    bool operator>(const Completion& o) const {
      return finish != o.finish ? finish > o.finish : id > o.id;
    }
  };
  std::priority_queue<Completion, std::vector<Completion>,
                      std::greater<Completion>>
      running;

  auto heap_less = [](const Pending& a, const Pending& b) { return b < a; };
  auto enqueue_ready = [&](TaskId id, SimTime when) {
    RPR_INVARIANT(tasks_[id].unmet_deps == 0,
                  "a task becomes ready only once all dependencies finished");
    result.tasks[id].ready = when;
    pending.push_back(Pending{when, tasks_[id].priority, id});
    std::push_heap(pending.begin(), pending.end(), heap_less);
  };

  for (TaskId id = 0; id < tasks_.size(); ++id) {
    if (tasks_[id].unmet_deps == 0) {
      enqueue_ready(id, tasks_[id].earliest_start);
    }
  }

  // pending is a min-heap on (ready, -priority, id); tasks whose ports are
  // busy are re-examined after every completion event. We pop into a
  // scratch list, attempt starts in order, and push back whatever could
  // not start. Tasks throttled by the arbiter are re-enqueued with their
  // token-availability time as the new ready time, so the event loop can
  // sleep until then instead of spinning.
  std::vector<Pending> blocked;

  auto try_start_all = [&](SimTime now) {
    blocked.clear();
    while (!pending.empty() && pending.front().ready <= now) {
      std::pop_heap(pending.begin(), pending.end(), heap_less);
      const Pending p = pending.back();
      pending.pop_back();

      Task& t = tasks_[p.id];
      TaskStats& st = result.tasks[p.id];
      st.kind = t.kind;
      st.label = t.label;
      st.bytes = t.bytes;
      st.node = t.to;
      st.from = t.from;

      if (t.kind == TaskKind::kCompute) {
        if (node_cpu[t.from] > now) {
          blocked.push_back(p);
          continue;
        }
        st.start = now;
        SimTime cduration = t.duration;
        if (!compute_slowdown_.empty() && compute_slowdown_[t.from] > 1.0) {
          cduration = static_cast<SimTime>(static_cast<double>(cduration) *
                                           compute_slowdown_[t.from]);
        }
        st.finish = now + cduration;
        node_cpu[t.from] = st.finish;
        running.push(Completion{st.finish, p.id});
        continue;
      }

      // Transfer.
      if (t.from == t.to) {  // local read: free and portless
        st.start = now;
        st.finish = now;
        running.push(Completion{now, p.id});
        continue;
      }
      const RackId rf = cluster_.rack_of(t.from);
      const RackId rt = cluster_.rack_of(t.to);
      const bool cross = rf != rt;
      st.cross_rack = cross;

      const bool ports_free =
          node_tx[t.from] <= now && node_rx[t.to] <= now &&
          (!cross || (rack_tx[rf] <= now && rack_rx[rt] <= now));
      if (!ports_free) {
        blocked.push_back(p);
        continue;
      }
      const util::Bandwidth bw = cross ? params_.cross : params_.inner;
      SimTime duration = bw.time_for(t.bytes);
      if (!tx_slowdown_.empty() && tx_slowdown_[t.from] > 1.0) {
        duration = static_cast<SimTime>(
            static_cast<double>(duration) * tx_slowdown_[t.from]);
      }

      if (arbiter_enabled_ && t.cls == TrafficClass::kRepair) {
        Bucket* buckets[4] = {&tok_node_tx[t.from], &tok_node_rx[t.to],
                              cross ? &tok_rack_tx[rf] : nullptr,
                              cross ? &tok_rack_rx[rt] : nullptr};
        double worst = 0.0;  // most negative credit across involved ports
        for (Bucket* b : buckets) {
          if (b == nullptr) continue;
          refill(*b, now);
          worst = std::min(worst, b->credit);
        }
        if (worst < 0.0) {
          const auto wait = static_cast<SimTime>(std::ceil(-worst / rate));
          if (wait > 0) {
            pending.push_back(Pending{now + wait, p.priority, p.id});
            std::push_heap(pending.begin(), pending.end(), heap_less);
            continue;
          }
        }
        for (Bucket* b : buckets) {
          if (b != nullptr) b->credit -= static_cast<double>(duration);
        }
      }

      st.start = now;
      st.finish = now + duration;
      node_tx[t.from] = st.finish;
      node_rx[t.to] = st.finish;
      if (cross) {
        rack_tx[rf] = st.finish;
        rack_rx[rt] = st.finish;
        result.cross_rack_bytes += t.bytes;
        ++result.cross_rack_transfers;
        result.rack_upload_bytes[rf] += t.bytes;
        result.rack_download_bytes[rt] += t.bytes;
      } else {
        result.inner_rack_bytes += t.bytes;
        ++result.inner_rack_transfers;
      }
      if (t.cls == TrafficClass::kRepair) {
        result.repair_bytes += t.bytes;
      } else {
        result.foreground_bytes += t.bytes;
      }
      running.push(Completion{st.finish, p.id});
    }
    for (const Pending& p : blocked) {
      pending.push_back(p);
      std::push_heap(pending.begin(), pending.end(), heap_less);
    }
  };

  // Integrates tasks the finish hook just added: count only unfinished
  // dependencies and enqueue the immediately-ready ones at `now` (or their
  // earliest_start if later).
  auto integrate_new = [&](std::size_t first_new, SimTime now) {
    if (tasks_.size() == first_new) return;
    result.tasks.resize(tasks_.size());
    done.resize(tasks_.size(), 0);
    for (TaskId id = first_new; id < tasks_.size(); ++id) {
      copy_identity(id);
      std::size_t unmet = 0;
      for (TaskId d : tasks_[id].deps) {
        if (!done[d]) ++unmet;
      }
      tasks_[id].unmet_deps = unmet;
      if (unmet == 0) {
        enqueue_ready(id, std::max(now, tasks_[id].earliest_start));
      }
    }
  };

  SimTime now = 0;
  try_start_all(now);
  std::size_t completed = 0;
  std::vector<TaskId> batch;
  while (!running.empty() || !pending.empty()) {
    // Next event: the earliest completion, or the earliest strictly-future
    // pending ready time (arrivals and arbiter-throttled tasks). Pending
    // tasks whose ready time has passed only unblock via completions.
    SimTime next = std::numeric_limits<SimTime>::max();
    if (!running.empty()) next = running.top().finish;
    if (!pending.empty() && pending.front().ready > now) {
      next = std::min(next, pending.front().ready);
    }
    if (next == std::numeric_limits<SimTime>::max()) break;
    RPR_INVARIANT(next >= now, "sim time must be monotonic");
    now = next;
    // Drain every completion at this instant before attempting new starts,
    // so simultaneous finishes release all their ports atomically.
    batch.clear();
    while (!running.empty() && running.top().finish == now) {
      const TaskId done_id = running.top().id;
      running.pop();
      ++completed;
      done[done_id] = 1;
      batch.push_back(done_id);
      for (TaskId dep : tasks_[done_id].dependents) {
        if (--tasks_[dep].unmet_deps == 0) {
          enqueue_ready(dep, std::max(now, tasks_[dep].earliest_start));
        }
      }
    }
    if (finish_hook_ && !batch.empty()) {
      const std::size_t first_new = tasks_.size();
      finish_hook_(now, std::span<const TaskId>(batch));
      integrate_new(first_new, now);
    }
    try_start_all(now);
  }
  running_phase_ = false;

  if (completed != tasks_.size()) {
    throw std::logic_error(
        "SimNetwork::run: task graph has a cycle or unreachable tasks");
  }
  result.makespan = now;
#if RPR_CONTRACTS_ENABLED
  for (const TaskStats& st : result.tasks) {
    RPR_ENSURE(st.finish <= result.makespan,
               "no task may finish after the makespan");
    RPR_ENSURE(st.start >= st.ready,
               "no task may start before its dependencies finished");
  }
#endif
  return result;
}

}  // namespace rpr::simnet
