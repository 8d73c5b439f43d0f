#include "simnet/simnet.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/contracts.h"
#include "util/quad_heap.h"

namespace rpr::simnet {

using topology::NodeId;
using topology::RackId;
using util::SimTime;

// ---------------------------------------------------------------------------
// TaskTable

LabelId TaskTable::intern(std::string_view label) {
  if (label == result_.labels_[last_label_]) return last_label_;
  if (label.empty()) return last_label_ = 0;
  if (const auto it = label_ids_.find(label); it != label_ids_.end()) {
    return last_label_ = it->second;
  }
  last_label_ = static_cast<LabelId>(result_.labels_.size());
  result_.labels_.emplace_back(label);
  label_ids_.emplace(result_.labels_.back(), last_label_);
  return last_label_;
}

TaskId TaskTable::add(const TaskStats& st, std::span<const TaskId> deps,
                      std::string_view label) {
  const TaskId id = size();
  for (const TaskId d : deps) {
    if (d >= id) {
      throw std::invalid_argument("TaskTable: dependency on unknown task");
    }
  }
  // A run that does not fit where the arena ends pads less than three
  // times its own length before it (SegmentedArray::append_run).
  if (id >= kNoLink || links_.size() + deps.size() >= kNoLink ||
      result_.dep_ids_.size() + 4 * deps.size() >= kNoLink) {
    throw std::length_error("TaskTable: too many tasks");
  }
  TaskStats rec = st;
  rec.label = intern(label);
  rec.dep_begin_ = static_cast<std::uint32_t>(result_.dep_ids_.size());
  result_.dep_ids_.append_run(deps);
  first_dependent_.push_back(kNoLink);
  for (const TaskId d : deps) {
    if (d + 1 == id && !rec.after_prev_) {
      rec.after_prev_ = true;
      continue;
    }
    links_.push_back(Link{static_cast<std::uint32_t>(id), first_dependent_[d]});
    first_dependent_[d] = static_cast<std::uint32_t>(links_.size() - 1);
  }
  result_.tasks.push_back(rec);
  return id;
}

std::size_t TaskTable::bytes() const noexcept {
  return result_.tasks.size() * sizeof(TaskStats) +
         result_.dep_ids_.size() * sizeof(std::uint32_t) +
         first_dependent_.size() * sizeof(std::uint32_t) +
         links_.size() * sizeof(Link);
}

namespace {

/// `v` as TaskStats' narrower field type T; throws instead of truncating.
template <typename T, typename V>
T narrow(V v, const char* what) {
  if (!std::in_range<T>(v)) {
    throw std::out_of_range(std::string(what) + ": value out of range");
  }
  return static_cast<T>(v);
}

}  // namespace

TaskId TaskTable::add_transfer(const topology::Cluster& cluster, NodeId from,
                               NodeId to, std::uint64_t bytes,
                               std::span<const TaskId> deps,
                               std::string_view label) {
  if (from >= cluster.total_nodes() || to >= cluster.total_nodes()) {
    throw std::invalid_argument("add_transfer: node out of range");
  }
  TaskStats st;
  st.kind = TaskKind::kTransfer;
  st.from = narrow<std::uint32_t>(from, "add_transfer");
  st.node = narrow<std::uint32_t>(to, "add_transfer");
  st.bytes = bytes;
  st.cross_rack = from != to && cluster.rack_of(from) != cluster.rack_of(to);
  return add(st, deps, label);
}

TaskId TaskTable::add_compute(const topology::Cluster& cluster, NodeId at,
                              SimTime duration, std::span<const TaskId> deps,
                              std::string_view label) {
  if (at >= cluster.total_nodes()) {
    throw std::invalid_argument("add_compute: node out of range");
  }
  TaskStats st;
  st.kind = TaskKind::kCompute;
  st.from = st.node = narrow<std::uint32_t>(at, "add_compute");
  st.finish = duration;
  return add(st, deps, label);
}

void TaskTable::tag(TaskId id, std::int64_t op, std::int64_t slice) {
  TaskStats& st = at(id, "tag_task");
  const auto op32 = narrow<std::int32_t>(op, "tag_task");
  st.slice = narrow<std::int32_t>(slice, "tag_task");
  st.op = op32;
}

TaskStats& TaskTable::at(TaskId id, const char* what) {
  if (id >= size()) {
    throw std::invalid_argument(std::string(what) + ": unknown task");
  }
  return result_.tasks[id];
}

// ---------------------------------------------------------------------------
// RunObserver

namespace {
thread_local RunObserver* current_observer = nullptr;
}  // namespace

RunObserver::RunObserver(std::function<void(const RunResult&)> fn)
    : fn_(std::move(fn)), outer_(current_observer) {
  current_observer = this;
}

RunObserver::~RunObserver() { current_observer = outer_; }

void RunObserver::notify(const RunResult& result) {
  if (current_observer != nullptr) current_observer->fn_(result);
}

// ---------------------------------------------------------------------------
// SimNetwork: building the task graph

SimNetwork::SimNetwork(topology::Cluster cluster,
                       topology::NetworkParams params)
    : cluster_(cluster), params_(params) {
  if (!params_.inner.valid() || !params_.cross.valid()) {
    throw std::invalid_argument("SimNetwork: bandwidths must be positive");
  }
}

TaskId SimNetwork::add_transfer(NodeId from, NodeId to, std::uint64_t bytes,
                                const std::vector<TaskId>& deps,
                                std::string_view label) {
  return tasks_.add_transfer(cluster_, from, to, bytes, deps, label);
}

TaskId SimNetwork::add_compute(NodeId at, SimTime duration,
                               const std::vector<TaskId>& deps,
                               std::string_view label) {
  return tasks_.add_compute(cluster_, at, duration, deps, label);
}

void SimNetwork::tag_task(TaskId id, std::int64_t op, std::int64_t slice) {
  tasks_.tag(id, op, slice);
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
  tasks_.at(id, "set_class").cls = cls;
}

void SimNetwork::set_priority(TaskId id, int priority) {
  tasks_.at(id, "set_priority").priority = priority;
}

void SimNetwork::set_earliest_start(TaskId id, SimTime at) {
  // Until the task's dependencies finish, `ready` holds its earliest start.
  tasks_.at(id, "set_earliest_start").ready = at;
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

// ---------------------------------------------------------------------------
// SimNetwork: the event loop

namespace {

/// A task's place in the start order: earliest ready first, then highest
/// priority, then submission order. Unique per task, so every correct
/// priority queue pops the same sequence.
struct Key {
  SimTime ready;
  int priority;
  std::uint32_t id;  ///< TaskTable caps ids below 2^32
  [[nodiscard]] bool before(const Key& o) const {
    if (ready != o.ready) return ready < o.ready;
    if (priority != o.priority) return priority > o.priority;
    return id < o.id;
  }
};

/// Orders the event-queue entries below by their `before`.
struct Earlier {
  template <typename T>
  bool operator()(const T& a, const T& b) const {
    return a.before(b);
  }
};
template <typename T>
using EventQueue = util::QuadHeap<T, Earlier>;

struct Completion {
  SimTime finish;
  TaskId id;
  [[nodiscard]] bool before(const Completion& o) const {
    return finish != o.finish ? finish < o.finish : id < o.id;
  }
};

constexpr std::size_t kNoResource = std::numeric_limits<std::size_t>::max();

/// A task offered its ports at the current instant; `woken_by` is the
/// resource whose wait list it came from, if any.
struct Candidate {
  Key key;
  std::size_t woken_by;
  [[nodiscard]] bool before(const Candidate& o) const {
    return key.before(o.key);
  }
};

/// Something a task must find free to start: a port (node TX, RX or CPU,
/// or a rack uplink's TX or RX), or, under the arbiter, a port's repair
/// credit bucket, which is "busy" until its debt is repaid.
struct Resource {
  SimTime free_at = 0;
  EventQueue<Key> waiters;
  /// One waiter has been handed to the candidate heap and not yet looked
  /// at; the next is woken only after it, and only if still free.
  bool waking = false;
};

/// A bucket's debt is repaid at `at`: wake its waiters then. Two entries
/// can be equal only if they are identical.
struct Repayment {
  SimTime at;
  std::size_t bucket;
  [[nodiscard]] bool before(const Repayment& o) const {
    return at != o.at ? at < o.at : bucket < o.bucket;
  }
};

/// A task's entry in the engine's state array: its unfinished deps, or
/// kDone once it has finished.
constexpr std::uint32_t kDone = std::numeric_limits<std::uint32_t>::max();

}  // namespace

class SimNetwork::Engine {
 public:
  explicit Engine(SimNetwork& net)
      : net_(net),
        tasks_(net.tasks_),
        nodes_(net.cluster_.total_nodes()),
        racks_(net.cluster_.racks()),
        ports_(3 * nodes_ + 2 * racks_),
        arbitrated_(net.arbiter_enabled_),
        resources_(arbitrated_ ? 2 * ports_ : ports_),
        share_(net.arbiter_.repair_share) {}

  RunResult run() {
    RunResult& result = tasks_.result();
    result.rack_upload_bytes.assign(racks_, 0);
    result.rack_download_bytes.assign(racks_, 0);

    integrate(0);
    offer_timed();
    start_candidates();
    std::size_t completed = 0;
    std::vector<TaskId> batch;
    while (!running_.empty() || !timed_.empty() || !repaid_.empty()) {
      // Next event: the earliest completion, timed task or repaid bucket.
      SimTime next = std::numeric_limits<SimTime>::max();
      if (!running_.empty()) next = running_.top().finish;
      if (!timed_.empty()) next = std::min(next, timed_.top().ready);
      if (!repaid_.empty()) next = std::min(next, repaid_.top().at);
      RPR_INVARIANT(next >= now_, "sim time must be monotonic");
      now_ = next;
      // Drain every completion at this instant before attempting new
      // starts, so simultaneous finishes release all their ports at once.
      batch.clear();
      while (!running_.empty() && running_.top().finish == now_) {
        const TaskId id = running_.pop().id;
        ++completed;
        state_[id] = kDone;
        batch.push_back(id);
        tasks_.for_each_dependent(id, [&](TaskId d) {
          if (--state_[d] == 0) make_ready(d);
        });
      }
      if (net_.finish_hook_ && !batch.empty()) {
        const std::size_t first_new = tasks_.size();
        net_.finish_hook_(now_, std::span<const TaskId>(batch));
        integrate(first_new);
      }
      for (const TaskId id : batch) {
        std::array<std::size_t, 4> held{};
        const std::size_t n = ports_of(tasks_[id], held);
        for (std::size_t i = 0; i < n; ++i) wake(held[i]);
      }
      while (!repaid_.empty() && repaid_.top().at == now_) {
        wake(repaid_.pop().bucket);
      }
      offer_timed();
      start_candidates();
    }

    if (completed != tasks_.size()) {
      throw std::logic_error(
          "SimNetwork::run: task graph has a cycle or unreachable tasks");
    }
    result.makespan = now_;
    result.start_attempts = attempts_;
    result.store_bytes =
        tasks_.bytes() + state_.size() * sizeof(std::uint32_t);
#if RPR_CONTRACTS_ENABLED
    for (const TaskStats& st : result.tasks) {
      RPR_ENSURE(st.finish <= result.makespan,
                 "no task may finish after the makespan");
      RPR_ENSURE(st.start >= st.ready,
                 "no task may start before its dependencies finished");
    }
#endif
    return std::move(result);
  }

 private:
  std::size_t node_tx(NodeId n) const { return n; }
  std::size_t node_rx(NodeId n) const { return nodes_ + n; }
  std::size_t node_cpu(NodeId n) const { return 2 * nodes_ + n; }
  std::size_t rack_tx(RackId r) const { return 3 * nodes_ + r; }
  std::size_t rack_rx(RackId r) const { return 3 * nodes_ + racks_ + r; }

  /// The ports `st` occupies while it runs: its node's CPU for a compute,
  /// none for a local read, else node TX/RX plus the rack uplinks when it
  /// crosses racks. Returns how many were written to `out`.
  std::size_t ports_of(const TaskStats& st,
                       std::array<std::size_t, 4>& out) const {
    if (st.kind == TaskKind::kCompute) {
      out[0] = node_cpu(st.from);
      return 1;
    }
    if (st.from == st.node) return 0;
    out[0] = node_tx(st.from);
    out[1] = node_rx(st.node);
    if (!st.cross_rack) return 2;
    out[2] = rack_tx(net_.cluster_.rack_of(st.from));
    out[3] = rack_rx(net_.cluster_.rack_of(st.node));
    return 4;
  }

  /// Registers tasks [first, size) — all of them at the start of the run,
  /// or those the finish hook just added — counting only unfinished deps.
  void integrate(std::size_t first) {
    state_.grow_to(tasks_.size());
    for (TaskId id = first; id < tasks_.size(); ++id) {
      std::uint32_t unmet = 0;
      for (const std::uint32_t d : tasks_.deps(id)) {
        if (state_[d] != kDone) ++unmet;
      }
      state_[id] = unmet;
      if (unmet == 0) make_ready(id);
    }
  }

  /// The task's dependencies are done: it is ready now, or at its earliest
  /// start if that is later.
  void make_ready(TaskId id) {
    RPR_INVARIANT(state_[id] == 0,
                  "a task becomes ready only once all dependencies finished");
    TaskStats& st = tasks_[id];
    st.ready = std::max(now_, st.ready);
    const Key key{st.ready, st.priority, static_cast<std::uint32_t>(id)};
    if (key.ready > now_) {
      timed_.push(key);
    } else {
      candidates_.push(Candidate{key, kNoResource});
    }
  }

  /// Moves timed tasks whose ready time has come to the candidates.
  void offer_timed() {
    while (!timed_.empty() && timed_.top().ready <= now_) {
      candidates_.push(Candidate{timed_.pop(), kNoResource});
    }
  }

  /// Hands resource `r`'s first waiter to the candidates if `r` is free
  /// and no earlier waiter is still pending there.
  void wake(std::size_t r) {
    Resource& res = resources_[r];
    if (res.waking || res.waiters.empty() || res.free_at > now_) return;
    res.waking = true;
    candidates_.push(Candidate{res.waiters.pop(), r});
  }

  /// Offers every candidate its ports in start order.
  void start_candidates() {
    while (!candidates_.empty()) {
      const Candidate c = candidates_.pop();
      try_start(c.key);
      if (c.woken_by != kNoResource) {
        resources_[c.woken_by].waking = false;
        wake(c.woken_by);
      }
    }
  }

  void try_start(const Key& key) {
    ++attempts_;
    TaskStats& st = tasks_[key.id];
    // The task's ports, then (repair transfers under the arbiter) their
    // buckets.
    std::array<std::size_t, 8> needs{};
    std::array<std::size_t, 4> ports{};
    const std::size_t n = ports_of(st, ports);
    std::copy_n(ports.begin(), n, needs.begin());
    const bool gated = arbitrated_ && st.kind == TaskKind::kTransfer &&
                       st.cls == TrafficClass::kRepair;
    const std::size_t m = gated ? 2 * n : n;
    for (std::size_t i = n; i < m; ++i) needs[i] = ports_ + needs[i - n];
    // Wait on the busy resource that frees last: when it frees, the
    // others are free too unless another task took them meanwhile.
    std::size_t busiest = kNoResource;
    for (std::size_t i = 0; i < m; ++i) {
      const SimTime f = resources_[needs[i]].free_at;
      if (f > now_ &&
          (busiest == kNoResource || f > resources_[busiest].free_at)) {
        busiest = needs[i];
      }
    }
    if (busiest != kNoResource) {
      wait_on(busiest, key);
      return;
    }

    SimTime duration = 0;
    if (st.kind == TaskKind::kCompute) {
      duration = st.finish;  // parked there by add_compute
      if (!net_.compute_slowdown_.empty() &&
          net_.compute_slowdown_[st.from] > 1.0) {
        duration = static_cast<SimTime>(static_cast<double>(duration) *
                                        net_.compute_slowdown_[st.from]);
      }
    } else if (n != 0) {
      const util::Bandwidth bw =
          st.cross_rack ? net_.params_.cross : net_.params_.inner;
      duration = bw.time_for(st.bytes);
      if (!net_.tx_slowdown_.empty() && net_.tx_slowdown_[st.from] > 1.0) {
        duration = static_cast<SimTime>(static_cast<double>(duration) *
                                        net_.tx_slowdown_[st.from]);
      }
    }

    st.start = now_;
    st.finish = now_ + duration;
    for (std::size_t i = 0; i < n; ++i) {
      resources_[needs[i]].free_at = st.finish;
    }
    if (gated) {
      // Deficit bucket: the port's repair credit drops by the transfer's
      // port time and refills at `share_` per second from empty, so the
      // bucket is in debt for duration / share.
      const SimTime repaid =
          now_ + static_cast<SimTime>(
                     std::ceil(static_cast<double>(duration) / share_));
      for (std::size_t i = n; i < m; ++i) {
        Resource& bucket = resources_[needs[i]];
        bucket.free_at = repaid;
        if (repaid > now_ && !bucket.waiters.empty()) {
          repaid_.push(Repayment{repaid, needs[i]});
        }
      }
    }
    running_.push(Completion{st.finish, key.id});
    if (st.kind == TaskKind::kCompute || n == 0) return;
    RunResult& result = tasks_.result();
    if (st.cross_rack) {
      result.cross_rack_bytes += st.bytes;
      ++result.cross_rack_transfers;
      result.rack_upload_bytes[net_.cluster_.rack_of(st.from)] += st.bytes;
      result.rack_download_bytes[net_.cluster_.rack_of(st.node)] += st.bytes;
    } else {
      result.inner_rack_bytes += st.bytes;
      ++result.inner_rack_transfers;
    }
    (st.cls == TrafficClass::kRepair ? result.repair_bytes
                                     : result.foreground_bytes) += st.bytes;
  }

  /// Parks `key` on busy resource `r`. Ports free on a completion; a
  /// bucket with waiters gets a repayment event (one per debt).
  void wait_on(std::size_t r, const Key& key) {
    Resource& res = resources_[r];
    if (r >= ports_ && res.waiters.empty()) {
      repaid_.push(Repayment{res.free_at, r});
    }
    res.waiters.push(key);
  }

  SimNetwork& net_;
  TaskTable& tasks_;
  const std::size_t nodes_;
  const std::size_t racks_;
  const std::size_t ports_;  ///< resources_[0, ports_) are ports
  const bool arbitrated_;
  /// Ports, then (under the arbiter) one repair bucket per port.
  std::vector<Resource> resources_;
  const double share_;  ///< the arbiter's repair share
  SimTime now_ = 0;
  std::size_t attempts_ = 0;
  /// Per task: its unfinished deps, or kDone.
  util::SegmentedArray<std::uint32_t> state_;
  EventQueue<Completion> running_;
  EventQueue<Key> timed_;  ///< ready, but not before their ready time
  EventQueue<Candidate> candidates_;
  EventQueue<Repayment> repaid_;
};

RunResult SimNetwork::run() {
  if (ran_) throw std::logic_error("SimNetwork::run may only be called once");
  ran_ = true;
  RunResult result = Engine(*this).run();
  RunObserver::notify(result);
  return result;
}

}  // namespace rpr::simnet
