#include "runtime/executor.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>

#include "runtime/combine_stream.h"
#include "runtime/op_trace.h"

namespace rpr::runtime {

using repair::OpId;
using repair::OpKind;
using repair::PlanOp;
using topology::NodeId;
using Clock = detail::TraceClock;

namespace {

/// Upper bound on one moved slice range: large enough to amortize port
/// locking and per-range pacing at 16 KiB slices, small enough to keep the
/// pipeline fine-grained.
constexpr std::size_t kMaxBatchBytes = 256 << 10;

void sleep_s(double s, double& stall_s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
  stall_s += s;
}

}  // namespace

Run::Run(Executor& executor, const repair::RepairPlan& repair_plan,
         std::span<const rs::Block> blocks, bool sends_are_views)
    : ex(executor),
      plan(repair_plan),
      state(plan.ops.size(), plan.block_size, ex.params().slice_size),
      metrics(ex.params().metrics, ex.metrics_prefix_) {
  // Views are bound here, before any op thread starts (consumers read a
  // source's scale before they wait for its bytes), and in op order, so a
  // view of a view resolves to what its input resolves to.
  for (OpId id = 0; id < plan.ops.size(); ++id) {
    const PlanOp& op = plan.ops[id];
    if (op.kind == OpKind::kRead) {
      state.bind_view(id, blocks[op.block].data(), op.coeff);
    } else if (op.kind == OpKind::kSend &&
               (sends_are_views || op.from == op.node)) {
      state.bind_view(id, op.inputs[0]);
    }
  }
}

bool Run::is_dead(NodeId node) { return ex.is_dead(node); }

void Run::blame(NodeId node) {
  NodeId expected = fault::kNoNode;
  first_dead.compare_exchange_strong(expected, node);
}

bool Run::blame_if_dead(NodeId node) {
  if (!is_dead(node)) return false;
  blame(node);
  return true;
}

void Run::declare_lost(NodeId node) {
  ex.mark_dead(node);
  blame(node);
}

void Run::note_partition(const fault::Partition* p) {
  const fault::Partition* expected = nullptr;
  first_cut.compare_exchange_strong(expected, p);
}

void Run::record_error(const std::string& what) {
  std::scoped_lock lock(err_mu_);
  if (first_error_.empty()) first_error_ = what;
}

Executor::Executor(const char* name, const char* metrics_prefix,
                   topology::Cluster cluster, ExecutorParams params)
    : name_(name),
      metrics_prefix_(metrics_prefix),
      cluster_(cluster),
      params_(std::move(params)),
      session_start_(std::chrono::steady_clock::now()) {
  if (params_.net.racks() < cluster_.racks()) {
    throw std::invalid_argument(std::string(name_) +
                                ": RegionNet smaller than cluster");
  }
  if (params_.time_scale <= 0.0) {
    throw std::invalid_argument(std::string(name_) +
                                ": time_scale must be positive");
  }
  if (params_.retry.max_attempts == 0 || params_.retry.op_deadline_s <= 0.0) {
    throw std::invalid_argument(std::string(name_) + ": bad retry policy");
  }
  // Whole-rack deaths lower to per-node kills; the abort machinery then
  // reports the whole failure domain in one shot.
  params_.faults.expand_racks(cluster_);
}

std::set<NodeId> Executor::dead_nodes() const {
  std::scoped_lock lock(fault_mu_);
  return dead_;
}

double Executor::elapsed_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       session_start_)
      .count();
}

const fault::Partition* Executor::active_partition(topology::RackId a,
                                                   topology::RackId b) const {
  if (a == b || params_.faults.partitions.empty()) return nullptr;
  const double t = elapsed_s();
  for (const auto& p : params_.faults.partitions) {
    if (p.active_at(t) && p.separates(a, b)) return &p;
  }
  return nullptr;
}

bool Executor::is_dead(NodeId node) {
  std::scoped_lock lock(fault_mu_);
  if (dead_.count(node) != 0) return true;
  // Explorer-injected kill: the schedule explorer lands deaths exactly on
  // decision boundaries instead of on the wall clock.
  if (check::node_killed(static_cast<std::uint32_t>(node))) {
    dead_.insert(node);
    return true;
  }
  const double elapsed = elapsed_s();
  for (const auto& kill : params_.faults.kills) {
    if (kill.node == node && elapsed >= kill.at_s) {
      dead_.insert(node);
      return true;
    }
  }
  return false;
}

void Executor::mark_dead(NodeId node) {
  std::scoped_lock lock(fault_mu_);
  dead_.insert(node);
}

bool Executor::afflicted(NodeId node, const fault::Straggle* straggle) {
  if (straggle == nullptr) return false;
  std::scoped_lock lock(fault_mu_);
  if (afflicted_[node] >= straggle->attempts) return false;
  ++afflicted_[node];
  return true;
}

void Executor::wait_for_heal(double seconds) {
  if (seconds > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }
}

repair::Attempt Executor::execute_over(const repair::RepairPlan& plan,
                                       std::span<const OpId> outputs,
                                       std::span<const rs::Block> stripe,
                                       Transport& transport) {
  repair::validate(plan, cluster_);
  // Every read names a stripe block, and slice offsets derive from
  // plan.block_size: every value must be exactly that long.
  for (OpId id = 0; id < plan.ops.size(); ++id) {
    const PlanOp& op = plan.ops[id];
    if (op.kind != OpKind::kRead) continue;
    if (op.block >= stripe.size()) {
      throw std::out_of_range(std::string(name_) + ": op " +
                              std::to_string(id) + " reads block " +
                              std::to_string(op.block) + " of a " +
                              std::to_string(stripe.size()) +
                              "-block stripe");
    }
    if (stripe[op.block].size() != plan.block_size) {
      throw std::invalid_argument(std::string(name_) +
                                  ": stripe blocks must be plan.block_size");
    }
  }
  Run run(*this, plan, stripe, transport.sends_are_views());
  detail::name_node_tracks(cluster_, params_.recorder);
  // One DAG span id per plan op (0 = tracing disabled, no identity).
  const obs::SpanId span_base =
      params_.recorder == nullptr
          ? 0
          : params_.recorder->reserve_span_ids(plan.ops.size());
  transport.begin(run);
  const auto start = Clock::now();

  // One thread per op: a node's reads, combines and sends stream slices
  // through each other. Op ids are the threads' ordinals under an installed
  // check::Scheduler, so a replayed schedule names the same thread on every
  // run.
  std::vector<std::thread> workers;
  workers.reserve(plan.ops.size());
  check::expect_threads(plan.ops.size());
  for (OpId id = 0; id < plan.ops.size(); ++id) {
    workers.emplace_back([&, id] {
      try {
        check::run_checked(static_cast<int>(id), "op", [&] {
          auto op_start = Clock::now();
          double stall_s = 0.0;  // straggler stalls + retry backoffs (wall)
          const PlanOp& op = plan.ops[id];
          std::uint64_t bytes = run.state.value_size();
          bool ok = true;
          switch (op.kind) {
            case OpKind::kRead:
              ok = read(run, id, stall_s);
              break;
            case OpKind::kSend:
              ok = op.from == op.node
                       ? move_local(run, id, op_start)
                       : send(run, id, transport, op_start, stall_s);
              break;
            case OpKind::kCombine:
              bytes *= op.inputs.size();  // one region pass per input
              // stream_combine fails the op itself.
              if (!detail::stream_combine(
                      run.state, op, id, params_.decode_matrix_dim,
                      run.metrics, [&] { return run.blame_if_dead(op.node); },
                      op_start)) {
                return;
              }
              break;
          }
          if (!ok) {
            run.state.fail(id);
            return;
          }
          detail::record_op_span(params_.recorder, op, id, cluster_, start,
                                 op_start, Clock::now(), bytes, span_base,
                                 static_cast<std::int64_t>(stall_s * 1e9));
        });
      } catch (const std::exception& e) {
        run.record_error(e.what());
      }
    });
  }
  for (auto& w : workers) w.join();
  transport.end(run);
  const auto end = Clock::now();
  if (!run.first_error_.empty()) {
    throw std::runtime_error(std::string(name_) +
                             "::execute: " + run.first_error_);
  }

  repair::Attempt result;
  result.elapsed_s = std::chrono::duration<double>(end - start).count();
  result.cross_rack_bytes = run.cross_bytes.load();
  result.inner_rack_bytes = run.inner_bytes.load();
  result.retries = run.retries.load();
  result.faults_injected = run.faults.load();

  bool any_output_failed = false;
  {
    std::unique_lock lock(run.state.mu);
    for (OpId id : outputs) any_output_failed |= run.state.failed[id];
  }
  if (any_output_failed) {
    assemble_abort(run, result);
  } else {
    // Every op thread has joined, so nothing reads a value any more.
    result.outputs = run.state.take_all(outputs);
  }
  return result;
}

bool Executor::read(Run& run, OpId id, double& stall_s) {
  const PlanOp& op = run.plan.ops[id];
  if (run.blame_if_dead(op.node)) return false;
  if (const fault::SlowDisk* slow = params_.faults.slowdisk_of(op.node)) {
    // A degraded disk serves the read at 1/factor of the inner link rate
    // instead of instantly.
    const topology::RackId r = cluster_.rack_of(op.node);
    sleep_s(static_cast<double>(run.state.value_size()) * slow->factor /
                (params_.net.between_racks(r, r).as_bytes_per_sec() *
                 params_.time_scale),
            stall_s);
    std::scoped_lock lock(fault_mu_);
    if (slowdisk_counted_.insert(op.node).second) ++run.faults;
  }
  // Reads are local and instant: every slice becomes available at once.
  // The value is a view of the stripe block (bound by Run), so nothing is
  // copied; consumers apply the coefficient as they read it.
  run.state.publish_all(id);
  return true;
}

bool Executor::move_local(Run& run, OpId id,
                          std::chrono::steady_clock::time_point& op_start) {
  const PlanOp& op = run.plan.ops[id];
  for (std::size_t s = 0; s < run.state.slices();) {
    const std::size_t upto =
        run.state.wait_inputs_slices_batch(op.inputs, s, run.state.slices());
    if (upto == 0) return false;
    if (s == 0) {
      op_start = Clock::now();
      if (run.blame_if_dead(op.node)) return false;
    }
    // A view of its input (bound by Run): publishing is the whole move.
    run.state.publish_slices(id, upto);
    s = upto;
  }
  return true;
}

bool Executor::send(Run& run, OpId id, Transport& transport,
                    std::chrono::steady_clock::time_point& op_start,
                    double& stall_s) {
  const PlanOp& op = run.plan.ops[id];
  detail::ExecState& state = run.state;
  const fault::RetryPolicy& retry = params_.retry;
  const topology::RackId rf = cluster_.rack_of(op.from);
  const topology::RackId rt = cluster_.rack_of(op.node);
  const double expected_s =
      static_cast<double>(state.value_size()) /
      (params_.net.between_racks(rf, rt).as_bytes_per_sec() *
       params_.time_scale);
  const fault::Straggle* straggle = params_.faults.straggle_of(op.from);
  // Contiguous already-published input slices move as ONE range, capped so
  // a backlog drain cannot coarsen the pipeline past kMaxBatchBytes. A
  // sender keeping pace with a streaming producer still moves one slice at
  // a time; the cap only bites behind instantly-published reads or after a
  // stall.
  const std::size_t batch = std::max<std::size_t>(
      1, kMaxBatchBytes / std::max<std::size_t>(1, state.slice_len(0)));
  // Deterministic jitter key: schedule seed + retrying op + sender.
  const std::uint64_t jitter_key = params_.faults.seed ^
                                   (static_cast<std::uint64_t>(id) << 24) ^
                                   static_cast<std::uint64_t>(op.from);
  bool started = false;
  Xfer xr = Xfer::kOk;
  for (std::size_t attempt = 0; attempt < retry.max_attempts; ++attempt) {
    check::point(check::PointKind::kRetry, id, 0, "exec.retry");
    if (afflicted(op.from, straggle)) {
      // A straggling sender's transfer crawls at factor x; the straggler
      // detector abandons the attempt at threshold x the expected duration
      // (speculative re-fetch), so an afflicted attempt costs the deadline,
      // not the crawl.
      ++run.faults;
      sleep_s(std::min({expected_s * straggle->factor,
                        expected_s * retry.straggler_threshold,
                        retry.op_deadline_s}),
              stall_s);
      xr = Xfer::kStraggle;
    } else {
      xr = Xfer::kOk;
      std::size_t s = transport.first_slice(run, id);
      bool opened = false;
      while (xr == Xfer::kOk && s < state.slices()) {
        const std::size_t upto =
            state.wait_inputs_slices_batch(op.inputs, s, s + batch);
        if (upto == 0) {
          xr = Xfer::kInputFailed;
          break;
        }
        if (!started) {
          started = true;
          op_start = Clock::now();
        }
        // Fault/schedule boundary before the range moves: an explored kill
        // can land between a slice becoming ready and its move (mirrors
        // stream_combine's per-slice point).
        check::point(check::PointKind::kStep, id, 0, "exec.send_slice");
        if (!opened) {
          opened = true;
          xr = transport.open(run, id);
          if (xr != Xfer::kOk) break;
        }
        const std::size_t len = state.range_len(s, upto);
        run.metrics.begin_flight(len);
        xr = transport.move(run, id, s, upto);
        run.metrics.end_flight(len);
        if (xr == Xfer::kOk) {
          (rf == rt ? run.inner_bytes : run.cross_bytes) += len;
          s = upto;
        }
      }
      transport.close(run, id, xr == Xfer::kOk);
      if (xr == Xfer::kOk) return true;
      if (xr == Xfer::kDead || xr == Xfer::kInputFailed) break;
      if (xr == Xfer::kStale) {
        // Staleness is not a fault: reconnect at once, burning neither an
        // attempt nor a backoff.
        --attempt;
        continue;
      }
    }
    if (attempt + 1 < retry.max_attempts) {
      ++run.retries;
      sleep_s(retry.backoff_jittered_s(attempt, jitter_key), stall_s);
    }
  }
  if (xr == Xfer::kDead || xr == Xfer::kInputFailed) return false;
  if (const fault::Partition* p = active_partition(rf, rt)) {
    // Retries ran out while the split was still active: the endpoints are
    // alive — report a partition, declare no one lost.
    run.note_partition(p);
  } else if (run.first_dead.load() == fault::kNoNode) {
    run.declare_lost(xr == Xfer::kUnreachable ? op.node : op.from);
  }
  return false;
}

void Executor::assemble_abort(Run& run, repair::Attempt& result) {
  const fault::Partition* cut = run.first_cut.load();
  const NodeId first_dead = run.first_dead.load();
  if (first_dead == fault::kNoNode && cut == nullptr) {
    throw std::logic_error(std::string(name_) +
                           ": output failed with no node to blame");
  }
  repair::Abort& abort = result.abort.emplace();
  if (first_dead != fault::kNoNode) {
    // Sweep the schedule: every node whose kill time has passed is dead
    // now — a TOR death reports the whole rack in one abort, the blamed
    // node first.
    const double now_s = elapsed_s();
    std::scoped_lock fl(fault_mu_);
    for (const auto& kill : params_.faults.kills) {
      if (kill.at_s <= now_s) dead_.insert(kill.node);
    }
    abort.dead_nodes.push_back(first_dead);
    for (const NodeId n : dead_) {
      if (n != first_dead) abort.dead_nodes.push_back(n);
    }
  } else {
    // A fabric split, not a death: nobody is declared lost, and the caller
    // learns how long until the cut heals (< 0 = permanent).
    abort.partitioned = true;
    abort.heal_wait_s =
        cut->heals()
            ? std::max(0.0, (cut->at_s + cut->heal_after_s) - elapsed_s())
            : -1.0;
    abort.partition_side = cut->sides(cluster_);
  }
  std::vector<OpId> banked;
  {
    std::scoped_lock fl(fault_mu_);
    std::unique_lock lock(run.state.mu);
    for (OpId id = 0; id < run.plan.ops.size(); ++id) {
      if (!run.state.done[id]) continue;
      if (dead_.count(run.plan.ops[id].node) != 0) continue;
      banked.push_back(id);
    }
  }
  // Called once every op thread has joined: an owned value moves out, a
  // view comes back as its own scale · bytes copy.
  std::vector<rs::Block> values = run.state.take_all(banked);
  abort.finished.reserve(banked.size());
  for (std::size_t i = 0; i < banked.size(); ++i) {
    abort.finished.emplace_back(banked[i], std::move(values[i]));
  }
}

}  // namespace rpr::runtime
