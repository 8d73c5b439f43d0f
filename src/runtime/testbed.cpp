#include "runtime/testbed.h"

#include <thread>
#include <vector>

#include "util/pace.h"

namespace rpr::runtime {

using repair::OpId;
using repair::PlanOp;

namespace {

/// Seconds a paced transfer of `bytes` takes at `bw * scale`.
double paced_s(std::uint64_t bytes, util::Bandwidth bw, double scale) {
  return static_cast<double>(bytes) / (bw.as_bytes_per_sec() * scale);
}

/// The testbed's transport: a port-locked paced channel (see testbed.h).
class PacedChannel final : public Transport {
 public:
  /// A send moves no bytes: its value is a view of its input (exec_state.h).
  bool sends_are_views() const override { return true; }

  explicit PacedChannel(const topology::Cluster& c)
      : node_tx_(c.total_nodes()),
        node_rx_(c.total_nodes()),
        rack_tx_(c.racks()),
        rack_rx_(c.racks()) {
    for (auto& m : node_tx_) m.set_class("testbed.node_tx");
    for (auto& m : node_rx_) m.set_class("testbed.node_rx");
    for (auto& m : rack_tx_) m.set_class("testbed.rack_tx");
    for (auto& m : rack_rx_) m.set_class("testbed.rack_rx");
  }

  Xfer move(Run& run, OpId id, std::size_t first,
            std::size_t upto) override {
    const PlanOp& op = run.plan.ops[id];
    const topology::Cluster& c = run.ex.cluster();
    const topology::RackId rf = c.rack_of(op.from);
    const topology::RackId rt = c.rack_of(op.node);
    const std::size_t len = run.state.range_len(first, upto);
    const auto t0 = std::chrono::steady_clock::now();
    Xfer xr;
    if (rf == rt) {
      check::OrderedLock ports(node_tx_[op.from], node_rx_[op.node]);
      xr = pace(run, op, len);
    } else {
      check::OrderedLock ports(node_tx_[op.from], rack_tx_[rf], rack_rx_[rt],
                               node_rx_[op.node]);
      xr = pace(run, op, len);
    }
    if (xr != Xfer::kOk) return xr;
    run.metrics.transfer_slice(
        rf != rt,
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count(),
        len);
    // Paced: the range has "arrived". The send is a view of its input, so
    // publishing the range is the whole delivery.
    run.state.publish_slices(id, upto);
    return Xfer::kOk;
  }

 private:
  /// Sleeps until the range's start plus its link time (util/pace.h) in
  /// steps of at most kStep, polling both endpoints and the fabric before
  /// every step and once after the last. A range whose deadline has already
  /// passed polls once and makes no sleep call.
  static Xfer pace(Run& run, const PlanOp& op, std::uint64_t bytes) {
    constexpr auto kStep = std::chrono::microseconds(500);
    const topology::Cluster& c = run.ex.cluster();
    const topology::RackId rf = c.rack_of(op.from);
    const topology::RackId rt = c.rack_of(op.node);
    util::Pacer pacer;
    pacer.owe(paced_s(bytes, run.ex.params().net.between_racks(rf, rt),
                      run.ex.params().time_scale));
    do {
      if (run.blame_if_dead(op.from) || run.blame_if_dead(op.node)) {
        return Xfer::kDead;
      }
      if (run.ex.active_partition(rf, rt) != nullptr) return Xfer::kCut;
    } while (!pacer.step(kStep));
    return Xfer::kOk;
  }

  std::vector<check::Mutex> node_tx_, node_rx_, rack_tx_, rack_rx_;
};

}  // namespace

Testbed::Testbed(topology::Cluster cluster, TestbedParams params)
    : Executor("Testbed", "testbed", cluster, std::move(params)) {}

repair::Attempt Testbed::execute(const repair::RepairPlan& plan,
                                 std::span<const OpId> outputs,
                                 std::span<const rs::Block> stripe) {
  PacedChannel channel(cluster());
  return execute_over(plan, outputs, stripe, channel);
}

double Testbed::measure_mbps(topology::NodeId from, topology::NodeId to,
                             std::uint64_t bytes) {
  // Times the paced transfer alone (no op threads), mirroring how the paper
  // measured Table 1 with point-to-point transfers.
  const util::Bandwidth bw = params().net.between_racks(
      cluster().rack_of(from), cluster().rack_of(to));
  const double scale = params().time_scale;
  const auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(
      std::chrono::duration<double>(paced_s(bytes, bw, scale)));
  const auto end = std::chrono::steady_clock::now();
  const double sec = std::chrono::duration<double>(end - start).count();
  // Report in "link time": undo the time_scale speed-up.
  return static_cast<double>(bytes) * 8.0 / 1e6 / (sec * scale);
}

}  // namespace rpr::runtime
