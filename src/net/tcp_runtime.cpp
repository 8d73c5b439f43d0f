#include "net/tcp_runtime.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "gf/gf_region.h"
#include "net/message.h"
#include "net/socket.h"

namespace rpr::net {

using repair::OpId;
using repair::OpKind;
using repair::PlanOp;
using runtime::Run;
using runtime::Xfer;
using topology::NodeId;

namespace {

/// Pacing granularity: each chunk of this many bytes owes its link time, and
/// the sender sleeps to the range's deadline after it (util/pace.h).
constexpr std::size_t kPaceChunk = 64 << 10;
/// Poll interval of the acceptors and of idle frame loops. After the last op
/// resolves, `end` waits out up to one tick of every such loop, so the tick
/// bounds the teardown tail that a run's wall time carries; at 1 ms it stays
/// well under the span of even a short (few-ms) repair.
constexpr double kAcceptPollS = 0.001;

/// The TCP runtime's transport (see tcp_runtime.h). One instance per run.
class TcpTransport final : public runtime::Transport {
 public:
  void begin(Run& run) override;
  void end(Run& run) override;
  /// A retried stream restarts at slice 0 (one frame declares the whole
  /// value); the receiver skips the prefix it already published.
  std::size_t first_slice(Run&, OpId) override { return 0; }
  Xfer open(Run& run, OpId id) override;
  Xfer move(Run& run, OpId id, std::size_t first, std::size_t upto) override;
  void close(Run& run, OpId id, bool ok) override;

 private:
  /// The endpoint of `op` that is dead, if either is (sender first).
  static NodeId dead_endpoint(Run& run, const PlanOp& op) {
    if (run.is_dead(op.from)) return op.from;
    if (run.is_dead(op.node)) return op.node;
    return fault::kNoNode;
  }
  Socket acquire(Run& run, NodeId from, NodeId to, bool& reused);
  bool all_owed_resolved(Run& run, NodeId n);
  void fail_owed(Run& run, NodeId n);
  void accept_loop(Run& run, NodeId n);
  void ingest_conn(Run& run, NodeId n, Socket peer);
  bool ingest_frame(Run& run, NodeId n, Socket& peer, OpId id);

  /// Ops each node receives over the wire.
  std::vector<std::vector<OpId>> incoming_;
  std::vector<std::unique_ptr<Listener>> listener_;
  std::vector<std::thread> acceptors_;
  /// check::Mutex so port-layer acquisition edges land in the lock-order
  /// graph when it is enabled (TCP threads are never *checked* — blocking
  /// socket I/O cannot be cooperatively scheduled — but the analyzer's
  /// acquisition recording is engine-agnostic). Per node: the TX port. Per
  /// op: one ingest at a time, so a retried stream never races the broken
  /// stream it replaces.
  std::unique_ptr<check::Mutex[]> tx_mu_;
  std::unique_ptr<check::Mutex[]> ingest_mu_;
  /// Per send op: the open attempt's connection, and whether it came from
  /// the pool.
  std::unique_ptr<Socket[]> conn_;
  std::unique_ptr<bool[]> conn_reused_;
  /// Per-peer connection pool keyed by (sender, receiver).
  check::Mutex pool_mu_{"tcp.pool"};
  std::map<std::pair<NodeId, NodeId>, std::vector<Socket>> pool_;
  std::atomic<std::uint64_t> opened_{0};
  std::atomic<std::uint64_t> reused_{0};
};

void TcpTransport::begin(Run& run) {
  const std::size_t nodes = run.ex.cluster().total_nodes();
  const std::size_t ops = run.plan.ops.size();
  incoming_.assign(nodes, {});
  for (OpId id = 0; id < ops; ++id) {
    const PlanOp& op = run.plan.ops[id];
    if (op.kind == OpKind::kSend && op.from != op.node) {
      incoming_[op.node].push_back(id);
    }
  }
  tx_mu_ = std::make_unique<check::Mutex[]>(nodes);
  ingest_mu_ = std::make_unique<check::Mutex[]>(ops);
  for (std::size_t n = 0; n < nodes; ++n) tx_mu_[n].set_class("tcp.tx");
  for (std::size_t i = 0; i < ops; ++i) ingest_mu_[i].set_class("tcp.ingest");
  conn_ = std::make_unique<Socket[]>(ops);
  conn_reused_ = std::make_unique<bool[]>(ops);
  // Listeners (ephemeral loopback ports) for every receiving node first,
  // then one acceptor each.
  listener_.resize(nodes);
  for (NodeId n = 0; n < nodes; ++n) {
    if (!incoming_[n].empty()) listener_[n] = std::make_unique<Listener>();
  }
  for (NodeId n = 0; n < nodes; ++n) {
    if (!incoming_[n].empty()) {
      acceptors_.emplace_back([this, &run, n] { accept_loop(run, n); });
    }
  }
}

void TcpTransport::end(Run& run) {
  for (auto& t : acceptors_) t.join();
  if (obs::MetricsRegistry* m = run.ex.params().metrics) {
    m->counter("tcp.conn.opened").add(opened_.load());
    m->counter("tcp.conn.reused").add(reused_.load());
  }
}

Socket TcpTransport::acquire(Run& run, NodeId from, NodeId to, bool& reused) {
  {
    std::scoped_lock lock(pool_mu_);
    const auto it = pool_.find({from, to});
    if (it != pool_.end() && !it->second.empty()) {
      Socket s = std::move(it->second.back());
      it->second.pop_back();
      ++reused_;
      reused = true;
      return s;
    }
  }
  reused = false;
  ++opened_;
  return connect_local(listener_[to]->port(),
                       run.ex.params().retry.op_deadline_s);
}

Xfer TcpTransport::open(Run& run, OpId id) {
  const PlanOp& op = run.plan.ops[id];
  if (const NodeId d = dead_endpoint(run, op); d != fault::kNoNode) {
    run.blame(d);
    return Xfer::kDead;
  }
  const topology::Cluster& c = run.ex.cluster();
  if (const fault::Partition* p = run.ex.active_partition(
          c.rack_of(op.from), c.rack_of(op.node))) {
    // The cut is injected at connection granularity (loopback has no real
    // fabric): it severs every pooled connection crossing it and drops this
    // attempt.
    std::scoped_lock lock(pool_mu_);
    for (auto& [edge, conns] : pool_) {
      if (p->separates(c.rack_of(edge.first), c.rack_of(edge.second))) {
        conns.clear();  // closing the sockets severs the link
      }
    }
    return Xfer::kCut;
  }
  try {
    conn_[id] = acquire(run, op.from, op.node, conn_reused_[id]);
    send_header(conn_[id], id, run.state.value_size());
  } catch (const std::exception&) {
    // A pooled socket can go stale (the peer tore it down while it sat
    // idle); anything else means the receiver may be gone or not accepting.
    return conn_reused_[id] ? Xfer::kStale : Xfer::kUnreachable;
  }
  return Xfer::kOk;
}

Xfer TcpTransport::move(Run& run, OpId id, std::size_t first,
                        std::size_t upto) {
  const PlanOp& op = run.plan.ops[id];
  const runtime::detail::ExecState& st = run.state;
  const runtime::ExecutorParams& params = run.ex.params();
  const topology::Cluster& c = run.ex.cluster();
  // A cut that opens mid-stream drops the attempt at the next slice range,
  // as it does on the paced channel; the retry resends the value and the
  // receiver keeps the prefix it already published.
  if (run.ex.active_partition(c.rack_of(op.from), c.rack_of(op.node)) !=
      nullptr) {
    return Xfer::kCut;
  }
  const double chunk_s =
      static_cast<double>(kPaceChunk) /
      (params.net.between_racks(c.rack_of(op.from), c.rack_of(op.node))
           .as_bytes_per_sec() *
       params.time_scale);
  // Stable once slice 0 published: a view (a read, or a local move of one)
  // resolves to its stripe block, and other producers stream into a
  // pre-sized value buffer that is never reallocated.
  const runtime::detail::Source in = st.source(op.inputs[0]);
  const std::uint8_t* src = in.bytes + st.slice_offset(first);
  const std::size_t len = st.range_len(first, upto);
  const auto cancel = [&] { return dead_endpoint(run, op) != fault::kNoNode; };
  // A scaled read goes out one pace chunk at a time through one scratch
  // chunk; at scale 1 the bytes go straight from the source.
  const auto scratch =
      in.scale == 1 ? nullptr
                    : std::make_unique_for_overwrite<std::uint8_t[]>(kPaceChunk);
  bool sent = true;
  try {
    std::scoped_lock tx(tx_mu_[op.from]);
    util::Pacer pacer;  // the range owes its link time from here
    for (std::size_t off = 0; sent && off < len; off += kPaceChunk) {
      std::span<const std::uint8_t> chunk{src + off,
                                          std::min(kPaceChunk, len - off)};
      if (in.scale != 1) {
        gf::mul_region(in.scale, {scratch.get(), chunk.size()}, chunk);
        chunk = {scratch.get(), chunk.size()};
      }
      sent = send_payload_chunk(conn_[id], chunk, pacer, kPaceChunk,
                                static_cast<std::uint64_t>(chunk_s * 1e9),
                                cancel);
    }
  } catch (const std::exception&) {
    return conn_reused_[id] ? Xfer::kStale : Xfer::kUnreachable;
  }
  if (sent) return Xfer::kOk;
  // Abandoned mid-stream: closing the socket gives the receiver a short
  // read it tolerates.
  const NodeId d = dead_endpoint(run, op);
  run.blame(d != fault::kNoNode ? d : op.node);
  return Xfer::kDead;
}

void TcpTransport::close(Run& run, OpId id, bool ok) {
  Socket s = std::move(conn_[id]);  // a failed attempt's socket closes here
  if (!ok || !s.valid()) return;
  // Park the connection: the next op over the same edge rides it, frames
  // back to back into the receiver's frame loop.
  const PlanOp& op = run.plan.ops[id];
  std::scoped_lock lock(pool_mu_);
  pool_[{op.from, op.node}].push_back(std::move(s));
}

bool TcpTransport::all_owed_resolved(Run& run, NodeId n) {
  return std::all_of(incoming_[n].begin(), incoming_[n].end(),
                     [&](OpId id) { return run.state.resolved(id); });
}

void TcpTransport::fail_owed(Run& run, NodeId n) {
  run.blame(n);
  for (OpId id : incoming_[n]) run.state.fail(id);
}

// Accepts connections until every op owed to `n` is done or failed (a
// sender that gave up fails the op itself), or until `n` dies — then the
// unresolved remainder fails. Accept polls with a short timeout so the
// exit conditions are re-checked. Every connection gets its own frame-loop
// ingest thread, so pooled connections keep delivering ops for the whole
// run and concurrent streams into one node progress independently.
void TcpTransport::accept_loop(Run& run, NodeId n) {
  std::vector<std::thread> ingests;
  try {
    while (!all_owed_resolved(run, n)) {
      if (run.is_dead(n)) {
        fail_owed(run, n);
        break;
      }
      Socket peer = listener_[n]->accept(kAcceptPollS);
      if (!peer.valid()) continue;  // poll timeout: re-check conditions
      ingests.emplace_back([this, &run, n, p = std::move(peer)]() mutable {
        try {
          ingest_conn(run, n, std::move(p));
        } catch (const std::exception& e) {
          run.record_error(e.what());
        }
      });
    }
  } catch (const std::exception& e) {
    run.record_error(e.what());
  }
  for (auto& t : ingests) t.join();
}

// One connection = one frame loop: with per-peer pooling on the sender
// side, consecutive ops over the same edge arrive back to back on one
// socket. Between frames the loop idles on a short poll — no recv deadline
// is armed while the connection legitimately sits quiet in the sender's
// pool — re-checking the run's exit conditions each tick. EOF or a desync
// ends the connection; the sender reconnects if it still has frames to
// deliver.
void TcpTransport::ingest_conn(Run& run, NodeId n, Socket peer) {
  for (;;) {
    for (;;) {  // idle: wait for the next frame or an exit condition
      if (run.is_dead(n)) {
        fail_owed(run, n);
        return;
      }
      if (all_owed_resolved(run, n)) return;
      if (peer.poll_readable(kAcceptPollS)) break;
    }
    ValueHeader h;
    try {
      // Once bytes are on the wire the frame must complete promptly; the
      // deadline bounds a sender dying mid-header.
      peer.set_recv_timeout(run.ex.params().retry.op_deadline_s);
      h = recv_header(peer, run.state.value_size());
    } catch (const std::exception&) {
      return;  // EOF or broken framing: the connection is done
    }
    if (h.op_id >= run.plan.ops.size() ||
        h.payload_len != run.state.value_size()) {
      throw std::runtime_error("tcp_runtime: bogus frame on wire");
    }
    if (!ingest_frame(run, n, peer, h.op_id)) return;
  }
}

// Ingests one frame whose header has been read: drains slice-sized pieces
// straight into the op's value buffer and publishes each one. A resumed
// (retried) stream re-reads the published prefix into scratch — those
// regions are concurrently read by consumers and must not be rewritten,
// and the resent bytes are content-identical anyway. Returns false when
// the connection desynced mid-payload and must be closed (the sender
// retries or has already failed the op).
bool TcpTransport::ingest_frame(Run& run, NodeId n, Socket& peer, OpId id) {
  runtime::detail::ExecState& st = run.state;
  const topology::Cluster& c = run.ex.cluster();
  const bool cross =
      c.rack_of(run.plan.ops[id].from) != c.rack_of(run.plan.ops[id].node);
  std::scoped_lock op_lock(ingest_mu_[id]);
  rs::Block& out = st.storage(id);
  std::size_t s = st.progress(id);
  try {
    std::vector<std::uint8_t> scratch(
        std::min<std::size_t>(st.range_len(0, s), 256u << 10));
    for (std::size_t left = st.range_len(0, s); left > 0;) {
      const std::size_t l = std::min(left, scratch.size());
      peer.read_exact({scratch.data(), l});
      left -= l;
    }
    for (; s < st.slices(); ++s) {
      const auto t0 = std::chrono::steady_clock::now();
      const std::size_t len = st.slice_len(s);
      peer.read_exact({out.data() + st.slice_offset(s), len});
      if (run.blame_if_dead(n)) {
        st.fail(id);
        return false;
      }
      run.metrics.transfer_slice(
          cross,
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count(),
          len);
      st.publish_slices(id, s + 1);
    }
  } catch (const std::exception&) {
    // Short read / timeout mid-stream: keep the published prefix; the
    // resumed stream picks up past it.
    return false;
  }
  return true;
}

}  // namespace

TcpRuntime::TcpRuntime(topology::Cluster cluster, TcpRuntimeParams params)
    : Executor("TcpRuntime", "tcp", cluster, std::move(params)) {}

repair::Attempt TcpRuntime::execute(const repair::RepairPlan& plan,
                                    std::span<const OpId> outputs,
                                    std::span<const rs::Block> stripe) {
  TcpTransport transport;
  return execute_over(plan, outputs, stripe, transport);
}

}  // namespace rpr::net
