// Networked runtime: runtime::Executor over real TCP connections.
//
// The closest in-process analogue of the paper's EC2 deployment (§5.2):
// every receiving node listens on a loopback TCP socket; the slices of each
// send op travel as one framed message through a real socket, with
// sender-side pacing at the configured region bandwidths (wondershaper's
// role in the paper's setup); partial decoding runs the real GF kernels.
// The op threads, slicing, fault session, retry loop and blame are the
// executor's (runtime/executor.h); this file only moves bytes.
//
// A send attempt writes one frame header declaring the whole value, then
// streams each slice range as its input publishes it, holding the sender's
// TX port per range. Receivers run one frame loop per connection and
// read every slice off the wire straight into the op's value buffer
// (overwriting its recycled bytes), publishing it at once, so the
// downstream chain overlaps the transfer. A
// retried attempt resends from slice 0; the receiver skips the prefix it
// already published. Rack uplinks and RX ports are not modeled — loopback
// has no TOR switch — so this runtime validates *correctness over a real
// network stack* and coarse timing, while runtime::Testbed and `simnet`
// carry the calibrated cost models.
//
// Connection reuse: a completed send parks its socket keyed by (sender,
// receiver) and the next op over that edge rides it. A stale pooled socket
// (peer tore it down while idle) is replaced at no retry or backoff cost,
// and an active fabric partition severs every pooled connection crossing
// the cut. `tcp.conn.opened` / `tcp.conn.reused` counters in the metrics
// registry expose the reuse rate.
//
// Faults surface through the socket layer: a killed node stops accepting
// and its sends are abandoned mid-stream (peers observe EOF/connection
// errors, bounded by the retry policy's timeouts — never a hang, see
// net/socket.h); a partition fails cross-cut connections as retryable
// errors, at open and between slice ranges of a stream already under way;
// a connection error is retried and, once retries run out, the
// receiver is declared lost.
#pragma once

#include <span>

#include "repair/plan.h"
#include "rs/rs_code.h"
#include "runtime/executor.h"

namespace rpr::net {

using TcpRuntimeParams = runtime::ExecutorParams;

class TcpRuntime final : public runtime::Executor {
 public:
  TcpRuntime(topology::Cluster cluster, TcpRuntimeParams params);

  /// Runs the plan with one thread per op (plus an acceptor per receiving
  /// node and an ingest thread per connection), moving every inter-node
  /// value through a real TCP connection. Returns outputs and measured wall
  /// time; under injected faults the attempt may instead carry an abort.
  repair::Attempt execute(const repair::RepairPlan& plan,
                          std::span<const repair::OpId> outputs,
                          std::span<const rs::Block> stripe) override;
};

}  // namespace rpr::net
