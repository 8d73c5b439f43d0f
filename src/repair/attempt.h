// One attempt record and one engine contract. Every repair engine — the
// simulator's chaos engine (repair/resilient.cpp), runtime::Testbed and
// net::TcpRuntime — runs one plan per execute() call and hands back the same
// record, so the resilient session (repair/resilient.h) drives all three
// through one entry, execute_resilient_with.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "repair/plan.h"
#include "rs/rs_code.h"
#include "topology/cluster.h"

namespace rpr::repair {

/// Why and where an attempt gave up, plus everything it salvaged.
struct Abort {
  /// Every node declared lost, the blamed one first (a whole-rack death
  /// names them all, so one re-plan absorbs the whole failure domain).
  /// Empty iff `partitioned`.
  std::vector<topology::NodeId> dead_nodes;
  /// The abort was a fabric partition, not a death: the blamed endpoints
  /// are ALIVE but unreachable and must not be substituted away.
  bool partitioned = false;
  /// partitioned: engine-clock seconds until the cut heals; < 0 means the
  /// split is permanent and the session must reroute.
  double heal_wait_s = -1.0;
  /// partitioned: side of the cut per node (fault::Partition::sides).
  std::vector<int> partition_side;
  /// Values fully materialized before the failure, excluding any resident
  /// on a dead node.
  std::vector<std::pair<OpId, rs::Block>> finished;
};

/// Result of one execution of one plan.
struct Attempt {
  /// The requested output values, parallel to the `outputs` span the
  /// attempt was given (empty when aborted).
  std::vector<rs::Block> outputs;
  /// Engine-clock seconds the attempt took (simulated time, or wall time
  /// under the threaded engines' time_scale; an abort stops the clock at
  /// the cut).
  double elapsed_s = 0.0;
  std::uint64_t cross_rack_bytes = 0;
  std::uint64_t inner_rack_bytes = 0;
  /// Transfer tasks that carried those bytes (one per slice when sliced);
  /// counted by the simulator only.
  std::size_t cross_rack_transfers = 0;
  std::size_t inner_rack_transfers = 0;
  /// Transfer attempts abandoned (straggler deadline, cut, connection
  /// error) and retried.
  std::size_t retries = 0;
  /// Fault activations observed (straggles biting, slow disks; kills are
  /// reported via `abort` and counted by the session).
  std::size_t faults_injected = 0;
  /// Engaged iff a requested output became unreachable; the attempt is
  /// then a partial result, not an error.
  std::optional<Abort> abort;
};

/// A repair engine. One instance serves a whole session, so nodes it
/// declared dead stay dead across attempts.
class Engine {
 public:
  virtual ~Engine() = default;

  /// Runs `plan` over `stripe` (which may be extended with pseudo partial
  /// slots beyond n+k) and reports the requested `outputs` or the abort.
  virtual Attempt execute(const RepairPlan& plan,
                          std::span<const OpId> outputs,
                          std::span<const rs::Block> stripe) = 0;

  /// Rides out a healing partition: `seconds` of engine clock pass before
  /// the next attempt. Threaded engines sleep; the simulator advances its
  /// session clock.
  virtual void wait_for_heal(double seconds) = 0;
};

}  // namespace rpr::repair
