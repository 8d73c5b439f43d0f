// Chaos / fault-injection model shared by every execution engine.
//
// The paper's premise is that repairs run while the cluster is already
// degraded — so a repair scheme that only works when all helpers stay
// healthy for the whole plan is not a repair scheme. One `FaultSchedule`
// describes the faults to inject into a single repair execution, and the
// same description drives all engines:
//
//   * simnet        — kills are applied at simulated time, stragglers scale
//                     simulated transfer durations (SimNetwork::slow_node);
//   * Testbed       — kills fire on the engine wall clock, stragglers slow
//                     the paced transfers of the afflicted node;
//   * TcpRuntime    — same, over real loopback sockets (a killed node stops
//                     its worker/acceptor; peers hit timeouts).
//
// Node-scoped fault kinds (the ones repair pipelining systems treat as
// first-class, cf. Li et al., arXiv:1908.01527):
//
//   kill      a helper node dies at time t and stays dead;
//   straggle  a node's outgoing transfers run `factor` times slower; with a
//             bounded `attempts` count the stall is transient — the first
//             `attempts` afflicted transfers fail/stall and later ones run
//             at full speed (a flapping link), which is what makes bounded
//             retry with backoff succeed without a re-plan;
//   corrupt   a stored source block's bytes are silently wrong; engines and
//             the storage layer detect it via checksums and must treat the
//             block as an erasure.
//
// Failure-domain fault kinds (rack-aware placement exists to survive
// exactly these correlated modes):
//
//   rack       a TOR switch dies: every node in rack R becomes unreachable
//              at T and stays dead — engines expand this to per-node kills;
//   partition  a fabric split at T: nodes on both sides stay ALIVE, but any
//              transfer crossing the cut fails; with `~D` the partition
//              heals after D seconds. Partitioned helpers must NOT be
//              declared lost — their banked partials stay valid and their
//              blocks become candidates again after heal;
//   slowdisk   node NODE's storage reads run F times slower (a degraded
//              disk at a helper or the replacement target);
//   diskfull   node NODE cannot accept a committed block — repair traffic
//              still flows through it, but the storage layer must relocate
//              the final commit to another node.
//
// Schedules are value types, cheap to copy, and parse from a compact spec
// string (`rpr_sim --chaos`): entries separated by ';' or ',':
//
//   kill:NODE@T            kill node NODE at T seconds (engine clock)
//   straggle:NODE*F        node NODE's transfers slowed by factor F
//   straggle:NODE*FxA      ... transient: clears after A afflicted attempts
//   corrupt:BLOCK          corrupt stripe block BLOCK at its source
//   rack:R@T               kill every node in rack R at T seconds
//   partition:{A|B}@T      split the fabric at T: racks in group A cannot
//                          reach racks in group B (rack ids '+'-separated,
//                          e.g. partition:{0+2|1}@0.5; braces optional)
//   partition:{A|B}@T~D    ... healing after D seconds
//   slowdisk:NODE*F        node NODE's disk reads slowed by factor F
//   diskfull:NODE          node NODE cannot commit a rebuilt block
//   seed:S                 seed for reproducible corruption bytes
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "topology/cluster.h"

namespace rpr::fault {

inline constexpr topology::NodeId kNoNode =
    std::numeric_limits<topology::NodeId>::max();

struct KillNode {
  topology::NodeId node = 0;
  /// Seconds since execution start on the engine's clock (simulated seconds
  /// for simnet, wall-clock seconds for the threaded engines).
  double at_s = 0.0;
};

struct Straggle {
  topology::NodeId node = 0;
  /// Outgoing-transfer slowdown multiplier (> 1).
  double factor = 8.0;
  /// Number of afflicted transfer attempts before the stall clears; the
  /// default (max) makes the degradation permanent.
  std::size_t attempts = std::numeric_limits<std::size_t>::max();

  [[nodiscard]] bool transient() const noexcept {
    return attempts != std::numeric_limits<std::size_t>::max();
  }
};

struct Corrupt {
  std::size_t block = 0;  ///< stripe block index, corrupted at its source
};

/// TOR-switch / whole-rack death: every node in `rack` dies at `at_s`.
/// Engines expand this to per-node kills via FaultSchedule::expand_racks.
struct RackKill {
  topology::RackId rack = 0;
  double at_s = 0.0;
};

/// Fabric split: racks in `side_a` cannot reach racks in `side_b` (and vice
/// versa) starting at `at_s`. Nodes on both sides stay alive. Racks listed
/// on neither side are implicitly on side A (they stay connected to the
/// majority side containing the coordinator's view of the cluster).
struct Partition {
  std::vector<topology::RackId> side_a;
  std::vector<topology::RackId> side_b;
  double at_s = 0.0;
  /// Seconds after `at_s` until the cut heals; < 0 means it never heals.
  double heal_after_s = -1.0;

  [[nodiscard]] bool heals() const noexcept { return heal_after_s >= 0.0; }

  /// 0 if `rack` is on side A (or unlisted), 1 if on side B.
  [[nodiscard]] int side_of(topology::RackId rack) const noexcept {
    for (const auto r : side_b) {
      if (r == rack) return 1;
    }
    return 0;
  }

  /// True when the cut lies between racks `a` and `b`.
  [[nodiscard]] bool separates(topology::RackId a,
                               topology::RackId b) const noexcept {
    return side_of(a) != side_of(b);
  }

  /// side_of(rack_of(n)) for every node n of `cluster` (index = NodeId).
  [[nodiscard]] std::vector<int> sides(
      const topology::Cluster& cluster) const;

  /// True when the cut is in effect at engine time `t`.
  [[nodiscard]] bool active_at(double t) const noexcept {
    if (t < at_s) return false;
    return !heals() || t < at_s + heal_after_s;
  }
};

/// Degraded disk: node's storage reads run `factor` times slower.
struct SlowDisk {
  topology::NodeId node = 0;
  double factor = 8.0;
};

/// Full disk: the node can relay repair traffic but cannot accept the
/// final committed block — the storage layer must relocate the commit.
struct DiskFull {
  topology::NodeId node = 0;
};

/// Retry/deadline policy for the threaded engines and the re-plan driver.
struct RetryPolicy {
  /// Transfer attempts per op before the peer is declared lost (>= 1).
  std::size_t max_attempts = 4;
  /// Backoff before retry i (0-based): base * multiplier^i.
  double base_backoff_s = 0.002;
  double backoff_multiplier = 2.0;
  /// Deterministic jitter span as a fraction of the backoff: retry i sleeps
  /// backoff_s(i) * (1 + jitter * u) with u in [0, 1) hashed from the op's
  /// key — concurrent ops retrying against a recovering helper spread out
  /// instead of thundering back in lockstep.
  double jitter = 0.25;
  /// An op exceeding threshold x its expected duration is a straggler: the
  /// attempt is abandoned and retried (paper-world: speculative re-fetch).
  double straggler_threshold = 4.0;
  /// Hard per-attempt cap in wall seconds (socket recv/connect timeouts).
  double op_deadline_s = 30.0;

  [[nodiscard]] double backoff_s(std::size_t retry) const noexcept {
    double b = base_backoff_s;
    for (std::size_t i = 0; i < retry; ++i) b *= backoff_multiplier;
    return b;
  }

  /// backoff_s(retry) with deterministic seeded jitter: `key` identifies
  /// the retrying op (op id, node, schedule seed — anything stable), so the
  /// same run always sleeps the same amounts but distinct ops de-correlate.
  [[nodiscard]] double backoff_jittered_s(std::size_t retry,
                                          std::uint64_t key) const noexcept;
};

struct FaultSchedule {
  std::vector<KillNode> kills;
  std::vector<Straggle> stragglers;
  std::vector<Corrupt> corruptions;
  std::vector<RackKill> rack_kills;
  std::vector<Partition> partitions;
  std::vector<SlowDisk> slow_disks;
  std::vector<DiskFull> disk_fulls;
  /// Seed for deterministic corruption bytes (chaos runs are reproducible).
  std::uint64_t seed = 0x5eed;

  [[nodiscard]] bool empty() const noexcept {
    return kills.empty() && stragglers.empty() && corruptions.empty() &&
           rack_kills.empty() && partitions.empty() && slow_disks.empty() &&
           disk_fulls.empty();
  }

  /// First straggle entry for `node`, or nullptr.
  [[nodiscard]] const Straggle* straggle_of(topology::NodeId node) const;
  /// First kill entry for `node`, or nullptr.
  [[nodiscard]] const KillNode* kill_of(topology::NodeId node) const;
  /// All corrupted block indices.
  [[nodiscard]] std::vector<std::size_t> corrupt_blocks() const;
  /// Slow-disk entry for `node`, or nullptr.
  [[nodiscard]] const SlowDisk* slowdisk_of(topology::NodeId node) const;
  /// True when `node` cannot accept a committed block.
  [[nodiscard]] bool diskfull(topology::NodeId node) const;

  /// Expands every rack kill into per-node kills for `cluster` (appended to
  /// `kills`, duplicates with existing per-node kills keep the earlier
  /// time) and clears `rack_kills`. Engines call this once at start-up so
  /// their kill machinery only ever sees node-scoped entries.
  void expand_racks(const topology::Cluster& cluster);

  /// Validates every entry against the topology: node/rack ids in range,
  /// partition sides disjoint and non-empty, corrupt indices below
  /// `total_blocks` (0 skips the corrupt check — block count unknown).
  /// Throws std::invalid_argument with a readable message.
  void validate(const topology::Cluster& cluster,
                std::size_t total_blocks = 0) const;

  /// Parses the spec grammar documented at the top of this header.
  /// Throws std::invalid_argument on malformed or conflicting input
  /// (duplicate kill/straggle/slowdisk/diskfull of a node, duplicate
  /// rack kill or corrupt of a block).
  static FaultSchedule parse(std::string_view spec);

  /// Human-readable round-trip of the schedule (not necessarily the exact
  /// input spec, but parseable by parse()).
  [[nodiscard]] std::string describe() const;
};

/// Deterministically corrupts `bytes` in place (flips a seeded selection of
/// bytes — never a no-op on a non-empty buffer).
void corrupt_bytes(std::span<std::uint8_t> bytes, std::uint64_t seed);

}  // namespace rpr::fault
