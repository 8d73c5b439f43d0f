// StorageSystem: a small erasure-coded distributed object store over the
// rack topology — the system surface that ties the RS codec, placement
// policies, repair planners and executors together.
//
// It is an in-process model (each stripe holds its blocks in one slot per
// block id, standing for the disk of the node the block lives on), but it
// exercises the full production control flow the paper assumes:
//
//   put()            split an object into n data blocks, encode k parities
//                    (one tiled pass that also fingerprints the data),
//                    place the stripe per the configured policy (stripes are
//                    rack-rotated so load spreads like a real cluster);
//   fail_node/rack() kill disks; blocks on dead nodes are lost;
//   get()            object read with transparent degraded reads (lost data
//                    blocks are decoded from survivors on the fly);
//   repair()         plan with the configured scheme (traditional / CAR /
//                    RPR), execute the plan, write the rebuilt blocks onto
//                    rack-aware replacement nodes and update the stripe map.
//                    Reports per-repair traffic and simulated repair time.
//
// Durability invariants (this layer's robustness contract):
//
//   * every block's digest — its GF(2^8)-linear fingerprint (gf/fingerprint.h:
//     eight 256-byte lanes plus the length, computed at region-kernel speed;
//     any single-chunk change is always caught, any other error independent
//     of the key is missed with probability at most 2^-64) — is recorded at
//     encode time, and bytes are fingerprinted whenever they are written: at
//     put (each data block tile by tile as put's one pass writes it; the
//     parity digests follow by linearity, fp(P_i) = Σ_j g_ij · fp(D_j), so
//     they are what the code predicts), at a verified commit, and after
//     corrupt_block() changes them. Bytes that no longer match (silent bit
//     rot) leave their slot at once and count as one more erasure, so a scan
//     is a lookup and corrupt bytes never reach a planner, executor or
//     decoder;
//   * every block leaving storage is fingerprinted again before it is
//     returned: read_block() checks the block it delivers (a healthy read
//     folds its copy tile by tile as it writes it, gf::fingerprint_copy),
//     get() each block it decodes (intact blocks are copied straight from
//     their slots);
//   * blocks are rs::Blocks on the process-wide util::PagePool's recycled
//     pages (util/pages.h): put takes all n+k uninitialized, repairs commit
//     the data executor's outputs, get writes the object into one, and a
//     block goes back to the pool when it dies (a wiped node, a destroyed
//     system, a returned object dropped), so steady-state puts and gets
//     fault in no block pages;
//   * repair commits are verified: a rebuilt block is installed only after
//     its digest matches the one recorded at encode time (a wrong repair
//     throws instead of silently replacing good data with garbage);
//   * every repair and degraded read runs as a resilient session
//     (repair::simulate_resilient); with no chaos schedule that is the
//     zero-fault session. Under a schedule (options.chaos) helpers killed
//     mid-repair cause equation-patching re-plans, stragglers slow
//     transfers, and the report carries replans/retries/faults alongside
//     the usual traffic numbers.
//     Rack-scale failure domains ride the same schedule: a TOR death
//     (rack:R@T) fails a whole rack in one re-plan, a fabric partition
//     leaves helpers alive-but-unreachable (their banked partials stay
//     valid), a full disk (diskfull:NODE) can never accept a committed
//     block — topology::pick_replacement places each stripe's rebuilds
//     once, off dead nodes and full disks and rack fault tolerant when it
//     can; the fleet wave times the replacements its commits use;
//   * every plan — initial repair, degraded read (a one-block RPR repair
//     rooted at the reader) and mid-repair re-plan — is verified online by
//     the resilient session before execution (topology + traffic
//     conservation always; the algebraic fold gated behind a
//     plan-fingerprint cache).
//     RPR_VERIFY_ONLINE=0 disables, RPR_VERIFY_PLANS forces full algebra.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "fault/fault.h"
#include "gf/fingerprint.h"
#include "repair/executor_sim.h"
#include "repair/planner.h"
#include "repair/resilient.h"
#include "rs/rs_code.h"
#include "sched/scheduler.h"
#include "topology/placement.h"

namespace rpr::storage {

using StripeId = std::uint64_t;

struct StorageOptions {
  rs::CodeConfig code{6, 3};
  rs::MatrixKind matrix = rs::MatrixKind::kCauchy;
  topology::PlacementPolicy policy = topology::PlacementPolicy::kRpr;
  repair::Scheme repair_scheme = repair::Scheme::kRpr;
  std::uint64_t block_size = 1 << 16;  ///< bytes per block
  /// Racks beyond the minimum the placement needs; gives whole-rack
  /// failures somewhere to rebuild without degrading fault tolerance.
  std::size_t extra_racks = 0;
  topology::NetworkParams network{};
  /// Optional telemetry sink: every repair / degraded-read simulation
  /// records into it (counters and histograms accumulate across repairs),
  /// and storage.digest_bytes counts every byte the integrity digest hashes.
  /// Both pointers null (the default) disables telemetry entirely.
  obs::Probe probe{};
  /// Faults injected into every repair (kill/straggle on the simulated
  /// clock; corruptions are applied to the stored bytes once, before the
  /// first repair). Empty = the zero-fault session: one attempt, no
  /// re-plans.
  fault::FaultSchedule chaos{};
};

struct RepairReport {
  StripeId stripe = 0;
  std::vector<std::size_t> repaired_blocks;
  std::string scheme;
  bool used_decoding_matrix = false;
  std::uint64_t cross_rack_bytes = 0;
  std::uint64_t inner_rack_bytes = 0;
  util::SimTime simulated_repair_time = 0;
  /// True once every rebuilt block's digest matched its encode-time digest
  /// (always true when the report is returned — a mismatch throws).
  bool verified = false;
  /// Chaos-session statistics (all zero for fault-free repairs).
  std::size_t replans = 0;
  std::size_t retries = 0;
  std::size_t faults_injected = 0;
  std::size_t reused_values = 0;
  /// Re-plans that switched the remainder onto a different aggregation
  /// scheme (pipeline / star / direct) after the recovery rack changed.
  std::size_t scheme_switches = 0;
  /// Partition aborts ridden out by waiting for the cut to heal.
  std::size_t partition_waits = 0;
};

/// One client block read served with real bytes (see read_block).
struct ReadReport {
  StripeId stripe = 0;
  std::size_t block = 0;
  topology::NodeId reader = 0;
  /// True when the block was lost and had to be reconstructed in flight.
  bool degraded = false;
  /// The delivered bytes hashed to the encode-time digest (always true
  /// when the report is returned — a mismatch throws).
  bool verified = false;
  rs::Block data;
  util::SimTime simulated_read_time = 0;
  std::uint64_t cross_rack_bytes = 0;
  std::uint64_t inner_rack_bytes = 0;
  /// Chaos-session statistics (zero for fault-free / healthy reads).
  std::size_t replans = 0;
  std::size_t retries = 0;
  std::size_t faults_injected = 0;
};

/// A whole recovery wave run through the fleet scheduler (see
/// repair_all_scheduled): admission-controlled, bandwidth-arbitrated
/// timing plus the per-stripe verified commits.
struct FleetRepairReport {
  /// Scheduler timing over the damaged stripes (admission waits,
  /// completion percentiles, read latencies, class bandwidth split).
  sched::FleetSchedOutcome schedule;
  /// Stripe ids in workload order (schedule indices map through this).
  std::vector<StripeId> stripes;
  /// Committed repairs, parallel to `stripes`.
  std::vector<RepairReport> repairs;
};

class StorageSystem {
 public:
  explicit StorageSystem(StorageOptions opts);
  StorageSystem(const StorageSystem&) = delete;
  StorageSystem& operator=(const StorageSystem&) = delete;

  [[nodiscard]] const topology::Cluster& cluster() const noexcept {
    return cluster_;
  }
  [[nodiscard]] const rs::RSCode& code() const noexcept { return code_; }
  [[nodiscard]] const StorageOptions& options() const noexcept {
    return opts_;
  }

  /// Stores an object (padded to n * block_size) as one stripe.
  StripeId put(std::span<const std::uint8_t> object);

  /// Reads the object back, transparently decoding around lost blocks,
  /// into one pooled block written once (rs::copy_bytes, sharded over the
  /// shared thread pool). Throws std::runtime_error if more than k blocks of the
  /// stripe are lost.
  [[nodiscard]] rs::Block get(StripeId stripe) const;

  /// Marks a node dead and wipes its store.
  void fail_node(topology::NodeId node);
  /// Fails every node in the rack.
  void fail_rack(topology::RackId rack);
  /// Returns replaced hardware to service: alive again, storage empty.
  /// (Blocks it used to hold live on their repair-time replacement nodes.)
  void revive_node(topology::NodeId node);

  [[nodiscard]] bool node_alive(topology::NodeId node) const {
    return alive_[node];
  }

  /// Blocks of `stripe` currently lost: on dead nodes, or holding bytes
  /// that fail their encode-time digest (silent corruption is an erasure).
  /// A lookup: intact state is recorded when bytes are written.
  [[nodiscard]] std::vector<std::size_t> lost_blocks(StripeId stripe) const;

  /// Silently corrupts the stored bytes of one block in place (seeded,
  /// deterministic) and hashes them once: bytes that no longer match their
  /// digest stay on their node but leave the stripe's view, so every later
  /// read/repair treats the block as lost. Corrupting the same block again
  /// XORs the same masks back and makes it intact again. Throws if the
  /// block is not currently stored.
  void corrupt_block(StripeId stripe, std::size_t block);

  /// Repairs one stripe with the configured scheme. No-op (empty report)
  /// when nothing is lost; throws if the stripe is unrecoverable.
  RepairReport repair(StripeId stripe);

  /// Repairs every damaged stripe; returns one report per repaired stripe.
  std::vector<RepairReport> repair_all();

  /// Serves one block of `stripe` to a client at `reader` with REAL bytes:
  /// a healthy block is returned from its store; a lost block is
  /// reconstructed on the fly by DegradedReadPlanner, a one-block RPR
  /// repair rooted at the reader, run as a resilient session: the initial
  /// plan is verified online, and with a chaos schedule a helper killed
  /// mid-read triggers an equation-patching re-plan, so the read completes
  /// byte-identical as long as the stripe stays recoverable.
  /// Every delivered block is digest-verified against its encode-time
  /// hash; a mismatch throws rather than returning wrong data.
  [[nodiscard]] ReadReport read_block(StripeId stripe, std::size_t block,
                                      topology::NodeId reader);

  /// Repairs every damaged stripe through the fleet scheduler
  /// (sched::run_fleet): stripes queue under `sopts` admission control and
  /// bandwidth arbitration (plus the optional synthetic foreground load)
  /// for timing, then each stripe's data repair commits through the same
  /// verified path as repair(). The schedule's per-stripe indices map to
  /// stripe ids via FleetRepairReport::stripes.
  FleetRepairReport repair_all_scheduled(
      const sched::SchedulerOptions& sopts,
      const sched::ForegroundWorkload& foreground = {});

  /// Where each block of a stripe currently lives.
  [[nodiscard]] std::vector<topology::NodeId> stripe_nodes(
      StripeId stripe) const;

  [[nodiscard]] std::size_t stripe_count() const noexcept {
    return stripes_.size();
  }

 private:
  struct Stripe {
    std::vector<topology::NodeId> node_of_block;
    /// One slot per block id: the intact bytes stored on node_of_block[b],
    /// or empty when that node is dead or its bytes fail their digest. The
    /// slots are the stripe view every plan and decode reads in place.
    std::vector<rs::Block> blocks;
    /// Encode-time digest of each block's true contents (survives node
    /// failures; a verified commit must reproduce it).
    std::vector<gf::Fingerprint> digest;
    /// Corrupt bytes still on their node, by block id: out of the view,
    /// but there for a later corruption to XOR back.
    std::map<std::size_t, rs::Block> corrupt;
    std::uint64_t object_size = 0;
  };

  /// One stripe's repair set-up, shared by repair(), the fleet wave and a
  /// degraded read. The problem points into the placement it owns.
  struct Rebuild {
    std::unique_ptr<topology::Placement> placement;
    repair::RepairProblem problem;
    repair::ResilientOptions ropts;
  };
  /// The set-up rebuilding `failed` of `s` at `reader` (a degraded read) or
  /// else at topology::pick_replacement nodes, off dead and full disks. Dead
  /// nodes and the nodes of lost blocks outside `failed` are unavailable.
  [[nodiscard]] Rebuild prepare_rebuild(
      const Stripe& s, std::vector<std::size_t> failed,
      std::optional<topology::NodeId> reader = std::nullopt) const;
  /// Runs `r` as one resilient session and installs its verified blocks.
  RepairReport run_rebuild(StripeId stripe, const Rebuild& r);
  /// gf::fingerprint of `bytes`, counted into storage.digest_bytes.
  [[nodiscard]] gf::Fingerprint digest(
      std::span<const std::uint8_t> bytes) const;
  /// Drops every block `node` holds (disk loss or replaced hardware).
  void wipe_node(topology::NodeId node);
  void apply_chaos_corruptions();

  StorageOptions opts_;
  rs::RSCode code_;
  topology::Cluster cluster_;
  std::unique_ptr<repair::Planner> planner_;
  std::vector<bool> alive_;  // per node
  std::map<StripeId, Stripe> stripes_;
  StripeId next_stripe_ = 0;
  bool chaos_corruptions_applied_ = false;
};

}  // namespace rpr::storage
