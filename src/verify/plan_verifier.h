// Static repair-plan verification: prove a plan correct before it runs.
//
// A RepairPlan is the last artifact between the planners' algebra and real
// bytes on the wire; until now the only check of an emitted plan was the
// end-to-end byte comparison in tests (and `repair::validate`'s structural
// throw). The PlanVerifier lints a plan against three invariant classes:
//
//  (a) algebraic soundness — symbolically folds every read/send/combine
//      over GF(2^8) (a read contributes coeff * block, a combine
//      accumulates input_coeff * contribution) and asserts the expression
//      produced at each declared output equals the repair equation for
//      that failed block, term by term. When the codec is supplied the
//      equation itself is re-proved against the generator matrix:
//      sum_i c_i * G[src_i] must equal G[failed] row-for-row, which holds
//      iff the linear combination reconstructs the block for *every*
//      stripe content — independent of the matrix inversion that produced
//      the coefficients.
//  (b) topological soundness — every read happens on the node that
//      actually stores the block (placement-checked; pseudo partial slots
//      carry their own location), no read touches a failed/dead/corrupt
//      block, sends depart from the node holding the value, combines only
//      merge co-located values, the op graph is an acyclic DAG with no
//      use-before-produce and no orphaned intermediates.
//  (c) conservation invariants — the plan's cross- and inner-rack
//      transfer counts equal the closed-form prediction from
//      repair/analysis for the scheme that emitted it: more transfers
//      silently gives back the paper's traffic savings, fewer cannot be
//      computing the full equation.
//
// Every violation names the op index and the rack it concerns, and
// equation mismatches render a readable expected-vs-actual diff.
//
// Debug mode: with the environment variable RPR_VERIFY_PLANS set (to
// anything but "0"), every planner output and every mid-repair re-plan is
// verified before execution and a violation throws std::logic_error with
// the full report. Release binaries pay one getenv per plan when the mode
// is off.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "repair/analysis.h"
#include "repair/plan.h"
#include "repair/planner.h"
#include "repair/replan.h"
#include "rs/rs_code.h"
#include "topology/placement.h"

namespace rpr::verify {

enum class InvariantClass { kAlgebraic, kTopological, kConservation, kTiming };

[[nodiscard]] const char* to_string(InvariantClass c);

inline constexpr topology::RackId kNoRack =
    std::numeric_limits<topology::RackId>::max();

struct Violation {
  InvariantClass invariant = InvariantClass::kTopological;
  /// Offending op, or kNoOp for plan-level violations.
  repair::OpId op = repair::kNoOp;
  /// Rack the violation concerns, or kNoRack when not tied to one.
  topology::RackId rack = kNoRack;
  std::string message;
};

struct VerifyReport {
  std::vector<Violation> violations;

  [[nodiscard]] bool ok() const { return violations.empty(); }
  [[nodiscard]] std::size_t count(InvariantClass c) const;
  /// Readable multi-line listing; every line names the op index and rack.
  [[nodiscard]] std::string to_string() const;
};

class PlanVerifier {
 public:
  PlanVerifier(const repair::RepairPlan& plan,
               const topology::Cluster& cluster);

  /// Enables read-location checks (reads must happen where the block
  /// lives) and is required for conservation checks.
  PlanVerifier& with_placement(const topology::Placement& placement);

  /// Enables the generator-matrix identity proof of every output equation.
  PlanVerifier& with_code(const rs::RSCode& code);

  /// Blocks the plan must not read (failed, dead-resident, corrupt).
  PlanVerifier& forbid_blocks(const std::set<std::size_t>& blocks);

  /// Declares a pseudo stripe slot (index >= n+k): a banked partial living
  /// at `node`. `decomposition` gives its known linear combination over
  /// real blocks (used in the generator identity); empty means opaque, and
  /// the identity check is skipped for outputs referencing the slot.
  PlanVerifier& add_pseudo_slot(std::size_t slot, topology::NodeId node,
                                repair::LeafTerms decomposition = {});

  /// Declares an output: op must produce `terms` (over real + pseudo
  /// slots) for `failed_block` at `destination`.
  PlanVerifier& expect_output(repair::OpId op, std::size_t failed_block,
                              topology::NodeId destination,
                              repair::LeafTerms terms);

  /// Enables the conservation check against a closed-form prediction.
  PlanVerifier& expect_traffic(repair::analysis::PredictedTraffic expected);

  /// When the plan claims the XOR fast path (no decoding matrix), no
  /// combine may carry the matrix cost tag and every expected coefficient
  /// must be 1.
  PlanVerifier& expect_xor_only();

  /// Online fast path: skip the symbolic GF fold and generator identity
  /// (the expensive O(ops * terms) pass) while keeping every topological
  /// and conservation check. Used when a structurally identical plan's
  /// algebra already passed (plan-fingerprint cache hit).
  PlanVerifier& skip_algebra(bool skip = true);

  [[nodiscard]] VerifyReport run() const;

 private:
  struct ExpectedOutput {
    repair::OpId op = repair::kNoOp;
    std::size_t failed_block = 0;
    topology::NodeId destination = 0;
    repair::LeafTerms terms;
  };
  struct PseudoSlot {
    topology::NodeId node = 0;
    repair::LeafTerms decomposition;
  };

  void check_structure(VerifyReport& report) const;
  void check_reads(VerifyReport& report) const;
  void check_orphans(VerifyReport& report) const;
  void check_algebra(VerifyReport& report) const;
  void check_conservation(VerifyReport& report) const;

  [[nodiscard]] topology::RackId rack_of_op(repair::OpId id) const;
  /// n + k when the stripe shape is known (placement or code supplied),
  /// else 0 — which disables pseudo-slot detection.
  [[nodiscard]] std::size_t total_blocks() const;

  const repair::RepairPlan* plan_;
  const topology::Cluster* cluster_;
  const topology::Placement* placement_ = nullptr;
  const rs::RSCode* code_ = nullptr;
  std::set<std::size_t> forbidden_;
  std::map<std::size_t, PseudoSlot> pseudo_;
  std::vector<ExpectedOutput> outputs_;
  std::optional<repair::analysis::PredictedTraffic> expected_traffic_;
  bool expect_xor_only_ = false;
  bool skip_algebra_ = false;
};

/// Full verification of a planner's output: algebra against the planned
/// equations plus the generator identity, topology against the placement
/// (no read outside `planned.selected`, nor of a failed block),
/// conservation against the scheme's closed form. Degraded reads are
/// one-block repairs and verify here too.
[[nodiscard]] VerifyReport verify_planned_repair(
    const repair::PlannedRepair& planned,
    const repair::RepairProblem& problem, repair::Scheme scheme,
    bool skip_algebra = false);

/// One outstanding equation of a mid-repair re-plan, as the resilient
/// driver knows it: the remainder terms, the op expected to produce it,
/// and each banked partial's decomposition over real blocks, keyed by its
/// pseudo slot (a missing slot means the partial is opaque).
struct RemainderCheck {
  repair::RemainderEquation eq;
  repair::OpId output = repair::kNoOp;
  std::map<std::size_t, repair::LeafTerms> partial_decompositions;
};

/// Verification of a patched plan emitted by the re-plan loop: each
/// remainder equation folds to its terms, partials are read only at their
/// banked nodes, no forbidden block is touched, and the traffic matches
/// the summed per-equation closed form (scheme-aware: pipeline/star vs
/// direct shipping).
[[nodiscard]] VerifyReport verify_remainder_plan(
    const repair::RepairPlan& plan, const topology::Placement& placement,
    const rs::RSCode& code, std::span<const RemainderCheck> checks,
    const std::set<std::size_t>& forbidden, bool skip_algebra = false);

/// Timing verification against the closed-form makespan lower bound
/// (repair/analysis::makespan_lower_bound — pipeline-depth floor plus
/// port-load floor under `net`'s port model at `slice_size`).
///
/// Two directions:
///  * soundness — `measured_makespan_s` (a simulated or executed schedule
///    of `plan`) must not beat the floor: a measurement below it means the
///    schedule and the port model disagree (a mis-wired relay dependency
///    lets slices skip a stage, which is exactly how a broken chain shows
///    up in timing rather than in traffic counts);
///  * tightness (`expect_tight`) — the measurement must land within
///    `tolerance` (relative) of the floor. This is the *pipelining proof*
///    for chained sliced schedules: a chain whose every cross-rack port is
///    busy every slice interval meets the pipeline-depth bound; a
///    mis-ordered chain or a star in disguise serializes hops and blows
///    past it.
[[nodiscard]] VerifyReport verify_makespan(
    const repair::RepairPlan& plan, const topology::Cluster& cluster,
    const topology::NetworkParams& net, std::size_t slice_size,
    double measured_makespan_s, bool expect_tight = false,
    double tolerance = 0.35);

/// True when the RPR_VERIFY_PLANS debug mode is on (env var set to a
/// non-empty value other than "0"). Read per call so tests can toggle it.
[[nodiscard]] bool verify_plans_enabled();

/// True when online verification is on (the default): every plan and every
/// mid-repair re-plan is verified before execution/commit. RPR_VERIFY_ONLINE
/// set to "0" disables it (escape hatch for benchmarking the bare planner).
/// The online fast path always runs the topological + conservation checks
/// and gates the algebraic fold behind the plan-fingerprint cache;
/// RPR_VERIFY_PLANS forces the full uncached algebra on top.
[[nodiscard]] bool online_verify_enabled();

/// FNV-1a fingerprint of a plan's full structure (ops, coefficients,
/// nodes, inputs) plus the problem each output answers (its op, failed
/// block, destination, expected terms and banked partials) — the key of
/// the online algebra cache. Two problems that share a plan's structure
/// never share a key.
[[nodiscard]] std::uint64_t plan_fingerprint(
    const repair::RepairPlan& plan, std::span<const RemainderCheck> outputs);

/// Process-wide bounded cache of fingerprints whose algebraic fold already
/// passed: on a hit the fold may be skipped. Callers insert a fingerprint
/// only after its fold passed, so a rejected plan is rejected every time.
[[nodiscard]] bool algebra_cache_contains(std::uint64_t fingerprint);
void algebra_cache_insert(std::uint64_t fingerprint);

/// Throws std::logic_error carrying `context` and the full report when the
/// report has violations; no-op otherwise.
void throw_if_violated(const VerifyReport& report, const std::string& context);

}  // namespace rpr::verify
