// Repair planners: one per scheme the paper evaluates.
//
//  * TraditionalPlanner — §2.3 / Fig. 3: every selected survivor block is
//    shipped (raw) to the replacement node, which then runs the traditional
//    decode (matrix build + multiply).
//  * CarPlanner — the CAR baseline [Shen, Shu, Lee; DSN'16] as the paper
//    describes it (§5.1): rack-local partial decoding (aggregation at one
//    node per rack), then every rack's intermediate is sent straight to the
//    recovery rack (a star; no pipeline), followed by the traditional
//    decode. Single-block failures only — exactly the scope CAR covers.
//  * RprPlanner — the paper's contribution: Algorithm 1 "Inner" (pairwise
//    inner-rack reduction), Algorithm 2 "Cross" (greedy pipelined cross-rack
//    reduction), §3.3 XOR fast path, and the §3.4 multi-failure extension
//    (one sub-equation per failed block, rack intermediates per
//    sub-equation, pipelined cross-rack reductions).
//  * RprChainedPlanner — RPR with an ECPipe-style relay chain in place of
//    the cross-rack merge tree.
//  * DegradedReadPlanner — a degraded read is a one-block RPR repair whose
//    replacement is the reader: the same planning body as RprPlanner, with
//    every unavailable block kept out of the survivor selection.
//
// Every rack-aware plan (RPR, chained RPR, degraded reads) comes from one
// planning body in rpr.cpp, and every rack-aware equation — first attempt
// or mid-repair re-plan — is built by plan_remainder (repair/replan.h); a
// first attempt is a remainder with no banked partials. CAR and traditional
// keep their own planners: their baselines use other inner shapes (CAR
// stars each rack; traditional ships raw blocks and scales them with
// combine_scaled).
//
// Every planner has one contract: Planner::plan runs the scheme's body and,
// under RPR_VERIFY_PLANS, verifies the output against scheme() before
// returning it. scheme() is also how the resilient driver verifies the
// initial plan online and picks the re-plan shape.
//
// Planners emit a RepairPlan DAG; all timing decisions (who goes first when
// ports contend) are taken greedily by the executor, which is what makes the
// cross-rack schedule "pipelined": nothing waits unless a port is busy.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "repair/plan.h"
#include "rs/rs_code.h"
#include "topology/placement.h"

namespace rpr::repair {

/// A concrete repair task: which blocks of a placed stripe failed, and the
/// replacement node chosen for each (conventionally a spare in the failed
/// block's own rack).
struct RepairProblem {
  const rs::RSCode* code = nullptr;
  const topology::Placement* placement = nullptr;
  std::uint64_t block_size = 0;
  std::vector<std::size_t> failed;                  ///< block indices
  std::vector<topology::NodeId> replacements;       ///< one per failed block

  /// Fills `replacements` with rack-local spares (spare slot i for the i-th
  /// failure within a rack): the fault-free convention the golden tables
  /// and benches are built on. It ignores dead nodes and full disks; a live
  /// cluster picks with topology::pick_replacement. Requires the cluster to
  /// have enough spares.
  void choose_default_replacements();
};

struct PlannedRepair {
  RepairPlan plan;
  /// The op producing each failed block's reconstructed value, at its
  /// replacement node; parallel to RepairProblem::failed.
  std::vector<OpId> outputs;
  /// The repair equations the plan evaluates (parallel to failed).
  std::vector<rs::RepairEquation> equations;
  /// Whether the scheme had to build a decoding matrix (affects the final
  /// combine's cost tag and the testbed's decode path).
  bool used_decoding_matrix = false;
  /// The n survivor blocks chosen as sources.
  std::vector<std::size_t> selected;
};

enum class Scheme { kTraditional, kCar, kRpr, kRprChained };

/// The scheme's short name: "traditional", "car", "rpr" or "rpr-chained".
[[nodiscard]] const char* to_string(Scheme scheme);

struct RprOptions {
  /// Prefer the XOR survivor set {surviving data, P0} for single data-block
  /// failures (§3.3). Disabled by the placement-ablation bench.
  bool prefer_xor_set = true;
  /// Use the pipelined cross-rack reduction (§3.2). When false, intermediates
  /// are star-sent to the recovery rack (isolates the pipeline's
  /// contribution — Fig. 5 schedule 1 vs schedule 2).
  bool pipeline_cross = true;
  /// Optional relative cost of one cross-rack block transfer between two
  /// racks (higher = slower link); empty means uniform, the paper's
  /// assumption. Supplying real link costs makes the greedy pipeline
  /// heterogeneity-aware -- the extension the paper's related work (Gong et
  /// al. [11]) motivates and which the EC2-style testbed (Table 1) needs.
  /// Only ratios matter; the uniform default is 10 (= 10 t_i).
  std::function<double(topology::RackId, topology::RackId)> cross_cost;
};

class Planner {
 public:
  virtual ~Planner() = default;
  /// The scheme whose closed-form traffic the plan is held to.
  [[nodiscard]] virtual Scheme scheme() const = 0;
  [[nodiscard]] std::string name() const { return to_string(scheme()); }
  /// Plans `p`; under RPR_VERIFY_PLANS the output is verified against
  /// scheme() first and a violation throws std::logic_error.
  [[nodiscard]] PlannedRepair plan(const RepairProblem& p) const;
  /// The options the resilient driver re-plans this planner's sessions
  /// with; CAR and traditional report the defaults.
  [[nodiscard]] virtual RprOptions rpr_options() const { return {}; }

 private:
  [[nodiscard]] virtual PlannedRepair do_plan(const RepairProblem& p) const = 0;
};

class TraditionalPlanner final : public Planner {
 public:
  [[nodiscard]] Scheme scheme() const override { return Scheme::kTraditional; }

 private:
  [[nodiscard]] PlannedRepair do_plan(const RepairProblem& p) const override;
};

class CarPlanner final : public Planner {
 public:
  [[nodiscard]] Scheme scheme() const override { return Scheme::kCar; }

 private:
  [[nodiscard]] PlannedRepair do_plan(const RepairProblem& p) const override;
};

class RprPlanner final : public Planner {
 public:
  explicit RprPlanner(RprOptions opts = {}) : opts_(opts) {}
  [[nodiscard]] Scheme scheme() const override { return Scheme::kRpr; }
  [[nodiscard]] RprOptions rpr_options() const override { return opts_; }

 private:
  [[nodiscard]] PlannedRepair do_plan(const RepairProblem& p) const override;
  RprOptions opts_;
};

/// Chained variant of RPR: RprPlanner's selection and inner-rack trees, with
/// the rack intermediates relayed along one chain into the recovery rack
/// (RemainderScheme::kChain). Same cross-rack bytes as the merge tree; under
/// slice pipelining the recovery rack's cross-RX port receives one stream
/// instead of q.
class RprChainedPlanner final : public Planner {
 public:
  explicit RprChainedPlanner(RprOptions opts = {}) : opts_(opts) {}
  [[nodiscard]] Scheme scheme() const override { return Scheme::kRprChained; }
  [[nodiscard]] RprOptions rpr_options() const override { return opts_; }

 private:
  [[nodiscard]] PlannedRepair do_plan(const RepairProblem& p) const override;
  RprOptions opts_;
};

[[nodiscard]] std::unique_ptr<Planner> make_planner(Scheme scheme);

/// A degraded read as a one-block RPR repair: the problem names exactly one
/// failed block (the read target) with the reader as its replacement. The
/// planner is given the FULL lost set, none of which may serve as a source;
/// only the target's sub-equation is evaluated. The resilient driver
/// (repair/resilient.h) runs it like any repair, so a helper that dies
/// mid-read triggers an equation-patching re-plan; the caller lists the
/// other lost blocks' nodes in ResilientOptions::unavailable. Held to RPR's
/// closed form (scheme() is kRpr).
class DegradedReadPlanner final : public Planner {
 public:
  explicit DegradedReadPlanner(std::vector<std::size_t> lost,
                               RprOptions opts = {})
      : lost_(std::move(lost)), opts_(opts) {}
  [[nodiscard]] Scheme scheme() const override { return Scheme::kRpr; }
  [[nodiscard]] RprOptions rpr_options() const override { return opts_; }

 private:
  [[nodiscard]] PlannedRepair do_plan(const RepairProblem& p) const override;
  std::vector<std::size_t> lost_;
  RprOptions opts_;
};

/// Survivor selection that minimizes the number of non-recovery racks
/// involved (and therefore cross-rack traffic): recovery-rack survivors are
/// free, remaining racks are taken whole, fullest first. Used by CAR and by
/// RPR whenever the XOR set does not apply.
[[nodiscard]] std::vector<std::size_t> select_min_racks(
    const rs::RSCode& code, const topology::Placement& placement,
    std::span<const std::size_t> failed, topology::RackId recovery_rack);

}  // namespace rpr::repair
