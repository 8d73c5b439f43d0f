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
//
// Every rack-aware equation (RPR, chained RPR, degraded reads, mid-repair
// re-plans) is built by plan_remainder (repair/replan.h); a first attempt is
// a remainder with no banked partials. CAR and traditional keep their own
// planners: their baselines use other inner shapes (CAR stars each rack;
// traditional ships raw blocks and scales them with combine_scaled).
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
  /// failure within a rack). Requires the cluster to have enough spares.
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

class Planner {
 public:
  virtual ~Planner() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual PlannedRepair plan(const RepairProblem& p) const = 0;
};

class TraditionalPlanner final : public Planner {
 public:
  [[nodiscard]] std::string name() const override { return "traditional"; }
  [[nodiscard]] PlannedRepair plan(const RepairProblem& p) const override;
};

class CarPlanner final : public Planner {
 public:
  [[nodiscard]] std::string name() const override { return "car"; }
  [[nodiscard]] PlannedRepair plan(const RepairProblem& p) const override;
};

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

class RprPlanner final : public Planner {
 public:
  explicit RprPlanner(RprOptions opts = {}) : opts_(opts) {}
  [[nodiscard]] std::string name() const override { return "rpr"; }
  [[nodiscard]] PlannedRepair plan(const RepairProblem& p) const override;

 private:
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
  [[nodiscard]] std::string name() const override { return "rpr-chained"; }
  [[nodiscard]] PlannedRepair plan(const RepairProblem& p) const override;

 private:
  RprOptions opts_;
};

enum class Scheme { kTraditional, kCar, kRpr, kRprChained };
[[nodiscard]] std::unique_ptr<Planner> make_planner(Scheme scheme);

/// Plans the reconstruction of ONE unavailable block, delivered to an
/// arbitrary `destination` node, using RPR's rack-aware pipeline. This is
/// the degraded-read path: `lost` lists every currently-unavailable block
/// (so none is used as a source), but only `target`'s sub-equation is
/// evaluated. Returns the plan and the op producing the block at
/// `destination`.
struct PlannedRead {
  RepairPlan plan;
  OpId output = kNoOp;
  bool used_decoding_matrix = false;
  /// The target's sub-equation (what the plan evaluates) and the survivor
  /// selection behind it — enough to hand the read to the resilient driver
  /// as a one-equation repair so helper failures mid-read re-plan instead
  /// of failing the read.
  rs::RepairEquation equation;
  std::vector<std::size_t> selected;
};
[[nodiscard]] PlannedRead plan_degraded_read(
    const rs::RSCode& code, const topology::Placement& placement,
    std::uint64_t block_size, std::span<const std::size_t> lost,
    std::size_t target, topology::NodeId destination, RprOptions opts = {});

/// Presents a degraded read as a one-equation repair so the resilient
/// driver (repair/resilient.h) can execute it: a helper that dies
/// mid-read triggers the driver's equation-patching re-plan instead of
/// failing the read. The caller passes the FULL lost set here (none of
/// those blocks may serve as a source); the driven problem must then name
/// exactly one failed block — the read target — with the reader node as
/// its "replacement", and list the remaining lost blocks' nodes in
/// ResilientOptions::unavailable.
class DegradedReadPlanner final : public Planner {
 public:
  explicit DegradedReadPlanner(std::vector<std::size_t> lost,
                               RprOptions opts = {})
      : lost_(std::move(lost)), opts_(opts) {}
  [[nodiscard]] std::string name() const override { return "degraded-read"; }
  [[nodiscard]] PlannedRepair plan(const RepairProblem& p) const override;

 private:
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
