// RPR: the paper's rack-aware pipeline repair scheme (§3).
//
// Single-block failure:
//  1. Survivor selection. For a data-block failure with P0 alive, prefer
//     the XOR set {all surviving data, P0} (§3.3): all coefficients are 1,
//     so no decoding matrix is ever built, and the final combine runs at
//     the fast XOR-decode speed. Otherwise fall back to the rack-minimizing
//     selection (same traffic as CAR).
//  2. Inner-rack partial decoding (Algorithm 1 "Inner"): survivors within a
//     rack merge pairwise — disjoint pairs transfer in parallel, so a rack
//     with m survivors finishes in ceil(log2 m) inner-rack rounds.
//  3. Cross-rack pipeline (Algorithm 2 "Cross"): rack intermediates merge
//     greedily in pairs, rooted at the replacement node. Merges between
//     non-recovery racks overlap with transfers into the recovery rack
//     (Fig. 5 schedule 2), giving ~ceil(log2(s+1)) cross-rack rounds for s
//     source racks instead of CAR's s serialized rounds.
//
// Multi-block failure (§3.4, Algorithms 3/4 "Inner-multi"/"Cross-multi";
// the paper defers their listing to external links, so the realization here
// follows §3.4's prose and §4.3's cost model):
//  * one repair sub-equation per lost block (eq. 8);
//  * per sub-equation, every involved rack produces its own intermediate
//    block via Algorithm 1 with that sub-equation's coefficients (eq. 9);
//  * each sub-equation runs its own cross-rack pipelined reduction rooted
//    at that block's replacement node;
//  * the sub-equations share node and rack ports, so the executor pipelines
//    them: while sub-equation 0's intermediates cross racks, sub-equation
//    1's inner-rack decodes proceed — the paper's worst case of k * t_i
//    inner time plus ceil(log2 q) * t_c per sub-equation emerges naturally.
//
// A degraded read is the one-block case with the reader as the
// replacement: every unavailable block stays out of the selection, and only
// the target's sub-equation is evaluated.
//
// Each sub-equation is built by plan_remainder (repair/replan.h), the
// builder mid-repair re-plans use too.
#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>

#include "repair/planner.h"
#include "repair/replan.h"

namespace rpr::repair {

namespace {

RemainderEquation first_attempt(const rs::RepairEquation& eq,
                                topology::NodeId destination,
                                bool with_matrix, RemainderScheme scheme) {
  return {.failed_block = eq.failed_block,
          .terms = leaf_terms(eq),
          .partials = {},
          .destination = destination,
          .with_matrix = with_matrix,
          .scheme = scheme};
}

/// The plan body every rack-aware planner shares. `lost` is every
/// unavailable block (it contains p.failed): none of them is selected as a
/// source, but equations are evaluated only for p.failed. `shape` picks
/// the cross-rack reduction; survivor selection does not depend on it —
/// the chain changes the schedule's shape, not which blocks participate.
PlannedRepair plan_rack_aware(const RepairProblem& p,
                              std::span<const std::size_t> lost,
                              const RprOptions& opts, RemainderScheme shape,
                              const std::string& name) {
  if (p.code == nullptr || p.placement == nullptr) {
    throw std::invalid_argument(name + ": problem not fully specified");
  }
  if (p.failed.empty() || p.failed.size() != p.replacements.size()) {
    throw std::invalid_argument(name + ": bad failed/replacement sets");
  }
  const auto& cfg = p.code->config();
  if (lost.size() > cfg.k) {
    throw std::invalid_argument(name +
                                ": more than k failures is unrecoverable");
  }

  PlannedRepair out;
  out.plan.block_size = p.block_size;

  const topology::RackId primary_rack =
      p.placement->cluster().rack_of(p.replacements[0]);

  // Survivor selection (§3.3): XOR set when it applies, else rack-minimal.
  const bool want_xor =
      opts.prefer_xor_set && lost.size() == 1 && cfg.is_data(p.failed[0]);
  if (want_xor) {
    out.selected = p.code->default_selection(lost);  // prefers XOR set
  } else {
    out.selected = select_min_racks(*p.code, *p.placement, lost, primary_rack);
  }
  out.equations = p.code->repair_equations(p.failed, out.selected);
  // Without the §3.3 optimization a generic decoder (e.g. Jerasure's)
  // builds the decoding matrix unconditionally, even when the selected set
  // happens to be the XOR set — so the fast path is only taken when the
  // optimization is enabled.
  out.used_decoding_matrix = !(opts.prefer_xor_set && p.failed.size() == 1 &&
                               out.equations[0].xor_only());

  out.outputs.resize(p.failed.size(), kNoOp);
  for (std::size_t e = 0; e < out.equations.size(); ++e) {
    out.outputs[e] = plan_remainder(
        out.plan, *p.placement,
        first_attempt(out.equations[e], p.replacements[e],
                      out.used_decoding_matrix, shape),
        opts, e);
  }
  return out;
}

}  // namespace

PlannedRepair RprPlanner::do_plan(const RepairProblem& p) const {
  return plan_rack_aware(p, p.failed, opts_, RemainderScheme::kPipeline,
                         name());
}

PlannedRepair RprChainedPlanner::do_plan(const RepairProblem& p) const {
  return plan_rack_aware(p, p.failed, opts_, RemainderScheme::kChain, name());
}

PlannedRepair DegradedReadPlanner::do_plan(const RepairProblem& p) const {
  if (p.failed.size() != 1 || p.replacements.size() != 1) {
    throw std::invalid_argument(
        "degraded-read: exactly one failed block (the read target) with the "
        "reader as its replacement");
  }
  if (std::find(lost_.begin(), lost_.end(), p.failed[0]) == lost_.end()) {
    throw std::invalid_argument(
        "degraded-read: the read target must be in the lost set");
  }
  return plan_rack_aware(p, lost_, opts_, RemainderScheme::kPipeline,
                         "degraded-read");
}

}  // namespace rpr::repair
