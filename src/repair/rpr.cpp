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
// Each sub-equation is built by plan_remainder (repair/replan.h), the
// builder mid-repair re-plans use too.
#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "repair/planner.h"
#include "repair/replan.h"
#include "verify/plan_verifier.h"

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

/// The plan body RprPlanner and RprChainedPlanner share; `scheme` (kRpr or
/// kRprChained) only picks the cross-rack shape. Survivor selection is the
/// same for both: the chain changes the schedule's shape, not which blocks
/// participate.
PlannedRepair plan_rack_aware(const RepairProblem& p, const RprOptions& opts,
                              Scheme scheme) {
  const bool chained = scheme == Scheme::kRprChained;
  const std::string name = chained ? "rpr-chained" : "rpr";
  if (p.code == nullptr || p.placement == nullptr) {
    throw std::invalid_argument(name + ": problem not fully specified");
  }
  if (p.failed.empty() || p.failed.size() != p.replacements.size()) {
    throw std::invalid_argument(name + ": bad failed/replacement sets");
  }
  const auto& cfg = p.code->config();
  if (p.failed.size() > cfg.k) {
    throw std::invalid_argument(name +
                                ": more than k failures is unrecoverable");
  }

  PlannedRepair out;
  out.plan.block_size = p.block_size;

  const topology::RackId primary_rack =
      p.placement->cluster().rack_of(p.replacements[0]);

  // Survivor selection (§3.3): XOR set when it applies, else rack-minimal.
  const bool want_xor =
      opts.prefer_xor_set && p.failed.size() == 1 &&
      cfg.is_data(p.failed[0]) &&
      p.failed[0] != rs::p0_index(cfg);  // P0 itself is not a data block
  if (want_xor) {
    out.selected = p.code->default_selection(p.failed);  // prefers XOR set
  } else {
    out.selected =
        select_min_racks(*p.code, *p.placement, p.failed, primary_rack);
  }
  out.equations = p.code->repair_equations(p.failed, out.selected);
  // Without the §3.3 optimization a generic decoder (e.g. Jerasure's)
  // builds the decoding matrix unconditionally, even when the selected set
  // happens to be the XOR set — so the fast path is only taken when the
  // optimization is enabled.
  out.used_decoding_matrix = !(opts.prefer_xor_set && p.failed.size() == 1 &&
                               out.equations[0].xor_only());

  const RemainderScheme shape =
      chained ? RemainderScheme::kChain : RemainderScheme::kPipeline;
  out.outputs.resize(p.failed.size(), kNoOp);
  for (std::size_t e = 0; e < out.equations.size(); ++e) {
    out.outputs[e] = plan_remainder(
        out.plan, *p.placement,
        first_attempt(out.equations[e], p.replacements[e],
                      out.used_decoding_matrix, shape),
        opts, e);
  }
  if (verify::verify_plans_enabled()) {
    verify::throw_if_violated(verify::verify_planned_repair(out, p, scheme),
                              name + " planner");
  }
  return out;
}

}  // namespace

PlannedRead plan_degraded_read(const rs::RSCode& code,
                               const topology::Placement& placement,
                               std::uint64_t block_size,
                               std::span<const std::size_t> lost,
                               std::size_t target,
                               topology::NodeId destination,
                               RprOptions opts) {
  if (std::find(lost.begin(), lost.end(), target) == lost.end()) {
    throw std::invalid_argument(
        "plan_degraded_read: target must be in the lost set");
  }
  const auto& cfg = code.config();
  if (lost.size() > cfg.k) {
    throw std::invalid_argument("plan_degraded_read: unrecoverable");
  }

  // RPR's selection, but only the target's sub-equation is evaluated.
  const topology::RackId reader_rack =
      placement.cluster().rack_of(destination);
  const bool want_xor = opts.prefer_xor_set && lost.size() == 1 &&
                        cfg.is_data(target);
  const auto selected =
      want_xor ? code.default_selection(lost)
               : select_min_racks(code, placement, lost, reader_rack);
  const auto eqs = code.repair_equations(lost, selected);
  const auto it = std::find_if(
      eqs.begin(), eqs.end(),
      [&](const rs::RepairEquation& e) { return e.failed_block == target; });
  assert(it != eqs.end());

  PlannedRead out;
  out.plan.block_size = block_size;
  out.equation = *it;
  out.selected = selected;
  out.used_decoding_matrix = !(opts.prefer_xor_set && it->xor_only());
  out.output = plan_remainder(
      out.plan, placement,
      first_attempt(*it, destination, out.used_decoding_matrix,
                    RemainderScheme::kPipeline),
      opts, 0);
  if (verify::verify_plans_enabled()) {
    verify::throw_if_violated(
        verify::verify_planned_read(out, code, placement, lost, target,
                                    destination),
        "plan_degraded_read b" + std::to_string(target));
  }
  return out;
}

PlannedRepair DegradedReadPlanner::plan(const RepairProblem& p) const {
  if (p.code == nullptr || p.placement == nullptr) {
    throw std::invalid_argument("degraded-read: problem not fully specified");
  }
  if (p.failed.size() != 1 || p.replacements.size() != 1) {
    throw std::invalid_argument(
        "degraded-read: exactly one failed block (the read target) with the "
        "reader as its replacement");
  }
  PlannedRead read = plan_degraded_read(*p.code, *p.placement, p.block_size,
                                        lost_, p.failed[0], p.replacements[0],
                                        opts_);
  PlannedRepair out;
  out.plan = std::move(read.plan);
  out.outputs = {read.output};
  out.equations = {std::move(read.equation)};
  out.used_decoding_matrix = read.used_decoding_matrix;
  out.selected = std::move(read.selected);
  return out;
}

PlannedRepair RprPlanner::plan(const RepairProblem& p) const {
  return plan_rack_aware(p, opts_, Scheme::kRpr);
}

PlannedRepair RprChainedPlanner::plan(const RepairProblem& p) const {
  return plan_rack_aware(p, opts_, Scheme::kRprChained);
}

}  // namespace rpr::repair
