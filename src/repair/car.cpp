// CAR baseline (Shen, Shu, Lee: "Reconsidering single failure recovery in
// clustered file systems", DSN 2016), as characterized by the paper (§5.1):
//
//  * survivor selection minimizes the number of racks touched (and thus the
//    cross-rack repair traffic);
//  * each involved rack partially decodes its survivors into one
//    intermediate block at a rack-local aggregator;
//  * every intermediate is then sent directly to the recovery rack — a star
//    with no pipeline, so the recovery rack's downlink serializes the
//    transfers (Fig. 5, schedule 1);
//  * the final decode uses the traditional (matrix-building) decode path.
//
// CAR addresses single-block failures only; multi-failure problems are
// rejected, mirroring its published scope.
#include <map>
#include <stdexcept>

#include "repair/planner.h"
#include "repair/reduction.h"

namespace rpr::repair {

PlannedRepair CarPlanner::do_plan(const RepairProblem& p) const {
  if (p.code == nullptr || p.placement == nullptr) {
    throw std::invalid_argument("car: problem not fully specified");
  }
  if (p.failed.size() != 1 || p.replacements.size() != 1) {
    throw std::invalid_argument(
        "car: CAR only supports single-block failures");
  }

  const topology::NodeId replacement = p.replacements[0];
  const topology::RackId recovery_rack =
      p.placement->cluster().rack_of(replacement);

  PlannedRepair out;
  out.plan.block_size = p.block_size;
  out.used_decoding_matrix = true;  // CAR keeps the traditional decode
  out.selected =
      select_min_racks(*p.code, *p.placement, p.failed, recovery_rack);
  out.equations = p.code->repair_equations(p.failed, out.selected);
  const auto& eq = out.equations[0];

  // Scaled leaf reads, grouped by rack.
  std::map<topology::RackId, std::vector<detail::Value>> by_rack;
  for (std::size_t i = 0; i < eq.sources.size(); ++i) {
    if (eq.coefficients[i] == 0) continue;
    const std::size_t b = eq.sources[i];
    const topology::NodeId node = p.placement->node_of(b);
    const OpId r = out.plan.read(node, b, eq.coefficients[i],
                                 "read b" + std::to_string(b));
    by_rack[p.placement->cluster().rack_of(node)].push_back(
        detail::Value{r, node, 0.0, false});
  }

  // Rack-local star aggregation at the first survivor's node (recovery-rack
  // survivors aggregate directly at the replacement node).
  std::vector<detail::Value> intermediates;
  for (auto& [rack, values] : by_rack) {
    const bool is_recovery = rack == recovery_rack;
    const topology::NodeId agg = is_recovery ? replacement : values[0].node;
    intermediates.push_back(detail::star_aggregate(
        out.plan, std::move(values), agg, is_recovery, detail::kInnerCost,
        "inner"));
  }

  // Star to the replacement node across racks, then the final matrix decode.
  detail::Value final_value = detail::star_aggregate(
      out.plan, std::move(intermediates), replacement, true,
      detail::kCrossCost, "cross");
  out.outputs = {out.plan.combine(replacement, {final_value.op},
                                  /*with_matrix_cost=*/true, "decode")};
  return out;
}

}  // namespace rpr::repair
