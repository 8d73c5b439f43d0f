// Traditional RS repair (paper §2.3, Fig. 3).
//
// Every selected survivor block is shipped unmodified to the replacement
// node, which then performs the traditional decode: build the decoding
// matrix M'^-1 and multiply. The replacement node's ports serialize the n
// incoming transfers — the very bottleneck (and load imbalance) the paper
// sets out to remove.
//
// Multi-block failures: all n survivors go to the first failed block's
// replacement node, which decodes every lost block and forwards the others
// to their own replacement nodes (a faithful "do it all in one place"
// baseline, consistent with the paper's t_total = n * t_c model).
#include <cassert>
#include <stdexcept>

#include "repair/planner.h"

namespace rpr::repair {

PlannedRepair TraditionalPlanner::do_plan(const RepairProblem& p) const {
  if (p.code == nullptr || p.placement == nullptr) {
    throw std::invalid_argument("traditional: problem not fully specified");
  }
  if (p.failed.empty() || p.failed.size() != p.replacements.size()) {
    throw std::invalid_argument("traditional: bad failed/replacement sets");
  }

  PlannedRepair out;
  out.plan.block_size = p.block_size;
  out.used_decoding_matrix = true;  // always builds M'^-1 (paper §2.1.1)
  out.selected = p.code->default_selection(p.failed);
  out.equations = p.code->repair_equations(p.failed, out.selected);

  const topology::NodeId sink = p.replacements[0];

  // Ship all n raw survivor blocks to the sink node.
  std::vector<OpId> arrived(out.selected.size());
  for (std::size_t i = 0; i < out.selected.size(); ++i) {
    const std::size_t b = out.selected[i];
    const topology::NodeId src = p.placement->node_of(b);
    const OpId r = out.plan.read(src, b, 1, "read b" + std::to_string(b));
    arrived[i] = out.plan.send(r, src, sink, "ship b" + std::to_string(b));
  }

  // One matrix-decode combine per lost block (the coefficients come from
  // the inverted matrix, applied at the sink).
  out.outputs.resize(p.failed.size(), kNoOp);
  for (std::size_t e = 0; e < out.equations.size(); ++e) {
    const auto& eq = out.equations[e];
    assert(eq.sources == out.selected);
    const OpId rebuilt = out.plan.combine_scaled(
        sink, arrived, eq.coefficients, /*with_matrix_cost=*/true,
        "decode b" + std::to_string(eq.failed_block));
    if (p.replacements[e] == sink) {
      out.outputs[e] = rebuilt;
    } else {
      out.outputs[e] =
          out.plan.send(rebuilt, sink, p.replacements[e], "forward");
    }
  }
  return out;
}

}  // namespace rpr::repair
