// DataExecutor: evaluates a RepairPlan over real block buffers.
//
// This is the correctness oracle: whatever schedule a planner produces, the
// reconstructed bytes must equal the lost blocks bit-for-bit. The storage
// layer also uses it as its (non-throttled) repair engine, and the test
// suite runs every planner x configuration x failure pattern through it.
//
// Every plan value is a linear combination of stripe blocks (its leaf
// terms, repair/replan.h's leaf_contributions walk), so the executor does
// not run the plan op by op: it derives each requested value's
// coefficients over the stripe and computes all of them in one fused
// encode pass over the union of their leaf blocks, on the one pooled GF
// pass (gf::encode_regions_pooled, gf/gf_region.h). By GF linearity the
// bytes are those of the op-by-op evaluation; the plan's schedule is the
// simulator's business. The output
// buffers are rs::Blocks taken uninitialized from the process-wide
// util::PagePool (util/pages.h): a block storage commits from a repair goes
// back to the pool when it dies.
#pragma once

#include <vector>

#include "repair/plan.h"
#include "rs/rs_code.h"

namespace rpr::repair {

/// Evaluates `plan` against the stripe contents and returns the value of
/// each requested output op (an op may be requested more than once).
/// `stripe` may hold pseudo slots past the code's n+k blocks. Only blocks
/// an output depends on with a nonzero coefficient are touched, so failed
/// blocks' entries may be stale or empty. Throws std::out_of_range for a
/// read past the stripe or an output past the plan, and
/// std::invalid_argument, naming the op and block, when a block an output
/// depends on is empty or differs in length from its other blocks.
[[nodiscard]] std::vector<rs::Block> execute_on_data(
    const RepairPlan& plan, std::span<const OpId> outputs,
    std::span<const rs::Block> stripe);

}  // namespace rpr::repair
