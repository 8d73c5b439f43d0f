// DataExecutor: evaluates a RepairPlan over real block buffers.
//
// This is the correctness oracle: whatever schedule a planner produces, the
// reconstructed bytes must equal the lost blocks bit-for-bit. The storage
// layer also uses it as its (non-throttled) repair engine, and the test
// suite runs every planner x configuration x failure pattern through it.
//
// Values are views until they must be bytes: a read aliases its stripe
// block and carries its coefficient, a send aliases its input, and a
// combine folds the carried coefficients into its one fused pass — the only
// op that allocates. Outputs are materialised (or moved out) at the end.
#pragma once

#include <vector>

#include "repair/plan.h"
#include "rs/rs_code.h"

namespace rpr::repair {

/// Evaluates `plan` against the stripe contents and returns the value of
/// each requested output op. `stripe` must hold all blocks a kRead touches
/// (failed blocks are never read by a valid plan, so their entries may be
/// stale or empty as long as they are sized consistently).
[[nodiscard]] std::vector<rs::Block> execute_on_data(
    const RepairPlan& plan, std::span<const OpId> outputs,
    std::span<const rs::Block> stripe);

}  // namespace rpr::repair
