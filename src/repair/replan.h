// Mid-repair re-planning: the equation-patching math behind fault-tolerant
// repair execution.
//
// A repair evaluates b_f = sum_i c_i * b_i (paper eq. 8) as a DAG. When a
// helper holding source b_j dies mid-execution, exact coefficient-preserving
// substitution of a single survivor is impossible in general: the c_i are the
// *unique* representation of b_f over the chosen n independent survivors.
// What IS always possible over GF(256) is equation patching — express the
// lost source itself over the still-healthy blocks,
//
//     b_j = sum_i d_i * b_i                 (one more instance of eq. 8)
//
// and fold it into the outstanding equation: the remaining requirement for
// each block i becomes  c_i XOR (c_j * d_i)  (GF addition is XOR, so
// "subtracting" the dead term and "adding" its expansion are both XORs).
// The patched equation never references the dead node and is evaluated by
// the same rack-aware pipeline the planner uses (eq. 9 grouping).
//
// Reuse of work already done: any value that was fully delivered at the
// destination node before the failure is a known linear combination of
// stripe blocks (its *leaf contributions*, computable by walking the DAG).
// If those contributions match a subset of the outstanding terms exactly,
// the value is XORed into a running partial at the destination and the
// matched terms are dropped — the expensive cross-rack transfers that built
// it are never repeated. The partial then participates in the remainder
// plan as a pseudo stripe slot (index >= n+k) read at the destination.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "repair/plan.h"
#include "repair/planner.h"
#include "rs/rs_code.h"
#include "topology/placement.h"

namespace rpr::repair {

/// Sparse linear combination of stripe blocks: block index -> coefficient.
/// Entries are always nonzero (zero coefficients are erased).
using LeafTerms = std::map<std::size_t, std::uint8_t>;

/// Leaf contributions of every op's value: walking the DAG in topological
/// (id) order, a read contributes {block: coeff}, a send copies its input,
/// and a combine accumulates input_coeff * contribution over its inputs.
/// An op's value equals sum over its map of coeff * stripe[block] — the
/// invariant that makes partial-result reuse sound.
[[nodiscard]] std::vector<LeafTerms> leaf_contributions(const RepairPlan& plan);

/// Removes `lost_block` from `terms` by substituting its repair equation
/// over n healthy blocks (none in `unusable`, which must contain every
/// failed, dead-resident, and corrupt block — including `lost_block`).
/// Blocks already present in `terms` are preferred as substitution sources
/// so the patch widens the equation as little as possible. No-op when
/// `terms` does not reference `lost_block`. Throws std::runtime_error when
/// fewer than n healthy blocks remain (the stripe is unrecoverable).
void substitute_source(const rs::RSCode& code, LeafTerms& terms,
                       std::size_t lost_block,
                       const std::set<std::size_t>& unusable);

/// A banked partial sum living at some node: pseudo stripe slot `slot`
/// (coefficient 1) read at `node`. After a destination relocation or a
/// partition heal, partials may live away from the current destination —
/// each is read where it resides and joins that rack's reduction.
struct RemainderPartial {
  std::size_t slot = 0;
  topology::NodeId node = 0;
};

/// Cross-rack reduction shape for a remainder plan: first attempts use
/// kPipeline (RPR) or kChain (chained RPR); the resilient driver switches
/// shape when it relocates a destination.
enum class RemainderScheme {
  kPipeline,  ///< pairwise per rack, Algorithm 2 merge tree (star when
              ///< RprOptions::pipeline_cross is off)
  kStar,      ///< pairwise per rack, then a star into the destination
              ///< (not CAR: CAR stars within each rack too)
  kDirect,    ///< traditional: every value shipped straight to destination
  kChain,     ///< pairwise per rack, then a relay chain across the racks
};

/// What is still to be computed for one failed block mid-repair.
struct RemainderEquation {
  std::size_t failed_block = 0;
  /// Real stripe blocks still to be fetched (patched coefficients).
  LeafTerms terms;
  /// Partial sums already accumulated (pseudo stripe slots, coefficient 1),
  /// when any prior work was reusable. Sorted by slot; a partial resident at
  /// `destination` must carry the lowest slot so the recovery-rack reduction
  /// roots at the destination (traffic closed forms depend on it).
  std::vector<RemainderPartial> partials;
  topology::NodeId destination = 0;
  /// Charge the final combine at matrix-decode speed.
  bool with_matrix = false;
  /// Cross-rack reduction shape (scheme-switching re-plans override this).
  RemainderScheme scheme = RemainderScheme::kPipeline;
};

/// The outstanding terms of a first attempt: `eq`'s nonzero coefficients.
[[nodiscard]] LeafTerms leaf_terms(const rs::RepairEquation& eq);

/// Plans the evaluation of a remainder equation with the rack-aware
/// machinery (Algorithm 1 per rack, then the cross-rack shape selected by
/// eq.scheme, rooted at the destination). The one builder of rack-aware
/// equations: a planner's first attempt is a remainder with no partials.
/// Partials are read at their resident nodes and seed their racks'
/// reductions. Returns the op producing the finished block at
/// eq.destination. `round` is the equation's index within its plan; it
/// staggers readiness estimates so later sub-equations account for port
/// contention with earlier ones.
OpId plan_remainder(RepairPlan& plan, const topology::Placement& placement,
                    const RemainderEquation& eq, const RprOptions& opts,
                    std::size_t round);

/// Picks the cheapest cross-rack shape for a remainder equation given where
/// its values (terms at their placement nodes + partials) reside relative
/// to `recovery_rack`: one value per outside rack -> direct shipping
/// (traditional), >= 2 outside racks with aggregatable groups -> pipeline
/// (RPR), else star (CAR).
[[nodiscard]] RemainderScheme choose_remainder_scheme(
    const topology::Placement& placement, const RemainderEquation& eq);

}  // namespace rpr::repair
