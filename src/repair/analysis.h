// Closed-form repair-cost analysis (paper §4).
//
// These formulas reproduce the paper's mathematical analysis exactly as
// printed; the theory bench (Fig. 6) plots them, and tests cross-check the
// simulator against them on the degenerate topologies where they are exact.
//
//   eq. (10)  t_tra        = n * t_c
//   eq. (11)  T_inner      = (floor(log2 r_max) + 1) * t_i
//   eq. (12)  T_cross      = (floor(log2 q) + 1) * t_c
//   eq. (13)  t_rpr(worst) = T_inner + T_cross            (r_i = k per rack)
//   §4.3.1    multi worst case: ceil(log2 q) * k cross timesteps vs n
//   §4.3.2    multi worst-case traffic: n intermediate blocks (no change)
//   §4.3.3    l in [2, k):  ceil(log2 q) * l cross timesteps,
//             traffic (n/k) * l blocks vs n
#pragma once

#include <cstddef>
#include <map>

#include "repair/planner.h"
#include "repair/replan.h"
#include "util/units.h"

namespace rpr::repair::analysis {

struct Params {
  util::SimTime t_i = util::kNsPerMs;       ///< one inner-rack block transfer
  util::SimTime t_c = 10 * util::kNsPerMs;  ///< one cross-rack block transfer
};

/// floor(log2 x), x >= 1.
[[nodiscard]] std::size_t floor_log2(std::size_t x);
/// ceil(log2 x), x >= 1.
[[nodiscard]] std::size_t ceil_log2(std::size_t x);

/// eq. (10): traditional single-failure repair time.
[[nodiscard]] util::SimTime traditional_time(std::size_t n, const Params& p);

/// eq. (11): worst-case inner-rack phase with r_max survivors in a rack.
[[nodiscard]] util::SimTime inner_time(std::size_t r_max, const Params& p);

/// eq. (12): worst-case cross-rack phase over q racks.
[[nodiscard]] util::SimTime cross_time(std::size_t q, const Params& p);

/// eq. (13): RPR worst-case single-failure repair time with r_i = k and the
/// stripe spread over q = ceil((n+k)/k) racks.
[[nodiscard]] util::SimTime rpr_worst_time(std::size_t n, std::size_t k,
                                           const Params& p);

/// §4.3.1/§4.3.3: RPR multi-failure cross-rack timestep count for l failures
/// over q racks (l = k is the worst case).
[[nodiscard]] std::size_t rpr_multi_cross_timesteps(std::size_t q,
                                                    std::size_t l);

/// §4.3.3: RPR multi-failure cross-rack traffic in blocks ((n/k) * l),
/// versus the traditional scheme's n.
[[nodiscard]] std::size_t rpr_multi_traffic_blocks(std::size_t n,
                                                   std::size_t k,
                                                   std::size_t l);

/// §4.3.1: relative repair-time improvement over traditional in the
/// multi-failure worst case, 1 - ceil(log2 q) * k / n (0 when q <= 3 and
/// n = ceil(log2 3)*k, i.e. no improvement for storage overhead >= 50%).
[[nodiscard]] double multi_worst_improvement(std::size_t n, std::size_t k);

// ---------------------------------------------------------------------------
// Exact per-plan traffic predictions (conservation invariants).
//
// The formulas above are the paper's worst-case bounds; the functions below
// predict the *exact* transfer counts a planner must emit for a concrete
// selection and placement. The plan verifier (src/verify) checks every
// emitted plan against them: a plan that moves more bytes than the closed
// form silently gives back the paper's traffic savings, one that moves
// fewer cannot be computing the full equation.

/// Transfer counts by link class; bytes = count * block_size.
struct PredictedTraffic {
  std::size_t cross_transfers = 0;
  std::size_t inner_transfers = 0;

  friend bool operator==(const PredictedTraffic&,
                         const PredictedTraffic&) = default;
};

/// Exact traffic of one rack-aware partial-decoding equation (the shape
/// shared by CAR, RPR and the mid-repair remainder planner):
///
///   cross = number of involved racks other than the destination's rack
///           (each rack contributes exactly one intermediate, and every
///           merge step of either the pipelined or the starred cross-rack
///           reduction moves exactly one value across the aggregation
///           switch);
///   inner = sum over racks of (distinct contributing nodes - 1) pairwise
///           merges — co-located values (a banked partial plus a patched
///           re-read at its own node) merge locally and move nothing —
///           plus one hop of the destination rack's intermediate to the
///           destination node unless the rack reduction already roots
///           there (it does exactly when the first term in map order lives
///           at the destination — the re-planner's banked partial).
///
/// `terms` maps block index -> coefficient; indices >= n+k are pseudo slots
/// (banked partials) whose location is given by `pseudo_nodes`.
[[nodiscard]] PredictedTraffic predicted_equation_traffic(
    const topology::Placement& placement, const LeafTerms& terms,
    topology::NodeId destination,
    const std::map<std::size_t, topology::NodeId>* pseudo_nodes = nullptr);

/// Exact traffic of one *direct-shipping* remainder equation (the
/// traditional shape a scheme-switching re-plan may fall back to): every
/// value — real term at its storage node, pseudo partial at its banked
/// node — moves straight to the destination with no per-rack aggregation:
/// one cross transfer per off-rack node, one inner transfer per same-rack
/// non-destination node (co-located values merge locally and ship once).
[[nodiscard]] PredictedTraffic predicted_direct_equation_traffic(
    const topology::Placement& placement, const LeafTerms& terms,
    topology::NodeId destination,
    const std::map<std::size_t, topology::NodeId>* pseudo_nodes = nullptr);

/// Exact traffic of the traditional scheme: every selected survivor ships
/// raw to the first replacement node, and each additional rebuilt block is
/// forwarded from there to its own replacement.
[[nodiscard]] PredictedTraffic predicted_traditional_traffic(
    const topology::Placement& placement,
    std::span<const std::size_t> selected,
    std::span<const topology::NodeId> replacements);

/// Exact traffic for a planned repair under `scheme`: dispatches to the
/// traditional closed form or sums `predicted_equation_traffic` over the
/// planned sub-equations. (kRprChained shares the partial-decoding closed
/// form: chaining reshapes the cross-rack schedule, not its byte counts.)
[[nodiscard]] PredictedTraffic predicted_traffic(Scheme scheme,
                                                 const RepairProblem& problem,
                                                 const PlannedRepair& planned);

// ---------------------------------------------------------------------------
// Makespan lower bounds (timing invariants).
//
// Two schedule-independent floors, computed from the plan DAG and the port
// model; no valid execution can finish faster, and a *chained* sliced
// schedule should land within tolerance of them (that is what "pipelined"
// means — every cross-rack port busy every slice interval).

struct MakespanBound {
  /// Pipeline-depth bound: with N = ceil(b/s) slices, any root->output
  /// dependency chain with per-slice stage times t_1..t_L finishes no
  /// earlier than sum_j t_j + (N-1) * max_j t_j — the first slice ripples
  /// through every stage, then the slowest stage drains the remaining
  /// slices serially. With uniform stages this is the classical
  /// (b/s + L - 1) * s / B_min; the bound below is the max over all chains
  /// of the generalized form. Whole-block mode (N = 1) degenerates to the
  /// store-and-forward sum over the longest chain.
  double pipeline_depth_s = 0.0;
  /// Port-load bound: every byte through a node TX/RX or rack cross-TX/RX
  /// port occupies it for bytes/bandwidth (combines likewise occupy their
  /// node's compute); the makespan is at least the busiest port's total.
  double port_load_s = 0.0;
  /// Stage count L of the chain realizing the pipeline-depth bound.
  std::size_t stages = 0;

  [[nodiscard]] double seconds() const {
    return pipeline_depth_s > port_load_s ? pipeline_depth_s : port_load_s;
  }
};

/// Computes both floors for `plan` under `net`'s bandwidths and compute
/// rates, at `slice_size` (0 = whole-block). Mirrors the lowering's cost
/// model exactly: reads are free, sends run at the inner/cross link rate,
/// combines at the XOR/matrix decode rate with one pass per extra input.
[[nodiscard]] MakespanBound makespan_lower_bound(
    const RepairPlan& plan, const topology::Cluster& cluster,
    const topology::NetworkParams& net, std::size_t slice_size);

/// The adaptive star-vs-chain pick (the fleet scheduler's auto_scheme and
/// `rpr_sim --scheme auto`): plans `problem` with RprPlanner and
/// RprChainedPlanner and keeps the shape whose makespan_lower_bound floor
/// is smaller for this cluster + slice geometry; a tie keeps the star.
struct StarOrChain {
  Scheme scheme = Scheme::kRpr;
  PlannedRepair planned;  ///< the kept shape's plan
  double star_floor_s = 0.0;
  double chain_floor_s = 0.0;
};
[[nodiscard]] StarOrChain choose_star_or_chain(
    const RepairProblem& problem, const topology::Cluster& cluster,
    const topology::NetworkParams& net, std::size_t slice_size);

}  // namespace rpr::repair::analysis
