// Shared plan-construction helpers for the planners (internal header).
//
// Two aggregation shapes appear throughout the paper:
//
//  * star aggregation — every value is sent to one aggregator node which
//    XORs them (what CAR does within a rack and across racks; the receives
//    serialize on the aggregator's port);
//  * pairwise-tree aggregation — values merge in pairs so disjoint pairs
//    proceed in parallel (Algorithm 1 "Inner" within a rack, and the greedy
//    pipelined shape of Algorithm 2 "Cross" across racks).
//
// The cross-rack reduction uses a Huffman-style greedy on estimated
// readiness: repeatedly merge the two intermediates that will be available
// soonest. With equal readiness this degenerates to a balanced binary tree
// (ceil(log2 s) cross-rack rounds); with skewed readiness early racks start
// merging while late racks still partial-decode — exactly the pipeline
// behaviour the paper's Fig. 5 schedule 2 illustrates. The merge landing at
// the recovery participant is "sticky": once a value is at the replacement
// node it never moves again.
#pragma once

#include <functional>
#include <vector>

#include "repair/plan.h"

namespace rpr::repair::detail {

/// A value in flight during plan construction.
struct Value {
  OpId op = kNoOp;
  topology::NodeId node = 0;
  /// Estimated availability in abstract time units (t_i = 1, t_c = 10);
  /// only used to shape trees, never for actual timing.
  double ready = 0.0;
  /// True when the value is already at the replacement node.
  bool at_recovery = false;
};

inline constexpr double kInnerCost = 1.0;
inline constexpr double kCrossCost = 10.0;

/// Star aggregation at `aggregator`: send every non-resident value there,
/// XOR the lot. Returns the aggregated value. `phase` prefixes the emitted
/// ops' labels ("inner" within a rack, "cross" between racks) so the obs
/// layer can attribute time per repair phase; empty leaves labels empty.
Value star_aggregate(RepairPlan& plan, std::vector<Value> values,
                     topology::NodeId aggregator, bool at_recovery,
                     double link_cost, const char* phase = "");

/// Algorithm 1 "Inner": pairwise merge of co-rack values. Value 2a+1 is sent
/// to value 2a's node and XORed there; an odd trailing value is carried into
/// the next round. Returns the rack's intermediate.
Value pairwise_tree(RepairPlan& plan, std::vector<Value> values,
                    double link_cost);

/// Relative per-block transfer cost between two racks; only ratios matter.
using CrossCostFn =
    std::function<double(topology::RackId, topology::RackId)>;

/// Algorithm 2 "Cross" (greedy pipeline): greedy reduction of rack
/// intermediates, rooted at `replacement`. The earliest-ready intermediate
/// ships into the recovery rack when its downlink is the fastest option
/// (including the degenerate star for two sources) and otherwise merges
/// with whichever peer minimizes the estimated finish under `cost`
/// (uniform kCrossCost when empty; real link costs make the schedule
/// heterogeneity-aware).
Value cross_reduce(RepairPlan& plan, std::vector<Value> values,
                   topology::NodeId replacement,
                   const topology::Cluster& cluster,
                   const CrossCostFn& cost = {});

/// Relay chain across racks (ECPipe-style): the non-recovery
/// intermediates are ordered earliest-ready first; each hop sends the
/// running sum to the next one's node and XORs it in there, and the last
/// hop lands at `replacement`, merging with the recovery-resident value
/// (at most one) when there is one. Hop costs as in cross_reduce.
Value chain_reduce(RepairPlan& plan, std::vector<Value> values,
                   topology::NodeId replacement,
                   const topology::Cluster& cluster,
                   const CrossCostFn& cost = {});

}  // namespace rpr::repair::detail
