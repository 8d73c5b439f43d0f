#include "repair/analysis.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/contracts.h"
#include "util/slice.h"

namespace rpr::repair::analysis {

std::size_t floor_log2(std::size_t x) {
  assert(x >= 1);
  std::size_t l = 0;
  while (x >>= 1) ++l;
  return l;
}

std::size_t ceil_log2(std::size_t x) {
  assert(x >= 1);
  const std::size_t f = floor_log2(x);
  return (std::size_t{1} << f) == x ? f : f + 1;
}

util::SimTime traditional_time(std::size_t n, const Params& p) {
  return static_cast<util::SimTime>(n) * p.t_c;
}

util::SimTime inner_time(std::size_t r_max, const Params& p) {
  return static_cast<util::SimTime>(floor_log2(r_max) + 1) * p.t_i;
}

util::SimTime cross_time(std::size_t q, const Params& p) {
  return static_cast<util::SimTime>(floor_log2(q) + 1) * p.t_c;
}

util::SimTime rpr_worst_time(std::size_t n, std::size_t k, const Params& p) {
  const std::size_t q = (n + k + k - 1) / k;
  return inner_time(k, p) + cross_time(q, p);
}

std::size_t rpr_multi_cross_timesteps(std::size_t q, std::size_t l) {
  return ceil_log2(q) * l;
}

std::size_t rpr_multi_traffic_blocks(std::size_t n, std::size_t k,
                                     std::size_t l) {
  return (n / k) * l;
}

double multi_worst_improvement(std::size_t n, std::size_t k) {
  const std::size_t q = (n + k + k - 1) / k;
  const double steps = static_cast<double>(rpr_multi_cross_timesteps(q, k));
  return 1.0 - steps / static_cast<double>(n);
}

PredictedTraffic predicted_equation_traffic(
    const topology::Placement& placement, const LeafTerms& terms,
    topology::NodeId destination,
    const std::map<std::size_t, topology::NodeId>* pseudo_nodes) {
  const topology::Cluster& cluster = placement.cluster();
  const topology::RackId recovery = cluster.rack_of(destination);
  const std::size_t total = placement.code().total();

  const auto node_of = [&](std::size_t b) -> topology::NodeId {
    if (b < total) return placement.node_of(b);
    if (pseudo_nodes == nullptr || pseudo_nodes->count(b) == 0) {
      throw std::invalid_argument(
          "predicted_equation_traffic: pseudo slot with unknown location");
    }
    return pseudo_nodes->at(b);
  };

  // Per-rack distinct *nodes*: co-located values (a banked partial plus a
  // re-read at its own node) merge locally before the reduction, so only
  // transfers between distinct nodes move bytes.
  std::map<topology::RackId, std::set<topology::NodeId>> per_rack;
  std::set<topology::NodeId> recovery_nodes;
  bool root_at_destination = false;
  const auto visit = [&](std::size_t b) {
    const topology::NodeId node = node_of(b);
    const topology::RackId rack = cluster.rack_of(node);
    if (rack == recovery) {
      // The rack reduction roots at the first value; it stays put while
      // every later value merges into it.
      if (recovery_nodes.empty()) root_at_destination = node == destination;
      recovery_nodes.insert(node);
    } else {
      per_rack[rack].insert(node);
    }
  };
  // Banked partials seed the destination rack's reduction ahead of the real
  // reads (plan_remainder pushes the partial first), so visit them first.
  for (const auto& [b, c] : terms) {
    (void)c;
    if (b >= total) visit(b);
  }
  for (const auto& [b, c] : terms) {
    (void)c;
    if (b < total) visit(b);
  }

  PredictedTraffic t;
  for (const auto& [rack, nodes] : per_rack) {
    (void)rack;
    ++t.cross_transfers;  // the rack's intermediate crosses once, and
                          // every pipeline merge consumes one value
    t.inner_transfers += nodes.size() - 1;  // pairwise merges within the rack
  }
  if (!recovery_nodes.empty()) {
    t.inner_transfers += recovery_nodes.size() - 1;
    if (!root_at_destination) ++t.inner_transfers;  // hop to the destination
  }
  return t;
}

PredictedTraffic predicted_direct_equation_traffic(
    const topology::Placement& placement, const LeafTerms& terms,
    topology::NodeId destination,
    const std::map<std::size_t, topology::NodeId>* pseudo_nodes) {
  const topology::Cluster& cluster = placement.cluster();
  const std::size_t total = placement.code().total();
  const auto node_of = [&](std::size_t b) -> topology::NodeId {
    if (b < total) return placement.node_of(b);
    if (pseudo_nodes == nullptr || pseudo_nodes->count(b) == 0) {
      throw std::invalid_argument(
          "predicted_direct_equation_traffic: pseudo slot with unknown "
          "location");
    }
    return pseudo_nodes->at(b);
  };
  PredictedTraffic t;
  std::set<topology::NodeId> seen;  // co-located values ship as one
  for (const auto& [b, c] : terms) {
    (void)c;
    const topology::NodeId node = node_of(b);
    if (node == destination) continue;   // already in place
    if (!seen.insert(node).second) continue;
    if (cluster.same_rack(node, destination)) {
      ++t.inner_transfers;
    } else {
      ++t.cross_transfers;
    }
  }
  return t;
}

PredictedTraffic predicted_traditional_traffic(
    const topology::Placement& placement,
    std::span<const std::size_t> selected,
    std::span<const topology::NodeId> replacements) {
  RPR_REQUIRE(!replacements.empty(),
              "traditional traffic needs at least one replacement node");
  const topology::Cluster& cluster = placement.cluster();
  const topology::NodeId sink = replacements[0];

  PredictedTraffic t;
  const auto count_edge = [&](topology::NodeId from, topology::NodeId to) {
    if (from == to) return;  // local, free
    if (cluster.same_rack(from, to)) {
      ++t.inner_transfers;
    } else {
      ++t.cross_transfers;
    }
  };
  for (const std::size_t b : selected) {
    count_edge(placement.node_of(b), sink);
  }
  for (std::size_t e = 1; e < replacements.size(); ++e) {
    count_edge(sink, replacements[e]);  // forward the rebuilt block
  }
  return t;
}

PredictedTraffic predicted_traffic(Scheme scheme, const RepairProblem& problem,
                                   const PlannedRepair& planned) {
  RPR_REQUIRE(problem.placement != nullptr, "problem must carry a placement");
  RPR_REQUIRE(planned.equations.size() == problem.replacements.size(),
              "one equation per replacement node");
  if (scheme == Scheme::kTraditional) {
    return predicted_traditional_traffic(*problem.placement, planned.selected,
                                         problem.replacements);
  }
  PredictedTraffic t;
  for (std::size_t e = 0; e < planned.equations.size(); ++e) {
    const PredictedTraffic one = predicted_equation_traffic(
        *problem.placement, leaf_terms(planned.equations[e]),
        problem.replacements[e]);
    t.cross_transfers += one.cross_transfers;
    t.inner_transfers += one.inner_transfers;
  }
  return t;
}

MakespanBound makespan_lower_bound(const RepairPlan& plan,
                                   const topology::Cluster& cluster,
                                   const topology::NetworkParams& net,
                                   std::size_t slice_size) {
  RPR_REQUIRE(plan.block_size > 0, "makespan bound needs a block size");
  const std::uint64_t b = plan.block_size;
  const std::size_t nslices = util::slice_count(b, slice_size);
  const double first_len =
      static_cast<double>(util::slice_len(b, slice_size, 0));
  const double last_len =
      static_cast<double>(util::slice_len(b, slice_size, nslices - 1));
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // Per-op stage rate in bytes/s, mirroring lower_plan's cost model. An
  // infinite rate (free read, uncharged compute, local move) contributes a
  // zero-time stage.
  const auto stage_rate = [&](const PlanOp& op) -> double {
    switch (op.kind) {
      case OpKind::kRead:
        return kInf;
      case OpKind::kSend: {
        if (op.from == op.node) return kInf;
        const bool cross = !cluster.same_rack(op.from, op.node);
        return (cross ? net.cross : net.inner).as_bytes_per_sec();
      }
      case OpKind::kCombine: {
        if (!net.charge_compute) return kInf;
        const double rate =
            (op.with_matrix_cost ? net.decode_with_matrix : net.decode_xor)
                .as_bytes_per_sec();
        const double passes = static_cast<double>(
            op.inputs.size() >= 2 ? op.inputs.size() - 1 : 1);
        return rate / passes;
      }
    }
    return kInf;
  };
  const auto time_at = [](double bytes, double rate) -> double {
    return rate == kInf ? 0.0 : bytes / rate;
  };

  const std::size_t nops = plan.ops.size();
  std::vector<double> rate(nops);
  for (OpId id = 0; id < nops; ++id) rate[id] = stage_rate(plan.ops[id]);

  // Pipeline-depth bound. For any chain through stage m, the schedule
  // cannot beat: the first slice rippling through the stages before m,
  // plus m draining the whole block, plus the last slice rippling through
  // the stages after m. Maximize over every (chain, m) with two
  // longest-path passes: fwd[id] = max ramp-in ending just before id
  // (first-slice times), bwd[id] = max ramp-out from just after id to a
  // sink (last-slice times).
  std::vector<double> fwd(nops, 0.0);
  std::vector<bool> has_consumer(nops, false);
  for (OpId id = 0; id < nops; ++id) {
    for (const OpId in : plan.ops[id].inputs) {
      has_consumer[in] = true;
      fwd[id] = std::max(fwd[id], fwd[in] + time_at(first_len, rate[in]));
    }
  }
  std::vector<double> bwd(nops, 0.0);
  for (OpId id = nops; id-- > 0;) {
    // bwd was filled by consumers below; sinks stay 0.
    for (const OpId in : plan.ops[id].inputs) {
      bwd[in] = std::max(bwd[in], bwd[id] + time_at(last_len, rate[id]));
    }
  }

  MakespanBound out;
  for (OpId id = 0; id < nops; ++id) {
    const double drain = time_at(static_cast<double>(b), rate[id]);
    const double chain = fwd[id] + drain + bwd[id];
    if (chain > out.pipeline_depth_s) out.pipeline_depth_s = chain;
  }
  // L of the binding chain: count the stages on the longest hop-count path
  // (reported for the classical (b/s + L - 1) * s / B_min reading).
  std::vector<std::size_t> depth(nops, 1);
  for (OpId id = 0; id < nops; ++id) {
    for (const OpId in : plan.ops[id].inputs) {
      depth[id] = std::max(depth[id], depth[in] + 1);
    }
    if (!has_consumer[id]) out.stages = std::max(out.stages, depth[id]);
  }

  // Port-load bound: total occupancy per node TX/RX port, rack cross-TX/RX
  // port, and node compute.
  std::map<std::pair<int, std::size_t>, double> busy;  // (class, id) -> s
  enum { kNodeTx, kNodeRx, kRackTx, kRackRx, kCpu };
  const double bytes = static_cast<double>(b);
  for (const PlanOp& op : plan.ops) {
    if (op.kind == OpKind::kSend && op.from != op.node) {
      const bool cross = !cluster.same_rack(op.from, op.node);
      const double dur =
          bytes / (cross ? net.cross : net.inner).as_bytes_per_sec();
      busy[{kNodeTx, op.from}] += dur;
      busy[{kNodeRx, op.node}] += dur;
      if (cross) {
        busy[{kRackTx, cluster.rack_of(op.from)}] += dur;
        busy[{kRackRx, cluster.rack_of(op.node)}] += dur;
      }
    } else if (op.kind == OpKind::kCombine && net.charge_compute) {
      const double r =
          rate[static_cast<std::size_t>(&op - plan.ops.data())];
      busy[{kCpu, op.node}] += time_at(bytes, r);
    }
  }
  for (const auto& [port, dur] : busy) {
    (void)port;
    if (dur > out.port_load_s) out.port_load_s = dur;
  }
  return out;
}

StarOrChain choose_star_or_chain(const RepairProblem& problem,
                                 const topology::Cluster& cluster,
                                 const topology::NetworkParams& net,
                                 std::size_t slice_size) {
  StarOrChain out;
  PlannedRepair star = RprPlanner{}.plan(problem);
  PlannedRepair chained = RprChainedPlanner{}.plan(problem);
  out.star_floor_s =
      makespan_lower_bound(star.plan, cluster, net, slice_size).seconds();
  out.chain_floor_s =
      makespan_lower_bound(chained.plan, cluster, net, slice_size).seconds();
  if (out.chain_floor_s < out.star_floor_s) {
    out.scheme = Scheme::kRprChained;
    out.planned = std::move(chained);
  } else {
    out.planned = std::move(star);
  }
  return out;
}

}  // namespace rpr::repair::analysis
