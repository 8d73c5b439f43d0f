#include "repair/replan.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "gf/gf256.h"
#include "repair/reduction.h"
#include "util/contracts.h"

namespace rpr::repair {

std::vector<LeafTerms> leaf_contributions(const RepairPlan& plan) {
  std::vector<LeafTerms> contrib(plan.ops.size());
  for (OpId id = 0; id < plan.ops.size(); ++id) {
    const PlanOp& op = plan.ops[id];
    switch (op.kind) {
      case OpKind::kRead:
        if (op.coeff != 0) contrib[id][op.block] = op.coeff;
        break;
      case OpKind::kSend:
        contrib[id] = contrib[op.inputs[0]];
        break;
      case OpKind::kCombine: {
        LeafTerms& acc = contrib[id];
        for (std::size_t i = 0; i < op.inputs.size(); ++i) {
          const std::uint8_t c =
              op.input_coeffs.empty() ? std::uint8_t{1} : op.input_coeffs[i];
          if (c == 0) continue;
          for (const auto& [leaf, lc] : contrib[op.inputs[i]]) {
            acc[leaf] ^= gf::mul(c, lc);
          }
        }
        std::erase_if(acc, [](const auto& kv) { return kv.second == 0; });
        break;
      }
    }
  }
  return contrib;
}

void substitute_source(const rs::RSCode& code, LeafTerms& terms,
                       std::size_t lost_block,
                       const std::set<std::size_t>& unusable) {
  RPR_REQUIRE(unusable.count(lost_block) != 0,
              "the substituted block must itself be marked unusable");
  const auto it = terms.find(lost_block);
  if (it == terms.end()) return;
  const std::uint8_t c_lost = it->second;
  terms.erase(it);

  // Selection for the lost block's own repair equation: prefer blocks the
  // outstanding equation already reads (the patch then only perturbs
  // coefficients), then any other healthy block in index order.
  const std::size_t total = code.config().total();
  std::vector<std::size_t> selected;
  selected.reserve(code.config().n);
  auto usable = [&](std::size_t b) {
    return b != lost_block && unusable.count(b) == 0;
  };
  for (const auto& [b, coeff] : terms) {
    (void)coeff;
    if (selected.size() == code.config().n) break;
    if (usable(b)) selected.push_back(b);
  }
  for (std::size_t b = 0; b < total && selected.size() < code.config().n;
       ++b) {
    if (usable(b) && terms.count(b) == 0) selected.push_back(b);
  }
  if (selected.size() < code.config().n) {
    throw std::runtime_error(
        "substitute_source: fewer than n healthy blocks remain — "
        "stripe unrecoverable");
  }
  std::sort(selected.begin(), selected.end());

  const std::size_t lost[1] = {lost_block};
  const auto eqs = code.repair_equations(lost, selected);
  const auto& d = eqs.front();
  for (std::size_t i = 0; i < d.sources.size(); ++i) {
    if (d.coefficients[i] == 0) continue;
    terms[d.sources[i]] ^= gf::mul(c_lost, d.coefficients[i]);
  }
  std::erase_if(terms, [](const auto& kv) { return kv.second == 0; });
  RPR_ENSURE(terms.count(lost_block) == 0,
             "patched equation must not reference the lost block");
}

LeafTerms leaf_terms(const rs::RepairEquation& eq) {
  LeafTerms terms;
  for (std::size_t i = 0; i < eq.sources.size(); ++i) {
    if (eq.coefficients[i] != 0) terms[eq.sources[i]] = eq.coefficients[i];
  }
  return terms;
}

OpId plan_remainder(RepairPlan& plan, const topology::Placement& placement,
                    const RemainderEquation& eq, const RprOptions& opts,
                    std::size_t round) {
  using detail::Value;
  const auto& cluster = placement.cluster();
  const topology::RackId recovery_rack = cluster.rack_of(eq.destination);

  // Partials in ascending slot order, destination-resident ones first: the
  // traffic closed forms (predicted_equation_traffic) visit pseudo slots in
  // slot order and root the recovery rack at its first-visited value, so a
  // destination partial must seed the recovery rack's reduction (its bytes
  // then never move and the pairwise merges land at the destination).
  std::vector<RemainderPartial> parts = eq.partials;
  std::sort(parts.begin(), parts.end(),
            [&](const RemainderPartial& a, const RemainderPartial& b) {
              const bool da = a.node == eq.destination;
              const bool db = b.node == eq.destination;
              if (da != db) return da;
              return a.slot < b.slot;
            });

  std::map<topology::RackId, std::vector<Value>> by_rack;
  for (const auto& p : parts) {
    const OpId r = plan.read(p.node, p.slot, 1,
                             "partial b" + std::to_string(eq.failed_block));
    by_rack[cluster.rack_of(p.node)].push_back(
        Value{r, p.node, 0.0, p.node == eq.destination});
  }
  for (const auto& [b, coeff] : eq.terms) {
    const topology::NodeId node = placement.node_of(b);
    const OpId r = plan.read(node, b, coeff, "read b" + std::to_string(b));
    by_rack[cluster.rack_of(node)].push_back(Value{r, node, 0.0, false});
  }
  if (by_rack.empty()) {
    throw std::invalid_argument("plan_remainder: empty remainder equation");
  }

  // Co-located values merge before any reduction: a banked partial often
  // shares its node with a patched re-read of the block stored there (a
  // substitution re-weighted a term the partial already absorbed once).
  // The local combine moves no bytes, leaves one value per node, and is
  // the invariant the traffic closed forms assume.
  for (auto& [rack, values] : by_rack) {
    (void)rack;
    auto kept = values.begin();  // [begin, kept): one value per node
    for (const Value& v : values) {
      const auto it = std::find_if(
          values.begin(), kept,
          [&](const Value& m) { return m.node == v.node; });
      if (it == kept) {
        *kept++ = v;
        continue;
      }
      it->op = plan.combine(v.node, {it->op, v.op}, false, "local:merge");
      it->ready = std::max(it->ready, v.ready);
      it->at_recovery = it->at_recovery || v.at_recovery;
    }
    values.erase(kept, values.end());
  }

  // The values the cross-rack shape reduces: every value as-is for the
  // traditional shape, else one intermediate per rack (Algorithm 1).
  // Recovery-rack values reduce pairwise too, and their intermediate then
  // hops (inner-rack) to the destination.
  std::vector<Value> values;
  for (auto& [rack, rack_values] : by_rack) {
    if (eq.scheme == RemainderScheme::kDirect) {
      values.insert(values.end(), rack_values.begin(), rack_values.end());
      continue;
    }
    Value v = detail::pairwise_tree(plan, std::move(rack_values),
                                    detail::kInnerCost);
    // Later sub-equations contend for the same node ports; shift their
    // estimated readiness so the merge tree pairs likes with likes.
    v.ready += static_cast<double>(round) * detail::kInnerCost;
    if (rack == recovery_rack) {
      if (v.node != eq.destination) {
        const OpId sent = plan.send(v.op, v.node, eq.destination,
                                    "inner:send");
        v = Value{sent, eq.destination, v.ready + detail::kInnerCost, true};
      } else {
        v.at_recovery = true;
      }
    }
    values.push_back(v);
  }

  Value final_value;
  if (eq.scheme == RemainderScheme::kDirect) {
    // Traditional shape: every value ships straight to the destination and
    // is XOR-reduced there — no per-rack aggregation at all.
    final_value = detail::star_aggregate(plan, std::move(values),
                                         eq.destination, true,
                                         detail::kCrossCost, "direct");
  } else if (eq.scheme == RemainderScheme::kChain) {
    // RPR-chained: the paper's rack-aware aggregation composed with
    // ECPipe-style repair pipelining (Li et al., "Repair Pipelining for
    // Erasure-Coded Storage"; the rack-aware optimal-bandwidth framework
    // confirms chaining composes with rack-local partial decoding).
    //
    // Rather than a greedy merge tree rooted at the recovery rack (whose
    // cross-RX port then serializes the incoming intermediates — 80.8% of
    // the traditional star's makespan is that port's wait), the
    // contributing racks form one relay chain ordered earliest-ready-first.
    // Each hop sends the running sum to the next rack's aggregator, which
    // XORs in its own local partial and forwards; the final hop lands at
    // the destination. Every cross-rack link carries exactly one block's
    // worth of bytes (same totals as the star), but under slice pipelining
    // each link is busy every slice interval, so the makespan approaches
    // the pipeline-depth bound (b/s + L - 1) * s / B_min instead of q
    // serialized cross transfers.
    //
    // Whole-block execution of a chain serializes the hops
    // (store-and-forward), which is *slower* than the greedy tree —
    // chained schedules are a slice-mode scheme; the sweeps and benches
    // run them with --slice-size. The chain ignores
    // RprOptions::pipeline_cross.
    final_value =
        detail::chain_reduce(plan, std::move(values), eq.destination,
                             cluster, opts.cross_cost);
  } else if (eq.scheme == RemainderScheme::kPipeline && opts.pipeline_cross) {
    final_value =
        detail::cross_reduce(plan, std::move(values), eq.destination,
                             cluster, opts.cross_cost);
  } else {
    // kStar, and the ablation mode of kPipeline: partial decoding without
    // the pipeline (Fig. 5 schedule 1).
    final_value =
        detail::star_aggregate(plan, std::move(values), eq.destination,
                               true, detail::kCrossCost, "cross");
  }
  return plan.combine(eq.destination, {final_value.op}, eq.with_matrix,
                      "finalize b" + std::to_string(eq.failed_block));
}

RemainderScheme choose_remainder_scheme(const topology::Placement& placement,
                                        const RemainderEquation& eq) {
  const auto& cluster = placement.cluster();
  const topology::RackId recovery_rack = cluster.rack_of(eq.destination);
  std::map<topology::RackId, std::size_t> per_rack;
  for (const auto& p : eq.partials) ++per_rack[cluster.rack_of(p.node)];
  for (const auto& [b, coeff] : eq.terms) {
    (void)coeff;
    ++per_rack[cluster.rack_of(placement.node_of(b))];
  }
  std::size_t outside_racks = 0;
  std::size_t outside_values = 0;
  for (const auto& [rack, count] : per_rack) {
    if (rack == recovery_rack) continue;
    ++outside_racks;
    outside_values += count;
  }
  // One value per outside rack: per-rack aggregation buys nothing, so ship
  // directly (traditional). Several aggregatable racks: pipeline the
  // cross-rack chain (RPR). One heavy outside rack: star into the
  // destination (CAR).
  if (outside_values == outside_racks) return RemainderScheme::kDirect;
  if (outside_racks >= 2) return RemainderScheme::kPipeline;
  return RemainderScheme::kStar;
}

}  // namespace rpr::repair
