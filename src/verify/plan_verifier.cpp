#include "verify/plan_verifier.h"

#include <algorithm>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "gf/gf256.h"
#include "util/contracts.h"

namespace rpr::verify {

namespace {

using repair::LeafTerms;
using repair::OpId;
using repair::OpKind;
using repair::PlanOp;
using repair::RepairPlan;

std::string block_name(std::size_t block, std::size_t total) {
  if (block >= total) return "partial#" + std::to_string(block);
  return "b" + std::to_string(block);
}

/// Renders a sparse equation as "c*b0 ^ c*b4 ^ ..." (or "0" when empty).
std::string render_terms(const LeafTerms& terms, std::size_t total) {
  if (terms.empty()) return "0";
  std::string out;
  for (const auto& [block, coeff] : terms) {
    if (!out.empty()) out += " ^ ";
    out += std::to_string(static_cast<unsigned>(coeff)) + "*" +
           block_name(block, total);
  }
  return out;
}

/// Independent symbolic fold of the plan: the value of every op as a sparse
/// linear combination of stripe (and pseudo) slots over GF(2^8). Indexing
/// violations are reported by check_structure; the fold simply ignores
/// malformed inputs so it never reads out of bounds.
std::vector<LeafTerms> fold_plan(const RepairPlan& plan) {
  std::vector<LeafTerms> value(plan.ops.size());
  for (OpId id = 0; id < plan.ops.size(); ++id) {
    const PlanOp& op = plan.ops[id];
    switch (op.kind) {
      case OpKind::kRead:
        if (op.coeff != 0) value[id][op.block] = op.coeff;
        break;
      case OpKind::kSend:
        if (op.inputs.size() == 1 && op.inputs[0] < id) {
          value[id] = value[op.inputs[0]];
        }
        break;
      case OpKind::kCombine: {
        LeafTerms& acc = value[id];
        for (std::size_t i = 0; i < op.inputs.size(); ++i) {
          if (op.inputs[i] >= id) continue;
          const std::uint8_t c = op.input_coeffs.empty()
                                     ? std::uint8_t{1}
                                     : op.input_coeffs.size() > i
                                           ? op.input_coeffs[i]
                                           : std::uint8_t{0};
          if (c == 0) continue;
          for (const auto& [leaf, lc] : value[op.inputs[i]]) {
            acc[leaf] ^= gf::mul(c, lc);
          }
        }
        std::erase_if(acc, [](const auto& kv) { return kv.second == 0; });
        break;
      }
    }
  }
  return value;
}

}  // namespace

const char* to_string(InvariantClass c) {
  switch (c) {
    case InvariantClass::kAlgebraic: return "algebraic";
    case InvariantClass::kTopological: return "topological";
    case InvariantClass::kConservation: return "conservation";
    case InvariantClass::kTiming: return "timing";
  }
  return "?";
}

std::size_t VerifyReport::count(InvariantClass c) const {
  return static_cast<std::size_t>(
      std::count_if(violations.begin(), violations.end(),
                    [c](const Violation& v) { return v.invariant == c; }));
}

std::string VerifyReport::to_string() const {
  if (ok()) return "plan verified: no violations\n";
  std::ostringstream out;
  out << violations.size() << " violation(s):\n";
  for (const Violation& v : violations) {
    out << "  [" << verify::to_string(v.invariant) << "]";
    if (v.op != repair::kNoOp) out << " op " << v.op;
    if (v.rack != kNoRack) out << " (rack " << v.rack << ")";
    out << ": " << v.message << "\n";
  }
  return out.str();
}

PlanVerifier::PlanVerifier(const RepairPlan& plan,
                           const topology::Cluster& cluster)
    : plan_(&plan), cluster_(&cluster) {}

PlanVerifier& PlanVerifier::with_placement(
    const topology::Placement& placement) {
  placement_ = &placement;
  return *this;
}

PlanVerifier& PlanVerifier::with_code(const rs::RSCode& code) {
  code_ = &code;
  return *this;
}

PlanVerifier& PlanVerifier::forbid_blocks(const std::set<std::size_t>& blocks) {
  forbidden_.insert(blocks.begin(), blocks.end());
  return *this;
}

PlanVerifier& PlanVerifier::add_pseudo_slot(std::size_t slot,
                                            topology::NodeId node,
                                            LeafTerms decomposition) {
  pseudo_[slot] = PseudoSlot{node, std::move(decomposition)};
  return *this;
}

PlanVerifier& PlanVerifier::expect_output(OpId op, std::size_t failed_block,
                                          topology::NodeId destination,
                                          LeafTerms terms) {
  outputs_.push_back(
      ExpectedOutput{op, failed_block, destination, std::move(terms)});
  return *this;
}

PlanVerifier& PlanVerifier::expect_traffic(
    repair::analysis::PredictedTraffic expected) {
  expected_traffic_ = expected;
  return *this;
}

PlanVerifier& PlanVerifier::expect_xor_only() {
  expect_xor_only_ = true;
  return *this;
}

PlanVerifier& PlanVerifier::skip_algebra(bool skip) {
  skip_algebra_ = skip;
  return *this;
}

std::size_t PlanVerifier::total_blocks() const {
  if (placement_ != nullptr) return placement_->code().total();
  if (code_ != nullptr) return code_->config().total();
  return 0;
}

topology::RackId PlanVerifier::rack_of_op(OpId id) const {
  const topology::NodeId node = plan_->ops[id].node;
  if (node >= cluster_->total_nodes()) return kNoRack;
  return cluster_->rack_of(node);
}

void PlanVerifier::check_structure(VerifyReport& report) const {
  const auto add = [&](OpId op, std::string msg) {
    report.violations.push_back(Violation{InvariantClass::kTopological, op,
                                          rack_of_op(op), std::move(msg)});
  };
  for (OpId id = 0; id < plan_->ops.size(); ++id) {
    const PlanOp& op = plan_->ops[id];
    if (op.node >= cluster_->total_nodes()) {
      report.violations.push_back(
          Violation{InvariantClass::kTopological, id, kNoRack,
                    "node " + std::to_string(op.node) +
                        " is outside the cluster (" +
                        std::to_string(cluster_->total_nodes()) + " nodes)"});
      continue;
    }
    for (const OpId in : op.inputs) {
      if (in >= id) {
        add(id, "uses value " + std::to_string(in) +
                    " before it is produced (cycle or forward reference)");
      }
    }
    switch (op.kind) {
      case OpKind::kRead:
        if (!op.inputs.empty()) add(id, "read takes no inputs");
        break;
      case OpKind::kSend:
        if (op.inputs.size() != 1) {
          add(id, "send takes exactly one input");
          break;
        }
        if (op.from >= cluster_->total_nodes()) {
          add(id, "send source node " + std::to_string(op.from) +
                      " is outside the cluster");
          break;
        }
        if (op.inputs[0] < id &&
            plan_->ops[op.inputs[0]].node != op.from) {
          add(id, "send departs from node " + std::to_string(op.from) +
                      " but its value lives on node " +
                      std::to_string(plan_->ops[op.inputs[0]].node) +
                      " — no such transfer edge exists");
        }
        break;
      case OpKind::kCombine:
        if (op.inputs.empty()) {
          add(id, "combine needs at least one input");
          break;
        }
        if (!op.input_coeffs.empty() &&
            op.input_coeffs.size() != op.inputs.size()) {
          add(id, "combine has " + std::to_string(op.inputs.size()) +
                      " inputs but " + std::to_string(op.input_coeffs.size()) +
                      " coefficients");
        }
        for (const OpId in : op.inputs) {
          if (in < id && plan_->ops[in].node != op.node) {
            add(id, "combines value " + std::to_string(in) + " living on node " +
                        std::to_string(plan_->ops[in].node) +
                        " without moving it to node " +
                        std::to_string(op.node));
          }
        }
        break;
    }
  }
  for (const ExpectedOutput& out : outputs_) {
    if (out.op >= plan_->ops.size()) {
      report.violations.push_back(
          Violation{InvariantClass::kTopological, out.op, kNoRack,
                    "declared output op does not exist in the plan"});
      continue;
    }
    if (plan_->ops[out.op].node != out.destination) {
      add(out.op,
          "output for " + block_name(out.failed_block, total_blocks()) +
              " materializes on node " +
              std::to_string(plan_->ops[out.op].node) +
              " instead of its replacement node " +
              std::to_string(out.destination));
    }
  }
}

void PlanVerifier::check_reads(VerifyReport& report) const {
  const std::size_t total = total_blocks();
  for (OpId id = 0; id < plan_->ops.size(); ++id) {
    const PlanOp& op = plan_->ops[id];
    if (op.kind != OpKind::kRead) continue;
    if (op.node >= cluster_->total_nodes()) continue;  // already reported
    if (forbidden_.count(op.block) != 0) {
      report.violations.push_back(Violation{
          InvariantClass::kTopological, id, rack_of_op(id),
          "reads " + block_name(op.block, total) +
              ", which is failed, unusable or unselected and must not be "
              "a source"});
      continue;
    }
    if (op.block >= total && total != 0) {
      const auto it = pseudo_.find(op.block);
      if (it == pseudo_.end()) {
        report.violations.push_back(
            Violation{InvariantClass::kTopological, id, rack_of_op(id),
                      "reads undeclared pseudo slot " +
                          std::to_string(op.block)});
      } else if (it->second.node != op.node) {
        report.violations.push_back(Violation{
            InvariantClass::kTopological, id, rack_of_op(id),
            "reads banked partial " + std::to_string(op.block) + " on node " +
                std::to_string(op.node) + " but it was banked on node " +
                std::to_string(it->second.node)});
      }
      continue;
    }
    if (placement_ != nullptr && op.block < total &&
        placement_->node_of(op.block) != op.node) {
      report.violations.push_back(Violation{
          InvariantClass::kTopological, id, rack_of_op(id),
          "reads " + block_name(op.block, total) + " on node " +
              std::to_string(op.node) + " but the block is stored on node " +
              std::to_string(placement_->node_of(op.block))});
    }
  }
}

void PlanVerifier::check_orphans(VerifyReport& report) const {
  if (outputs_.empty()) return;  // cannot tell outputs from orphans
  std::vector<bool> consumed(plan_->ops.size(), false);
  for (const PlanOp& op : plan_->ops) {
    for (const OpId in : op.inputs) {
      if (in < plan_->ops.size()) consumed[in] = true;
    }
  }
  for (const ExpectedOutput& out : outputs_) {
    if (out.op < plan_->ops.size()) consumed[out.op] = true;
  }
  for (OpId id = 0; id < plan_->ops.size(); ++id) {
    if (!consumed[id]) {
      report.violations.push_back(
          Violation{InvariantClass::kTopological, id, rack_of_op(id),
                    "orphaned intermediate: produced but never consumed and "
                    "not a declared output"});
    }
  }
}

void PlanVerifier::check_algebra(VerifyReport& report) const {
  const std::size_t total = total_blocks();
  const std::vector<LeafTerms> value = fold_plan(*plan_);

  if (expect_xor_only_) {
    for (OpId id = 0; id < plan_->ops.size(); ++id) {
      if (plan_->ops[id].kind == OpKind::kCombine &&
          plan_->ops[id].with_matrix_cost) {
        report.violations.push_back(Violation{
            InvariantClass::kAlgebraic, id, rack_of_op(id),
            "plan claims the XOR fast path but this combine is charged at "
            "matrix-decode cost"});
      }
    }
  }

  for (const ExpectedOutput& out : outputs_) {
    if (out.op >= plan_->ops.size()) continue;  // reported by structure pass
    const LeafTerms& actual = value[out.op];

    if (expect_xor_only_) {
      for (const auto& [block, coeff] : out.terms) {
        if (coeff != 1) {
          report.violations.push_back(Violation{
              InvariantClass::kAlgebraic, out.op, rack_of_op(out.op),
              "plan claims the XOR fast path but " +
                  block_name(block, total) + " carries coefficient " +
                  std::to_string(static_cast<unsigned>(coeff))});
        }
      }
    }

    if (actual != out.terms) {
      std::ostringstream msg;
      msg << "equation mismatch for " << block_name(out.failed_block, total)
          << ":\n"
          << "      expected: " << render_terms(out.terms, total) << "\n"
          << "      actual  : " << render_terms(actual, total) << "\n"
          << "      diff    :";
      std::set<std::size_t> leaves;
      for (const auto& [b, c] : out.terms) leaves.insert(b);
      for (const auto& [b, c] : actual) leaves.insert(b);
      for (const std::size_t b : leaves) {
        const auto ei = out.terms.find(b);
        const auto ai = actual.find(b);
        const unsigned ec = ei == out.terms.end() ? 0u : ei->second;
        const unsigned ac = ai == actual.end() ? 0u : ai->second;
        if (ec != ac) {
          msg << " " << block_name(b, total) << ": expected " << ec
              << ", actual " << ac << ";";
        }
      }
      report.violations.push_back(Violation{InvariantClass::kAlgebraic,
                                            out.op, rack_of_op(out.op),
                                            msg.str()});
      continue;  // the identity proof below would only repeat the mismatch
    }

    // Generator identity: expand pseudo slots into their banked
    // decomposition, then prove sum_i c_i * G[b_i] == G[failed] — the
    // combination reconstructs the block for every stripe content.
    if (code_ == nullptr) continue;
    LeafTerms expanded;
    bool opaque = false;
    for (const auto& [block, coeff] : actual) {
      if (block < total) {
        expanded[block] ^= coeff;
        continue;
      }
      const auto it = pseudo_.find(block);
      if (it == pseudo_.end() || it->second.decomposition.empty()) {
        opaque = true;  // unknown partial: identity cannot be evaluated
        break;
      }
      for (const auto& [b, c] : it->second.decomposition) {
        expanded[b] ^= gf::mul(coeff, c);
      }
    }
    if (opaque) continue;
    std::erase_if(expanded, [](const auto& kv) { return kv.second == 0; });

    const matrix::Matrix& g = code_->generator();
    bool leaves_ok = out.failed_block < g.rows();
    for (const auto& [block, coeff] : expanded) {
      (void)coeff;
      if (block >= g.rows()) leaves_ok = false;
    }
    if (!leaves_ok) {
      report.violations.push_back(
          Violation{InvariantClass::kAlgebraic, out.op, rack_of_op(out.op),
                    "equation references a block outside the stripe"});
      continue;
    }
    for (std::size_t j = 0; j < g.cols(); ++j) {
      std::uint8_t sum = 0;
      for (const auto& [block, coeff] : expanded) {
        sum ^= gf::mul(coeff, g.at(block, j));
      }
      if (sum != g.at(out.failed_block, j)) {
        report.violations.push_back(Violation{
            InvariantClass::kAlgebraic, out.op, rack_of_op(out.op),
            "generator identity fails for " +
                block_name(out.failed_block, total) + " at data column " +
                std::to_string(j) + ": the expression " +
                render_terms(expanded, total) +
                " does not reconstruct the block"});
        break;
      }
    }
  }
}

void PlanVerifier::check_conservation(VerifyReport& report) const {
  if (!expected_traffic_.has_value()) return;
  repair::analysis::PredictedTraffic actual;
  for (OpId id = 0; id < plan_->ops.size(); ++id) {
    const PlanOp& op = plan_->ops[id];
    if (op.kind != OpKind::kSend || op.from == op.node) continue;
    if (op.from >= cluster_->total_nodes() ||
        op.node >= cluster_->total_nodes()) {
      continue;  // reported by the structure pass
    }
    if (cluster_->same_rack(op.from, op.node)) {
      ++actual.inner_transfers;
    } else {
      ++actual.cross_transfers;
    }
  }
  if (actual.cross_transfers != expected_traffic_->cross_transfers) {
    report.violations.push_back(Violation{
        InvariantClass::kConservation, repair::kNoOp, kNoRack,
        "cross-rack transfer count " +
            std::to_string(actual.cross_transfers) +
            " differs from the closed-form prediction " +
            std::to_string(expected_traffic_->cross_transfers) + " (" +
            std::to_string(actual.cross_transfers * plan_->block_size) +
            " vs " +
            std::to_string(expected_traffic_->cross_transfers *
                           plan_->block_size) +
            " bytes)"});
  }
  if (actual.inner_transfers != expected_traffic_->inner_transfers) {
    report.violations.push_back(Violation{
        InvariantClass::kConservation, repair::kNoOp, kNoRack,
        "inner-rack transfer count " +
            std::to_string(actual.inner_transfers) +
            " differs from the closed-form prediction " +
            std::to_string(expected_traffic_->inner_transfers)});
  }
}

VerifyReport PlanVerifier::run() const {
  VerifyReport report;
  check_structure(report);
  check_reads(report);
  check_orphans(report);
  if (!skip_algebra_) check_algebra(report);
  check_conservation(report);
  return report;
}

VerifyReport verify_planned_repair(const repair::PlannedRepair& planned,
                                   const repair::RepairProblem& problem,
                                   repair::Scheme scheme,
                                   bool skip_algebra) {
  RPR_REQUIRE(problem.code != nullptr && problem.placement != nullptr,
              "verify_planned_repair needs a fully specified problem");
  const topology::Placement& placement = *problem.placement;

  PlanVerifier v(planned.plan, placement.cluster());
  v.with_placement(placement).with_code(*problem.code);
  // Only the selected survivors may be read: every other stripe block may
  // be unavailable (a degraded read's lost set is wider than its one
  // failed block). The failed blocks stay forbidden either way.
  std::set<std::size_t> forbidden(problem.failed.begin(),
                                  problem.failed.end());
  if (!planned.selected.empty()) {
    const std::set<std::size_t> selected(planned.selected.begin(),
                                         planned.selected.end());
    for (std::size_t b = 0; b < problem.code->config().total(); ++b) {
      if (selected.count(b) == 0) forbidden.insert(b);
    }
  }
  v.forbid_blocks(forbidden);

  VerifyReport pre;
  if (planned.outputs.size() != problem.failed.size() ||
      planned.equations.size() != problem.failed.size()) {
    pre.violations.push_back(Violation{
        InvariantClass::kAlgebraic, repair::kNoOp, kNoRack,
        "planner emitted " + std::to_string(planned.outputs.size()) +
            " output(s) and " + std::to_string(planned.equations.size()) +
            " equation(s) for " + std::to_string(problem.failed.size()) +
            " failed block(s)"});
    return pre;
  }
  for (std::size_t e = 0; e < problem.failed.size(); ++e) {
    const rs::RepairEquation& eq = planned.equations[e];
    if (eq.failed_block != problem.failed[e]) {
      pre.violations.push_back(Violation{
          InvariantClass::kAlgebraic, repair::kNoOp, kNoRack,
          "equation " + std::to_string(e) + " rebuilds block " +
              std::to_string(eq.failed_block) + " but failure " +
              std::to_string(e) + " is block " +
              std::to_string(problem.failed[e])});
      continue;
    }
    v.expect_output(planned.outputs[e], eq.failed_block,
                    problem.replacements[e], repair::leaf_terms(eq));
  }
  if (!pre.ok()) return pre;

  v.expect_traffic(
      repair::analysis::predicted_traffic(scheme, problem, planned));
  if (!planned.used_decoding_matrix) v.expect_xor_only();
  v.skip_algebra(skip_algebra);
  return v.run();
}

VerifyReport verify_remainder_plan(const RepairPlan& plan,
                                   const topology::Placement& placement,
                                   const rs::RSCode& code,
                                   std::span<const RemainderCheck> checks,
                                   const std::set<std::size_t>& forbidden,
                                   bool skip_algebra) {
  PlanVerifier v(plan, placement.cluster());
  v.with_placement(placement).with_code(code);
  v.forbid_blocks(forbidden);

  repair::analysis::PredictedTraffic expected;
  for (const RemainderCheck& c : checks) {
    LeafTerms terms = c.eq.terms;
    std::map<std::size_t, topology::NodeId> pseudo_nodes;
    for (const auto& p : c.eq.partials) {
      terms[p.slot] = 1;
      pseudo_nodes[p.slot] = p.node;
      const auto dit = c.partial_decompositions.find(p.slot);
      v.add_pseudo_slot(p.slot, p.node,
                        dit == c.partial_decompositions.end()
                            ? LeafTerms{}
                            : dit->second);
    }
    const auto* pn = c.eq.partials.empty() ? nullptr : &pseudo_nodes;
    const auto one =
        c.eq.scheme == repair::RemainderScheme::kDirect
            ? repair::analysis::predicted_direct_equation_traffic(
                  placement, terms, c.eq.destination, pn)
            : repair::analysis::predicted_equation_traffic(
                  placement, terms, c.eq.destination, pn);
    expected.cross_transfers += one.cross_transfers;
    expected.inner_transfers += one.inner_transfers;
    v.expect_output(c.output, c.eq.failed_block, c.eq.destination,
                    std::move(terms));
  }
  v.expect_traffic(expected);
  v.skip_algebra(skip_algebra);
  return v.run();
}

VerifyReport verify_makespan(const repair::RepairPlan& plan,
                             const topology::Cluster& cluster,
                             const topology::NetworkParams& net,
                             std::size_t slice_size,
                             double measured_makespan_s, bool expect_tight,
                             double tolerance) {
  VerifyReport report;
  const repair::analysis::MakespanBound bound =
      repair::analysis::makespan_lower_bound(plan, cluster, net, slice_size);
  const double floor = bound.seconds();
  // Numeric slack only: the floor is schedule-independent, so beating it is
  // a model inconsistency, not an achievement.
  if (measured_makespan_s < floor * (1.0 - 1e-6)) {
    report.violations.push_back(Violation{
        InvariantClass::kTiming, repair::kNoOp, kNoRack,
        "measured makespan " + std::to_string(measured_makespan_s) +
            " s beats the schedule-independent lower bound " +
            std::to_string(floor) +
            " s (pipeline-depth " + std::to_string(bound.pipeline_depth_s) +
            " s over " + std::to_string(bound.stages) +
            " stage(s), port-load " + std::to_string(bound.port_load_s) +
            " s) — the schedule and the port model disagree"});
  }
  if (expect_tight && measured_makespan_s > floor * (1.0 + tolerance)) {
    report.violations.push_back(Violation{
        InvariantClass::kTiming, repair::kNoOp, kNoRack,
        "measured makespan " + std::to_string(measured_makespan_s) +
            " s misses the pipeline-depth lower bound " +
            std::to_string(floor) + " s by more than " +
            std::to_string(tolerance * 100.0) +
            "% — the schedule is not actually pipelined (serialized hops "
            "or a starved relay)"});
  }
  return report;
}

bool verify_plans_enabled() {
  const char* env = std::getenv("RPR_VERIFY_PLANS");
  return env != nullptr && *env != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}

bool online_verify_enabled() {
  const char* env = std::getenv("RPR_VERIFY_ONLINE");
  return env == nullptr || !(env[0] == '0' && env[1] == '\0');
}

std::uint64_t plan_fingerprint(const RepairPlan& plan,
                               std::span<const RemainderCheck> outputs) {
  std::uint64_t fp = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  const auto mix = [&fp](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      fp ^= static_cast<std::uint8_t>(v >> (8 * i));
      fp *= 0x100000001b3ULL;  // FNV-1a prime
    }
  };
  mix(plan.ops.size());
  for (const PlanOp& op : plan.ops) {
    mix(static_cast<std::uint64_t>(op.kind));
    mix(op.node);
    mix(op.from);
    mix(op.block);
    mix(op.coeff);
    mix(op.with_matrix_cost ? 1 : 0);
    mix(op.inputs.size());
    for (const OpId in : op.inputs) mix(in);
    for (const std::uint8_t c : op.input_coeffs) mix(c);
  }
  const auto mix_terms = [&mix](const LeafTerms& terms) {
    mix(terms.size());
    for (const auto& [block, coeff] : terms) {
      mix(block);
      mix(coeff);
    }
  };
  mix(outputs.size());
  for (const RemainderCheck& out : outputs) {
    mix(out.output);
    mix(out.eq.failed_block);
    mix(out.eq.destination);
    mix_terms(out.eq.terms);
    mix(out.eq.partials.size());
    for (const auto& p : out.eq.partials) {
      mix(p.slot);
      mix(p.node);
      const auto it = out.partial_decompositions.find(p.slot);
      mix_terms(it == out.partial_decompositions.end() ? LeafTerms{}
                                                       : it->second);
    }
  }
  return fp;
}

namespace {

// Bounded: the rare overflow just re-pays one algebra pass per cached plan.
struct AlgebraCache {
  std::mutex mu;
  std::unordered_set<std::uint64_t> passed;
};

AlgebraCache& algebra_cache() {
  static AlgebraCache cache;
  return cache;
}

}  // namespace

bool algebra_cache_contains(std::uint64_t fingerprint) {
  AlgebraCache& c = algebra_cache();
  const std::lock_guard<std::mutex> lock(c.mu);
  return c.passed.count(fingerprint) != 0;
}

void algebra_cache_insert(std::uint64_t fingerprint) {
  AlgebraCache& c = algebra_cache();
  const std::lock_guard<std::mutex> lock(c.mu);
  if (c.passed.size() >= 8192) c.passed.clear();
  c.passed.insert(fingerprint);
}

void throw_if_violated(const VerifyReport& report, const std::string& context) {
  if (report.ok()) return;
  throw std::logic_error("plan verification failed (" + context + "): " +
                         report.to_string());
}

}  // namespace rpr::verify
