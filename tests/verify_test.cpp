// Mutation self-test of the static plan verifier: every corruption class
// the verifier claims to catch is seeded into a known-good plan and must be
// detected, and every clean planner/re-planner output must pass. The
// verifier is only trustworthy if it both accepts the true positives and
// rejects the seeded negatives — a lint that never fires is
// indistinguishable from one that is wired to nothing.
#include "verify/plan_verifier.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "gf/gf256.h"
#include "repair/executor_sim.h"
#include "repair/planner.h"
#include "repair/replan.h"
#include "repair/resilient.h"
#include "rs/rs_code.h"
#include "test_support.h"
#include "topology/placement.h"
#include "util/rng.h"
#include "util/units.h"

using rpr::repair::LeafTerms;
using rpr::repair::OpId;
using rpr::repair::OpKind;
using rpr::repair::PlannedRepair;
using rpr::repair::RepairProblem;
using rpr::repair::Scheme;
using rpr::verify::InvariantClass;
using rpr::verify::VerifyReport;

namespace {

/// One planned single-failure repair to mutate. CAR keeps the traditional
/// matrix decode, so its plans carry arbitrary (non-unit) coefficients —
/// the harder case for the algebraic fold.
struct Case {
  rpr::rs::RSCode code{rpr::rs::CodeConfig{6, 3}};
  rpr::topology::PlacedStripe placed;
  RepairProblem problem;
  PlannedRepair planned;
  Scheme scheme;

  explicit Case(Scheme s, std::vector<std::size_t> failed = {0},
                rpr::topology::PlacementPolicy policy =
                    rpr::topology::PlacementPolicy::kContiguous)
      : placed(rpr::topology::make_placed_stripe({6, 3}, policy)),
        scheme(s) {
    problem.code = &code;
    problem.placement = &placed.placement;
    problem.block_size = 1 << 20;
    problem.failed = std::move(failed);
    problem.choose_default_replacements();
    planned = rpr::repair::make_planner(s)->plan(problem);
  }

  [[nodiscard]] VerifyReport verify() const {
    return rpr::verify::verify_planned_repair(planned, problem, scheme);
  }

  [[nodiscard]] OpId find_op(OpKind kind, std::size_t min_inputs = 0) {
    for (OpId id = 0; id < planned.plan.ops.size(); ++id) {
      if (planned.plan.ops[id].kind == kind &&
          planned.plan.ops[id].inputs.size() >= min_inputs) {
        return id;
      }
    }
    ADD_FAILURE() << "plan has no such op";
    return rpr::repair::kNoOp;
  }

  [[nodiscard]] OpId find_labeled(const std::string& label) {
    for (OpId id = 0; id < planned.plan.ops.size(); ++id) {
      if (planned.plan.ops[id].label == label) return id;
    }
    ADD_FAILURE() << "plan has no op labeled " << label;
    return rpr::repair::kNoOp;
  }

  /// Any node in a different rack than `node` (same slot position).
  [[nodiscard]] rpr::topology::NodeId other_rack_node(
      rpr::topology::NodeId node) const {
    const auto& cluster = placed.cluster;
    const auto rack = cluster.rack_of(node);
    const auto other = rack == 0 ? rpr::topology::RackId{1}
                                 : rpr::topology::RackId{0};
    return other * cluster.nodes_per_rack() + node % cluster.nodes_per_rack();
  }
};

bool generator_identity(const rpr::rs::RSCode& code, const LeafTerms& terms,
                        std::size_t failed_block) {
  const auto& g = code.generator();
  for (std::size_t j = 0; j < g.cols(); ++j) {
    std::uint8_t sum = 0;
    for (const auto& [b, c] : terms) {
      sum ^= rpr::gf::mul(c, g.at(b, j));
    }
    if (sum != g.at(failed_block, j)) return false;
  }
  return true;
}

/// Scoped RPR_VERIFY_PLANS (nullptr clears it), restoring the previous
/// value afterwards, so one test cannot leak the debug mode into the rest
/// of the binary or depend on how the binary was launched.
class ScopedVerifyEnv {
 public:
  explicit ScopedVerifyEnv(const char* value) {
    if (const char* old = std::getenv("RPR_VERIFY_PLANS")) saved_ = old;
    if (value != nullptr) {
      ::setenv("RPR_VERIFY_PLANS", value, 1);
    } else {
      ::unsetenv("RPR_VERIFY_PLANS");
    }
  }
  ~ScopedVerifyEnv() {
    if (saved_) {
      ::setenv("RPR_VERIFY_PLANS", saved_->c_str(), 1);
    } else {
      ::unsetenv("RPR_VERIFY_PLANS");
    }
  }
  ScopedVerifyEnv(const ScopedVerifyEnv&) = delete;
  ScopedVerifyEnv& operator=(const ScopedVerifyEnv&) = delete;

 private:
  std::optional<std::string> saved_;
};

}  // namespace

// --- clean plans pass ------------------------------------------------------

TEST(PlanVerifier, CleanPlansPassEveryScheme) {
  for (const Scheme s : {Scheme::kTraditional, Scheme::kCar, Scheme::kRpr,
                         Scheme::kRprChained}) {
    Case c(s);
    const auto report = c.verify();
    EXPECT_TRUE(report.ok()) << report.to_string();
  }
}

TEST(PlanVerifier, CleanMultiFailurePlansPass) {
  for (const Scheme s :
       {Scheme::kTraditional, Scheme::kRpr, Scheme::kRprChained}) {
    Case c(s, {0, 7});
    const auto report = c.verify();
    EXPECT_TRUE(report.ok()) << report.to_string();
  }
}

TEST(PlanVerifier, CleanDegradedReadPasses) {
  Case c(Scheme::kRpr);
  c.problem.replacements = {c.placed.cluster.spare(1)};
  c.planned = rpr::repair::DegradedReadPlanner({0}).plan(c.problem);
  const auto report = c.verify();
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// --- mutation class 1: flipped read coefficient ----------------------------

TEST(PlanVerifierMutation, DetectsFlippedReadCoefficient) {
  Case c(Scheme::kCar);
  const OpId read = c.find_op(OpKind::kRead);
  auto& coeff = c.planned.plan.ops[read].coeff;
  coeff = static_cast<std::uint8_t>(coeff == 1 ? 2 : 1);

  const auto report = c.verify();
  ASSERT_FALSE(report.ok());
  EXPECT_GE(report.count(InvariantClass::kAlgebraic), 1u)
      << report.to_string();
}

TEST(PlanVerifierMutation, EquationMismatchRendersReadableDiff) {
  Case c(Scheme::kCar);
  const OpId read = c.find_op(OpKind::kRead);
  auto& coeff = c.planned.plan.ops[read].coeff;
  coeff = static_cast<std::uint8_t>(coeff == 1 ? 2 : 1);

  const std::string report = c.verify().to_string();
  EXPECT_NE(report.find("expected"), std::string::npos) << report;
  EXPECT_NE(report.find("actual"), std::string::npos) << report;
  EXPECT_NE(report.find("diff"), std::string::npos) << report;
  EXPECT_NE(report.find("op "), std::string::npos) << report;
  EXPECT_NE(report.find("rack "), std::string::npos) << report;
}

// --- mutation class 2: dropped combine input -------------------------------

TEST(PlanVerifierMutation, DetectsDroppedCombineInput) {
  Case c(Scheme::kRpr);
  const OpId comb = c.find_op(OpKind::kCombine, /*min_inputs=*/2);
  auto& op = c.planned.plan.ops[comb];
  op.inputs.pop_back();
  if (!op.input_coeffs.empty()) op.input_coeffs.pop_back();

  const auto report = c.verify();
  ASSERT_FALSE(report.ok());
  // The output expression loses the dropped subtree's terms (algebraic) and
  // the subtree's root is now produced but never consumed (topological).
  EXPECT_GE(report.count(InvariantClass::kAlgebraic), 1u)
      << report.to_string();
  EXPECT_GE(report.count(InvariantClass::kTopological), 1u)
      << report.to_string();
}

// --- mutation class 3: rerouted send ---------------------------------------

TEST(PlanVerifierMutation, DetectsReroutedSendDestination) {
  Case c(Scheme::kRpr);
  const OpId send = c.find_op(OpKind::kSend, /*min_inputs=*/1);
  auto& op = c.planned.plan.ops[send];
  op.node = c.other_rack_node(op.node);

  const auto report = c.verify();
  ASSERT_FALSE(report.ok());
  EXPECT_GE(report.count(InvariantClass::kTopological), 1u)
      << report.to_string();
}

// --- mutation class 4: read on the wrong node ------------------------------

TEST(PlanVerifierMutation, DetectsReadOnWrongRackNode) {
  Case c(Scheme::kRpr);
  const OpId read = c.find_op(OpKind::kRead);
  auto& op = c.planned.plan.ops[read];
  op.node = c.other_rack_node(op.node);

  const auto report = c.verify();
  ASSERT_FALSE(report.ok());
  EXPECT_GE(report.count(InvariantClass::kTopological), 1u)
      << report.to_string();
}

// --- conservation ----------------------------------------------------------

TEST(PlanVerifierMutation, DetectsRedundantTransfer) {
  Case c(Scheme::kRpr);
  // Bolt a gratuitous round-trip onto an intermediate: its value leaves the
  // node and comes back, changing no output but moving extra bytes.
  const OpId send = c.find_op(OpKind::kSend, /*min_inputs=*/1);
  auto& plan = c.planned.plan;
  const auto home = plan.ops[send].node;
  const auto away = c.other_rack_node(home);
  const OpId out = plan.send(send, home, away, "detour");
  plan.send(out, away, home, "return");

  const auto report = c.verify();
  ASSERT_FALSE(report.ok());
  EXPECT_GE(report.count(InvariantClass::kConservation), 1u)
      << report.to_string();
}

TEST(PlanVerifierMutation, DetectsForbiddenBlockRead) {
  Case c(Scheme::kRpr);
  const OpId read = c.find_op(OpKind::kRead);
  // Redirect the read at the failed block itself, on its (dead) node.
  auto& op = c.planned.plan.ops[read];
  op.block = c.problem.failed[0];
  op.node = c.placed.placement.node_of(op.block);

  const auto report = c.verify();
  ASSERT_FALSE(report.ok());
  EXPECT_GE(report.count(InvariantClass::kTopological), 1u)
      << report.to_string();
}

TEST(PlanVerifierMutation, DetectsDegradedReadOfAnotherLostBlock) {
  // Two blocks are lost, the read rebuilds one of them: the other is off
  // limits although it is not the problem's failed block. Redirect a read
  // to it (on the node that held it) and the verifier must name that op.
  Case c(Scheme::kRpr);
  const std::size_t other_lost = 1;
  c.problem.replacements = {c.placed.cluster.spare(1)};
  c.planned = rpr::repair::DegradedReadPlanner({0, other_lost}).plan(c.problem);
  ASSERT_TRUE(c.verify().ok());

  const OpId read = c.find_op(OpKind::kRead);
  c.planned.plan.ops[read].block = other_lost;
  c.planned.plan.ops[read].node = c.placed.placement.node_of(other_lost);

  const auto report = c.verify();
  EXPECT_GE(report.count(InvariantClass::kTopological), 1u)
      << report.to_string();
  bool named = false;
  for (const auto& v : report.violations) {
    named = named || (v.op == read &&
                      v.message.find("must not be a source") !=
                          std::string::npos);
  }
  EXPECT_TRUE(named) << report.to_string();
}

// --- mutation class 5: chained relay corruption ----------------------------
// A chained plan's correctness rides entirely on the relay chain being
// wired in the order the planner chose: every "chain:send" must leave the
// node holding the running sum, and every "chain:merge" must fold that sum
// into the local partial. Flat placement gives each helper its own rack,
// so the (6,3) plan is a genuine six-hop chain.

TEST(PlanVerifierMutation, DetectsMisorderedChainHop) {
  Case c(Scheme::kRprChained, {0}, rpr::topology::PlacementPolicy::kFlat);
  // Reverse one relay hop: the schedule now claims the running sum flows
  // backwards, from a station that does not hold it yet.
  const OpId hop = c.find_labeled("chain:send");
  auto& op = c.planned.plan.ops[hop];
  std::swap(op.node, op.from);

  const auto report = c.verify();
  ASSERT_FALSE(report.ok());
  EXPECT_GE(report.count(InvariantClass::kTopological), 1u)
      << report.to_string();
}

TEST(PlanVerifierMutation, DetectsBrokenRelayDependency) {
  Case c(Scheme::kRprChained, {0}, rpr::topology::PlacementPolicy::kFlat);
  // Cut the upstream running sum out of a relay's merge: everything the
  // chain accumulated before this station silently vanishes from the
  // rebuilt block.
  const OpId merge = c.find_labeled("chain:merge");
  auto& op = c.planned.plan.ops[merge];
  ASSERT_GE(op.inputs.size(), 2u);
  op.inputs.erase(op.inputs.begin());
  if (!op.input_coeffs.empty()) op.input_coeffs.erase(op.input_coeffs.begin());

  const auto report = c.verify();
  ASSERT_FALSE(report.ok());
  EXPECT_GE(report.count(InvariantClass::kAlgebraic), 1u)
      << report.to_string();
}

// --- timing: the makespan lower bound --------------------------------------
// verify_makespan is two one-sided checks against the schedule-independent
// floor max(pipeline-depth, port-load): soundness (no measured makespan may
// beat the floor — if one does, the schedule and the port model disagree)
// and, for single-failure chains, tightness (a pipelined chain must land
// within tolerance of the floor — a serialized chain does not).

TEST(PlanVerifierTiming, SlicedChainMeetsThePipelineBound) {
  Case c(Scheme::kRprChained, {0}, rpr::topology::PlacementPolicy::kFlat);
  rpr::topology::NetworkParams net;
  net.slice_size = 64 << 10;
  const auto sim =
      rpr::repair::simulate(c.planned.plan, c.placed.cluster, net);
  const auto report = rpr::verify::verify_makespan(
      c.planned.plan, c.placed.cluster, net, net.slice_size,
      rpr::util::to_sec(sim.total_repair_time), /*expect_tight=*/true);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(PlanVerifierTiming, FlagsMakespanBeatingTheLowerBound) {
  Case c(Scheme::kRprChained, {0}, rpr::topology::PlacementPolicy::kFlat);
  rpr::topology::NetworkParams net;
  net.slice_size = 64 << 10;
  const auto sim =
      rpr::repair::simulate(c.planned.plan, c.placed.cluster, net);
  // A measured makespan below the floor is physically impossible under the
  // port model; report it at half the measured value.
  const auto report = rpr::verify::verify_makespan(
      c.planned.plan, c.placed.cluster, net, net.slice_size,
      rpr::util::to_sec(sim.total_repair_time) / 2.0);
  ASSERT_FALSE(report.ok());
  EXPECT_GE(report.count(InvariantClass::kTiming), 1u) << report.to_string();
}

TEST(PlanVerifierTiming, FlagsSerializedChainMissingTheBound) {
  Case c(Scheme::kRprChained, {0}, rpr::topology::PlacementPolicy::kFlat);
  // Run the chain whole-block (store-and-forward, every hop serialized)
  // but hold it to the sliced pipeline-depth floor: the tightness check
  // must flag the schedule as not actually pipelined.
  rpr::topology::NetworkParams whole;
  const auto sim =
      rpr::repair::simulate(c.planned.plan, c.placed.cluster, whole);
  const auto report = rpr::verify::verify_makespan(
      c.planned.plan, c.placed.cluster, whole, /*slice_size=*/64 << 10,
      rpr::util::to_sec(sim.total_repair_time), /*expect_tight=*/true);
  ASSERT_FALSE(report.ok());
  EXPECT_GE(report.count(InvariantClass::kTiming), 1u) << report.to_string();
}

// --- property: equation patching keeps the generator identity --------------

TEST(PlanVerifierProperty, SubstituteSourcePreservesGeneratorIdentity) {
  for (const auto cfg :
       {rpr::rs::CodeConfig{6, 3}, rpr::rs::CodeConfig{9, 6}}) {
    const rpr::rs::RSCode code(cfg);
    rpr::util::Xoshiro256 rng(0xBADC0DE + cfg.n);

    for (int trial = 0; trial < 32; ++trial) {
      const std::size_t failed = rng() % cfg.total();
      std::set<std::size_t> unusable = {failed};
      const std::vector<std::size_t> failed_v = {failed};
      auto selected = code.default_selection(failed_v);
      auto eqs = code.repair_equations(failed_v, selected);
      LeafTerms terms;
      for (std::size_t i = 0; i < eqs[0].sources.size(); ++i) {
        if (eqs[0].coefficients[i] != 0) {
          terms[eqs[0].sources[i]] = eqs[0].coefficients[i];
        }
      }
      ASSERT_TRUE(generator_identity(code, terms, failed));

      // Kill up to k-1 random additional blocks; after every patch the
      // remaining expression must still reconstruct the failed block.
      for (std::size_t kills = 0; kills + 1 < cfg.k; ++kills) {
        const std::size_t victim = rng() % cfg.total();
        if (unusable.count(victim) != 0) continue;
        unusable.insert(victim);
        rpr::repair::substitute_source(code, terms, victim, unusable);
        EXPECT_TRUE(generator_identity(code, terms, failed))
            << "identity lost after killing block " << victim;
        for (const auto& [b, coeff] : terms) {
          (void)coeff;
          EXPECT_EQ(unusable.count(b), 0u)
              << "patched equation references unusable block " << b;
        }
      }
    }
  }
}

// --- property: remainder plans pass the full verifier ----------------------

TEST(PlanVerifierProperty, RemainderPlansVerifyAcrossRandomKills) {
  const rpr::rs::CodeConfig cfg{6, 3};
  const rpr::rs::RSCode code(cfg);
  const auto placed = rpr::topology::make_placed_stripe(
      cfg, rpr::topology::PlacementPolicy::kRpr);
  rpr::util::Xoshiro256 rng(0x5EED);

  for (int trial = 0; trial < 48; ++trial) {
    const std::size_t failed = rng() % cfg.total();
    std::set<std::size_t> unusable = {failed};
    const std::vector<std::size_t> failed_v = {failed};
    auto eqs = code.repair_equations(failed_v,
                                     code.default_selection(failed_v));
    LeafTerms terms;
    for (std::size_t i = 0; i < eqs[0].sources.size(); ++i) {
      if (eqs[0].coefficients[i] != 0) {
        terms[eqs[0].sources[i]] = eqs[0].coefficients[i];
      }
    }
    if (const std::size_t victim = rng() % cfg.total();
        unusable.count(victim) == 0) {
      unusable.insert(victim);
      rpr::repair::substitute_source(code, terms, victim, unusable);
    }

    rpr::repair::RemainderEquation req;
    req.failed_block = failed;
    req.terms = terms;
    req.destination =
        placed.cluster.spare(placed.placement.rack_of(failed));
    req.with_matrix = true;

    rpr::repair::RepairPlan plan;
    plan.block_size = 1 << 20;
    const OpId output = rpr::repair::plan_remainder(plan, placed.placement,
                                                    req, {}, 0);

    const rpr::verify::RemainderCheck check{req, output, {}};
    const auto report = rpr::verify::verify_remainder_plan(
        plan, placed.placement, code, {&check, 1}, unusable);
    EXPECT_TRUE(report.ok()) << report.to_string();
  }
}

// --- debug mode ------------------------------------------------------------

TEST(VerifyPlansEnv, TogglesPerCall) {
  const ScopedVerifyEnv cleared(nullptr);
  EXPECT_FALSE(rpr::verify::verify_plans_enabled());
  {
    ScopedVerifyEnv on("1");
    EXPECT_TRUE(rpr::verify::verify_plans_enabled());
  }
  {
    ScopedVerifyEnv off("0");
    EXPECT_FALSE(rpr::verify::verify_plans_enabled());
  }
  EXPECT_FALSE(rpr::verify::verify_plans_enabled());
}

TEST(VerifyPlansEnv, ResilientSessionsVerifyEveryReplan) {
  // With the debug mode on, every planner output AND every mid-repair
  // patched plan is verified before execution; any violation throws. The
  // randomized kill schedules exercise the re-plan paths (banked partials,
  // substituted sources, moved destinations).
  ScopedVerifyEnv on("1");
  const rpr::rs::CodeConfig cfg{6, 3};
  const rpr::rs::RSCode code(cfg);
  const auto placed = rpr::topology::make_placed_stripe(
      cfg, rpr::topology::PlacementPolicy::kRpr);
  const auto stripe = rpr::testing::random_stripe(code, 4096, 99);
  rpr::util::Xoshiro256 rng(0xD15EA5E);

  for (int trial = 0; trial < 8; ++trial) {
    RepairProblem problem;
    problem.code = &code;
    problem.placement = &placed.placement;
    problem.block_size = 64ull << 20;
    problem.failed = {rng() % cfg.total()};
    problem.choose_default_replacements();

    const auto planner = rpr::repair::make_planner(Scheme::kRpr);
    // Kill a random helper mid-flight (10 ms into a plan whose transfers
    // span tens of milliseconds, so the kill lands mid-repair).
    const auto planned = planner->plan(problem);
    std::vector<rpr::topology::NodeId> helpers;
    for (const auto& op : planned.plan.ops) {
      if (op.kind == OpKind::kRead &&
          op.node != problem.replacements[0]) {
        helpers.push_back(op.node);
      }
    }
    ASSERT_FALSE(helpers.empty());
    rpr::fault::FaultSchedule chaos;
    chaos.kills.push_back({helpers[rng() % helpers.size()], 0.010});

    const auto outcome = rpr::repair::simulate_resilient(
        problem, *planner, stripe, rpr::topology::NetworkParams{}, chaos,
        {});
    ASSERT_EQ(outcome.outputs.size(), 1u);
    EXPECT_EQ(outcome.outputs[0], stripe[problem.failed[0]]);
  }
}

// --- online verification of degraded reads ---------------------------------

namespace {

/// A degraded-read planner with one flipped read coefficient: every rebuilt
/// byte is wrong, and only the verifier's algebraic fold can tell.
class FlippedCoefficientReadPlanner final : public rpr::repair::Planner {
 public:
  explicit FlippedCoefficientReadPlanner(std::vector<std::size_t> lost)
      : inner_(std::move(lost)) {}
  [[nodiscard]] Scheme scheme() const override { return Scheme::kRpr; }

 private:
  [[nodiscard]] PlannedRepair do_plan(const RepairProblem& p) const override {
    PlannedRepair out = inner_.plan(p);
    for (auto& op : out.plan.ops) {
      if (op.kind == OpKind::kRead) {
        op.coeff = static_cast<std::uint8_t>(op.coeff == 1 ? 2 : 1);
        break;
      }
    }
    return out;
  }

  rpr::repair::DegradedReadPlanner inner_;
};

}  // namespace

TEST(VerifyOnline, RejectsCorruptDegradedReadPlanEveryTime) {
  // With the debug mode off, only the resilient driver's online check
  // stands between this plan and wrong bytes. A rejected plan must stay
  // rejected when it comes back (its fingerprint never enters the cache).
  const ScopedVerifyEnv cleared(nullptr);
  const rpr::rs::CodeConfig cfg{6, 3};
  const rpr::rs::RSCode code(cfg);
  const auto placed = rpr::topology::make_placed_stripe(
      cfg, rpr::topology::PlacementPolicy::kRpr);
  const auto stripe = rpr::testing::random_stripe(code, 4096, 0x6A9);

  RepairProblem problem;
  problem.code = &code;
  problem.placement = &placed.placement;
  problem.block_size = 4096;
  problem.failed = {1};
  problem.replacements = {placed.cluster.spare(2)};
  const FlippedCoefficientReadPlanner planner({1, 4});
  rpr::repair::ResilientOptions ropts;
  ropts.unavailable.insert(placed.placement.node_of(4));

  for (int attempt = 0; attempt < 2; ++attempt) {
    EXPECT_THROW((void)rpr::repair::simulate_resilient(
                     problem, planner, stripe, rpr::topology::NetworkParams{},
                     rpr::fault::FaultSchedule{}, ropts),
                 std::logic_error)
        << "attempt " << attempt;
  }
}

namespace {

/// Answers a degraded read of any block with the plan it built for block 0
/// (same lost set, same reader) and the equation relabelled to the
/// requested block: structurally identical to a correct plan, algebraically
/// the wrong block.
class RelabelledReadPlanner final : public rpr::repair::Planner {
 public:
  explicit RelabelledReadPlanner(std::vector<std::size_t> lost)
      : inner_(std::move(lost)) {}
  [[nodiscard]] Scheme scheme() const override { return Scheme::kRpr; }

 private:
  [[nodiscard]] PlannedRepair do_plan(const RepairProblem& p) const override {
    RepairProblem block0 = p;
    block0.failed = {0};
    PlannedRepair out = inner_.plan(block0);
    out.equations[0].failed_block = p.failed[0];
    return out;
  }

  rpr::repair::DegradedReadPlanner inner_;
};

}  // namespace

TEST(VerifyOnline, AlgebraCacheIsKeyedOnTheProblem) {
  // The first read (block 0) is correct and its plan's algebra is cached.
  // The second (block 1) reuses that plan verbatim; only its problem
  // differs, so a cache keyed on the plan alone would skip the fold and
  // hand block 0's bytes out as block 1.
  const ScopedVerifyEnv cleared(nullptr);
  const rpr::rs::CodeConfig cfg{6, 3};
  const rpr::rs::RSCode code(cfg);
  const auto placed = rpr::topology::make_placed_stripe(
      cfg, rpr::topology::PlacementPolicy::kRpr);
  const auto stripe = rpr::testing::random_stripe(code, 4096, 0x5EED);
  const RelabelledReadPlanner planner({0, 1});

  const auto read = [&](std::size_t block) {
    RepairProblem problem;
    problem.code = &code;
    problem.placement = &placed.placement;
    problem.block_size = 4096;
    problem.failed = {block};
    problem.replacements = {placed.cluster.spare(2)};
    rpr::repair::ResilientOptions ropts;
    ropts.unavailable.insert(placed.placement.node_of(1 - block));
    return rpr::repair::simulate_resilient(
        problem, planner, stripe, rpr::topology::NetworkParams{},
        rpr::fault::FaultSchedule{}, ropts);
  };
  const auto first = read(0);
  ASSERT_EQ(first.outputs.size(), 1u);
  EXPECT_EQ(first.outputs[0], stripe[0]);
  EXPECT_THROW((void)read(1), std::logic_error);
}
