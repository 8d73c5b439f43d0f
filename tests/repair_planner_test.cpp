// End-to-end planner tests: for every scheme x configuration x placement x
// failure pattern, the emitted plan must validate structurally, reproduce
// the lost blocks bit-exactly through the data executor, and respect the
// traffic/time relationships the paper establishes.
#include "repair/planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <tuple>

#include "repair/executor_data.h"
#include "gf/gf_region.h"
#include "repair/executor_sim.h"
#include "repair/replan.h"
#include "test_support.h"
#include "util/combinatorics.h"

using rpr::repair::CarPlanner;
using rpr::repair::PlannedRepair;
using rpr::repair::Planner;
using rpr::repair::RepairProblem;
using rpr::repair::RprOptions;
using rpr::repair::RprPlanner;
using rpr::repair::Scheme;
using rpr::repair::TraditionalPlanner;
using rpr::rs::CodeConfig;
using rpr::rs::RSCode;
using rpr::topology::PlacementPolicy;

namespace {

constexpr std::uint64_t kBlockSize = 256;  // data-correctness runs
constexpr std::uint64_t kSimBlock = 64ull << 20;  // timing runs: 64 MiB

struct Harness {
  RSCode code;
  rpr::topology::PlacedStripe placed;
  std::vector<rpr::rs::Block> stripe;

  Harness(CodeConfig cfg, PlacementPolicy pol)
      : code(cfg),
        placed(rpr::topology::make_placed_stripe(cfg, pol)),
        stripe(rpr::testing::random_stripe(code, kBlockSize, 0xBEEF)) {}

  RepairProblem problem(std::vector<std::size_t> failed,
                        std::uint64_t block_size = kBlockSize) {
    RepairProblem p;
    p.code = &code;
    p.placement = &placed.placement;
    p.block_size = block_size;
    p.failed = std::move(failed);
    p.choose_default_replacements();
    return p;
  }
};

/// Plans, validates, executes on data, and checks the rebuilt blocks.
void check_correct(Harness& s, const Planner& planner,
                   const std::vector<std::size_t>& failed) {
  auto problem = s.problem(failed);
  const PlannedRepair planned = planner.plan(problem);
  ASSERT_NO_THROW(
      rpr::repair::validate(planned.plan, s.placed.cluster));
  ASSERT_EQ(planned.outputs.size(), failed.size());

  const auto rebuilt = rpr::repair::execute_on_data(
      planned.plan, planned.outputs, s.stripe);
  for (std::size_t i = 0; i < failed.size(); ++i) {
    EXPECT_EQ(rebuilt[i], s.stripe[failed[i]])
        << planner.name() << ": block " << failed[i];
  }

  // Outputs must land on the chosen replacement nodes.
  for (std::size_t i = 0; i < failed.size(); ++i) {
    EXPECT_EQ(planned.plan.node_of(planned.outputs[i]),
              problem.replacements[i]);
  }

  // A valid plan never reads a failed block.
  for (const auto& op : planned.plan.ops) {
    if (op.kind != rpr::repair::OpKind::kRead) continue;
    for (std::size_t f : failed) EXPECT_NE(op.block, f);
  }
}

rpr::repair::SimOutcome simulate_scheme(Harness& s, const Planner& planner,
                                        const std::vector<std::size_t>& failed,
                                        rpr::topology::NetworkParams params =
                                            rpr::topology::NetworkParams{}) {
  auto problem = s.problem(failed, kSimBlock);
  const PlannedRepair planned = planner.plan(problem);
  return rpr::repair::simulate(planned.plan, s.placed.cluster, params);
}

}  // namespace

// ---------------------------------------------------------------------------
// Correctness: every scheme rebuilds every single-block failure bit-exactly.

class SingleFailureCorrectness
    : public ::testing::TestWithParam<std::tuple<CodeConfig,
                                                 PlacementPolicy>> {};

TEST_P(SingleFailureCorrectness, AllSchemesAllPositions) {
  const auto [cfg, pol] = GetParam();
  Harness s(cfg, pol);
  const TraditionalPlanner tra;
  const CarPlanner car;
  const RprPlanner rpr_planner;
  for (std::size_t f = 0; f < cfg.total(); ++f) {
    check_correct(s, tra, {f});
    check_correct(s, car, {f});
    check_correct(s, rpr_planner, {f});
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SingleFailureCorrectness,
    ::testing::Combine(::testing::ValuesIn(rpr::testing::paper_configs()),
                       ::testing::Values(PlacementPolicy::kContiguous,
                                         PlacementPolicy::kRpr,
                                         PlacementPolicy::kFlat)),
    [](const ::testing::TestParamInfo<
        std::tuple<CodeConfig, PlacementPolicy>>& i) {
      const CodeConfig cfg = std::get<0>(i.param);
      const PlacementPolicy pol = std::get<1>(i.param);
      const char* p = pol == PlacementPolicy::kContiguous ? "contig"
                      : pol == PlacementPolicy::kRpr      ? "rpr"
                                                          : "flat";
      return rpr::testing::config_name(cfg) + "_" + p;
    });

// ---------------------------------------------------------------------------
// Correctness: Traditional and RPR rebuild every multi-failure pattern.

class MultiFailureCorrectness
    : public ::testing::TestWithParam<CodeConfig> {};

TEST_P(MultiFailureCorrectness, AllPatternsUpToK) {
  const CodeConfig cfg = GetParam();
  Harness s(cfg, PlacementPolicy::kRpr);
  const TraditionalPlanner tra;
  const RprPlanner rpr_planner;
  for (std::size_t l = 2; l <= cfg.k; ++l) {
    rpr::util::for_each_combination(
        cfg.total(), l, [&](const std::vector<std::size_t>& failed) {
          check_correct(s, tra, failed);
          check_correct(s, rpr_planner, failed);
        });
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MultiFailureCorrectness,
    ::testing::ValuesIn(rpr::testing::paper_configs()),
    [](const ::testing::TestParamInfo<CodeConfig>& i) {
      return rpr::testing::config_name(i.param);
    });

// ---------------------------------------------------------------------------
// Scheme relations the paper establishes.

class SchemeRelations : public ::testing::TestWithParam<CodeConfig> {};

TEST_P(SchemeRelations, SingleFailureTimeOrderRprLeqCarLeqTra) {
  const CodeConfig cfg = GetParam();
  Harness s(cfg, PlacementPolicy::kRpr);
  const TraditionalPlanner tra;
  const CarPlanner car;
  const RprPlanner rpr_planner;
  for (std::size_t f = 0; f < cfg.n; ++f) {  // data-block failures
    const auto t_tra = simulate_scheme(s, tra, {f}).total_repair_time;
    const auto t_car = simulate_scheme(s, car, {f}).total_repair_time;
    const auto t_rpr = simulate_scheme(s, rpr_planner, {f}).total_repair_time;
    EXPECT_LE(t_rpr, t_car) << "f=" << f;
    EXPECT_LE(t_car, t_tra) << "f=" << f;
  }
}

TEST_P(SchemeRelations, SingleFailureCrossTrafficCarAndRprBeatTraditional) {
  const CodeConfig cfg = GetParam();
  Harness s(cfg, PlacementPolicy::kRpr);
  const TraditionalPlanner tra;
  const CarPlanner car;
  const RprPlanner rpr_planner;
  for (std::size_t f = 0; f < cfg.n; ++f) {
    const auto c_tra = simulate_scheme(s, tra, {f}).cross_rack_bytes;
    const auto c_car = simulate_scheme(s, car, {f}).cross_rack_bytes;
    const auto c_rpr = simulate_scheme(s, rpr_planner, {f}).cross_rack_bytes;
    EXPECT_LT(c_car, c_tra) << "f=" << f;
    EXPECT_LT(c_rpr, c_tra) << "f=" << f;
  }
}

TEST_P(SchemeRelations, MultiFailureRprBeatsTraditionalNonWorstCase) {
  const CodeConfig cfg = GetParam();
  if (cfg.k < 3) GTEST_SKIP() << "no non-worst multi-failure case";
  Harness s(cfg, PlacementPolicy::kRpr);
  const TraditionalPlanner tra;
  const RprPlanner rpr_planner;
  for (std::size_t l = 2; l < cfg.k; ++l) {
    // Sample the first data blocks as the failure pattern.
    std::vector<std::size_t> failed;
    for (std::size_t i = 0; i < l; ++i) failed.push_back(i);
    const auto t_tra = simulate_scheme(s, tra, failed).total_repair_time;
    const auto t_rpr = simulate_scheme(s, rpr_planner, failed).total_repair_time;
    EXPECT_LE(t_rpr, t_tra) << "l=" << l;
    const auto c_tra = simulate_scheme(s, tra, failed).cross_rack_bytes;
    const auto c_rpr = simulate_scheme(s, rpr_planner, failed).cross_rack_bytes;
    EXPECT_LE(c_rpr, c_tra) << "l=" << l;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SchemeRelations,
    ::testing::ValuesIn(rpr::testing::paper_configs()),
    [](const ::testing::TestParamInfo<CodeConfig>& i) {
      return rpr::testing::config_name(i.param);
    });

// ---------------------------------------------------------------------------
// Targeted behaviours.

TEST(RprPlanner, XorPathAvoidsDecodingMatrixForSingleDataFailure) {
  Harness s({6, 2}, PlacementPolicy::kRpr);
  const RprPlanner planner;
  const auto planned = planner.plan(s.problem({1}));
  EXPECT_FALSE(planned.used_decoding_matrix);
  EXPECT_TRUE(planned.equations[0].xor_only());
}

TEST(RprPlanner, ParityFailureUsesDecodingMatrix) {
  Harness s({6, 2}, PlacementPolicy::kRpr);
  const RprPlanner planner;
  const auto planned = planner.plan(s.problem({7}));  // p1
  EXPECT_TRUE(planned.used_decoding_matrix);
}

TEST(RprPlanner, PreferXorDisabledFallsBackToMatrix) {
  Harness s({6, 2}, PlacementPolicy::kRpr);
  RprOptions opts;
  opts.prefer_xor_set = false;
  const RprPlanner planner(opts);
  const auto planned = planner.plan(s.problem({1}));
  // The rack-minimal selection for this layout does not have to be the XOR
  // set; regardless, correctness holds.
  const auto rebuilt = rpr::repair::execute_on_data(
      planned.plan, planned.outputs, s.stripe);
  EXPECT_EQ(rebuilt[0], s.stripe[1]);
}

TEST(RprPlanner, PipelineNoSlowerThanStarOnEveryConfig) {
  for (const auto cfg : rpr::testing::paper_configs()) {
    Harness s(cfg, PlacementPolicy::kRpr);
    RprOptions star;
    star.pipeline_cross = false;
    const RprPlanner pipelined;
    const RprPlanner starred(star);
    for (std::size_t f = 0; f < cfg.n; ++f) {
      const auto t_pipe =
          simulate_scheme(s, pipelined, {f}).total_repair_time;
      const auto t_star = simulate_scheme(s, starred, {f}).total_repair_time;
      EXPECT_LE(t_pipe, t_star)
          << rpr::testing::config_name(cfg) << " f=" << f;
    }
  }
}

TEST(RprPlanner, Rs62PipelineBeatsStarByTheFig5Margin) {
  // Fig. 5: RS(6,2), failure of d1. Schedule 1 (star) ~ 3 t_c + t_i;
  // schedule 2 (pipeline) ~ 2 t_c + t_i. With compute uncharged and
  // t_c = 10 t_i the ratio is 31:21.
  Harness s({6, 2}, PlacementPolicy::kContiguous);
  rpr::topology::NetworkParams params;
  params.charge_compute = false;
  RprOptions star_opts;
  star_opts.pipeline_cross = false;
  const auto t_pipe =
      simulate_scheme(s, RprPlanner(), {1}, params).total_repair_time;
  const auto t_star =
      simulate_scheme(s, RprPlanner(star_opts), {1}, params).total_repair_time;
  const double ratio =
      static_cast<double>(t_star) / static_cast<double>(t_pipe);
  EXPECT_NEAR(ratio, 31.0 / 21.0, 0.02);
}

TEST(CarPlanner, RejectsMultiFailure) {
  Harness s({6, 3}, PlacementPolicy::kContiguous);
  const CarPlanner car;
  EXPECT_THROW(car.plan(s.problem({0, 1})), std::invalid_argument);
}

TEST(Planner, FactoryProducesAllSchemes) {
  EXPECT_EQ(rpr::repair::make_planner(Scheme::kTraditional)->name(),
            "traditional");
  EXPECT_EQ(rpr::repair::make_planner(Scheme::kCar)->name(), "car");
  EXPECT_EQ(rpr::repair::make_planner(Scheme::kRpr)->name(), "rpr");
}

TEST(Planner, DefaultReplacementsAreRackLocalSpares) {
  Harness s({8, 4}, PlacementPolicy::kContiguous);
  auto p = s.problem({0, 1, 5});
  for (std::size_t i = 0; i < p.failed.size(); ++i) {
    EXPECT_EQ(s.placed.cluster.rack_of(p.replacements[i]),
              s.placed.placement.rack_of(p.failed[i]));
  }
  // Two failures in one rack get distinct spares.
  EXPECT_NE(p.replacements[0], p.replacements[1]);
}

TEST(SelectMinRacks, PrefersRecoveryRackAndFullRacks) {
  Harness s({6, 2}, PlacementPolicy::kContiguous);
  // Failure d1 (rack 0). Survivor racks: r0 {d0}, r1 {d2,d3}, r2 {d4,d5},
  // r3 {p0,p1}. Expect d0 (free) plus both blocks of any two full racks
  // plus one more.
  const auto sel = rpr::repair::select_min_racks(
      s.code, s.placed.placement, std::vector<std::size_t>{1}, 0);
  EXPECT_EQ(sel.size(), 6u);
  EXPECT_TRUE(std::find(sel.begin(), sel.end(), 0u) != sel.end());
}

// ---------------------------------------------------------------------------
// DataExecutor: the fused evaluator agrees with a copy-per-op one.

namespace {

/// A copy-per-op evaluator: every read materialises coeff * block, every
/// send copies its input, every combine allocates. The oracle for the fused
/// one, which computes each value from its leaf coefficients in one pass.
std::vector<rpr::rs::Block> execute_copying(
    const rpr::repair::RepairPlan& plan,
    std::span<const rpr::repair::OpId> outputs,
    std::span<const rpr::rs::Block> stripe) {
  using rpr::repair::OpKind;
  std::vector<rpr::rs::Block> value(plan.ops.size());
  for (rpr::repair::OpId id = 0; id < plan.ops.size(); ++id) {
    const auto& op = plan.ops[id];
    switch (op.kind) {
      case OpKind::kRead:
        value[id].assign(stripe[op.block].size(), 0);
        rpr::gf::mul_region_add(op.coeff, value[id], stripe[op.block]);
        break;
      case OpKind::kSend:
        value[id] = value[op.inputs[0]];
        break;
      case OpKind::kCombine:
        value[id].assign(value[op.inputs[0]].size(), 0);
        for (std::size_t i = 0; i < op.inputs.size(); ++i) {
          const std::uint8_t c =
              op.input_coeffs.empty() ? std::uint8_t{1} : op.input_coeffs[i];
          rpr::gf::mul_region_add(c, value[id], value[op.inputs[i]]);
        }
        break;
    }
  }
  std::vector<rpr::rs::Block> result;
  for (const auto id : outputs) result.push_back(value[id]);
  return result;
}

void expect_same_values(const rpr::repair::RepairPlan& plan,
                        const std::vector<rpr::repair::OpId>& outputs,
                        const std::vector<rpr::rs::Block>& stripe) {
  const auto got = rpr::repair::execute_on_data(plan, outputs, stripe);
  const auto want = execute_copying(plan, outputs, stripe);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "output " << i << " (op " << outputs[i]
                               << ")";
  }
}

}  // namespace

TEST(DataExecutor, AliasedValuesMatchCopyingReference) {
  const rpr::repair::RprChainedPlanner chained;
  const TraditionalPlanner tra;
  const CarPlanner car;
  const RprPlanner rpr_planner;
  const std::vector<const Planner*> multi = {&tra, &rpr_planner, &chained};
  // The larger blocks cross the pool's 128 KiB sharding threshold, so the
  // pooled path runs too (on fewer failure patterns: it is slow to copy);
  // RS(12,4) there includes a 3-failure repair.
  const std::vector<std::pair<CodeConfig, std::size_t>> cases = {
      {{6, 3}, 256}, {{12, 4}, 256}, {{6, 3}, 160 << 10}, {{12, 4}, 160 << 10}};
  for (const auto kind :
       {rpr::rs::MatrixKind::kCauchy, rpr::rs::MatrixKind::kVandermonde}) {
    for (const auto& [cfg, block] : cases) {
      SCOPED_TRACE(testing::Message()
                   << rpr::testing::config_name(cfg) << " block " << block
                   << (kind == rpr::rs::MatrixKind::kCauchy ? " cauchy"
                                                            : " vandermonde"));
      const RSCode code(cfg, kind);
      const auto placed =
          rpr::topology::make_placed_stripe(cfg, PlacementPolicy::kRpr);
      const auto stripe = rpr::testing::random_stripe(code, block, 0xA11A5);
      rpr::util::Xoshiro256 rng(block + cfg.total());
      const auto check = [&](const Planner& planner,
                             std::vector<std::size_t> failed) {
        SCOPED_TRACE(testing::Message()
                     << planner.name() << " failed " << failed.size()
                     << " first " << failed.front());
        RepairProblem p;
        p.code = &code;
        p.placement = &placed.placement;
        p.block_size = block;
        p.failed = std::move(failed);
        p.choose_default_replacements();
        const PlannedRepair planned = planner.plan(p);
        std::vector<std::size_t> expected;
        for (const std::size_t f : p.failed) expected.push_back(f);
        // The plan's own outputs, rebuilt bit-exactly.
        const auto rebuilt = rpr::repair::execute_on_data(
            planned.plan, planned.outputs, stripe);
        for (std::size_t i = 0; i < expected.size(); ++i) {
          EXPECT_EQ(rebuilt[i], stripe[expected[i]]);
        }
        // The oracle evaluates every op once; each request below is
        // checked against it op by op.
        std::vector<rpr::repair::OpId> all(planned.plan.ops.size());
        for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
        const auto want = execute_copying(planned.plan, all, stripe);
        const auto expect_values =
            [&](std::span<const rpr::repair::OpId> ids, const char* what) {
              const auto got =
                  rpr::repair::execute_on_data(planned.plan, ids, stripe);
              ASSERT_EQ(got.size(), ids.size()) << what;
              for (std::size_t i = 0; i < ids.size(); ++i) {
                EXPECT_EQ(got[i], want[ids[i]])
                    << what << ": output " << i << " (op " << ids[i] << ")";
              }
            };
        expect_values(planned.outputs, "plan outputs");
        // Every op of each plan prefix, the values a simulated abort banks
        // (every prefix on small blocks, a few on large ones).
        const std::size_t stride = block > 256 ? all.size() / 4 + 1 : 1;
        for (std::size_t len = all.size();; len -= std::min(len, stride)) {
          expect_values(std::span(all).first(len), "prefix");
          if (len == 0) break;
        }
        // Duplicated outputs, adjacent and apart.
        std::vector<rpr::repair::OpId> twice;
        for (const auto id : planned.outputs) {
          twice.insert(twice.end(), {id, id});
        }
        twice.insert(twice.end(), all.begin(), all.end());
        twice.insert(twice.end(), planned.outputs.begin(),
                     planned.outputs.end());
        expect_values(twice, "duplicated outputs");
        // The abort path's done_ops: ordered subsets of the plan's ops.
        for (int trial = 0; trial < 4; ++trial) {
          std::vector<rpr::repair::OpId> done;
          for (const auto id : all) {
            if (rng.below(2) == 0) done.push_back(id);
          }
          expect_values(done, "random subset");
        }
      };
      const std::size_t step = block > 256 ? cfg.total() : 2;
      for (std::size_t f = 0; f < cfg.total(); f += step) {
        check(car, {f});
        for (const Planner* planner : multi) check(*planner, {f});
      }
      for (const Planner* planner : multi) {
        check(*planner, {0, cfg.n});
        check(*planner, {1, 2, cfg.total() - 1});
      }

      // Bare reads as outputs: scaled, unit and zero coefficients, one of
      // them forwarded, and the same value requested twice.
      rpr::repair::RepairPlan plan;
      plan.block_size = block;
      const auto node = placed.placement.node_of(3);
      const auto scaled = plan.read(node, 3, 0x53);
      const auto unit = plan.read(node, 3, 1);
      const auto zero = plan.read(node, 3, 0);
      const auto sent =
          plan.send(scaled, node, placed.placement.node_of(4));
      rpr::repair::validate(plan, placed.cluster);
      expect_same_values(plan, {scaled, unit, zero, sent, scaled}, stripe);

      // A re-plan's stripe: two terms of block 1's equation banked as one
      // partial sum, appended as a pseudo slot and read at the destination
      // (the resilient driver's extended stripe).
      RepairProblem p;
      p.code = &code;
      p.placement = &placed.placement;
      p.block_size = block;
      p.failed = {1};
      p.choose_default_replacements();
      const auto eqs =
          code.repair_equations(p.failed, code.default_selection(p.failed));
      rpr::repair::RemainderEquation eq;
      eq.failed_block = 1;
      eq.terms = rpr::repair::leaf_terms(eqs.front());
      eq.destination = p.replacements.front();
      std::vector<rpr::rs::Block> ext = stripe;
      rpr::rs::Block& partial = ext.emplace_back(block, 0);
      for (int t = 0; t < 2; ++t) {
        const auto term = eq.terms.begin();
        rpr::gf::mul_region_add(term->second, partial, stripe[term->first]);
        eq.terms.erase(term);
      }
      eq.partials = {{cfg.total(), eq.destination}};
      rpr::repair::RepairPlan remainder;
      remainder.block_size = block;
      const auto out = rpr::repair::plan_remainder(
          remainder, placed.placement, eq, RprOptions{}, 0);
      EXPECT_EQ(rpr::repair::execute_on_data(
                    remainder, std::vector<rpr::repair::OpId>{out}, ext)
                    .front(),
                stripe[1]);
      std::vector<rpr::repair::OpId> ops(remainder.ops.size());
      for (std::size_t i = 0; i < ops.size(); ++i) ops[i] = i;
      expect_same_values(remainder, ops, ext);
    }
  }
}

TEST(DataExecutor, CancelledOutputIsZeroInADirtyRecycledBuffer) {
  // Outputs come from the pool with stale bytes: the encode pass must
  // overwrite them, with zeros where an output's leaf terms cancel, alone
  // in its pass or next to an output that reads blocks.
  constexpr std::size_t kBlock = 160 << 10;  // crosses the shard threshold
  const auto dirty = [] {
    std::vector<rpr::rs::Block> stale(4);
    for (auto& b : stale) {
      b = rpr::rs::Block::uninitialized(kBlock);
      std::fill(b.begin(), b.end(), std::uint8_t{0xEE});
    }
  };  // the stale blocks go back to the pool
  rpr::repair::RepairPlan plan;
  plan.block_size = kBlock;
  const auto a = plan.read(0, 0, 0x35);
  const auto b = plan.read(1, 0, 0x35);
  const auto c = plan.read(1, 1, 1);
  const auto cancelled = plan.combine(0, {a, b});
  const auto kept = plan.combine(1, {a, b, c});
  const auto stripe = rpr::testing::random_stripe(RSCode({2, 1}), kBlock, 9);
  const rpr::rs::Block zeros(kBlock, 0);

  dirty();
  const std::vector<rpr::repair::OpId> alone = {cancelled};
  EXPECT_EQ(rpr::repair::execute_on_data(plan, alone, stripe)[0], zeros);
  dirty();
  const std::vector<rpr::repair::OpId> both = {cancelled, kept};
  const auto got = rpr::repair::execute_on_data(plan, both, stripe);
  EXPECT_EQ(got[0], zeros);
  EXPECT_EQ(got[1], stripe[1]);
}

TEST(DataExecutor, RejectsEmptyOrMismatchedLeaf) {
  rpr::repair::RepairPlan plan;
  plan.block_size = 1 << 20;
  const auto r0 = plan.read(0, 0, 1);
  const auto r1 = plan.read(0, 1, 0x35);
  const std::vector<rpr::repair::OpId> sum = {plan.combine(0, {r0, r1})};
  std::vector<rpr::rs::Block> stripe(2);
  stripe[0].assign(1 << 20, 0x5A);
  const auto expect_rejected = [&](const std::string& why) {
    try {
      (void)rpr::repair::execute_on_data(plan, sum, stripe);
      ADD_FAILURE() << "accepted " << why;
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("op 2"), std::string::npos) << msg;
      EXPECT_NE(msg.find("block 1"), std::string::npos) << msg;
    }
  };
  expect_rejected("an empty block");
  stripe[1].assign(1 << 19, 0x33);
  expect_rejected("a shorter block");
  // A block read with coefficient 0 contributes nothing and is not touched.
  stripe[1].clear();
  plan.ops[r1].coeff = 0;
  EXPECT_EQ(rpr::repair::execute_on_data(plan, sum, stripe).front(),
            stripe[0]);
}
