// Fault-model unit tests: schedule parsing/round-trips, deterministic
// corruption, retry policy arithmetic, and the equation-patching re-plan
// math (leaf contributions, source substitution, remainder planning).
#include "fault/fault.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>

#include "gf/gf256.h"
#include "repair/executor_data.h"
#include "repair/planner.h"
#include "repair/replan.h"
#include "test_support.h"
#include "topology/placement.h"

using rpr::fault::FaultSchedule;
using rpr::fault::RetryPolicy;
using rpr::repair::LeafTerms;
using rpr::repair::leaf_terms;
using rpr::repair::OpId;
using rpr::repair::RepairPlan;
using rpr::rs::Block;

namespace {

/// Evaluates a sparse linear combination of stripe blocks — the invariant
/// leaf_contributions() and substitute_source() must preserve.
Block evaluate(const LeafTerms& terms, std::span<const Block> stripe) {
  Block acc(stripe[0].size(), 0);
  for (const auto& [block, coeff] : terms) {
    for (std::size_t i = 0; i < acc.size(); ++i) {
      acc[i] ^= rpr::gf::mul(coeff, stripe[block][i]);
    }
  }
  return acc;
}

}  // namespace

TEST(FaultSchedule, ParsesAllKinds) {
  const auto s = FaultSchedule::parse(
      "kill:3@1.5; straggle:2*4.5x2, corrupt:1; seed:99; straggle:7*8");
  ASSERT_EQ(s.kills.size(), 1u);
  EXPECT_EQ(s.kills[0].node, 3u);
  EXPECT_DOUBLE_EQ(s.kills[0].at_s, 1.5);
  ASSERT_EQ(s.stragglers.size(), 2u);
  EXPECT_EQ(s.stragglers[0].node, 2u);
  EXPECT_DOUBLE_EQ(s.stragglers[0].factor, 4.5);
  EXPECT_EQ(s.stragglers[0].attempts, 2u);
  EXPECT_TRUE(s.stragglers[0].transient());
  EXPECT_FALSE(s.stragglers[1].transient());
  ASSERT_EQ(s.corruptions.size(), 1u);
  EXPECT_EQ(s.corruptions[0].block, 1u);
  EXPECT_EQ(s.seed, 99u);
  EXPECT_FALSE(s.empty());
  EXPECT_TRUE(FaultSchedule::parse("").empty());
}

TEST(FaultSchedule, DescribeRoundTrips) {
  const auto original = FaultSchedule::parse(
      "kill:14@0.25;straggle:6*8x3;corrupt:2;seed:1234");
  const auto reparsed = FaultSchedule::parse(original.describe());
  ASSERT_EQ(reparsed.kills.size(), 1u);
  EXPECT_EQ(reparsed.kills[0].node, 14u);
  EXPECT_DOUBLE_EQ(reparsed.kills[0].at_s, 0.25);
  ASSERT_EQ(reparsed.stragglers.size(), 1u);
  EXPECT_DOUBLE_EQ(reparsed.stragglers[0].factor, 8.0);
  EXPECT_EQ(reparsed.stragglers[0].attempts, 3u);
  ASSERT_EQ(reparsed.corruptions.size(), 1u);
  EXPECT_EQ(reparsed.corruptions[0].block, 2u);
  EXPECT_EQ(reparsed.seed, 1234u);
}

TEST(FaultSchedule, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultSchedule::parse("kill:3"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("kill:x@1"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("kill:3@-1"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("straggle:2"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("straggle:2*0.5"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("straggle:2*4x0"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("corrupt:abc"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("flood:1@2"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("kill3@2"), std::invalid_argument);
}

TEST(FaultSchedule, LookupHelpers) {
  const auto s = FaultSchedule::parse("kill:3@1;straggle:5*2;corrupt:0");
  ASSERT_NE(s.kill_of(3), nullptr);
  EXPECT_EQ(s.kill_of(4), nullptr);
  ASSERT_NE(s.straggle_of(5), nullptr);
  EXPECT_EQ(s.straggle_of(3), nullptr);
  EXPECT_EQ(s.corrupt_blocks(), std::vector<std::size_t>{0});
}

TEST(FaultCorrupt, DeterministicAndNeverANoOp) {
  const std::vector<std::uint8_t> original(512, 0xAB);
  auto a = original;
  auto b = original;
  rpr::fault::corrupt_bytes(a, 42);
  rpr::fault::corrupt_bytes(b, 42);
  EXPECT_EQ(a, b) << "same seed must corrupt identically";
  EXPECT_NE(a, original) << "corruption must change the bytes";
  auto c = original;
  rpr::fault::corrupt_bytes(c, 43);
  EXPECT_NE(c, original);
  std::vector<std::uint8_t> empty;
  rpr::fault::corrupt_bytes(empty, 42);  // must not crash
  EXPECT_TRUE(empty.empty());
}

TEST(FaultRetryPolicy, ExponentialBackoff) {
  RetryPolicy p;
  p.base_backoff_s = 0.01;
  p.backoff_multiplier = 2.0;
  EXPECT_DOUBLE_EQ(p.backoff_s(0), 0.01);
  EXPECT_DOUBLE_EQ(p.backoff_s(1), 0.02);
  EXPECT_DOUBLE_EQ(p.backoff_s(3), 0.08);
}

TEST(Replan, LeafContributionsWalkTheDag) {
  RepairPlan plan;
  plan.block_size = 16;
  const OpId r0 = plan.read(0, 2, 3);          // 3 * b2 at node 0
  const OpId r1 = plan.read(1, 4, 1);          // b4 at node 1
  const OpId s1 = plan.send(r1, 1, 0);
  const OpId sum = plan.combine_scaled(0, {r0, s1}, {1, 5});

  const auto contrib = rpr::repair::leaf_contributions(plan);
  ASSERT_EQ(contrib.size(), plan.ops.size());
  EXPECT_EQ(contrib[r0], (LeafTerms{{2, 3}}));
  EXPECT_EQ(contrib[s1], (LeafTerms{{4, 1}}));  // sends copy their input
  // combine: 1 * (3*b2) + 5 * b4
  EXPECT_EQ(contrib[sum], (LeafTerms{{2, 3}, {4, 5}}));
}

TEST(Replan, SubstituteSourcePreservesTheEquation) {
  for (const auto& cfg : rpr::testing::paper_configs()) {
    const rpr::rs::RSCode code(cfg);
    const auto stripe = rpr::testing::random_stripe(code, 256, 7);

    // Repair equation for block 0 over the next n blocks.
    std::vector<std::size_t> selected;
    for (std::size_t b = 1; b <= cfg.n; ++b) selected.push_back(b);
    const std::array<std::size_t, 1> failed = {0};
    auto terms = leaf_terms(code.repair_equations(failed, selected).at(0));
    ASSERT_EQ(evaluate(terms, stripe), stripe[0]);

    // Helper holding block 1 dies: patch it out. The equation must still
    // evaluate to the lost block and never reference block 1 again.
    rpr::repair::substitute_source(code, terms, 1, {0, 1});
    EXPECT_EQ(terms.count(1), 0u);
    EXPECT_EQ(evaluate(terms, stripe), stripe[0])
        << "patched equation broken for " << rpr::testing::config_name(cfg);

    // A second death on top of the patched equation — only where the code
    // tolerates a third erasure (failed block + two dead helpers).
    if (cfg.k >= 3) {
      rpr::repair::substitute_source(code, terms, 2, {0, 1, 2});
      EXPECT_EQ(terms.count(2), 0u);
      EXPECT_EQ(evaluate(terms, stripe), stripe[0]);
    }
  }
}

TEST(Replan, SubstituteSourceThrowsWhenUnrecoverable) {
  const rpr::rs::CodeConfig cfg{6, 3};
  const rpr::rs::RSCode code(cfg);
  std::vector<std::size_t> selected;
  for (std::size_t b = 1; b <= cfg.n; ++b) selected.push_back(b);
  const std::array<std::size_t, 1> failed = {0};
  auto terms = leaf_terms(code.repair_equations(failed, selected).at(0));
  // 0,1,2,3 unusable = 4 losses > k = 3: no n healthy blocks remain.
  EXPECT_THROW(
      rpr::repair::substitute_source(code, terms, 1, {0, 1, 2, 3}),
      std::runtime_error);
}

TEST(Replan, PlanRemainderEvaluatesTheEquation) {
  const rpr::rs::CodeConfig cfg{6, 3};
  const rpr::rs::RSCode code(cfg);
  const auto placed = rpr::topology::make_placed_stripe(
      cfg, rpr::topology::PlacementPolicy::kRpr);
  const auto stripe = rpr::testing::random_stripe(code, 512, 11);

  std::vector<std::size_t> selected;
  for (std::size_t b = 1; b <= cfg.n; ++b) selected.push_back(b);
  const std::array<std::size_t, 1> failed = {0};
  auto terms = leaf_terms(code.repair_equations(failed, selected).at(0));
  rpr::repair::substitute_source(code, terms, 3, {0, 3});

  rpr::repair::RemainderEquation eq;
  eq.failed_block = 0;
  eq.terms = terms;
  eq.destination = placed.cluster.spare(0, 0);
  eq.with_matrix = true;

  RepairPlan plan;
  plan.block_size = 512;
  const OpId out = rpr::repair::plan_remainder(plan, placed.placement, eq,
                                               rpr::repair::RprOptions{}, 0);
  EXPECT_NO_THROW(rpr::repair::validate(plan, placed.cluster));
  EXPECT_EQ(plan.node_of(out), eq.destination);
  const std::array<OpId, 1> outputs = {out};
  const auto values = rpr::repair::execute_on_data(plan, outputs, stripe);
  EXPECT_EQ(values.at(0), stripe[0]);
}

TEST(Replan, PlanRemainderFoldsInAPartial) {
  const rpr::rs::CodeConfig cfg{6, 3};
  const rpr::rs::RSCode code(cfg);
  const auto placed = rpr::topology::make_placed_stripe(
      cfg, rpr::topology::PlacementPolicy::kRpr);
  auto stripe = rpr::testing::random_stripe(code, 512, 13);

  std::vector<std::size_t> selected;
  for (std::size_t b = 1; b <= cfg.n; ++b) selected.push_back(b);
  const std::array<std::size_t, 1> failed = {0};
  auto terms = leaf_terms(code.repair_equations(failed, selected).at(0));

  // Pretend blocks 1 and 2 were already delivered and summed at the
  // destination: bank coeff1*b1 + coeff2*b2 as a partial, drop the terms.
  rpr::repair::RemainderEquation eq;
  eq.failed_block = 0;
  eq.destination = placed.cluster.spare(0, 0);
  Block partial(512, 0);
  for (const std::size_t b : {std::size_t{1}, std::size_t{2}}) {
    const auto coeff = terms.at(b);
    for (std::size_t i = 0; i < partial.size(); ++i) {
      partial[i] ^= rpr::gf::mul(coeff, stripe[b][i]);
    }
    terms.erase(b);
  }
  eq.terms = terms;
  eq.partials.push_back({stripe.size(), eq.destination});
  stripe.push_back(partial);  // pseudo stripe slot holding the partial

  RepairPlan plan;
  plan.block_size = 512;
  const OpId out = rpr::repair::plan_remainder(plan, placed.placement, eq,
                                               rpr::repair::RprOptions{}, 0);
  EXPECT_NO_THROW(rpr::repair::validate(plan, placed.cluster));
  const std::array<OpId, 1> outputs = {out};
  const auto values = rpr::repair::execute_on_data(plan, outputs, stripe);
  EXPECT_EQ(values.at(0), stripe[0]);
}

TEST(Replan, PlanRemainderEveryShapeFoldsInPartials) {
  // Every cross-rack shape evaluates the same remainder: one partial banked
  // at the destination, one at a helper in another rack. The flat placement
  // puts each block in its own rack, so the chain really relays.
  const rpr::rs::CodeConfig cfg{6, 3};
  const rpr::rs::RSCode code(cfg);
  const auto placed = rpr::topology::make_placed_stripe(
      cfg, rpr::topology::PlacementPolicy::kFlat);
  auto stripe = rpr::testing::random_stripe(code, 512, 17);

  std::vector<std::size_t> selected;
  for (std::size_t b = 1; b <= cfg.n; ++b) selected.push_back(b);
  const std::array<std::size_t, 1> failed = {0};
  auto terms = leaf_terms(code.repair_equations(failed, selected).at(0));

  rpr::repair::RemainderEquation eq;
  eq.failed_block = 0;
  eq.destination = placed.cluster.spare(placed.placement.rack_of(0), 0);
  eq.with_matrix = true;
  const auto bank = [&](std::size_t b, rpr::topology::NodeId node) {
    Block partial(512, 0);
    for (std::size_t i = 0; i < partial.size(); ++i) {
      partial[i] = rpr::gf::mul(terms.at(b), stripe[b][i]);
    }
    terms.erase(b);
    eq.partials.push_back({stripe.size(), node});
    stripe.push_back(std::move(partial));
  };
  bank(1, eq.destination);
  bank(4, placed.placement.node_of(5));
  eq.terms = terms;

  using rpr::repair::RemainderScheme;
  for (const RemainderScheme scheme :
       {RemainderScheme::kPipeline, RemainderScheme::kStar,
        RemainderScheme::kDirect, RemainderScheme::kChain}) {
    eq.scheme = scheme;
    RepairPlan plan;
    plan.block_size = 512;
    const OpId out = rpr::repair::plan_remainder(
        plan, placed.placement, eq, rpr::repair::RprOptions{}, 0);
    EXPECT_NO_THROW(rpr::repair::validate(plan, placed.cluster));
    EXPECT_EQ(plan.node_of(out), eq.destination);
    const std::array<OpId, 1> outputs = {out};
    const auto values = rpr::repair::execute_on_data(plan, outputs, stripe);
    EXPECT_EQ(values.at(0), stripe[0]) << static_cast<int>(scheme);
    const bool relays = std::any_of(
        plan.ops.begin(), plan.ops.end(),
        [](const rpr::repair::PlanOp& op) { return op.label == "chain:send"; });
    EXPECT_EQ(relays, scheme == RemainderScheme::kChain);
  }
}

TEST(FaultSchedule, ParsesFailureDomainKinds) {
  const auto s = FaultSchedule::parse(
      "rack:1@0.5; partition:{0+2|1}@0.25~1.5; slowdisk:4*3; diskfull:7");
  ASSERT_EQ(s.rack_kills.size(), 1u);
  EXPECT_EQ(s.rack_kills[0].rack, 1u);
  EXPECT_DOUBLE_EQ(s.rack_kills[0].at_s, 0.5);
  ASSERT_EQ(s.partitions.size(), 1u);
  EXPECT_EQ(s.partitions[0].side_a, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(s.partitions[0].side_b, (std::vector<std::size_t>{1}));
  EXPECT_DOUBLE_EQ(s.partitions[0].at_s, 0.25);
  EXPECT_DOUBLE_EQ(s.partitions[0].heal_after_s, 1.5);
  EXPECT_TRUE(s.partitions[0].heals());
  ASSERT_EQ(s.slow_disks.size(), 1u);
  EXPECT_EQ(s.slow_disks[0].node, 4u);
  EXPECT_DOUBLE_EQ(s.slow_disks[0].factor, 3.0);
  ASSERT_EQ(s.disk_fulls.size(), 1u);
  EXPECT_EQ(s.disk_fulls[0].node, 7u);
  EXPECT_TRUE(s.diskfull(7));
  EXPECT_FALSE(s.diskfull(6));
  EXPECT_FALSE(s.empty());
}

TEST(FaultSchedule, PermanentPartitionParsesWithoutHeal) {
  const auto s = FaultSchedule::parse("partition:{0|1}@2");
  ASSERT_EQ(s.partitions.size(), 1u);
  EXPECT_FALSE(s.partitions[0].heals());
}

TEST(FaultSchedule, DescribeRoundTripsFailureDomains) {
  const auto original = FaultSchedule::parse(
      "rack:2@0.75;partition:{0|1+2}@0.5~2;slowdisk:3*6;diskfull:11;seed:7");
  const auto reparsed = FaultSchedule::parse(original.describe());
  ASSERT_EQ(reparsed.rack_kills.size(), 1u);
  EXPECT_EQ(reparsed.rack_kills[0].rack, 2u);
  EXPECT_DOUBLE_EQ(reparsed.rack_kills[0].at_s, 0.75);
  ASSERT_EQ(reparsed.partitions.size(), 1u);
  EXPECT_EQ(reparsed.partitions[0].side_a, (std::vector<std::size_t>{0}));
  EXPECT_EQ(reparsed.partitions[0].side_b, (std::vector<std::size_t>{1, 2}));
  EXPECT_DOUBLE_EQ(reparsed.partitions[0].heal_after_s, 2.0);
  ASSERT_EQ(reparsed.slow_disks.size(), 1u);
  EXPECT_DOUBLE_EQ(reparsed.slow_disks[0].factor, 6.0);
  ASSERT_EQ(reparsed.disk_fulls.size(), 1u);
  EXPECT_EQ(reparsed.disk_fulls[0].node, 11u);
  EXPECT_EQ(reparsed.seed, 7u);
}

TEST(FaultSchedule, RejectsConflictingAndDuplicateEntries) {
  // Duplicates of the same scope are conflicts, not refinements.
  EXPECT_THROW(FaultSchedule::parse("kill:3@1;kill:3@2"),
               std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("rack:1@0;rack:1@1"),
               std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("slowdisk:2*3;slowdisk:2*4"),
               std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("diskfull:5;diskfull:5"),
               std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("corrupt:2;corrupt:2"),
               std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("straggle:1*2;straggle:1*3"),
               std::invalid_argument);
  // Malformed failure-domain entries die with a readable message.
  EXPECT_THROW(FaultSchedule::parse("rack:1"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("partition:{0|}@1"),
               std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("partition:{0|1}"),
               std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("slowdisk:2*0.5"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("diskfull:"), std::invalid_argument);
  // The error message names the offending entry.
  try {
    FaultSchedule::parse("kill:3@1;kill:3@2");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("kill:3@2"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos)
        << e.what();
  }
}

TEST(FaultSchedule, ValidateRejectsEntriesOutsideTheTopology) {
  const rpr::topology::Cluster cluster(3, 3, 3);  // 18 nodes, racks 0..2
  EXPECT_NO_THROW(
      FaultSchedule::parse("kill:17@1;rack:2@1;partition:{0|1+2}@1")
          .validate(cluster, 9));
  EXPECT_THROW(FaultSchedule::parse("kill:18@1").validate(cluster),
               std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("rack:3@1").validate(cluster),
               std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("partition:{0|3}@1").validate(cluster),
               std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("partition:{0+1|1}@1").validate(cluster),
               std::invalid_argument)
      << "a rack on both sides of the cut must be rejected";
  EXPECT_THROW(FaultSchedule::parse("slowdisk:18*2").validate(cluster),
               std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("diskfull:18").validate(cluster),
               std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("corrupt:9").validate(cluster, 9),
               std::invalid_argument);
  EXPECT_NO_THROW(FaultSchedule::parse("corrupt:9").validate(cluster, 0))
      << "total_blocks 0 skips the corrupt range check";
}

TEST(FaultSchedule, ExpandRacksLowersRackKillsToNodeKills) {
  const rpr::topology::Cluster cluster(3, 2, 1);  // 9 nodes, 3 per rack
  auto s = FaultSchedule::parse("rack:1@0.5;kill:4@0.1");
  s.expand_racks(cluster);
  EXPECT_TRUE(s.rack_kills.empty());
  // Node 4 keeps its earlier explicit kill; 3 and 5 get the rack cut time.
  ASSERT_NE(s.kill_of(3), nullptr);
  ASSERT_NE(s.kill_of(4), nullptr);
  ASSERT_NE(s.kill_of(5), nullptr);
  EXPECT_DOUBLE_EQ(s.kill_of(3)->at_s, 0.5);
  EXPECT_DOUBLE_EQ(s.kill_of(4)->at_s, 0.1);
  EXPECT_DOUBLE_EQ(s.kill_of(5)->at_s, 0.5);
  EXPECT_EQ(s.kill_of(0), nullptr);
}

TEST(FaultRetryPolicy, JitteredBackoffIsDeterministicAndSpreads) {
  RetryPolicy p;
  p.base_backoff_s = 0.01;
  p.backoff_multiplier = 2.0;
  p.jitter = 0.25;

  // Determinism: the same (retry, key) always sleeps the same amount.
  EXPECT_DOUBLE_EQ(p.backoff_jittered_s(1, 42), p.backoff_jittered_s(1, 42));

  // Bounds and spread: every sample lies in [b, b*(1+jitter)) and distinct
  // keys de-correlate (no thundering herd of identical sleeps).
  const double b = p.backoff_s(1);
  std::set<double> samples;
  for (std::uint64_t key = 0; key < 64; ++key) {
    const double s = p.backoff_jittered_s(1, key);
    EXPECT_GE(s, b);
    EXPECT_LT(s, b * (1.0 + p.jitter));
    samples.insert(s);
  }
  EXPECT_GE(samples.size(), 48u) << "keys must de-correlate the sleeps";

  // Jitter off means the pure exponential schedule.
  p.jitter = 0.0;
  EXPECT_DOUBLE_EQ(p.backoff_jittered_s(3, 7), p.backoff_s(3));
}
