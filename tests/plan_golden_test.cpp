// Plan-identity golden test: every rack-aware plan (RPR, chained RPR and
// degraded reads) is hashed op by op and compared with a checked-in digest
// table. Planning is deterministic, so any change to the emitted ops —
// kind, node, send source, block, coefficient, inputs, input coefficients,
// matrix cost, label — or to the outputs shows up as a digest mismatch.
//
// Grid: the `rpr_sim --verify` sweep — RS(6,3), RS(9,6), RS(14,10) x the
// contiguous/rpr/flat placements x every failure set of size 1..3 — under
// four option sets (defaults, star cross phase, matrix decode, non-uniform
// cross-rack costs). Degraded reads rebuild every lost target at a spare
// of its own rack and of the next rack. One digest covers every failure
// set of a cell.
//
// On a mismatch the test prints the freshly computed table in the form of
// the arrays below; a change that is meant to alter plans replaces the
// table with that output.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "repair/planner.h"
#include "rs/rs_code.h"
#include "topology/placement.h"
#include "util/combinatorics.h"
#include "util/hash.h"

namespace {

using rpr::repair::PlanOp;
using rpr::repair::RepairPlan;
using rpr::repair::RprOptions;

struct Golden {
  const char* cell;
  std::uint64_t digest;
};

/// FNV-1a over a canonical byte string of plans and their output ops,
/// hashed as it is produced.
class PlanHasher {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void add(const std::string& s) {
    add(s.size());
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }
  void add(const RepairPlan& plan) {
    add(plan.ops.size());
    for (const PlanOp& op : plan.ops) {
      add(static_cast<std::uint64_t>(op.kind));
      add(op.node);
      add(op.from);
      add(op.block);
      add(op.coeff);
      add(op.inputs.size());
      for (const auto in : op.inputs) add(in);
      add(op.input_coeffs.size());
      for (const auto c : op.input_coeffs) add(c);
      add(op.with_matrix_cost ? 1 : 0);
      add(op.label);
    }
  }
  [[nodiscard]] std::uint64_t digest() const { return hash_; }

 private:
  void byte(std::uint8_t b) {
    hash_ ^= b;
    hash_ *= rpr::util::kFnv1aPrime;
  }
  std::uint64_t hash_ = rpr::util::kFnv1aOffset;
};

struct OptionSet {
  const char* name;
  RprOptions opts;
};

std::vector<OptionSet> option_sets() {
  RprOptions star;
  star.pipeline_cross = false;
  RprOptions matrix;
  matrix.prefer_xor_set = false;
  RprOptions hetero;
  hetero.cross_cost = [](rpr::topology::RackId a, rpr::topology::RackId b) {
    return 10.0 + 3.0 * static_cast<double>((a * 7 + b * 3) % 5);
  };
  return {{"default", {}}, {"star", star}, {"matrix", matrix},
          {"hetero", hetero}};
}

enum class Kind { kRpr, kChained, kDegradedRead };

/// One digest per (code, placement, option set) over every failure set.
std::vector<std::pair<std::string, std::uint64_t>> compute(Kind kind) {
  using rpr::topology::PlacementPolicy;
  const std::vector<rpr::rs::CodeConfig> codes = {{6, 3}, {9, 6}, {14, 10}};
  const std::vector<std::pair<PlacementPolicy, const char*>> policies = {
      {PlacementPolicy::kContiguous, "contiguous"},
      {PlacementPolicy::kRpr, "rpr"},
      {PlacementPolicy::kFlat, "flat"}};
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& cfg : codes) {
    const rpr::rs::RSCode code(cfg);
    for (const auto& [policy, policy_name] : policies) {
      const auto placed = rpr::topology::make_placed_stripe(cfg, policy);
      const auto& cluster = placed.placement.cluster();
      for (const auto& [opts_name, opts] : option_sets()) {
        PlanHasher h;
        for (std::size_t f = 1; f <= std::min<std::size_t>(3, cfg.k); ++f) {
          rpr::util::for_each_combination(
              cfg.total(), f, [&](const std::vector<std::size_t>& failed) {
                if (kind == Kind::kDegradedRead) {
                  for (const std::size_t target : failed) {
                    const auto rack = placed.placement.rack_of(target);
                    for (const auto reader_rack :
                         {rack, (rack + 1) % cluster.racks()}) {
                      rpr::repair::RepairProblem rp;
                      rp.code = &code;
                      rp.placement = &placed.placement;
                      rp.block_size = 1 << 20;
                      rp.failed = {target};
                      rp.replacements = {cluster.spare(reader_rack)};
                      const auto read =
                          rpr::repair::DegradedReadPlanner(failed, opts)
                              .plan(rp);
                      h.add(read.plan);
                      h.add(read.outputs[0]);
                      h.add(read.used_decoding_matrix ? 1 : 0);
                    }
                  }
                  return;
                }
                rpr::repair::RepairProblem p;
                p.code = &code;
                p.placement = &placed.placement;
                p.block_size = 1 << 20;
                p.failed = failed;
                p.choose_default_replacements();
                const auto planned =
                    kind == Kind::kRpr
                        ? rpr::repair::RprPlanner(opts).plan(p)
                        : rpr::repair::RprChainedPlanner(opts).plan(p);
                h.add(planned.plan);
                for (const auto o : planned.outputs) h.add(o);
                h.add(planned.used_decoding_matrix ? 1 : 0);
              });
        }
        out.emplace_back("rs" + std::to_string(cfg.n) + "_" +
                             std::to_string(cfg.k) + "/" + policy_name + "/" +
                             opts_name,
                         h.digest());
      }
    }
  }
  return out;
}

void expect_matches(Kind kind, const std::vector<Golden>& golden) {
  const auto actual = compute(kind);
  bool same = actual.size() == golden.size();
  for (std::size_t i = 0; same && i < actual.size(); ++i) {
    same = actual[i].first == golden[i].cell &&
           actual[i].second == golden[i].digest;
  }
  if (same) return;
  std::string table;
  for (const auto& [cell, digest] : actual) {
    char line[96];
    std::snprintf(line, sizeof line, "    {\"%s\", 0x%016llxULL},\n",
                  cell.c_str(), static_cast<unsigned long long>(digest));
    table += line;
  }
  for (std::size_t i = 0; i < actual.size() && i < golden.size(); ++i) {
    EXPECT_EQ(actual[i].first, golden[i].cell);
    EXPECT_EQ(actual[i].second, golden[i].digest) << actual[i].first;
  }
  ADD_FAILURE() << "plan digests differ from the golden table; computed:\n"
                << table;
}

// Expected digests, one per cell, in compute() order.
const std::vector<Golden> kRprGolden = {
    {"rs6_3/contiguous/default", 0xb2f1a26cce4f215cULL},
    {"rs6_3/contiguous/star", 0xe9310c6a52a21584ULL},
    {"rs6_3/contiguous/matrix", 0x93614014246cc930ULL},
    {"rs6_3/contiguous/hetero", 0xbfaca6c4fb622b22ULL},
    {"rs6_3/rpr/default", 0x433cfd2733463b3dULL},
    {"rs6_3/rpr/star", 0xedf10c47054c8143ULL},
    {"rs6_3/rpr/matrix", 0x4f6db28a46898022ULL},
    {"rs6_3/rpr/hetero", 0xcd295bea9697ca01ULL},
    {"rs6_3/flat/default", 0xdaf8f6e81dde5268ULL},
    {"rs6_3/flat/star", 0xcc7c86c550a89b46ULL},
    {"rs6_3/flat/matrix", 0xf0994f988cb4e166ULL},
    {"rs6_3/flat/hetero", 0x1d9a7a918ed9e3c0ULL},
    {"rs9_6/contiguous/default", 0x32f61f2931da3418ULL},
    {"rs9_6/contiguous/star", 0x2d6daeb2f946b0f0ULL},
    {"rs9_6/contiguous/matrix", 0xe9c08ba8ae93ad07ULL},
    {"rs9_6/contiguous/hetero", 0x00eca29dc1302f26ULL},
    {"rs9_6/rpr/default", 0x3dc8e8f1eb67a398ULL},
    {"rs9_6/rpr/star", 0x09ee7610ce8d44fcULL},
    {"rs9_6/rpr/matrix", 0x79532db601bf5efdULL},
    {"rs9_6/rpr/hetero", 0x7285cde9a662da5eULL},
    {"rs9_6/flat/default", 0x20983c17e56237c4ULL},
    {"rs9_6/flat/star", 0x680156106cd6bf5eULL},
    {"rs9_6/flat/matrix", 0x66872f16c72ab1bcULL},
    {"rs9_6/flat/hetero", 0x84b7789400247c00ULL},
    {"rs14_10/contiguous/default", 0xe644abe4f30d9a8fULL},
    {"rs14_10/contiguous/star", 0xdca86f6b8d1ef027ULL},
    {"rs14_10/contiguous/matrix", 0x9a4d4ecd1e23a3ccULL},
    {"rs14_10/contiguous/hetero", 0x0a445fe0ad790b6fULL},
    {"rs14_10/rpr/default", 0x1ed211a3bf7c9a20ULL},
    {"rs14_10/rpr/star", 0x9fb8d6932971d5b4ULL},
    {"rs14_10/rpr/matrix", 0x346eddca76c59bd0ULL},
    {"rs14_10/rpr/hetero", 0xa4ab1c81b35c77b0ULL},
    {"rs14_10/flat/default", 0x5aabe9ec3756c3c4ULL},
    {"rs14_10/flat/star", 0xb53b3b18b9a7e01eULL},
    {"rs14_10/flat/matrix", 0x24cb1442f4eb8464ULL},
    {"rs14_10/flat/hetero", 0x815ae81662bc7150ULL},
};

const std::vector<Golden> kChainedGolden = {
    {"rs6_3/contiguous/default", 0x87e08eba514ac367ULL},
    {"rs6_3/contiguous/star", 0x87e08eba514ac367ULL},
    {"rs6_3/contiguous/matrix", 0x7c81e7cf9fae20cbULL},
    {"rs6_3/contiguous/hetero", 0x87e08eba514ac367ULL},
    {"rs6_3/rpr/default", 0xa8b464657839e1c9ULL},
    {"rs6_3/rpr/star", 0xa8b464657839e1c9ULL},
    {"rs6_3/rpr/matrix", 0x4a41ebf7f5a670d1ULL},
    {"rs6_3/rpr/hetero", 0xa8b464657839e1c9ULL},
    {"rs6_3/flat/default", 0x83e3dc558d213339ULL},
    {"rs6_3/flat/star", 0x83e3dc558d213339ULL},
    {"rs6_3/flat/matrix", 0x21f0d07913ef9563ULL},
    {"rs6_3/flat/hetero", 0x83e3dc558d213339ULL},
    {"rs9_6/contiguous/default", 0x9c8803b6803ba101ULL},
    {"rs9_6/contiguous/star", 0x9c8803b6803ba101ULL},
    {"rs9_6/contiguous/matrix", 0xa5d1adb5ff01d95eULL},
    {"rs9_6/contiguous/hetero", 0x9c8803b6803ba101ULL},
    {"rs9_6/rpr/default", 0x5f4a15c65c400cd1ULL},
    {"rs9_6/rpr/star", 0x5f4a15c65c400cd1ULL},
    {"rs9_6/rpr/matrix", 0x1acbf9a15d236550ULL},
    {"rs9_6/rpr/hetero", 0x5f4a15c65c400cd1ULL},
    {"rs9_6/flat/default", 0x3bfeabf38d3c79daULL},
    {"rs9_6/flat/star", 0x3bfeabf38d3c79daULL},
    {"rs9_6/flat/matrix", 0xcad141da5802399aULL},
    {"rs9_6/flat/hetero", 0x3bfeabf38d3c79daULL},
    {"rs14_10/contiguous/default", 0xc86c7854bafb11ebULL},
    {"rs14_10/contiguous/star", 0xc86c7854bafb11ebULL},
    {"rs14_10/contiguous/matrix", 0x7e683d1509c23050ULL},
    {"rs14_10/contiguous/hetero", 0xc86c7854bafb11ebULL},
    {"rs14_10/rpr/default", 0xd94384f2f106425cULL},
    {"rs14_10/rpr/star", 0xd94384f2f106425cULL},
    {"rs14_10/rpr/matrix", 0x3340322a2c7c318cULL},
    {"rs14_10/rpr/hetero", 0xd94384f2f106425cULL},
    {"rs14_10/flat/default", 0x2c1aa57496e4ece4ULL},
    {"rs14_10/flat/star", 0x2c1aa57496e4ece4ULL},
    {"rs14_10/flat/matrix", 0xa2ec48d166a702dcULL},
    {"rs14_10/flat/hetero", 0x2c1aa57496e4ece4ULL},
};

const std::vector<Golden> kDegradedReadGolden = {
    {"rs6_3/contiguous/default", 0x41adc8f7f4cb5762ULL},
    {"rs6_3/contiguous/star", 0xff9e5ac4f6d8131cULL},
    {"rs6_3/contiguous/matrix", 0x99dc79c4bd903888ULL},
    {"rs6_3/contiguous/hetero", 0xf6f3d9205cc69fdaULL},
    {"rs6_3/rpr/default", 0x89fcc62e901b9424ULL},
    {"rs6_3/rpr/star", 0xa080cdbf1e540d6cULL},
    {"rs6_3/rpr/matrix", 0xf0927c3d7cc6c8d9ULL},
    {"rs6_3/rpr/hetero", 0x1d11331782562ebcULL},
    {"rs6_3/flat/default", 0xf366a9fb45a3a701ULL},
    {"rs6_3/flat/star", 0xbfb1320b9926e983ULL},
    {"rs6_3/flat/matrix", 0x27f60511bd5caa8dULL},
    {"rs6_3/flat/hetero", 0xa72b5f6b5fe9235dULL},
    {"rs9_6/contiguous/default", 0x5939f75cbf66464aULL},
    {"rs9_6/contiguous/star", 0x405d7abd02e9132cULL},
    {"rs9_6/contiguous/matrix", 0xaac5752e2335e7c3ULL},
    {"rs9_6/contiguous/hetero", 0x8825ad6b86a7c9f6ULL},
    {"rs9_6/rpr/default", 0x6e1618f659a4d731ULL},
    {"rs9_6/rpr/star", 0x9e5caa914b1d781fULL},
    {"rs9_6/rpr/matrix", 0x1113eb29f771be65ULL},
    {"rs9_6/rpr/hetero", 0xca2fcd723f3b2283ULL},
    {"rs9_6/flat/default", 0x0fbdec1fa2478f05ULL},
    {"rs9_6/flat/star", 0x403ad6bfe8384059ULL},
    {"rs9_6/flat/matrix", 0x45a83b908deb5dd3ULL},
    {"rs9_6/flat/hetero", 0x459c8fcf52707711ULL},
    {"rs14_10/contiguous/default", 0x4f661a75629cfc97ULL},
    {"rs14_10/contiguous/star", 0xe2762b522823e6b1ULL},
    {"rs14_10/contiguous/matrix", 0x51cd8273be9aab72ULL},
    {"rs14_10/contiguous/hetero", 0xdc9970b51e323c1fULL},
    {"rs14_10/rpr/default", 0xdfa4340728172f7aULL},
    {"rs14_10/rpr/star", 0xb1cc53f33d87d6a8ULL},
    {"rs14_10/rpr/matrix", 0xd67ccb2ab016bdf4ULL},
    {"rs14_10/rpr/hetero", 0x1fb169abf831daceULL},
    {"rs14_10/flat/default", 0x023c8a1e4af46767ULL},
    {"rs14_10/flat/star", 0xcd99b747e3c0682fULL},
    {"rs14_10/flat/matrix", 0xbeb8b0cb2b6aa58bULL},
    {"rs14_10/flat/hetero", 0xa6986ea2be182101ULL},
};

TEST(RprPlanner, PlansMatchParentGolden) {
  expect_matches(Kind::kRpr, kRprGolden);
}

TEST(RprChainedPlanner, PlansMatchParentGolden) {
  expect_matches(Kind::kChained, kChainedGolden);
}

TEST(DegradedReadPlanner, PlansMatchParentGolden) {
  expect_matches(Kind::kDegradedRead, kDegradedReadGolden);
}

}  // namespace
