// Reed-Solomon codec tests: round-trips over every erasure pattern for the
// paper's configurations, repair-equation correctness, partial-decoding
// equivalence, and the XOR fast path.
#include "rs/rs_code.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>

#include "gf/gf_region.h"
#include "test_support.h"
#include "util/combinatorics.h"

using rpr::rs::Block;
using rpr::rs::CodeConfig;
using rpr::rs::MatrixKind;
using rpr::rs::RSCode;

namespace {
constexpr std::size_t kBlockSize = 512;
}

class RsCodeTest : public ::testing::TestWithParam<CodeConfig> {};

TEST_P(RsCodeTest, DecodeRecoversEveryErasurePatternUpToK) {
  const CodeConfig cfg = GetParam();
  const RSCode code(cfg);
  const auto original = rpr::testing::random_stripe(code, kBlockSize, 100);

  for (std::size_t l = 1; l <= cfg.k; ++l) {
    rpr::util::for_each_combination(
        cfg.total(), l, [&](const std::vector<std::size_t>& failed) {
          auto stripe = original;
          for (std::size_t f : failed) {
            stripe[f].assign(kBlockSize, 0xEE);  // corrupt the lost blocks
          }
          ASSERT_TRUE(code.decode(stripe, failed));
          for (std::size_t f : failed) {
            EXPECT_EQ(stripe[f], original[f]) << "block " << f;
          }
        });
  }
}

TEST_P(RsCodeTest, RepairEquationsEvaluateToLostBlocks) {
  const CodeConfig cfg = GetParam();
  const RSCode code(cfg);
  const auto stripe = rpr::testing::random_stripe(code, kBlockSize, 200);

  rpr::util::for_each_combination(
      cfg.total(), cfg.k, [&](const std::vector<std::size_t>& failed) {
        const auto selected = code.default_selection(failed);
        const auto eqs = code.repair_equations(failed, selected);
        ASSERT_EQ(eqs.size(), failed.size());
        for (const auto& eq : eqs) {
          EXPECT_EQ(code.evaluate(eq, stripe), stripe[eq.failed_block]);
        }
      });
}

TEST_P(RsCodeTest, SingleDataFailureWithP0IsXorOnly) {
  const CodeConfig cfg = GetParam();
  const RSCode code(cfg);
  for (std::size_t f = 0; f < cfg.n; ++f) {
    const std::vector<std::size_t> failed = {f};
    const auto selected = code.default_selection(failed);
    // default_selection prefers {surviving data, P0} for one data failure.
    EXPECT_TRUE(std::find(selected.begin(), selected.end(),
                          rpr::rs::p0_index(cfg)) != selected.end());
    EXPECT_TRUE(code.is_xor_repair(failed, selected)) << "f=" << f;
  }
}

TEST_P(RsCodeTest, ParityFailureIsNotXorOnly) {
  const CodeConfig cfg = GetParam();
  const RSCode code(cfg);
  // Rebuilding P1 (or beyond) requires real coefficients.
  if (cfg.k < 2) GTEST_SKIP();
  const std::vector<std::size_t> failed = {cfg.n + 1};
  const auto selected = code.default_selection(failed);
  EXPECT_FALSE(code.is_xor_repair(failed, selected));
}

TEST_P(RsCodeTest, PartialDecodingAnyGroupingMatchesDirectDecode) {
  // Split a repair equation's terms into arbitrary contiguous groups,
  // build intermediates per group, XOR the intermediates (paper eq. 4/9).
  const CodeConfig cfg = GetParam();
  const RSCode code(cfg);
  const auto stripe = rpr::testing::random_stripe(code, kBlockSize, 300);

  const std::vector<std::size_t> failed = {1};
  const auto selected = code.default_selection(failed);
  const auto eq = code.repair_equations(failed, selected)[0];
  const Block direct = code.evaluate(eq, stripe);

  for (std::size_t split = 1; split < eq.sources.size(); ++split) {
    Block left(kBlockSize, 0);
    Block right(kBlockSize, 0);
    for (std::size_t i = 0; i < eq.sources.size(); ++i) {
      rpr::gf::mul_region_add(eq.coefficients[i], i < split ? left : right,
                              stripe[eq.sources[i]]);
    }
    rpr::gf::xor_region(left, right);
    EXPECT_EQ(left, direct) << "split=" << split;
  }
}

TEST_P(RsCodeTest, VandermondeAndCauchyBothRoundTrip) {
  const CodeConfig cfg = GetParam();
  for (const auto kind : {MatrixKind::kCauchy, MatrixKind::kVandermonde}) {
    const RSCode code(cfg, kind);
    auto stripe = rpr::testing::random_stripe(code, 64, 400);
    const auto original = stripe;
    std::vector<std::size_t> failed;
    for (std::size_t i = 0; i < cfg.k; ++i) failed.push_back(i);  // first k
    for (std::size_t f : failed) stripe[f].assign(64, 0);
    ASSERT_TRUE(code.decode(stripe, failed));
    EXPECT_EQ(stripe, original);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperConfigs, RsCodeTest,
    ::testing::ValuesIn(rpr::testing::paper_configs()),
    [](const ::testing::TestParamInfo<CodeConfig>& i) {
      return rpr::testing::config_name(i.param);
    });

TEST(RsCode, EncodeP0IsXorOfData) {
  // The pre-placement optimization (§3.3) rests on P0 = xor of all data.
  const RSCode code({5, 3});
  const auto stripe = rpr::testing::random_stripe(code, 128, 7);
  Block expect(128, 0);
  for (std::size_t b = 0; b < 5; ++b) rpr::gf::xor_region(expect, stripe[b]);
  EXPECT_EQ(stripe[5], expect);
}

TEST(RsCode, RejectsTooManyFailures) {
  const RSCode code({4, 2});
  auto stripe = rpr::testing::random_stripe(code, 32, 8);
  const std::vector<std::size_t> failed = {0, 1, 2};
  EXPECT_FALSE(code.decode(stripe, failed));
}

TEST(RsCode, RejectsSelectedOverlappingFailed) {
  const RSCode code({4, 2});
  const std::vector<std::size_t> failed = {0};
  const std::vector<std::size_t> selected = {0, 1, 2, 3};
  EXPECT_THROW(code.repair_equations(failed, selected), std::invalid_argument);
}

TEST(RsCode, RejectsBadConstruction) {
  EXPECT_THROW(RSCode({0, 2}), std::invalid_argument);
  EXPECT_THROW(RSCode({2, 0}), std::invalid_argument);
  EXPECT_THROW(RSCode({250, 10}), std::invalid_argument);
}

TEST(RsCode, UnequalBlockSizesRejected) {
  const RSCode code({3, 2});
  std::vector<Block> data = {Block(16, 1), Block(16, 2), Block(8, 3)};
  std::vector<Block> parity(2);
  EXPECT_THROW(
      code.encode(std::span<const Block>(data), std::span<Block>(parity)),
      std::invalid_argument);
}

TEST(RsCode, ActiveSourcesCountsNonzeroCoefficients) {
  rpr::rs::RepairEquation eq;
  eq.sources = {0, 1, 2, 3};
  eq.coefficients = {1, 0, 5, 0};
  EXPECT_EQ(eq.active_sources(), 2u);
  EXPECT_FALSE(eq.xor_only());
  eq.coefficients = {1, 0, 1, 1};
  EXPECT_TRUE(eq.xor_only());
}

// Blocks large enough to split across the thread pool (several 128 KiB+
// shards per block): the sharded encode must agree byte-for-byte with
// encoding each region independently — RS is applied element-wise, so the
// parity of any sub-range is the encode of the data sub-ranges — and the
// stripe must still round-trip through decode.
TEST(RsCode, ShardedLargeBlockEncodeMatchesRegionwiseEncode) {
  const CodeConfig cfg{6, 3};
  const RSCode code(cfg);
  constexpr std::size_t kLarge = 1u << 20;  // 4 shards at the 256 KiB floor
  const auto stripe = rpr::testing::random_stripe(code, kLarge, 200);

  // Re-encode an arbitrary interior window of every data block and check it
  // reproduces the same window of each sharded parity block.
  constexpr std::size_t kOff = 300 * 1024 + 7;
  constexpr std::size_t kLen = 64 * 1024 + 13;
  std::vector<Block> window(cfg.n);
  for (std::size_t j = 0; j < cfg.n; ++j) {
    window[j].assign(stripe[j].begin() + kOff, stripe[j].begin() + kOff + kLen);
  }
  std::vector<Block> wparity(cfg.k);
  code.encode(std::span<const Block>(window), std::span<Block>(wparity));
  for (std::size_t i = 0; i < cfg.k; ++i) {
    const Block got(stripe[cfg.n + i].begin() + kOff,
                    stripe[cfg.n + i].begin() + kOff + kLen);
    ASSERT_EQ(got, wparity[i]) << "parity " << i;
  }
}

TEST(RsCode, ShardedLargeBlockDecodeRoundTrip) {
  const CodeConfig cfg{6, 3};
  const RSCode code(cfg);
  constexpr std::size_t kLarge = 1u << 20;
  const auto original = rpr::testing::random_stripe(code, kLarge, 201);

  auto stripe = original;
  const std::vector<std::size_t> failed = {1, 4, 7};  // two data + one parity
  for (std::size_t f : failed) stripe[f].assign(kLarge, 0xEE);
  ASSERT_TRUE(code.decode(stripe, failed));
  for (std::size_t f : failed) {
    ASSERT_EQ(stripe[f], original[f]) << "block " << f;
  }
}

// evaluate() takes its output uninitialized from util::PagePool, whose
// buffers hold whatever their last user left there: the pooled pass must overwrite every
// byte. Buffers pre-filled with garbage still evaluate to the reference
// kernel's result.
TEST(RsCode, EvaluateIntoRecycledGarbageMatchesReference) {
  const CodeConfig cfg{6, 3};
  const RSCode code(cfg);
  for (const std::size_t size :
       {std::size_t{4096}, (std::size_t{256} << 10) + 1,
        (std::size_t{768} << 10) + 13}) {
    const auto stripe = rpr::testing::random_stripe(code, size, 203);
    const std::vector<std::size_t> failed = {1, 4, 7};
    const auto eqs =
        code.repair_equations(failed, code.default_selection(failed));
    for (const auto& eq : eqs) {
      std::vector<std::uint8_t> coeffs;
      std::vector<const std::uint8_t*> srcs;
      for (std::size_t i = 0; i < eq.sources.size(); ++i) {
        if (eq.coefficients[i] == 0) continue;
        coeffs.push_back(eq.coefficients[i]);
        srcs.push_back(stripe[eq.sources[i]].data());
      }
      Block expect(size, 0);
      rpr::gf::ref::mul_region_add_multi(coeffs, srcs.data(), expect);

      std::vector<Block> garbage(2);
      std::set<const std::uint8_t*> recycled;
      for (Block& g : garbage) {
        g = Block::uninitialized(size);
        std::fill(g.begin(), g.end(), std::uint8_t{0xA5});
        recycled.insert(g.data());
      }
      garbage.clear();  // back to the pool

      const Block got = code.evaluate(eq, stripe);
      EXPECT_EQ(recycled.count(got.data()), 1u)
          << "block " << eq.failed_block << ": output not recycled";
      EXPECT_EQ(got, expect) << "block " << eq.failed_block << ", " << size
                             << " bytes";
      EXPECT_EQ(got, stripe[eq.failed_block]);
    }
  }
}

// Every nonzero-coefficient source of an equation must hold bytes, all of
// one length: a shorter or empty survivor is rejected, naming the block,
// rather than read past its end. A zero-coefficient source is never read,
// so it may be empty.
TEST(RsCode, EvaluateRejectsEmptyOrMismatchedSource) {
  const CodeConfig cfg{6, 3};
  const RSCode code(cfg);
  const auto original = rpr::testing::random_stripe(code, 4096, 202);
  const std::vector<std::size_t> failed = {1, 4};
  const auto eqs =
      code.repair_equations(failed, code.default_selection(failed));
  const auto& eq = eqs[0];
  const auto expect_rejected = [&](std::size_t victim, std::size_t size) {
    auto stripe = original;
    stripe[victim].resize(size);
    try {
      (void)code.evaluate(eq, stripe);
      ADD_FAILURE() << "block " << victim << " resized to " << size;
    } catch (const std::invalid_argument& e) {
      // A first source of the wrong length sizes the output, so the error
      // then names the next source, the first that disagrees with it.
      const std::size_t named =
          victim == eq.sources.front() && size != 0 ? eq.sources[1] : victim;
      EXPECT_NE(std::string(e.what()).find("needs block " +
                                          std::to_string(named)),
                std::string::npos)
          << e.what();
    }
    for (const std::size_t f : failed) stripe[f].clear();
    EXPECT_THROW(code.decode(stripe, failed), std::invalid_argument)
        << "decode with block " << victim << " resized to " << size;
  };
  // The first source sizes the output; later sources may not differ from
  // it, and an empty first source is rejected as well.
  ASSERT_NE(eq.coefficients[0], 0);
  ASSERT_NE(eq.coefficients[1], 0);
  ASSERT_NE(eq.coefficients.back(), 0);
  for (const std::size_t victim : {eq.sources.front(), eq.sources.back()}) {
    for (const std::size_t size : {std::size_t{0}, std::size_t{1},
                                   std::size_t{4095}, std::size_t{4097}}) {
      expect_rejected(victim, size);
    }
  }

  // The lost blocks themselves and any zero-coefficient source may be
  // empty: nothing reads them.
  auto stripe = original;
  for (const std::size_t f : failed) stripe[f].clear();
  EXPECT_EQ(code.evaluate(eq, stripe), original[eq.failed_block]);
  auto zeroed = eq;
  zeroed.coefficients[1] = 0;
  stripe[zeroed.sources[1]].clear();
  EXPECT_NO_THROW((void)code.evaluate(zeroed, stripe));
}
