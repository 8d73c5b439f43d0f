// Region-kernel tests: every dispatch tier the CPU supports is cross-
// checked against the scalar reference (gf::ref::) over sizes that exercise
// the vector main loops, sub-vector tails, unaligned offsets, exact
// aliasing, and all 256 coefficients; plus dispatch-selection tests for
// RPR_GF_FORCE / set_tier.
#include "gf/gf_region.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "gf/gf256.h"
#include "util/rng.h"

namespace gf = rpr::gf;

namespace {

std::vector<std::uint8_t> random_buf(std::size_t n, std::uint64_t seed) {
  rpr::util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng() & 0xFF);
  return v;
}

// Restores the dispatch tier active at construction (so tier-sweeping
// tests cannot leak a forced tier into later tests).
class TierGuard {
 public:
  TierGuard() : saved_(gf::active_tier()) {}
  ~TierGuard() { gf::set_tier(saved_); }

 private:
  gf::SimdTier saved_;
};

// Sizes covering empty, sub-vector, vector-multiple, off-by-one around the
// 16/32/64/128-byte strides, and beyond-4096 per the randomized-suite spec.
const std::size_t kSizes[] = {0,  1,  2,   3,   7,   8,    9,    15,  16,
                              17, 31, 32,  33,  63,  64,   65,   100, 127,
                              128, 129, 255, 256, 1021, 4096, 65537};

}  // namespace

class RegionTierTest : public ::testing::TestWithParam<gf::SimdTier> {
 protected:
  void SetUp() override {
    saved_ = gf::active_tier();
    if (!gf::set_tier(GetParam())) {
      GTEST_SKIP() << "tier " << gf::tier_name(GetParam())
                   << " unsupported on this CPU";
    }
  }
  void TearDown() override { gf::set_tier(saved_); }

 private:
  gf::SimdTier saved_ = gf::SimdTier::kScalar;
};

TEST_P(RegionTierTest, XorMatchesReferenceAllSizes) {
  for (const std::size_t n : kSizes) {
    auto dst = random_buf(n, 1);
    auto dst_ref = dst;
    const auto src = random_buf(n, 2);
    gf::xor_region(dst, src);
    gf::ref::xor_region(dst_ref, src);
    EXPECT_EQ(dst, dst_ref) << "n=" << n;
  }
}

TEST_P(RegionTierTest, MulAddMatchesReferenceAllCoefficients) {
  const auto src = random_buf(1021, 3);
  for (int c = 0; c < 256; ++c) {
    auto dst = random_buf(src.size(), 4);
    auto dst_ref = dst;
    gf::mul_region_add(static_cast<std::uint8_t>(c), dst, src);
    gf::ref::mul_region_add(static_cast<std::uint8_t>(c), dst_ref, src);
    ASSERT_EQ(dst, dst_ref) << "c=" << c;
  }
}

TEST_P(RegionTierTest, MulAddMatchesReferenceAllSizes) {
  const std::uint8_t coeffs[] = {0, 1, 2, 3, 0x1D, 0x57, 0x80, 0xFF};
  for (const std::size_t n : kSizes) {
    const auto src = random_buf(n, 5);
    for (const std::uint8_t c : coeffs) {
      auto dst = random_buf(n, 6);
      auto dst_ref = dst;
      gf::mul_region_add(c, dst, src);
      gf::ref::mul_region_add(c, dst_ref, src);
      ASSERT_EQ(dst, dst_ref) << "c=" << int(c) << " n=" << n;
    }
  }
}

TEST_P(RegionTierTest, MulAddGeneralMatchesReference) {
  const std::uint8_t coeffs[] = {0, 1, 2, 0xC3};
  for (const std::size_t n : {std::size_t{255}, std::size_t{4096}}) {
    const auto src = random_buf(n, 7);
    for (const std::uint8_t c : coeffs) {
      auto dst = random_buf(n, 8);
      auto dst_ref = dst;
      gf::mul_region_add_general(c, dst, src);
      gf::ref::mul_region_add(c, dst_ref, src);
      ASSERT_EQ(dst, dst_ref) << "c=" << int(c) << " n=" << n;
    }
  }
}

TEST_P(RegionTierTest, UnalignedOffsetsMatchReference) {
  // Sweep misaligned starts for dst and src independently; the kernels use
  // unaligned loads/stores, so every offset must be exact.
  const std::size_t n = 1024;
  const auto src_full = random_buf(n + 16, 9);
  for (std::size_t doff : {1u, 3u, 7u, 13u, 15u}) {
    for (std::size_t soff : {0u, 1u, 5u, 15u}) {
      auto dst_full = random_buf(n + 16, 10);
      auto dst_ref_full = dst_full;
      const auto src = std::span<const std::uint8_t>(src_full)
                           .subspan(soff, n);
      gf::mul_region_add(
          0x8E, std::span<std::uint8_t>(dst_full).subspan(doff, n), src);
      gf::ref::mul_region_add(
          0x8E, std::span<std::uint8_t>(dst_ref_full).subspan(doff, n), src);
      ASSERT_EQ(dst_full, dst_ref_full) << "doff=" << doff << " soff=" << soff;
    }
  }
}

TEST_P(RegionTierTest, MulRegionExactAliasing) {
  for (const std::size_t n : kSizes) {
    auto buf = random_buf(n, 11);
    auto expect = buf;
    for (auto& b : expect) b = gf::mul(0x53, b);
    gf::mul_region(0x53, buf, buf);  // exact aliasing is allowed
    ASSERT_EQ(buf, expect) << "n=" << n;
  }
}

TEST_P(RegionTierTest, MulRegionMatchesMulAddOnZeroedDst) {
  const std::uint8_t coeffs[] = {0, 1, 7, 0xC3};
  for (const std::size_t n : kSizes) {
    const auto src = random_buf(n, 12);
    for (const std::uint8_t c : coeffs) {
      std::vector<std::uint8_t> a(n, 0);
      std::vector<std::uint8_t> b(n, 0);
      gf::mul_region(c, a, src);
      gf::mul_region_add(c, b, src);
      ASSERT_EQ(a, b) << "c=" << int(c) << " n=" << n;
    }
  }
}

TEST_P(RegionTierTest, MultiMatchesReferenceRandomized) {
  rpr::util::Xoshiro256 rng(13);
  for (std::uint64_t iter = 0; iter < 50; ++iter) {
    const std::size_t n = kSizes[rng() % (sizeof(kSizes) / sizeof(kSizes[0]))];
    const std::size_t k = 1 + rng() % 8;
    std::vector<std::vector<std::uint8_t>> sources;
    std::vector<const std::uint8_t*> ptrs;
    std::vector<std::uint8_t> coeffs;
    for (std::size_t s = 0; s < k; ++s) {
      sources.push_back(random_buf(n, 100 + iter * 10 + s));
      ptrs.push_back(sources.back().data());
      // Bias toward the special coefficients 0 and 1.
      const std::uint64_t r = rng();
      coeffs.push_back(r % 4 == 0 ? static_cast<std::uint8_t>(r % 2)
                                  : static_cast<std::uint8_t>(r & 0xFF));
    }
    auto dst = random_buf(n, 200 + iter);
    auto dst_ref = dst;
    gf::mul_region_add_multi(coeffs, ptrs.data(), dst);
    gf::ref::mul_region_add_multi(coeffs, ptrs.data(), dst_ref);
    ASSERT_EQ(dst, dst_ref) << "iter=" << iter << " n=" << n << " k=" << k;
  }
}

TEST_P(RegionTierTest, MultiAllZeroCoefficientsIsNoOp) {
  const auto src = random_buf(300, 14);
  const std::uint8_t* ptr = src.data();
  const std::uint8_t zero = 0;
  auto dst = random_buf(300, 15);
  const auto orig = dst;
  gf::mul_region_add_multi(std::span<const std::uint8_t>(&zero, 1), &ptr, dst);
  EXPECT_EQ(dst, orig);
}

TEST_P(RegionTierTest, EncodeRegionsMatchesPerSourceLoop) {
  const std::size_t rows = 3, cols = 6, n = 1000;
  const auto matrix = random_buf(rows * cols, 16);
  std::vector<std::vector<std::uint8_t>> data;
  std::vector<const std::uint8_t*> srcs;
  for (std::size_t j = 0; j < cols; ++j) {
    data.push_back(random_buf(n, 20 + j));
    srcs.push_back(data.back().data());
  }
  std::vector<std::vector<std::uint8_t>> out(rows,
                                             std::vector<std::uint8_t>(n, 0xAB));
  std::vector<std::uint8_t*> dsts;
  for (auto& o : out) dsts.push_back(o.data());
  gf::encode_regions(matrix, rows, cols, srcs.data(), dsts.data(), n);

  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<std::uint8_t> expect(n, 0);
    for (std::size_t j = 0; j < cols; ++j) {
      gf::ref::mul_region_add(matrix[r * cols + j], expect, data[j]);
    }
    ASSERT_EQ(out[r], expect) << "row " << r;
  }
}

// The pooled pass shards at 256 KiB and tiles each shard by ~256 KiB of
// sources; its bytes must equal one unpooled encode_regions call across
// both boundaries. Each rows count meets two of the column counts 1, 2, 12
// and 17, whose tiles differ; a third of the coefficients and, for two
// rows or more, the whole last row are zero; destinations start dirty.
TEST_P(RegionTierTest, ShardedPooledEncodeMatchesOneEncodeRegionsCall) {
  constexpr std::size_t kShard = 256 << 10;
  constexpr std::size_t kMaxLen = (1 << 20) + 7;
  constexpr std::size_t kMaxCols = 17;
  std::vector<std::vector<std::uint8_t>> data;
  std::vector<const std::uint8_t*> srcs;
  for (std::size_t j = 0; j < kMaxCols; ++j) {
    data.push_back(random_buf(kMaxLen, 40 + j));
    srcs.push_back(data.back().data());
  }
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 1}, {2, 2}, {3, 12}, {4, 17}, {1, 17}, {2, 12}, {3, 2}, {4, 1}};
  for (const auto& [rows, cols] : shapes) {
    auto matrix = random_buf(rows * cols, 60 + rows * cols);
    for (std::size_t i = 1; i < matrix.size(); i += 3) matrix[i] = 0;
    if (rows > 1) {
      std::fill(matrix.end() - static_cast<std::ptrdiff_t>(cols),
                matrix.end(), 0);
    }
    const std::size_t tile =
        std::max<std::size_t>(4 << 10, kShard / cols / 64 * 64);
    for (const std::size_t len :
         {std::size_t{0}, std::size_t{1}, std::size_t{63}, std::size_t{64},
          tile - 1, tile + 1, kShard - 1, kShard + 1, 3 * kShard + 13,
          kMaxLen}) {
      std::vector<std::vector<std::uint8_t>> pooled(
          rows, std::vector<std::uint8_t>(len, 0xAB));
      std::vector<std::vector<std::uint8_t>> direct(
          rows, std::vector<std::uint8_t>(len, 0xCD));
      std::vector<std::uint8_t*> pooled_dsts;
      std::vector<std::uint8_t*> direct_dsts;
      for (std::size_t r = 0; r < rows; ++r) {
        pooled_dsts.push_back(pooled[r].data());
        direct_dsts.push_back(direct[r].data());
      }
      gf::encode_regions_pooled(matrix, rows, cols, srcs.data(),
                                pooled_dsts.data(), len);
      gf::encode_regions(matrix, rows, cols, srcs.data(), direct_dsts.data(),
                         len);
      for (std::size_t r = 0; r < rows; ++r) {
        ASSERT_EQ(pooled[r], direct[r])
            << rows << "x" << cols << " row " << r << " len " << len;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTiers, RegionTierTest,
    ::testing::Values(gf::SimdTier::kScalar, gf::SimdTier::kSsse3,
                      gf::SimdTier::kAvx2, gf::SimdTier::kNeon,
                      gf::SimdTier::kAvx512, gf::SimdTier::kGfni),
    [](const ::testing::TestParamInfo<gf::SimdTier>& param_info) {
      return std::string(gf::tier_name(param_info.param));
    });

// ---- Dispatch selection ----------------------------------------------------

TEST(Dispatch, ScalarAlwaysSupportedAndBestTierActiveByDefault) {
  EXPECT_TRUE(gf::tier_supported(gf::SimdTier::kScalar));
  const auto tiers = gf::supported_tiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), gf::SimdTier::kScalar);
  EXPECT_EQ(tiers.back(), gf::best_tier());
}

TEST(Dispatch, SetTierSelectsEachSupportedTier) {
  TierGuard guard;
  for (const gf::SimdTier t : gf::supported_tiers()) {
    EXPECT_TRUE(gf::set_tier(t));
    EXPECT_EQ(gf::active_tier(), t) << gf::tier_name(t);
  }
}

TEST(Dispatch, SetTierRejectsUnsupportedTier) {
  TierGuard guard;
  const auto before = gf::active_tier();
  for (const gf::SimdTier t :
       {gf::SimdTier::kSsse3, gf::SimdTier::kAvx2, gf::SimdTier::kNeon}) {
    if (!gf::tier_supported(t)) {
      EXPECT_FALSE(gf::set_tier(t));
      EXPECT_EQ(gf::active_tier(), before);
    }
  }
}

TEST(Dispatch, ParseTierAcceptsTheForceSpecs) {
  EXPECT_EQ(gf::parse_tier("scalar"), gf::SimdTier::kScalar);
  EXPECT_EQ(gf::parse_tier("ssse3"), gf::SimdTier::kSsse3);
  EXPECT_EQ(gf::parse_tier("avx2"), gf::SimdTier::kAvx2);
  EXPECT_EQ(gf::parse_tier("neon"), gf::SimdTier::kNeon);
  EXPECT_EQ(gf::parse_tier("avx512"), gf::SimdTier::kAvx512);
  EXPECT_EQ(gf::parse_tier("gfni"), gf::SimdTier::kGfni);
  EXPECT_FALSE(gf::parse_tier("sse9").has_value());
  EXPECT_FALSE(gf::parse_tier("").has_value());
}

TEST(Dispatch, TierNamesRoundTrip) {
  for (const gf::SimdTier t : gf::supported_tiers()) {
    EXPECT_EQ(gf::parse_tier(gf::tier_name(t)), t);
  }
}

// When the suite runs under RPR_GF_FORCE (the CI forced-scalar leg), the
// initially-selected tier must be the forced one. set_tier-based tests above
// may have changed the active tier by the time this runs, so only check that
// the forced tier is supported and honored at process start via best/parse.
TEST(Dispatch, HonorsForceEnvWhenSet) {
  const char* force = std::getenv("RPR_GF_FORCE");
  if (force == nullptr) GTEST_SKIP() << "RPR_GF_FORCE not set";
  const auto parsed = gf::parse_tier(force);
  if (!parsed.has_value() || !gf::tier_supported(*parsed)) {
    GTEST_SKIP() << "RPR_GF_FORCE names an unusable tier; dispatcher warns "
                    "and falls back";
  }
  // Re-assert the env selection: a fresh set to the forced tier must stick,
  // and the dispatcher must have accepted the same value at startup.
  TierGuard guard;
  EXPECT_TRUE(gf::set_tier(*parsed));
  EXPECT_EQ(gf::active_tier(), *parsed);
}

// ---- Cross-tier agreement (regression net for kernel divergence) -----------

TEST(Region, AllSupportedTiersProduceIdenticalResults) {
  TierGuard guard;
  const auto src = random_buf(4097, 30);
  const auto dst0 = random_buf(4097, 31);
  std::vector<std::vector<std::uint8_t>> results;
  for (const gf::SimdTier t : gf::supported_tiers()) {
    ASSERT_TRUE(gf::set_tier(t));
    auto dst = dst0;
    gf::mul_region_add(0x9D, dst, src);
    results.push_back(std::move(dst));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i], results[0]);
  }
}

// ---- Original algebraic sanity tests (tier-independent) --------------------

TEST(Region, XorIsInvolution) {
  auto dst = random_buf(512, 6);
  const auto orig = dst;
  const auto src = random_buf(512, 7);
  gf::xor_region(dst, src);
  EXPECT_NE(dst, orig);
  gf::xor_region(dst, src);
  EXPECT_EQ(dst, orig);
}

TEST(Region, MulAddByAllCoefficientsMatchesScalar) {
  const auto src = random_buf(257, 8);
  for (int c = 0; c < 256; ++c) {
    std::vector<std::uint8_t> dst(src.size(), 0);
    gf::mul_region_add(static_cast<std::uint8_t>(c), dst, src);
    for (std::size_t i = 0; i < src.size(); ++i) {
      ASSERT_EQ(dst[i], gf::mul(static_cast<std::uint8_t>(c), src[i]))
          << "c=" << c << " i=" << i;
    }
  }
}

TEST(Region, LinearityOverConcatenatedAccumulation) {
  // (c1*x) ^ (c2*x) == (c1^c2)*x  — accumulate twice vs once.
  const auto src = random_buf(777, 10);
  std::vector<std::uint8_t> twice(src.size(), 0);
  gf::mul_region_add(0x21, twice, src);
  gf::mul_region_add(0x36, twice, src);
  std::vector<std::uint8_t> once(src.size(), 0);
  gf::mul_region_add(std::uint8_t{0x21 ^ 0x36}, once, src);
  EXPECT_EQ(twice, once);
}
