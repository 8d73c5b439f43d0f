// The storage digest (gf/fingerprint.h): GF(2^8)-linear on every dispatch
// tier, byte-identical to its definition (gf::ref::fingerprint) on every
// tier, pooled, unpooled and folded tile by tile, sensitive to every
// single-byte change and to the block's length, and carried through the RS
// encode (the parity digests storage derives from the data digests).
#include "gf/fingerprint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "gf/gf256.h"
#include "gf/gf_region.h"
#include "rs/rs_code.h"
#include "util/rng.h"

namespace gf = rpr::gf;

namespace {

std::vector<std::uint8_t> random_buf(std::size_t n, std::uint64_t seed) {
  rpr::util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng());
  return v;
}

// Restores the dispatch tier active at construction.
class TierGuard {
 public:
  TierGuard() : saved_(gf::active_tier()) {}
  ~TierGuard() { gf::set_tier(saved_); }

 private:
  gf::SimdTier saved_;
};

// The pool shards a fingerprint in runs of at least 128 KiB; these lengths
// sit below, at and across that threshold, with and without a tail chunk.
const std::size_t kPoolSizes[] = {(128 << 10) - 256, 128 << 10,
                                  (256 << 10) - 1,   256 << 10,
                                  (256 << 10) + 256, (1 << 20) + 100};

}  // namespace

TEST(Fingerprint, IsLinearOnEveryTier) {
  const TierGuard guard;
  rpr::util::Xoshiro256 rng(7);
  for (const gf::SimdTier tier : gf::supported_tiers()) {
    ASSERT_TRUE(gf::set_tier(tier));
    for (const std::size_t n : {std::size_t{1}, std::size_t{300},
                                std::size_t{4096}, std::size_t{(200 << 10) + 17}}) {
      SCOPED_TRACE(testing::Message() << gf::tier_name(tier) << " " << n);
      const auto a = static_cast<std::uint8_t>(rng());
      const auto x = random_buf(n, rng());
      const auto y = random_buf(n, rng());
      std::vector<std::uint8_t> z = y;
      gf::mul_region_add(a, z, x);  // z = a·x ⊕ y

      const gf::Fingerprint fx = gf::fingerprint(x);
      const gf::Fingerprint fy = gf::fingerprint(y);
      gf::Fingerprint want = fy;
      for (std::size_t i = 0; i < want.lanes.size(); ++i) {
        want.lanes[i] ^= gf::mul(a, fx.lanes[i]);
      }
      EXPECT_EQ(gf::fingerprint(z), want);
    }
  }
}

TEST(Fingerprint, AllTiersMatchTheDefinition) {
  const TierGuard guard;
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{255}, std::size_t{256},
        std::size_t{257}, std::size_t{4099}, std::size_t{(300 << 10) + 5}}) {
    const auto x = random_buf(n, n + 1);
    const gf::Fingerprint want = gf::ref::fingerprint(x);
    EXPECT_EQ(want.length, n);
    for (const gf::SimdTier tier : gf::supported_tiers()) {
      ASSERT_TRUE(gf::set_tier(tier));
      EXPECT_EQ(gf::fingerprint(x), want)
          << gf::tier_name(tier) << " length " << n;
    }
  }
}

TEST(Fingerprint, PooledEqualsSerialAcrossTheShardThreshold) {
  for (const std::size_t n : kPoolSizes) {
    const auto x = random_buf(n, n);
    EXPECT_EQ(gf::fingerprint(x), gf::ref::fingerprint(x)) << "length " << n;
  }
}

// fp(x ⊕ δ·u_p) = fp(x) ⊕ δ·fp(u_p) for the unit vector u_p, so a change
// at p is missed for one nonzero δ iff it is missed for all of them: one δ
// per position covers every single-byte change.
TEST(Fingerprint, DetectsEverySingleByteChangeOf4KiB) {
  auto x = random_buf(4096, 11);
  const gf::Fingerprint base = gf::fingerprint(x);
  for (std::size_t p = 0; p < x.size(); ++p) {
    const auto delta = static_cast<std::uint8_t>(1 + p % 255);
    x[p] ^= delta;
    EXPECT_NE(gf::fingerprint(x), base) << "byte " << p;
    x[p] ^= delta;
  }
}

TEST(Fingerprint, DistinguishesLengthsAndZeroPadding) {
  // Every prefix length from 0 to 1 KiB plus a tail chunk: all distinct.
  const auto x = random_buf(1024 + 77, 12);
  std::set<std::pair<std::uint64_t, decltype(gf::Fingerprint::lanes)>> seen;
  for (std::size_t n = 0; n <= x.size(); ++n) {
    const gf::Fingerprint fp = gf::fingerprint({x.data(), n});
    EXPECT_EQ(fp.length, n);
    EXPECT_TRUE(seen.emplace(fp.length, fp.lanes).second) << "length " << n;
  }
  // The same content zero-padded to a longer length folds into the same
  // lanes; only the kept length tells the two blocks apart.
  const auto short_block = random_buf(300, 13);
  std::vector<std::uint8_t> padded = short_block;
  padded.resize(512, 0);
  const gf::Fingerprint a = gf::fingerprint(short_block);
  const gf::Fingerprint b = gf::fingerprint(padded);
  EXPECT_EQ(a.lanes, b.lanes);
  EXPECT_NE(a, b);
  EXPECT_EQ(gf::fingerprint({}), gf::Fingerprint{});
}

TEST(Fingerprint, TilesFoldedInAnyOrderMatchTheDefinition) {
  // fold() at chunk offsets: a block cut into random runs of chunks, folded
  // in shuffled order, some into the same fingerprint and some into their
  // own, XORs to the block's fingerprint. Only the last tile may end inside
  // a chunk.
  rpr::util::Xoshiro256 rng(21);
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{255}, std::size_t{256}, std::size_t{1000},
        std::size_t{4096 + 17}, std::size_t{(300 << 10) + 5}}) {
    SCOPED_TRACE(testing::Message() << "length " << n);
    const auto x = random_buf(n, n + 3);
    const std::size_t chunks = (n + gf::kFingerprintChunk - 1) /
                               gf::kFingerprintChunk;
    std::vector<std::pair<std::size_t, std::size_t>> tiles;  // [first, last)
    for (std::size_t c = 0; c < chunks;) {
      const std::size_t len = std::min(chunks - c, 1 + rng.below(200));
      tiles.emplace_back(c, c + len);
      c += len;
    }
    for (std::size_t i = tiles.size(); i > 1; --i) {
      std::swap(tiles[i - 1], tiles[rng.below(i)]);
    }
    gf::Fingerprint got;
    got.length = n;
    for (const auto& [first, last] : tiles) {
      const std::size_t begin = first * gf::kFingerprintChunk;
      const std::size_t end = std::min(last * gf::kFingerprintChunk, n);
      if (rng.below(2) == 0) {
        gf::fold(got, {x.data() + begin, end - begin}, first);
      } else {
        gf::Fingerprint own;
        gf::fold(own, {x.data() + begin, end - begin}, first);
        gf::xor_region(got.lanes, own.lanes);
      }
    }
    EXPECT_EQ(got, gf::fingerprint(x));
    EXPECT_EQ(got, gf::ref::fingerprint(x));
  }
}

TEST(Fingerprint, FoldKernelMatchesDefinitionAtEdges) {
  // The fold kernels at their edges: chunk counts around the 128-chunk
  // segment, chunk indices far past the first segment, data that starts
  // off a vector boundary, a piece that ends in a tail, and lanes that
  // already hold another fold (the kernels accumulate).
  const TierGuard guard;
  const auto buf = random_buf(257 * gf::kFingerprintChunk + 63 + 100, 41);
  const auto dirt = random_buf(gf::Fingerprint{}.lanes.size(), 42);
  gf::Fingerprint dirty;
  std::copy(dirt.begin(), dirt.end(), dirty.lanes.begin());
  for (const std::size_t count : {1u, 127u, 128u, 129u, 255u, 257u}) {
    for (const std::size_t first : {std::size_t{0}, std::size_t{1},
                                    std::size_t{127}, (std::size_t{1} << 20) + 3}) {
      for (const std::size_t offset : {0u, 1u, 31u, 63u}) {
        for (const std::size_t tail : {0u, 100u}) {
          const std::span<const std::uint8_t> piece(
              buf.data() + offset, count * gf::kFingerprintChunk + tail);
          gf::Fingerprint want = dirty;
          gf::ref::fold(want, piece, first);
          if (first == 0) {
            gf::Fingerprint clean = gf::ref::fingerprint(piece);
            gf::xor_region(clean.lanes, dirty.lanes);
            ASSERT_EQ(want.lanes, clean.lanes);
          }
          for (const gf::SimdTier tier : gf::supported_tiers()) {
            ASSERT_TRUE(gf::set_tier(tier));
            gf::Fingerprint got = dirty;
            gf::fold(got, piece, first);
            EXPECT_EQ(got, want)
                << gf::tier_name(tier) << " count " << count << " first "
                << first << " offset " << offset << " tail " << tail;
          }
        }
      }
    }
  }
}

TEST(Fingerprint, CopyWritesTheBytesItFingerprints) {
  for (const std::size_t n : kPoolSizes) {
    const auto x = random_buf(n, n + 5);
    std::vector<std::uint8_t> copy(n, 0xA5);
    EXPECT_EQ(gf::fingerprint_copy(copy, x), gf::ref::fingerprint(x))
        << "length " << n;
    EXPECT_EQ(copy, x) << "length " << n;
  }
  std::vector<std::uint8_t> short_dst(10);
  EXPECT_THROW((void)gf::fingerprint_copy(short_dst, random_buf(11, 1)),
               std::invalid_argument);
}

TEST(Fingerprint, ParityDigestsFollowFromDataDigests) {
  // fp(P_i) = Σ_j g_ij · fp(D_j): encoding the data blocks' lanes with the
  // code's own matrix gives each parity block's fingerprint.
  for (const rpr::rs::CodeConfig cfg :
       {rpr::rs::CodeConfig{6, 3}, rpr::rs::CodeConfig{12, 4}}) {
    const rpr::rs::RSCode code(cfg);
    for (const std::size_t len :
         {std::size_t{1}, std::size_t{255}, std::size_t{256},
          std::size_t{1000}, std::size_t{4096 + 17}, std::size_t{1 << 20}}) {
      SCOPED_TRACE(testing::Message()
                   << "RS(" << cfg.n << "," << cfg.k << ") length " << len);
      std::vector<rpr::rs::Block> stripe(cfg.total());
      for (std::size_t b = 0; b < cfg.n; ++b) {
        const auto bytes = random_buf(len, 1000 * cfg.n + 7 * b + len);
        stripe[b].assign(bytes.begin(), bytes.end());
      }
      code.encode_stripe(stripe);
      std::vector<gf::Fingerprint> fp(cfg.total());
      std::vector<const std::uint8_t*> data(cfg.n);
      for (std::size_t b = 0; b < cfg.n; ++b) {
        fp[b] = gf::fingerprint(stripe[b]);
        data[b] = fp[b].lanes.data();
      }
      std::vector<std::uint8_t*> parity(cfg.k);
      for (std::size_t i = 0; i < cfg.k; ++i) {
        fp[cfg.n + i].length = len;
        parity[i] = fp[cfg.n + i].lanes.data();
      }
      code.encode_regions(data.data(), parity.data(), fp[0].lanes.size());
      for (std::size_t i = 0; i < cfg.k; ++i) {
        EXPECT_EQ(fp[cfg.n + i], gf::fingerprint(stripe[cfg.n + i]))
            << "parity " << i;
      }
    }
  }
}
