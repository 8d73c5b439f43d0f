// AArch64 NEON region kernels: split-nibble GF(2^8) multiply via the `tbl`
// 16-byte table-lookup instruction — the NEON analogue of pshufb. AdvSIMD
// is architecturally mandatory on AArch64, so this tier needs no runtime
// feature probe beyond the target check.
#if defined(__aarch64__)

#include <arm_neon.h>

#include <cstring>

#include "gf/gf_kernels.h"

namespace rpr::gf::detail {

namespace {

void xor_region_neon(std::uint8_t* dst, const std::uint8_t* src,
                     std::size_t n) {
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    for (std::size_t v = 0; v < 64; v += 16) {
      vst1q_u8(dst + i + v,
               veorq_u8(vld1q_u8(dst + i + v), vld1q_u8(src + i + v)));
    }
  }
  for (; i + 16 <= n; i += 16) {
    vst1q_u8(dst + i, veorq_u8(vld1q_u8(dst + i), vld1q_u8(src + i)));
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

// c * v for 16 bytes: two tbl lookups on the coefficient's nibble tables.
inline uint8x16_t mul16(uint8x16_t v, uint8x16_t lo, uint8x16_t hi,
                        uint8x16_t mask) {
  const uint8x16_t l = vqtbl1q_u8(lo, vandq_u8(v, mask));
  const uint8x16_t h = vqtbl1q_u8(hi, vshrq_n_u8(v, 4));
  return veorq_u8(l, h);
}

void mul_region_add_neon(std::uint8_t c, std::uint8_t* dst,
                         const std::uint8_t* src, std::size_t n) {
  const SplitTable& t = split_tables()[c];
  const uint8x16_t lo = vld1q_u8(t.lo);
  const uint8x16_t hi = vld1q_u8(t.hi);
  const uint8x16_t mask = vdupq_n_u8(0x0F);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const uint8x16_t s = vld1q_u8(src + i);
    const uint8x16_t d = vld1q_u8(dst + i);
    vst1q_u8(dst + i, veorq_u8(d, mul16(s, lo, hi, mask)));
  }
  if (i < n) {
    const std::uint8_t* row = product_tables()[c];
    for (; i < n; ++i) dst[i] ^= row[src[i]];
  }
}

void mul_region_multi_neon(const std::uint8_t* coeffs, std::size_t k,
                           const std::uint8_t* const* srcs, std::uint8_t* dst,
                           std::size_t n, bool accumulate) {
  const uint8x16_t mask = vdupq_n_u8(0x0F);
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    uint8x16_t acc[4];
    for (int v = 0; v < 4; ++v) {
      acc[v] = accumulate ? vld1q_u8(dst + i + 16 * std::size_t(v))
                          : vdupq_n_u8(0);
    }
    for (std::size_t s = 0; s < k; ++s) {
      const std::uint8_t c = coeffs[s];
      if (c == 0) continue;
      const std::uint8_t* in = srcs[s] + i;
      if (c == 1) {
        for (int v = 0; v < 4; ++v) {
          acc[v] = veorq_u8(acc[v], vld1q_u8(in + 16 * std::size_t(v)));
        }
        continue;
      }
      const SplitTable& t = split_tables()[c];
      const uint8x16_t lo = vld1q_u8(t.lo);
      const uint8x16_t hi = vld1q_u8(t.hi);
      for (int v = 0; v < 4; ++v) {
        const uint8x16_t sv = vld1q_u8(in + 16 * std::size_t(v));
        acc[v] = veorq_u8(acc[v], mul16(sv, lo, hi, mask));
      }
    }
    for (int v = 0; v < 4; ++v) {
      vst1q_u8(dst + i + 16 * std::size_t(v), acc[v]);
    }
  }
  if (i < n) {
    // Finish each tail byte before storing it, so a source that aliases
    // dst exactly is read before it is overwritten.
    const std::uint8_t(*prod)[256] = product_tables();
    for (std::size_t j = i; j < n; ++j) {
      std::uint8_t acc = accumulate ? dst[j] : std::uint8_t{0};
      for (std::size_t s = 0; s < k; ++s) {
        if (coeffs[s] != 0) acc ^= prod[coeffs[s]][srcs[s][j]];
      }
      dst[j] = acc;
    }
  }
}

void gf16_mul_region_add_neon(const Gf16SplitTables& t, std::uint8_t* dst,
                              const std::uint8_t* src, std::size_t n) {
  const uint8x16_t t0l = vld1q_u8(t.t[0]);
  const uint8x16_t t0h = vld1q_u8(t.t[1]);
  const uint8x16_t t1l = vld1q_u8(t.t[2]);
  const uint8x16_t t1h = vld1q_u8(t.t[3]);
  const uint8x16_t t2l = vld1q_u8(t.t[4]);
  const uint8x16_t t2h = vld1q_u8(t.t[5]);
  const uint8x16_t t3l = vld1q_u8(t.t[6]);
  const uint8x16_t t3h = vld1q_u8(t.t[7]);
  const uint8x16_t mask = vdupq_n_u8(0x0F);
  std::size_t i = 0;
  // vld2q deinterleaves 16 LE uint16 elements into low-byte / high-byte
  // planes; vst2q re-interleaves on the way out.
  for (; i + 32 <= n; i += 32) {
    const uint8x16x2_t s = vld2q_u8(src + i);
    const uint8x16_t n0 = vandq_u8(s.val[0], mask);
    const uint8x16_t n1 = vshrq_n_u8(s.val[0], 4);
    const uint8x16_t n2 = vandq_u8(s.val[1], mask);
    const uint8x16_t n3 = vshrq_n_u8(s.val[1], 4);
    uint8x16_t outl = vqtbl1q_u8(t0l, n0);
    uint8x16_t outh = vqtbl1q_u8(t0h, n0);
    outl = veorq_u8(outl, vqtbl1q_u8(t1l, n1));
    outh = veorq_u8(outh, vqtbl1q_u8(t1h, n1));
    outl = veorq_u8(outl, vqtbl1q_u8(t2l, n2));
    outh = veorq_u8(outh, vqtbl1q_u8(t2h, n2));
    outl = veorq_u8(outl, vqtbl1q_u8(t3l, n3));
    outh = veorq_u8(outh, vqtbl1q_u8(t3h, n3));
    uint8x16x2_t d = vld2q_u8(dst + i);
    d.val[0] = veorq_u8(d.val[0], outl);
    d.val[1] = veorq_u8(d.val[1], outh);
    vst2q_u8(dst + i, d);
  }
  for (; i + 2 <= n; i += 2) {
    const unsigned x0 = src[i] & 0xF;
    const unsigned x1 = src[i] >> 4;
    const unsigned x2 = src[i + 1] & 0xF;
    const unsigned x3 = src[i + 1] >> 4;
    dst[i] = static_cast<std::uint8_t>(dst[i] ^ t.t[0][x0] ^ t.t[2][x1] ^
                                       t.t[4][x2] ^ t.t[6][x3]);
    dst[i + 1] = static_cast<std::uint8_t>(dst[i + 1] ^ t.t[1][x0] ^
                                           t.t[3][x1] ^ t.t[5][x2] ^
                                           t.t[7][x3]);
  }
}

}  // namespace

const Kernels& neon_kernels() {
  static constexpr Kernels k{
      "neon",          xor_region_neon,      mul_region_add_neon,
      mul_region_multi_neon, gf16_mul_region_add_neon,
      /*fold_chunks=*/nullptr,
  };
  return k;
}

}  // namespace rpr::gf::detail

#endif  // __aarch64__
