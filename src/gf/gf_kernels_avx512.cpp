// AVX-512 region kernels, two tiers in one TU:
//
//  * avx512 — the split-nibble scheme on 64-byte vectors: `vpshufb` on zmm
//    has the same per-128-bit-lane semantics as the xmm/ymm forms, so the
//    AVX2 kernels port directly with the nibble tables broadcast to all
//    four lanes (`vbroadcasti32x4`). This is the fallback for CPUs with
//    AVX-512BW but no GFNI.
//  * gfni — `vgf2p8affineqb`: one instruction multiplies 64 source bytes by
//    an arbitrary GF(2^8) coefficient expressed as an 8x8 bit matrix
//    (gfni_matrices(), built in gf_tables.cpp for this field's polynomial
//    0x11D). Two shuffles, two ANDs and a shift collapse into a single
//    affine op, roughly tripling per-vector multiply throughput.
//
// This TU is compiled with -mavx512f/-mavx512bw/-mavx512vl/-mgfni; every
// function is reached only through the dispatch table after CPUID has
// verified support. If the compiler is too old for those flags, the
// fallback branch at the bottom compiles stubs and reports
// avx512_tu_compiled() == false so the dispatcher never offers the tiers.
#if defined(__x86_64__) || defined(__i386__)

#include "gf/gf_kernels.h"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__) && \
    defined(__GFNI__)

#include <immintrin.h>

namespace rpr::gf::detail {

namespace {

// ---- shared -----------------------------------------------------------

void xor_region_avx512(std::uint8_t* dst, const std::uint8_t* src,
                       std::size_t n) {
  std::size_t i = 0;
  for (; i + 256 <= n; i += 256) {
    for (std::size_t v = 0; v < 256; v += 64) {
      const __m512i a =
          _mm512_loadu_si512(reinterpret_cast<const void*>(dst + i + v));
      const __m512i b =
          _mm512_loadu_si512(reinterpret_cast<const void*>(src + i + v));
      _mm512_storeu_si512(reinterpret_cast<void*>(dst + i + v),
                          _mm512_xor_si512(a, b));
    }
  }
  for (; i + 64 <= n; i += 64) {
    const __m512i a =
        _mm512_loadu_si512(reinterpret_cast<const void*>(dst + i));
    const __m512i b =
        _mm512_loadu_si512(reinterpret_cast<const void*>(src + i));
    _mm512_storeu_si512(reinterpret_cast<void*>(dst + i),
                        _mm512_xor_si512(a, b));
  }
  if (i < n) {
    // Masked epilogue: one partial vector instead of a byte loop.
    const __mmask64 m = _cvtu64_mask64(~std::uint64_t{0} >> (64 - (n - i)));
    const __m512i a = _mm512_maskz_loadu_epi8(m, dst + i);
    const __m512i b = _mm512_maskz_loadu_epi8(m, src + i);
    _mm512_mask_storeu_epi8(dst + i, m, _mm512_xor_si512(a, b));
  }
}

// ---- avx512 tier: split-nibble vpshufb on zmm -------------------------

inline __m512i broadcast_table(const std::uint8_t* t16) {
  return _mm512_broadcast_i32x4(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t16)));
}

// c * v for 64 bytes: two vpshufb lookups on the broadcast nibble tables.
inline __m512i mul64(__m512i v, __m512i lo, __m512i hi, __m512i mask) {
  const __m512i l = _mm512_shuffle_epi8(lo, _mm512_and_si512(v, mask));
  const __m512i h = _mm512_shuffle_epi8(
      hi, _mm512_and_si512(_mm512_srli_epi64(v, 4), mask));
  return _mm512_xor_si512(l, h);
}

void mul_region_add_avx512(std::uint8_t c, std::uint8_t* dst,
                           const std::uint8_t* src, std::size_t n) {
  const SplitTable& t = split_tables()[c];
  const __m512i lo = broadcast_table(t.lo);
  const __m512i hi = broadcast_table(t.hi);
  const __m512i mask = _mm512_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 128 <= n; i += 128) {
    const __m512i s0 =
        _mm512_loadu_si512(reinterpret_cast<const void*>(src + i));
    const __m512i s1 =
        _mm512_loadu_si512(reinterpret_cast<const void*>(src + i + 64));
    const __m512i d0 =
        _mm512_loadu_si512(reinterpret_cast<const void*>(dst + i));
    const __m512i d1 =
        _mm512_loadu_si512(reinterpret_cast<const void*>(dst + i + 64));
    _mm512_storeu_si512(reinterpret_cast<void*>(dst + i),
                        _mm512_xor_si512(d0, mul64(s0, lo, hi, mask)));
    _mm512_storeu_si512(reinterpret_cast<void*>(dst + i + 64),
                        _mm512_xor_si512(d1, mul64(s1, lo, hi, mask)));
  }
  for (; i + 64 <= n; i += 64) {
    const __m512i s =
        _mm512_loadu_si512(reinterpret_cast<const void*>(src + i));
    const __m512i d =
        _mm512_loadu_si512(reinterpret_cast<const void*>(dst + i));
    _mm512_storeu_si512(reinterpret_cast<void*>(dst + i),
                        _mm512_xor_si512(d, mul64(s, lo, hi, mask)));
  }
  if (i < n) {
    const std::uint8_t* row = product_tables()[c];
    for (; i < n; ++i) dst[i] ^= row[src[i]];
  }
}

void mul_region_multi_avx512(const std::uint8_t* coeffs, std::size_t k,
                             const std::uint8_t* const* srcs,
                             std::uint8_t* dst, std::size_t n,
                             bool accumulate) {
  const __m512i mask = _mm512_set1_epi8(0x0F);
  std::size_t i = 0;
  // 256-byte blocks: accumulate every source in 4 zmm registers, write the
  // destination once per block. Table broadcasts amortize over the block.
  for (; i + 256 <= n; i += 256) {
    __m512i acc[4];
    if (accumulate) {
      for (int v = 0; v < 4; ++v) {
        acc[v] = _mm512_loadu_si512(
            reinterpret_cast<const void*>(dst + i + 64 * std::size_t(v)));
      }
    } else {
      for (auto& a : acc) a = _mm512_setzero_si512();
    }
    for (std::size_t s = 0; s < k; ++s) {
      const std::uint8_t c = coeffs[s];
      if (c == 0) continue;
      const std::uint8_t* in = srcs[s] + i;
      if (c == 1) {  // pure XOR lane
        for (int v = 0; v < 4; ++v) {
          acc[v] = _mm512_xor_si512(
              acc[v], _mm512_loadu_si512(reinterpret_cast<const void*>(
                          in + 64 * std::size_t(v))));
        }
        continue;
      }
      const SplitTable& t = split_tables()[c];
      const __m512i lo = broadcast_table(t.lo);
      const __m512i hi = broadcast_table(t.hi);
      for (int v = 0; v < 4; ++v) {
        const __m512i sv = _mm512_loadu_si512(
            reinterpret_cast<const void*>(in + 64 * std::size_t(v)));
        acc[v] = _mm512_xor_si512(acc[v], mul64(sv, lo, hi, mask));
      }
    }
    for (int v = 0; v < 4; ++v) {
      _mm512_storeu_si512(
          reinterpret_cast<void*>(dst + i + 64 * std::size_t(v)), acc[v]);
    }
  }
  if (i < n) {
    // Sub-block tail (< 256 bytes): finish each byte before storing it, so
    // a source that aliases dst exactly is read before it is overwritten.
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

// Fingerprint fold, split-nibble: a pass holds four lanes in 16
// accumulators and walks every chunk once, taking each vector's nibbles
// once for the four lanes; two passes cover the eight lanes. The
// three-way XOR (vpternlogq 0x96) adds both lookups in one op. The
// fixed-count loops are unrolled so the accumulators stay in registers
// (GCC at -O2 keeps them in memory).
void fold_chunks_avx512(const std::uint64_t* coeffs, std::size_t count,
                        const std::uint8_t* data, std::uint8_t* lanes) {
  const SplitTable* tables = split_tables();
  const __m512i mask = _mm512_set1_epi8(0x0F);
  for (std::size_t g = 0; g < 8; g += 4) {
    std::uint8_t* out = lanes + 256 * g;
    __m512i acc[4][4];
    #pragma GCC unroll 4
    for (int l = 0; l < 4; ++l) {
      #pragma GCC unroll 4
      for (int v = 0; v < 4; ++v) {
        acc[l][v] = _mm512_loadu_si512(out + 256 * l + 64 * v);
      }
    }
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint8_t* chunk = data + 256 * i;
      __m512i lo[4], hi[4];
      #pragma GCC unroll 4
      for (int v = 0; v < 4; ++v) {
        const __m512i x = _mm512_loadu_si512(chunk + 64 * v);
        lo[v] = _mm512_and_si512(x, mask);
        hi[v] = _mm512_and_si512(_mm512_srli_epi64(x, 4), mask);
      }
      const std::uint64_t c = coeffs[i] >> (8 * g);
      #pragma GCC unroll 4
      for (int l = 0; l < 4; ++l) {
        const SplitTable& t = tables[(c >> (8 * l)) & 0xFF];
        const __m512i tlo = broadcast_table(t.lo);
        const __m512i thi = broadcast_table(t.hi);
        #pragma GCC unroll 4
        for (int v = 0; v < 4; ++v) {
          acc[l][v] = _mm512_ternarylogic_epi64(
              acc[l][v], _mm512_shuffle_epi8(tlo, lo[v]),
              _mm512_shuffle_epi8(thi, hi[v]), 0x96);
        }
      }
    }
    #pragma GCC unroll 4
    for (int l = 0; l < 4; ++l) {
      #pragma GCC unroll 4
      for (int v = 0; v < 4; ++v) {
        _mm512_storeu_si512(out + 256 * l + 64 * v, acc[l][v]);
      }
    }
  }
}

// GF(2^16) byte-planar kernel: straight port of the AVX2 version. vpshufb,
// vpunpck{l,h} and the deinterleave shuffle all operate per 128-bit lane on
// zmm exactly as on ymm, and the deinterleave/re-interleave pair is
// symmetric, so the lane scrambling cancels just like in the AVX2 tier.
void gf16_mul_region_add_avx512(const Gf16SplitTables& t, std::uint8_t* dst,
                                const std::uint8_t* src, std::size_t n) {
  const __m512i t0l = broadcast_table(t.t[0]);
  const __m512i t0h = broadcast_table(t.t[1]);
  const __m512i t1l = broadcast_table(t.t[2]);
  const __m512i t1h = broadcast_table(t.t[3]);
  const __m512i t2l = broadcast_table(t.t[4]);
  const __m512i t2h = broadcast_table(t.t[5]);
  const __m512i t3l = broadcast_table(t.t[6]);
  const __m512i t3h = broadcast_table(t.t[7]);
  const __m512i mask = _mm512_set1_epi8(0x0F);
  const __m512i deint = _mm512_broadcast_i32x4(
      _mm_setr_epi8(0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7, 9, 11, 13, 15));
  // One 128-byte block: s0/s1 in, the byte-planar products r0/r1 out, with
  // output byte j corresponding to input byte j.
  const auto block = [&](__m512i s0, __m512i s1, __m512i& r0, __m512i& r1) {
    const __m512i p0 = _mm512_shuffle_epi8(s0, deint);
    const __m512i p1 = _mm512_shuffle_epi8(s1, deint);
    const __m512i lob = _mm512_unpacklo_epi64(p0, p1);
    const __m512i hib = _mm512_unpackhi_epi64(p0, p1);
    const __m512i n0 = _mm512_and_si512(lob, mask);
    const __m512i n1 = _mm512_and_si512(_mm512_srli_epi64(lob, 4), mask);
    const __m512i n2 = _mm512_and_si512(hib, mask);
    const __m512i n3 = _mm512_and_si512(_mm512_srli_epi64(hib, 4), mask);
    __m512i outl = _mm512_shuffle_epi8(t0l, n0);
    __m512i outh = _mm512_shuffle_epi8(t0h, n0);
    outl = _mm512_xor_si512(outl, _mm512_shuffle_epi8(t1l, n1));
    outh = _mm512_xor_si512(outh, _mm512_shuffle_epi8(t1h, n1));
    outl = _mm512_xor_si512(outl, _mm512_shuffle_epi8(t2l, n2));
    outh = _mm512_xor_si512(outh, _mm512_shuffle_epi8(t2h, n2));
    outl = _mm512_xor_si512(outl, _mm512_shuffle_epi8(t3l, n3));
    outh = _mm512_xor_si512(outh, _mm512_shuffle_epi8(t3h, n3));
    r0 = _mm512_unpacklo_epi8(outl, outh);
    r1 = _mm512_unpackhi_epi8(outl, outh);
  };
  std::size_t i = 0;
  for (; i + 128 <= n; i += 128) {
    __m512i r0, r1;
    block(_mm512_loadu_si512(reinterpret_cast<const void*>(src + i)),
          _mm512_loadu_si512(reinterpret_cast<const void*>(src + i + 64)),
          r0, r1);
    const __m512i d0 =
        _mm512_loadu_si512(reinterpret_cast<const void*>(dst + i));
    const __m512i d1 =
        _mm512_loadu_si512(reinterpret_cast<const void*>(dst + i + 64));
    _mm512_storeu_si512(reinterpret_cast<void*>(dst + i),
                        _mm512_xor_si512(d0, r0));
    _mm512_storeu_si512(reinterpret_cast<void*>(dst + i + 64),
                        _mm512_xor_si512(d1, r1));
  }
  // Masked epilogue for the sub-block tail (whole u16 words only; a stray
  // trailing byte is left untouched, as in the scalar tiers). Every split
  // table maps nibble 0 to 0, so the zero-filled lanes of the maskz loads
  // contribute nothing and the masked stores never touch bytes past the
  // region.
  const std::size_t r = (n - i) & ~std::size_t{1};
  if (r != 0) {
    const __mmask64 m0 =
        r >= 64 ? ~__mmask64{0}
                : _cvtu64_mask64((std::uint64_t{1} << r) - 1);
    const __mmask64 m1 =
        r <= 64 ? 0 : _cvtu64_mask64((std::uint64_t{1} << (r - 64)) - 1);
    __m512i r0, r1;
    block(_mm512_maskz_loadu_epi8(m0, src + i),
          _mm512_maskz_loadu_epi8(m1, src + i + 64), r0, r1);
    const __m512i d0 = _mm512_maskz_loadu_epi8(m0, dst + i);
    const __m512i d1 = _mm512_maskz_loadu_epi8(m1, dst + i + 64);
    _mm512_mask_storeu_epi8(dst + i, m0, _mm512_xor_si512(d0, r0));
    _mm512_mask_storeu_epi8(dst + i + 64, m1, _mm512_xor_si512(d1, r1));
  }
}

// ---- gfni tier: vgf2p8affineqb ----------------------------------------

// c * v for 64 bytes in one instruction; m is the broadcast 8x8 bit matrix.
inline __m512i gfmul64(__m512i v, __m512i m) {
  return _mm512_gf2p8affine_epi64_epi8(v, m, 0);
}

void mul_region_add_gfni(std::uint8_t c, std::uint8_t* dst,
                         const std::uint8_t* src, std::size_t n) {
  const __m512i m =
      _mm512_set1_epi64(static_cast<long long>(gfni_matrices()[c]));
  std::size_t i = 0;
  for (; i + 256 <= n; i += 256) {
    for (std::size_t v = 0; v < 256; v += 64) {
      const __m512i s =
          _mm512_loadu_si512(reinterpret_cast<const void*>(src + i + v));
      const __m512i d =
          _mm512_loadu_si512(reinterpret_cast<const void*>(dst + i + v));
      _mm512_storeu_si512(reinterpret_cast<void*>(dst + i + v),
                          _mm512_xor_si512(d, gfmul64(s, m)));
    }
  }
  for (; i + 64 <= n; i += 64) {
    const __m512i s =
        _mm512_loadu_si512(reinterpret_cast<const void*>(src + i));
    const __m512i d =
        _mm512_loadu_si512(reinterpret_cast<const void*>(dst + i));
    _mm512_storeu_si512(reinterpret_cast<void*>(dst + i),
                        _mm512_xor_si512(d, gfmul64(s, m)));
  }
  if (i < n) {
    // Masked epilogue: the affine op is lane-wise, so a partial vector is
    // safe under a store mask.
    const __mmask64 mk = _cvtu64_mask64(~std::uint64_t{0} >> (64 - (n - i)));
    const __m512i s = _mm512_maskz_loadu_epi8(mk, src + i);
    const __m512i d = _mm512_maskz_loadu_epi8(mk, dst + i);
    _mm512_mask_storeu_epi8(dst + i, mk, _mm512_xor_si512(d, gfmul64(s, m)));
  }
}

void mul_region_multi_gfni(const std::uint8_t* coeffs, std::size_t k,
                           const std::uint8_t* const* srcs, std::uint8_t* dst,
                           std::size_t n, bool accumulate) {
  const std::uint64_t* mats = gfni_matrices();
  std::size_t i = 0;
  for (; i + 256 <= n; i += 256) {
    __m512i acc[4];
    if (accumulate) {
      for (int v = 0; v < 4; ++v) {
        acc[v] = _mm512_loadu_si512(
            reinterpret_cast<const void*>(dst + i + 64 * std::size_t(v)));
      }
    } else {
      for (auto& a : acc) a = _mm512_setzero_si512();
    }
    for (std::size_t s = 0; s < k; ++s) {
      const std::uint8_t c = coeffs[s];
      if (c == 0) continue;
      const std::uint8_t* in = srcs[s] + i;
      if (c == 1) {  // pure XOR lane
        for (int v = 0; v < 4; ++v) {
          acc[v] = _mm512_xor_si512(
              acc[v], _mm512_loadu_si512(reinterpret_cast<const void*>(
                          in + 64 * std::size_t(v))));
        }
        continue;
      }
      const __m512i m = _mm512_set1_epi64(static_cast<long long>(mats[c]));
      for (int v = 0; v < 4; ++v) {
        const __m512i sv = _mm512_loadu_si512(
            reinterpret_cast<const void*>(in + 64 * std::size_t(v)));
        acc[v] = _mm512_xor_si512(acc[v], gfmul64(sv, m));
      }
    }
    for (int v = 0; v < 4; ++v) {
      _mm512_storeu_si512(
          reinterpret_cast<void*>(dst + i + 64 * std::size_t(v)), acc[v]);
    }
  }
  if (i < n) {
    // Byte-at-a-time tail keeps the exact-aliasing contract (see the avx512
    // variant above).
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

// Fingerprint fold: a pass holds four lanes in 16 accumulators and walks
// every chunk once, one affine op per lane and vector; two passes cover the
// eight lanes, so a chunk is loaded twice instead of eight times. A zero
// coefficient byte selects the zero matrix, so no lane needs a branch.
// Unrolled like the avx512 fold above.
void fold_chunks_gfni(const std::uint64_t* coeffs, std::size_t count,
                      const std::uint8_t* data, std::uint8_t* lanes) {
  const std::uint64_t* mats = gfni_matrices();
  for (std::size_t g = 0; g < 8; g += 4) {
    std::uint8_t* out = lanes + 256 * g;
    __m512i acc[4][4];
    #pragma GCC unroll 4
    for (int l = 0; l < 4; ++l) {
      #pragma GCC unroll 4
      for (int v = 0; v < 4; ++v) {
        acc[l][v] = _mm512_loadu_si512(out + 256 * l + 64 * v);
      }
    }
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint8_t* chunk = data + 256 * i;
      __m512i x[4];
      #pragma GCC unroll 4
      for (int v = 0; v < 4; ++v) x[v] = _mm512_loadu_si512(chunk + 64 * v);
      const std::uint64_t c = coeffs[i] >> (8 * g);
      #pragma GCC unroll 4
      for (int l = 0; l < 4; ++l) {
        const __m512i m = _mm512_set1_epi64(
            static_cast<long long>(mats[(c >> (8 * l)) & 0xFF]));
        #pragma GCC unroll 4
        for (int v = 0; v < 4; ++v) {
          acc[l][v] = _mm512_xor_si512(acc[l][v], gfmul64(x[v], m));
        }
      }
    }
    #pragma GCC unroll 4
    for (int l = 0; l < 4; ++l) {
      #pragma GCC unroll 4
      for (int v = 0; v < 4; ++v) {
        _mm512_storeu_si512(out + 256 * l + 64 * v, acc[l][v]);
      }
    }
  }
}

}  // namespace

const Kernels& avx512_kernels() {
  static constexpr Kernels k{
      "avx512",          xor_region_avx512,      mul_region_add_avx512,
      mul_region_multi_avx512, gf16_mul_region_add_avx512, fold_chunks_avx512,
  };
  return k;
}

const Kernels& gfni_kernels() {
  // GF(2^16) has no affine form here (a 16-bit constant multiply would need
  // a 2x2 block matrix the split tables don't carry); reuse the
  // vpshufb-on-zmm planar kernel, which any GFNI-capable CPU also supports.
  static constexpr Kernels k{
      "gfni",          xor_region_avx512,      mul_region_add_gfni,
      mul_region_multi_gfni, gf16_mul_region_add_avx512, fold_chunks_gfni,
  };
  return k;
}

bool avx512_tu_compiled() noexcept { return true; }

}  // namespace rpr::gf::detail

#else  // compiler lacks AVX-512BW/VL or GFNI codegen support

namespace rpr::gf::detail {

// Stubs keep the link closed; tier_supported() consults
// avx512_tu_compiled() before ever offering these tiers, so the scalar
// tables below are unreachable through dispatch.
const Kernels& avx512_kernels() { return scalar_kernels(); }
const Kernels& gfni_kernels() { return scalar_kernels(); }
bool avx512_tu_compiled() noexcept { return false; }

}  // namespace rpr::gf::detail

#endif  // AVX-512 + GFNI codegen

#endif  // x86
