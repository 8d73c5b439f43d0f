// AVX2 region kernels: vpshufb split-nibble GF(2^8) multiply, 32 bytes per
// lookup pair. Same scheme as the SSSE3 tier with the 16-byte nibble tables
// broadcast to both 128-bit lanes.
//
// This TU is compiled with -mavx2; every function here is reached only
// through the dispatch table after CPUID has verified AVX2 support.
#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <cstring>

#include "gf/gf_kernels.h"

namespace rpr::gf::detail {

namespace {

void xor_region_avx2(std::uint8_t* dst, const std::uint8_t* src,
                     std::size_t n) {
  std::size_t i = 0;
  for (; i + 128 <= n; i += 128) {
    for (std::size_t v = 0; v < 128; v += 32) {
      const __m256i a =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i + v));
      const __m256i b =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + v));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + v),
                          _mm256_xor_si256(a, b));
    }
  }
  for (; i + 32 <= n; i += 32) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(a, b));
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

inline __m256i broadcast_table(const std::uint8_t* t16) {
  return _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t16)));
}

// c * v for 32 bytes: two vpshufb lookups on the broadcast nibble tables.
inline __m256i mul32(__m256i v, __m256i lo, __m256i hi, __m256i mask) {
  const __m256i l = _mm256_shuffle_epi8(lo, _mm256_and_si256(v, mask));
  const __m256i h = _mm256_shuffle_epi8(
      hi, _mm256_and_si256(_mm256_srli_epi64(v, 4), mask));
  return _mm256_xor_si256(l, h);
}

void mul_region_add_avx2(std::uint8_t c, std::uint8_t* dst,
                         const std::uint8_t* src, std::size_t n) {
  const SplitTable& t = split_tables()[c];
  const __m256i lo = broadcast_table(t.lo);
  const __m256i hi = broadcast_table(t.hi);
  const __m256i mask = _mm256_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m256i s0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i s1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 32));
    const __m256i d0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i d1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i + 32));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d0, mul32(s0, lo, hi, mask)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 32),
                        _mm256_xor_si256(d1, mul32(s1, lo, hi, mask)));
  }
  for (; i + 32 <= n; i += 32) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d, mul32(s, lo, hi, mask)));
  }
  if (i < n) {
    const std::uint8_t* row = product_tables()[c];
    for (; i < n; ++i) dst[i] ^= row[src[i]];
  }
}

void mul_region_multi_avx2(const std::uint8_t* coeffs, std::size_t k,
                           const std::uint8_t* const* srcs, std::uint8_t* dst,
                           std::size_t n, bool accumulate) {
  const __m256i mask = _mm256_set1_epi8(0x0F);
  std::size_t i = 0;
  // 128-byte blocks: accumulate every source in 4 ymm registers, write the
  // destination once per block. Table broadcasts amortize over the block.
  for (; i + 128 <= n; i += 128) {
    __m256i acc[4];
    if (accumulate) {
      for (int v = 0; v < 4; ++v) {
        acc[v] = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(dst + i + 32 * std::size_t(v)));
      }
    } else {
      for (auto& a : acc) a = _mm256_setzero_si256();
    }
    for (std::size_t s = 0; s < k; ++s) {
      const std::uint8_t c = coeffs[s];
      if (c == 0) continue;
      const std::uint8_t* in = srcs[s] + i;
      if (c == 1) {  // pure XOR lane
        for (int v = 0; v < 4; ++v) {
          acc[v] = _mm256_xor_si256(
              acc[v], _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                          in + 32 * std::size_t(v))));
        }
        continue;
      }
      const SplitTable& t = split_tables()[c];
      const __m256i lo = broadcast_table(t.lo);
      const __m256i hi = broadcast_table(t.hi);
      for (int v = 0; v < 4; ++v) {
        const __m256i sv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(in + 32 * std::size_t(v)));
        acc[v] = _mm256_xor_si256(acc[v], mul32(sv, lo, hi, mask));
      }
    }
    for (int v = 0; v < 4; ++v) {
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(dst + i + 32 * std::size_t(v)), acc[v]);
    }
  }
  if (i < n) {
    // Sub-block tail (< 128 bytes): finish each byte before storing it, so
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

// Fingerprint fold: eight ymm accumulators hold a 64-byte quarter of four
// lanes, so a pass walks every chunk once for that quarter, taking each
// vector's nibbles once for the four lanes; eight passes (two lane groups
// by four quarters) cover the lanes. The fixed-count loops are unrolled so
// the accumulators stay in registers (GCC at -O2 keeps them in memory).
void fold_chunks_avx2(const std::uint64_t* coeffs, std::size_t count,
                      const std::uint8_t* data, std::uint8_t* lanes) {
  const SplitTable* tables = split_tables();
  const __m256i mask = _mm256_set1_epi8(0x0F);
  for (std::size_t g = 0; g < 8; g += 4) {
    for (std::size_t q = 0; q < 256; q += 64) {
      std::uint8_t* out = lanes + 256 * g + q;
      __m256i acc[4][2];
      #pragma GCC unroll 4
      for (int l = 0; l < 4; ++l) {
        #pragma GCC unroll 2
        for (int v = 0; v < 2; ++v) {
          acc[l][v] = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(out + 256 * l + 32 * v));
        }
      }
      for (std::size_t i = 0; i < count; ++i) {
        const std::uint8_t* in = data + 256 * i + q;
        __m256i lo[2], hi[2];
        #pragma GCC unroll 2
        for (int v = 0; v < 2; ++v) {
          const __m256i x =
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + 32 * v));
          lo[v] = _mm256_and_si256(x, mask);
          hi[v] = _mm256_and_si256(_mm256_srli_epi64(x, 4), mask);
        }
        const std::uint64_t c = coeffs[i] >> (8 * g);
        #pragma GCC unroll 4
        for (int l = 0; l < 4; ++l) {
          const SplitTable& t = tables[(c >> (8 * l)) & 0xFF];
          const __m256i tlo = broadcast_table(t.lo);
          const __m256i thi = broadcast_table(t.hi);
          #pragma GCC unroll 2
          for (int v = 0; v < 2; ++v) {
            acc[l][v] = _mm256_xor_si256(
                acc[l][v], _mm256_xor_si256(_mm256_shuffle_epi8(tlo, lo[v]),
                                            _mm256_shuffle_epi8(thi, hi[v])));
          }
        }
      }
      #pragma GCC unroll 4
      for (int l = 0; l < 4; ++l) {
        #pragma GCC unroll 2
        for (int v = 0; v < 2; ++v) {
          _mm256_storeu_si256(
              reinterpret_cast<__m256i*>(out + 256 * l + 32 * v), acc[l][v]);
        }
      }
    }
  }
}

void gf16_mul_region_add_avx2(const Gf16SplitTables& t, std::uint8_t* dst,
                              const std::uint8_t* src, std::size_t n) {
  const __m256i t0l = broadcast_table(t.t[0]);
  const __m256i t0h = broadcast_table(t.t[1]);
  const __m256i t1l = broadcast_table(t.t[2]);
  const __m256i t1h = broadcast_table(t.t[3]);
  const __m256i t2l = broadcast_table(t.t[4]);
  const __m256i t2h = broadcast_table(t.t[5]);
  const __m256i t3l = broadcast_table(t.t[6]);
  const __m256i t3h = broadcast_table(t.t[7]);
  const __m256i mask = _mm256_set1_epi8(0x0F);
  // Per-lane deinterleave of LE uint16 elements; the lane scrambling it
  // introduces is undone symmetrically by the per-lane re-interleave below.
  const __m256i deint = _mm256_broadcastsi128_si256(
      _mm_setr_epi8(0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7, 9, 11, 13, 15));
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m256i s0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i s1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 32));
    const __m256i p0 = _mm256_shuffle_epi8(s0, deint);
    const __m256i p1 = _mm256_shuffle_epi8(s1, deint);
    const __m256i lob = _mm256_unpacklo_epi64(p0, p1);
    const __m256i hib = _mm256_unpackhi_epi64(p0, p1);
    const __m256i n0 = _mm256_and_si256(lob, mask);
    const __m256i n1 = _mm256_and_si256(_mm256_srli_epi64(lob, 4), mask);
    const __m256i n2 = _mm256_and_si256(hib, mask);
    const __m256i n3 = _mm256_and_si256(_mm256_srli_epi64(hib, 4), mask);
    __m256i outl = _mm256_shuffle_epi8(t0l, n0);
    __m256i outh = _mm256_shuffle_epi8(t0h, n0);
    outl = _mm256_xor_si256(outl, _mm256_shuffle_epi8(t1l, n1));
    outh = _mm256_xor_si256(outh, _mm256_shuffle_epi8(t1h, n1));
    outl = _mm256_xor_si256(outl, _mm256_shuffle_epi8(t2l, n2));
    outh = _mm256_xor_si256(outh, _mm256_shuffle_epi8(t2h, n2));
    outl = _mm256_xor_si256(outl, _mm256_shuffle_epi8(t3l, n3));
    outh = _mm256_xor_si256(outh, _mm256_shuffle_epi8(t3h, n3));
    const __m256i r0 = _mm256_unpacklo_epi8(outl, outh);
    const __m256i r1 = _mm256_unpackhi_epi8(outl, outh);
    const __m256i d0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i d1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i + 32));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d0, r0));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 32),
                        _mm256_xor_si256(d1, r1));
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

const Kernels& avx2_kernels() {
  static constexpr Kernels k{
      "avx2",          xor_region_avx2,      mul_region_add_avx2,
      mul_region_multi_avx2, gf16_mul_region_add_avx2, fold_chunks_avx2,
  };
  return k;
}

}  // namespace rpr::gf::detail

#endif  // x86
