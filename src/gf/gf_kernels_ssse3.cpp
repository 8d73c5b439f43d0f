// SSSE3 region kernels: split-nibble GF(2^8) multiply via pshufb
// (16 parallel 4-bit table lookups per instruction), the technique used by
// ISA-L, Jerasure/GF-Complete and the YTsaurus erasure codecs.
//
// This TU is compiled with -mssse3; every function here is reached only
// through the dispatch table after the CPU has been verified to support
// SSSE3, so no code from this file may be called directly.
#if defined(__x86_64__) || defined(__i386__)

#include <tmmintrin.h>

#include <cstring>

#include "gf/gf_kernels.h"

namespace rpr::gf::detail {

namespace {

void xor_region_ssse3(std::uint8_t* dst, const std::uint8_t* src,
                      std::size_t n) {
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    for (std::size_t v = 0; v < 64; v += 16) {
      const __m128i a =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i + v));
      const __m128i b =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i + v));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i + v),
                       _mm_xor_si128(a, b));
    }
  }
  for (; i + 16 <= n; i += 16) {
    const __m128i a =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    const __m128i b =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_xor_si128(a, b));
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

// c * v for 16 bytes: two pshufb lookups on the coefficient's nibble tables.
inline __m128i mul16(__m128i v, __m128i lo, __m128i hi, __m128i mask) {
  const __m128i l = _mm_shuffle_epi8(lo, _mm_and_si128(v, mask));
  const __m128i h =
      _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi64(v, 4), mask));
  return _mm_xor_si128(l, h);
}

void mul_region_add_ssse3(std::uint8_t c, std::uint8_t* dst,
                          const std::uint8_t* src, std::size_t n) {
  const SplitTable& t = split_tables()[c];
  const __m128i lo = _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo));
  const __m128i hi = _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi));
  const __m128i mask = _mm_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i s =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i d =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_xor_si128(d, mul16(s, lo, hi, mask)));
  }
  if (i < n) {
    const std::uint8_t* row = product_tables()[c];
    for (; i < n; ++i) dst[i] ^= row[src[i]];
  }
}

void mul_region_multi_ssse3(const std::uint8_t* coeffs, std::size_t k,
                            const std::uint8_t* const* srcs, std::uint8_t* dst,
                            std::size_t n, bool accumulate) {
  const __m128i mask = _mm_set1_epi8(0x0F);
  std::size_t i = 0;
  // 64-byte blocks: accumulate all sources in registers, store dst once.
  for (; i + 64 <= n; i += 64) {
    __m128i acc[4];
    if (accumulate) {
      for (int v = 0; v < 4; ++v) {
        acc[v] = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(dst + i + 16 * std::size_t(v)));
      }
    } else {
      for (auto& a : acc) a = _mm_setzero_si128();
    }
    for (std::size_t s = 0; s < k; ++s) {
      const std::uint8_t c = coeffs[s];
      if (c == 0) continue;
      const std::uint8_t* in = srcs[s] + i;
      if (c == 1) {  // pure XOR lane: no table lookups needed
        for (int v = 0; v < 4; ++v) {
          acc[v] = _mm_xor_si128(
              acc[v], _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                          in + 16 * std::size_t(v))));
        }
        continue;
      }
      const SplitTable& t = split_tables()[c];
      const __m128i lo =
          _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo));
      const __m128i hi =
          _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi));
      for (int v = 0; v < 4; ++v) {
        const __m128i sv = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(in + 16 * std::size_t(v)));
        acc[v] = _mm_xor_si128(acc[v], mul16(sv, lo, hi, mask));
      }
    }
    for (int v = 0; v < 4; ++v) {
      _mm_storeu_si128(
          reinterpret_cast<__m128i*>(dst + i + 16 * std::size_t(v)), acc[v]);
    }
  }
  if (i < n) {
    // Sub-vector tail (< 64 bytes): finish each byte before storing it, so
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

void gf16_mul_region_add_ssse3(const Gf16SplitTables& t, std::uint8_t* dst,
                               const std::uint8_t* src, std::size_t n) {
  const __m128i t0l = _mm_load_si128(reinterpret_cast<const __m128i*>(t.t[0]));
  const __m128i t0h = _mm_load_si128(reinterpret_cast<const __m128i*>(t.t[1]));
  const __m128i t1l = _mm_load_si128(reinterpret_cast<const __m128i*>(t.t[2]));
  const __m128i t1h = _mm_load_si128(reinterpret_cast<const __m128i*>(t.t[3]));
  const __m128i t2l = _mm_load_si128(reinterpret_cast<const __m128i*>(t.t[4]));
  const __m128i t2h = _mm_load_si128(reinterpret_cast<const __m128i*>(t.t[5]));
  const __m128i t3l = _mm_load_si128(reinterpret_cast<const __m128i*>(t.t[6]));
  const __m128i t3h = _mm_load_si128(reinterpret_cast<const __m128i*>(t.t[7]));
  const __m128i mask = _mm_set1_epi8(0x0F);
  // Deinterleave mask: gather the low bytes of 8 LE uint16 elements into
  // the low half and the high bytes into the high half.
  const __m128i deint = _mm_setr_epi8(0, 2, 4, 6, 8, 10, 12, 14,  //
                                      1, 3, 5, 7, 9, 11, 13, 15);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m128i s0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i s1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i + 16));
    const __m128i p0 = _mm_shuffle_epi8(s0, deint);
    const __m128i p1 = _mm_shuffle_epi8(s1, deint);
    const __m128i lob = _mm_unpacklo_epi64(p0, p1);  // low bytes, 16 elems
    const __m128i hib = _mm_unpackhi_epi64(p0, p1);  // high bytes
    const __m128i n0 = _mm_and_si128(lob, mask);
    const __m128i n1 = _mm_and_si128(_mm_srli_epi64(lob, 4), mask);
    const __m128i n2 = _mm_and_si128(hib, mask);
    const __m128i n3 = _mm_and_si128(_mm_srli_epi64(hib, 4), mask);
    __m128i outl = _mm_shuffle_epi8(t0l, n0);
    __m128i outh = _mm_shuffle_epi8(t0h, n0);
    outl = _mm_xor_si128(outl, _mm_shuffle_epi8(t1l, n1));
    outh = _mm_xor_si128(outh, _mm_shuffle_epi8(t1h, n1));
    outl = _mm_xor_si128(outl, _mm_shuffle_epi8(t2l, n2));
    outh = _mm_xor_si128(outh, _mm_shuffle_epi8(t2h, n2));
    outl = _mm_xor_si128(outl, _mm_shuffle_epi8(t3l, n3));
    outh = _mm_xor_si128(outh, _mm_shuffle_epi8(t3h, n3));
    const __m128i r0 = _mm_unpacklo_epi8(outl, outh);  // elements 0..7
    const __m128i r1 = _mm_unpackhi_epi8(outl, outh);  // elements 8..15
    const __m128i d0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    const __m128i d1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i + 16));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_xor_si128(d0, r0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i + 16),
                     _mm_xor_si128(d1, r1));
  }
  // Element-wise tail (n is even, so whole elements remain).
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

const Kernels& ssse3_kernels() {
  static constexpr Kernels k{
      "ssse3",          xor_region_ssse3,      mul_region_add_ssse3,
      mul_region_multi_ssse3, gf16_mul_region_add_ssse3,
      /*fold_chunks=*/nullptr,
  };
  return k;
}

}  // namespace rpr::gf::detail

#endif  // x86
