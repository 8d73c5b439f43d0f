// Internal kernel interface for the GF region dispatch layer.
//
// Each instruction-set tier (scalar, SSSE3, AVX2, NEON, AVX-512, GFNI)
// provides one `Kernels` table of raw-pointer region primitives and the
// fingerprint fold. The public span API in gf_region.h selects a table
// once at startup (CPUID + the RPR_GF_FORCE override) and forwards through
// it; nothing outside src/gf includes this header.
//
// SIMD translation units are compiled with per-file ISA flags
// (-mssse3 / -mavx2), so they must contain *only* code reached through the
// dispatch pointer — no globals with dynamic initializers, no helpers
// callable from generic code. Shared lookup tables therefore live in
// gf_tables.cpp, which is compiled with the base ISA.
#pragma once

#include <cstddef>
#include <cstdint>

namespace rpr::gf::detail {

// Split-nibble tables for one GF(2^8) coefficient c: for a byte
// b = hi<<4 | lo,  c*b = lo_[lo] ^ hi_[hi]. This is the layout `pshufb` /
// `vpshufb` / NEON `tbl` consume directly (16-byte in-register lookup).
struct SplitTable {
  alignas(16) std::uint8_t lo[16];
  alignas(16) std::uint8_t hi[16];
};

/// All 256 coefficient split tables (8 KiB), built once on first use.
const SplitTable* split_tables();

/// Full 256x256 product table (64 KiB), row [c] = c * b for all b; built
/// once on first use. The scalar kernels index one L1-resident row per
/// region pass instead of rebuilding a per-call table (the pre-SIMD code
/// rebuilt 256 entries on every invocation).
const std::uint8_t (*product_tables())[256];

/// 256 8x8 GF(2) bit matrices (2 KiB), one per coefficient, in the operand
/// layout `vgf2p8affineqb` consumes: the affine transform with matrix [c]
/// computes c * b over this field's polynomial 0x11D for every byte lane.
/// (The instruction's fused-reduction sibling `vgf2p8mulb` is hardwired to
/// the AES polynomial 0x11B and is therefore useless here.) Built once on
/// first use.
const std::uint64_t* gfni_matrices();

// Split-nibble tables for one GF(2^16) coefficient, byte-planar layout:
// an element x = n3<<12 | n2<<8 | n1<<4 | n0 satisfies
//   c*x = T0[n0] ^ T1[n1] ^ T2[n2] ^ T3[n3]
// where each Tj holds 16 uint16 products. t[2*j] holds the low bytes of
// Tj and t[2*j+1] the high bytes, so every plane is a 16-byte shuffle
// table. gf65536.cpp builds them on demand and keeps them in a per-thread
// coefficient-keyed cache, so repeated region passes with the same
// coefficient (the coding-loop common case) skip the 64 field multiplies.
struct Gf16SplitTables {
  alignas(16) std::uint8_t t[8][16];
};

struct Kernels {
  const char* name;

  // dst ^= src.
  void (*xor_region)(std::uint8_t* dst, const std::uint8_t* src,
                     std::size_t n);

  // dst ^= c * src. Called with c >= 2 only (0/1 short-circuit upstream).
  void (*mul_region_add)(std::uint8_t c, std::uint8_t* dst,
                         const std::uint8_t* src, std::size_t n);

  // Fused multi-source kernel:
  //   accumulate ? dst ^= sum_i coeffs[i] * srcs[i]
  //              : dst  = sum_i coeffs[i] * srcs[i]
  // Writes each destination cache line once per call instead of once per
  // source. Coefficients may include 0 (skipped) and 1 (pure XOR lane).
  void (*mul_region_multi)(const std::uint8_t* coeffs, std::size_t k,
                           const std::uint8_t* const* srcs, std::uint8_t* dst,
                           std::size_t n, bool accumulate);

  // GF(2^16) region multiply-accumulate over little-endian 16-bit elements
  // (n bytes, n even): dst ^= c * src with c described by the split tables.
  // Null on tiers without a vector implementation; gf65536.cpp falls back
  // to its scalar split-table loop.
  void (*gf16_mul_region_add)(const Gf16SplitTables& t, std::uint8_t* dst,
                              const std::uint8_t* src, std::size_t n);

  // The fingerprint fold (fingerprint.h) over `count` contiguous 256-byte
  // chunks at `data`, any alignment: for each lane L = 0..7,
  //   lanes[256L, 256L + 256) ^= sum_i byte_L(coeffs[i]) * chunk_i
  // with byte_L(w) = (w >> 8L) & 0xFF. Each chunk is loaded once per group
  // of lanes held in registers, instead of once per lane. Null on tiers
  // without a one-pass version; fingerprint.cpp then folds lane by lane
  // through mul_region_multi.
  void (*fold_chunks)(const std::uint64_t* coeffs, std::size_t count,
                      const std::uint8_t* data, std::uint8_t* lanes);
};

/// The table the dispatcher currently routes through (selecting one on the
/// first call). Defined in gf_region.cpp.
const Kernels& active_kernels() noexcept;

const Kernels& scalar_kernels();
#if defined(__x86_64__) || defined(__i386__)
const Kernels& ssse3_kernels();
const Kernels& avx2_kernels();
const Kernels& avx512_kernels();
const Kernels& gfni_kernels();
/// Whether gf_kernels_avx512.cpp was actually built with AVX-512BW/VL+GFNI
/// codegen (the per-file flags require compiler support; without it the TU
/// compiles to stubs and the dispatcher must not offer these tiers).
bool avx512_tu_compiled() noexcept;
#endif
#if defined(__aarch64__)
const Kernels& neon_kernels();
#endif

}  // namespace rpr::gf::detail
