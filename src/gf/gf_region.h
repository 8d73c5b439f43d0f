// Bulk (region) operations over GF(2^8) byte buffers.
//
// These are the hot kernels of the whole system: encoding, decoding and
// partial decoding are all of the form  dst ^= c * src  over block-sized
// buffers. The implementation is runtime-dispatched across instruction-set
// tiers, selected once at startup from CPUID (and overridable with the
// RPR_GF_FORCE environment variable or set_tier()):
//
//  * scalar — word-wide XOR plus cached 256-byte product-table rows; the
//    portable fallback and the reference cost model.
//  * ssse3 / avx2 — split-nibble `pshufb` / `vpshufb` kernels: each 16-byte
//    shuffle performs 16 parallel 4-bit table lookups, the technique used
//    by ISA-L, GF-Complete and production erasure codecs.
//  * neon — AArch64 `tbl`, the same scheme on ARM.
//  * avx512 — the split-nibble scheme on 64-byte vectors (`vpshufb` on zmm).
//  * gfni — `vgf2p8affineqb`: one affine instruction multiplies 64 bytes by
//    an arbitrary coefficient (as an 8x8 GF(2) bit matrix), replacing the
//    whole split-nibble dance. The instruction's built-in reduction is tied
//    to the AES polynomial 0x11B, not this field's 0x11D, so the affine
//    form (matrix per coefficient, 2 KiB table) is the usable one.
//
// Beyond the single-source kernels there are fused multi-source forms
// (`mul_region_add_multi`, `encode_regions`) that keep the destination in
// registers across all sources, writing each output cache line once per
// stripe instead of once per source — the shape ISA-L's ec_encode_data
// exposes, and what RS encode / repair aggregation call.
//
// The measured speed gap between the XOR path and the multiply path is what
// the paper reports as "optimized decoding ~2.5 s vs traditional decoding
// ~20 s" on EC2; the micro_decode benchmark regenerates that comparison.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

namespace rpr::gf {

/// Instruction-set tiers of the region kernels, in increasing preference.
enum class SimdTier : int {
  kScalar = 0,
  kSsse3 = 1,
  kAvx2 = 2,
  kNeon = 3,
  kAvx512 = 4,
  kGfni = 5,
};

/// The tier region operations currently dispatch to. First call selects it:
/// the best CPU-supported tier, unless RPR_GF_FORCE names another.
SimdTier active_tier() noexcept;

/// Best tier this CPU supports.
SimdTier best_tier() noexcept;

/// Whether this CPU can run the given tier (kScalar is always true).
bool tier_supported(SimdTier tier) noexcept;

/// All CPU-supported tiers, ascending (always starts with kScalar).
std::vector<SimdTier> supported_tiers();

/// Force dispatch to a tier (tests/benchmarks). Returns false — leaving the
/// active tier unchanged — if the CPU does not support it. Takes effect for
/// subsequent region calls; do not race it against in-flight kernels you
/// care to attribute to a specific tier.
bool set_tier(SimdTier tier) noexcept;

/// "scalar", "ssse3", "avx2", "neon", "avx512" or "gfni".
const char* tier_name(SimdTier tier) noexcept;

/// Parse a tier spec as accepted by RPR_GF_FORCE.
std::optional<SimdTier> parse_tier(std::string_view spec) noexcept;

/// dst ^= src, element-wise. Sizes must match.
void xor_region(std::span<std::uint8_t> dst, std::span<const std::uint8_t> src);

/// dst = c * src, element-wise (dst and src may alias exactly).
void mul_region(std::uint8_t c, std::span<std::uint8_t> dst,
                std::span<const std::uint8_t> src);

/// dst ^= c * src, element-wise. The fundamental encode/decode kernel.
/// c == 0 is a no-op; c == 1 degenerates to xor_region.
void mul_region_add(std::uint8_t c, std::span<std::uint8_t> dst,
                    std::span<const std::uint8_t> src);

/// Same as mul_region_add but always takes the multiply path, even for
/// c == 1 (c == 0 still short-circuits, matching how a generic decoder skips
/// zero entries of the decoding matrix). This is the cost model of an
/// *unoptimized* decode function — the "traditional decoding function" whose
/// ~4x slowdown the paper measures on EC2 (§5.2.1) — and is what the
/// threaded testbed charges for matrix-path decodes.
void mul_region_add_general(std::uint8_t c, std::span<std::uint8_t> dst,
                            std::span<const std::uint8_t> src);

/// Fused multi-source accumulate: dst ^= sum_i coeffs[i] * srcs[i], with
/// every source region coeffs.size() pointers long and dst.size() bytes.
/// Writes each destination cache line once instead of once per source.
/// Zero coefficients are skipped; unit coefficients take the XOR lane.
/// Sources must not alias dst (the destination is revisited per chunk, in
/// tier-specific order, while sources are still being read).
void mul_region_add_multi(std::span<const std::uint8_t> coeffs,
                          const std::uint8_t* const* srcs,
                          std::span<std::uint8_t> dst);

/// Fused matrix application (the ISA-L ec_encode_data shape):
///   dsts[r] = sum_j matrix[r*cols + j] * srcs[j]   for r in [0, rows)
/// over `len`-byte regions. Destinations are overwritten, not accumulated,
/// and must not alias any source.
void encode_regions(std::span<const std::uint8_t> matrix, std::size_t rows,
                    std::size_t cols, const std::uint8_t* const* srcs,
                    std::uint8_t* const* dsts, std::size_t len);

/// encode_regions over util::ThreadPool::shared(), the one pooled GF pass
/// (RS encode and decode, the data executor, the engines' combines).
/// Shards are 64-byte aligned and at least 256 KiB, so a pipelined slice
/// runs inline on its caller. Each shard walks its range in tiles of about
/// 256 KiB of sources (at least 4 KiB, a multiple of 64 B), so every row
/// reuses the tile's sources from cache. Bytes equal one encode_regions call.
void encode_regions_pooled(std::span<const std::uint8_t> matrix,
                           std::size_t rows, std::size_t cols,
                           const std::uint8_t* const* srcs,
                           std::uint8_t* const* dsts, std::size_t len);

/// Reference (scalar, obviously-correct) versions used by the test suite to
/// validate the optimized kernels.
namespace ref {
void xor_region(std::span<std::uint8_t> dst, std::span<const std::uint8_t> src);
void mul_region_add(std::uint8_t c, std::span<std::uint8_t> dst,
                    std::span<const std::uint8_t> src);
void mul_region_add_multi(std::span<const std::uint8_t> coeffs,
                          const std::uint8_t* const* srcs,
                          std::span<std::uint8_t> dst);
}  // namespace ref

}  // namespace rpr::gf
