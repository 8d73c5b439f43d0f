// Dispatch front-end for the GF region kernels.
//
// Tier selection happens once, on the first region operation: probe the CPU
// (via __builtin_cpu_supports on x86; AdvSIMD is unconditional on AArch64),
// then honor an RPR_GF_FORCE=scalar|ssse3|avx2|neon|avx512|gfni override if
// it names a supported tier. After that every call is one relaxed atomic load plus an
// indirect call — negligible against block-sized region passes.
#include "gf/gf_region.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "gf/gf256.h"
#include "gf/gf_kernels.h"
#include "util/thread_pool.h"

namespace rpr::gf {

namespace detail {

namespace {

const Kernels* kernels_for(SimdTier tier) noexcept {
  switch (tier) {
    case SimdTier::kScalar:
      return &scalar_kernels();
#if defined(__x86_64__) || defined(__i386__)
    case SimdTier::kSsse3:
      return &ssse3_kernels();
    case SimdTier::kAvx2:
      return &avx2_kernels();
    case SimdTier::kAvx512:
      return &avx512_kernels();
    case SimdTier::kGfni:
      return &gfni_kernels();
#endif
#if defined(__aarch64__)
    case SimdTier::kNeon:
      return &neon_kernels();
#endif
    default:
      return nullptr;
  }
}

// The active kernel table. Never null after init(); stores are release so a
// reader that observes the pointer also observes the tier value set with it.
std::atomic<const Kernels*> g_active{nullptr};
std::atomic<SimdTier> g_tier{SimdTier::kScalar};

void store_tier(SimdTier tier) noexcept {
  g_tier.store(tier, std::memory_order_relaxed);
  g_active.store(kernels_for(tier), std::memory_order_release);
}

const Kernels* init() noexcept {
  SimdTier tier = best_tier();
  if (const char* force = std::getenv("RPR_GF_FORCE")) {
    const auto parsed = parse_tier(force);
    if (!parsed.has_value()) {
      std::fprintf(stderr,
                   "rpr: ignoring unrecognized RPR_GF_FORCE=%s "
                   "(want scalar|ssse3|avx2|neon|avx512|gfni)\n",
                   force);
    } else if (!tier_supported(*parsed)) {
      std::fprintf(stderr,
                   "rpr: RPR_GF_FORCE=%s not supported on this CPU, using %s\n",
                   force, tier_name(tier));
    } else {
      tier = *parsed;
    }
  }
  store_tier(tier);
  return g_active.load(std::memory_order_relaxed);
}

}  // namespace

const Kernels& active_kernels() noexcept {
  const Kernels* k = g_active.load(std::memory_order_acquire);
  if (k == nullptr) k = init();
  return *k;
}

}  // namespace detail

SimdTier active_tier() noexcept {
  detail::active_kernels();  // ensure selection happened
  return detail::g_tier.load(std::memory_order_relaxed);
}

bool tier_supported(SimdTier tier) noexcept {
  switch (tier) {
    case SimdTier::kScalar:
      return true;
#if defined(__x86_64__) || defined(__i386__)
    case SimdTier::kSsse3:
      return __builtin_cpu_supports("ssse3") != 0;
    case SimdTier::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case SimdTier::kAvx512:
      // BW for byte shuffles/masks, VL because the TU freely mixes vector
      // widths; both gated on the TU actually carrying AVX-512 codegen.
      return detail::avx512_tu_compiled() &&
             __builtin_cpu_supports("avx512bw") != 0 &&
             __builtin_cpu_supports("avx512vl") != 0;
    case SimdTier::kGfni:
      return tier_supported(SimdTier::kAvx512) &&
             __builtin_cpu_supports("gfni") != 0;
    case SimdTier::kNeon:
      return false;
#elif defined(__aarch64__)
    case SimdTier::kNeon:
      return true;
    case SimdTier::kSsse3:
    case SimdTier::kAvx2:
    case SimdTier::kAvx512:
    case SimdTier::kGfni:
      return false;
#else
    default:
      return false;
#endif
  }
  return false;
}

SimdTier best_tier() noexcept {
#if defined(__aarch64__)
  return SimdTier::kNeon;
#else
  if (tier_supported(SimdTier::kGfni)) return SimdTier::kGfni;
  if (tier_supported(SimdTier::kAvx512)) return SimdTier::kAvx512;
  if (tier_supported(SimdTier::kAvx2)) return SimdTier::kAvx2;
  if (tier_supported(SimdTier::kSsse3)) return SimdTier::kSsse3;
  return SimdTier::kScalar;
#endif
}

std::vector<SimdTier> supported_tiers() {
  std::vector<SimdTier> tiers;
  for (SimdTier t : {SimdTier::kScalar, SimdTier::kSsse3, SimdTier::kAvx2,
                     SimdTier::kNeon, SimdTier::kAvx512, SimdTier::kGfni}) {
    if (tier_supported(t)) tiers.push_back(t);
  }
  return tiers;
}

bool set_tier(SimdTier tier) noexcept {
  if (!tier_supported(tier)) return false;
  detail::store_tier(tier);
  return true;
}

const char* tier_name(SimdTier tier) noexcept {
  switch (tier) {
    case SimdTier::kScalar:
      return "scalar";
    case SimdTier::kSsse3:
      return "ssse3";
    case SimdTier::kAvx2:
      return "avx2";
    case SimdTier::kNeon:
      return "neon";
    case SimdTier::kAvx512:
      return "avx512";
    case SimdTier::kGfni:
      return "gfni";
  }
  return "unknown";
}

std::optional<SimdTier> parse_tier(std::string_view spec) noexcept {
  if (spec == "scalar") return SimdTier::kScalar;
  if (spec == "ssse3") return SimdTier::kSsse3;
  if (spec == "avx2") return SimdTier::kAvx2;
  if (spec == "neon") return SimdTier::kNeon;
  if (spec == "avx512") return SimdTier::kAvx512;
  if (spec == "gfni") return SimdTier::kGfni;
  return std::nullopt;
}

void xor_region(std::span<std::uint8_t> dst,
                std::span<const std::uint8_t> src) {
  assert(dst.size() == src.size());
  detail::active_kernels().xor_region(dst.data(), src.data(), dst.size());
}

void mul_region(std::uint8_t c, std::span<std::uint8_t> dst,
                std::span<const std::uint8_t> src) {
  assert(dst.size() == src.size());
  if (dst.empty()) return;  // memset/memcpy take no null pointer, even for 0
  if (c == 0) {
    std::memset(dst.data(), 0, dst.size());
    return;
  }
  if (c == 1) {
    if (dst.data() != src.data()) {
      std::memcpy(dst.data(), src.data(), dst.size());
    }
    return;
  }
  const std::uint8_t* s = src.data();
  detail::active_kernels().mul_region_multi(&c, 1, &s, dst.data(), dst.size(),
                                            /*accumulate=*/false);
}

void mul_region_add(std::uint8_t c, std::span<std::uint8_t> dst,
                    std::span<const std::uint8_t> src) {
  assert(dst.size() == src.size());
  if (c == 0) return;
  if (c == 1) {
    xor_region(dst, src);
    return;
  }
  detail::active_kernels().mul_region_add(c, dst.data(), src.data(),
                                          dst.size());
}

void mul_region_add_general(std::uint8_t c, std::span<std::uint8_t> dst,
                            std::span<const std::uint8_t> src) {
  assert(dst.size() == src.size());
  if (c == 0) return;
  // Deliberately no c == 1 shortcut: this models the traditional decoder's
  // uniform multiply pass (still dispatched, so each tier pays its own
  // multiply cost rather than the XOR fast path's).
  detail::active_kernels().mul_region_add(c, dst.data(), src.data(),
                                          dst.size());
}

void mul_region_add_multi(std::span<const std::uint8_t> coeffs,
                          const std::uint8_t* const* srcs,
                          std::span<std::uint8_t> dst) {
  detail::active_kernels().mul_region_multi(coeffs.data(), coeffs.size(), srcs,
                                            dst.data(), dst.size(),
                                            /*accumulate=*/true);
}

void encode_regions(std::span<const std::uint8_t> matrix, std::size_t rows,
                    std::size_t cols, const std::uint8_t* const* srcs,
                    std::uint8_t* const* dsts, std::size_t len) {
  assert(matrix.size() >= rows * cols);
  const detail::Kernels& k = detail::active_kernels();
  for (std::size_t r = 0; r < rows; ++r) {
    k.mul_region_multi(matrix.data() + r * cols, cols, srcs, dsts[r], len,
                       /*accumulate=*/false);
  }
}

void encode_regions_pooled(std::span<const std::uint8_t> matrix,
                           std::size_t rows, std::size_t cols,
                           const std::uint8_t* const* srcs,
                           std::uint8_t* const* dsts, std::size_t len) {
  constexpr std::size_t kLine = 64;
  // Below this a shard's pool round-trip costs more than its GF work.
  constexpr std::size_t kMinShard = 256 << 10;
  constexpr std::size_t kTileSources = 256 << 10;
  util::ThreadPool::shared().parallel_for(
      len, kLine, kMinShard, [&](std::size_t b, std::size_t e) {
        const std::size_t tile = std::max<std::size_t>(
            4 << 10, kTileSources / std::max<std::size_t>(cols, 1) / kLine *
                         kLine);
        std::vector<const std::uint8_t*> s(cols);
        std::vector<std::uint8_t*> d(rows);
        for (std::size_t off = b; off < e; off += tile) {
          for (std::size_t c = 0; c < cols; ++c) s[c] = srcs[c] + off;
          for (std::size_t r = 0; r < rows; ++r) d[r] = dsts[r] + off;
          encode_regions(matrix, rows, cols, s.data(), d.data(),
                         std::min(tile, e - off));
        }
      });
}

namespace ref {

void xor_region(std::span<std::uint8_t> dst,
                std::span<const std::uint8_t> src) {
  assert(dst.size() == src.size());
  for (std::size_t i = 0; i < dst.size(); ++i) dst[i] ^= src[i];
}

void mul_region_add(std::uint8_t c, std::span<std::uint8_t> dst,
                    std::span<const std::uint8_t> src) {
  assert(dst.size() == src.size());
  for (std::size_t i = 0; i < dst.size(); ++i) dst[i] ^= mul(c, src[i]);
}

void mul_region_add_multi(std::span<const std::uint8_t> coeffs,
                          const std::uint8_t* const* srcs,
                          std::span<std::uint8_t> dst) {
  for (std::size_t s = 0; s < coeffs.size(); ++s) {
    for (std::size_t i = 0; i < dst.size(); ++i) {
      dst[i] ^= mul(coeffs[s], srcs[s][i]);
    }
  }
}

}  // namespace ref

}  // namespace rpr::gf
