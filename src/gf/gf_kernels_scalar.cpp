// Scalar (portable) region kernels — the dispatch fallback on hardware
// without byte-shuffle SIMD, and the RPR_GF_FORCE=scalar reference tier.
//
// Unlike the pre-dispatch code these never build tables per call: the
// single-coefficient path indexes one 256-byte row of the shared product
// table (L1-resident), and the multi-source path walks the destination in
// L1-sized chunks so each dst cache line is written once per chunk sweep
// rather than streamed through memory once per source.
#include <cstring>

#include "gf/gf_kernels.h"

namespace rpr::gf::detail {

namespace {

void xor_region_scalar(std::uint8_t* dst, const std::uint8_t* src,
                       std::size_t n) {
  std::size_t i = 0;
  // Word-wide main loop. memcpy keeps this strict-aliasing clean; the
  // compiler lowers it to plain loads/stores.
  for (; i + sizeof(std::uint64_t) <= n; i += sizeof(std::uint64_t)) {
    std::uint64_t a, b;
    std::memcpy(&a, dst + i, sizeof(a));
    std::memcpy(&b, src + i, sizeof(b));
    a ^= b;
    std::memcpy(dst + i, &a, sizeof(a));
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

void mul_region_add_scalar(std::uint8_t c, std::uint8_t* dst,
                           const std::uint8_t* src, std::size_t n) {
  const std::uint8_t* row = product_tables()[c];
  std::size_t i = 0;
  // Unroll by 4 to give the scalar pipeline some ILP between dependent
  // table loads.
  for (; i + 4 <= n; i += 4) {
    dst[i] ^= row[src[i]];
    dst[i + 1] ^= row[src[i + 1]];
    dst[i + 2] ^= row[src[i + 2]];
    dst[i + 3] ^= row[src[i + 3]];
  }
  for (; i < n; ++i) dst[i] ^= row[src[i]];
}

// Chunk size for the fused loop: small enough that the destination chunk
// stays in L1 across all source sweeps, large enough to amortize loop
// overhead.
constexpr std::size_t kFuseChunk = 4096;

void mul_region_multi_scalar(const std::uint8_t* coeffs, std::size_t k,
                             const std::uint8_t* const* srcs,
                             std::uint8_t* dst, std::size_t n,
                             bool accumulate) {
  for (std::size_t off = 0; off < n; off += kFuseChunk) {
    const std::size_t len = n - off < kFuseChunk ? n - off : kFuseChunk;
    std::uint8_t* d = dst + off;
    bool live = accumulate;
    for (std::size_t s = 0; s < k; ++s) {
      const std::uint8_t c = coeffs[s];
      if (c == 0) continue;
      const std::uint8_t* in = srcs[s] + off;
      if (!live) {
        if (c == 1) {
          std::memcpy(d, in, len);
        } else {
          const std::uint8_t* row = product_tables()[c];
          for (std::size_t i = 0; i < len; ++i) d[i] = row[in[i]];
        }
        live = true;
      } else if (c == 1) {
        xor_region_scalar(d, in, len);
      } else {
        mul_region_add_scalar(c, d, in, len);
      }
    }
    if (!live) std::memset(d, 0, len);
  }
}

}  // namespace

const Kernels& scalar_kernels() {
  static constexpr Kernels k{
      "scalar",          xor_region_scalar,      mul_region_add_scalar,
      mul_region_multi_scalar, /*gf16_mul_region_add=*/nullptr,
      /*fold_chunks=*/nullptr,
  };
  return k;
}

}  // namespace rpr::gf::detail
