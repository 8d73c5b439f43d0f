#include "gf/fingerprint.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <mutex>
#include <stdexcept>

#include "gf/gf256.h"
#include "gf/gf_kernels.h"
#include "gf/gf_region.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace rpr::gf {

namespace {

constexpr std::uint64_t kKey = 0x5250522D46503031ULL;  // "RPR-FP01"
// The one chunk index whose coefficients are all zero (splitmix64's mixer
// maps only 0 to 0) lies beyond the last chunk of any block.
static_assert(0 - kKey - 0x9e3779b97f4a7c15ULL >= (std::uint64_t{1} << 56));

constexpr std::size_t kChunk = kFingerprintChunk;
// Chunks folded per kernel call: the passes over a segment re-read it, so
// it is sized (32 KiB) to stay in L1 between them. It is also the tile a
// fingerprinted copy writes before folding it.
constexpr std::size_t kSegmentChunks = 128;
// Smallest run of chunks worth a pool shard (128 KiB).
constexpr std::size_t kShardChunks = (128 << 10) / kChunk;

std::uint64_t coefficients(std::size_t chunk) noexcept {
  return util::SplitMix64(kKey + chunk).next();
}

std::uint8_t lane_byte(std::uint64_t coeffs, std::size_t lane) noexcept {
  return static_cast<std::uint8_t>(coeffs >> (8 * lane));
}

/// lanes ^= Σ_{i < count} c_{L,first+i} · chunk i of `data`: `data` holds
/// chunks first .. first + count - 1 of the block. One kernel call per
/// segment; a tier without a one-pass fold takes one mul_region_multi
/// pass per lane instead.
void fold_chunks(const std::uint8_t* data, std::size_t first,
                 std::size_t count, std::uint8_t* lanes) {
  const detail::Kernels& k = detail::active_kernels();
  std::array<std::uint64_t, kSegmentChunks> coeffs;
  for (std::size_t s = 0; s < count; s += kSegmentChunks) {
    const std::size_t m = std::min(kSegmentChunks, count - s);
    for (std::size_t i = 0; i < m; ++i) coeffs[i] = coefficients(first + s + i);
    const std::uint8_t* segment = data + s * kChunk;
    if (k.fold_chunks != nullptr) {
      k.fold_chunks(coeffs.data(), m, segment, lanes);
      continue;
    }
    std::array<std::uint8_t, kSegmentChunks> c;
    std::array<const std::uint8_t*, kSegmentChunks> srcs;
    for (std::size_t i = 0; i < m; ++i) srcs[i] = segment + i * kChunk;
    for (std::size_t l = 0; l < kFingerprintLanes; ++l) {
      for (std::size_t i = 0; i < m; ++i) c[i] = lane_byte(coeffs[i], l);
      k.mul_region_multi(c.data(), m, srcs.data(), lanes + l * kChunk, kChunk,
                         /*accumulate=*/true);
    }
  }
}

/// The fingerprint of `bytes`, sharded over the shared pool; each shard
/// folds into private lanes that are XORed together. With `copy`, each
/// tile of `bytes` is first copied to the same offset of `copy` and the
/// copy is folded, while it is still in L1.
Fingerprint fold_pooled(std::span<const std::uint8_t> bytes,
                        std::uint8_t* copy) {
  Fingerprint fp;
  std::mutex mu;  // guards fp.lanes while shards XOR their partial lanes in
  fp.length = bytes.size();
  const std::size_t chunks = (bytes.size() + kChunk - 1) / kChunk;
  util::ThreadPool::shared().parallel_for(
      chunks, kSegmentChunks, kShardChunks, [&](std::size_t b, std::size_t e) {
        Fingerprint part;
        for (std::size_t c = b; c < e; c += kSegmentChunks) {
          const std::size_t off = c * kChunk;
          const std::size_t len =
              std::min(std::min(e, c + kSegmentChunks) * kChunk,
                       bytes.size()) -
              off;
          const std::uint8_t* tile = bytes.data() + off;
          if (copy != nullptr) {
            std::memcpy(copy + off, tile, len);
            tile = copy + off;
          }
          fold(part, {tile, len}, c);
        }
        const std::scoped_lock lock(mu);
        xor_region(fp.lanes, part.lanes);
      });
  return fp;
}

}  // namespace

void fold(Fingerprint& fp, std::span<const std::uint8_t> bytes,
          std::size_t first_chunk) {
  const std::size_t full = bytes.size() / kChunk;
  fold_chunks(bytes.data(), first_chunk, full, fp.lanes.data());
  if (const std::size_t tail = bytes.size() % kChunk; tail != 0) {
    std::array<std::uint8_t, kChunk> padded{};
    std::copy_n(bytes.data() + full * kChunk, tail, padded.data());
    fold_chunks(padded.data(), first_chunk + full, 1, fp.lanes.data());
  }
}

Fingerprint fingerprint(std::span<const std::uint8_t> bytes) {
  return fold_pooled(bytes, nullptr);
}

Fingerprint fingerprint_copy(std::span<std::uint8_t> dst,
                             std::span<const std::uint8_t> src) {
  if (dst.size() != src.size()) {
    throw std::invalid_argument("fingerprint_copy: sizes differ");
  }
  return fold_pooled(src, dst.data());
}

namespace ref {

void fold(Fingerprint& fp, std::span<const std::uint8_t> bytes,
          std::size_t first_chunk) {
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    const std::uint64_t c = coefficients(first_chunk + i / kChunk);
    for (std::size_t l = 0; l < kFingerprintLanes; ++l) {
      fp.lanes[l * kChunk + i % kChunk] ^= mul(lane_byte(c, l), bytes[i]);
    }
  }
}

Fingerprint fingerprint(std::span<const std::uint8_t> bytes) {
  Fingerprint fp;
  fp.length = bytes.size();
  ref::fold(fp, bytes, 0);
  return fp;
}

}  // namespace ref

}  // namespace rpr::gf
