#include "gf/fingerprint.h"

#include <algorithm>
#include <array>
#include <mutex>

#include "gf/gf256.h"
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
// Chunks folded per kernel call: the eight lane passes re-read a segment,
// so it is sized (32 KiB) to stay in L1 between them.
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
/// chunks first .. first + count - 1 of the block.
void fold_chunks(const std::uint8_t* data, std::size_t first,
                 std::size_t count, std::uint8_t* lanes) {
  std::array<std::array<std::uint8_t, kSegmentChunks>, kFingerprintLanes> c;
  std::array<const std::uint8_t*, kSegmentChunks> srcs;
  for (std::size_t s = first; s < first + count; s += kSegmentChunks) {
    const std::size_t m = std::min(kSegmentChunks, first + count - s);
    for (std::size_t i = 0; i < m; ++i) {
      const std::uint64_t ci = coefficients(s + i);
      for (std::size_t l = 0; l < kFingerprintLanes; ++l) {
        c[l][i] = lane_byte(ci, l);
      }
      srcs[i] = data + (s - first + i) * kChunk;
    }
    for (std::size_t l = 0; l < kFingerprintLanes; ++l) {
      mul_region_add_multi({c[l].data(), m}, srcs.data(),
                           {lanes + l * kChunk, kChunk});
    }
  }
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
  Fingerprint fp;
  std::mutex mu;  // guards fp.lanes while shards XOR their partial lanes in
  fp.length = bytes.size();
  const std::size_t chunks = (bytes.size() + kChunk - 1) / kChunk;
  util::ThreadPool::shared().parallel_for(
      chunks, kSegmentChunks, kShardChunks, [&](std::size_t b, std::size_t e) {
        Fingerprint part;
        const std::size_t end = std::min(e * kChunk, bytes.size());
        fold(part, bytes.subspan(b * kChunk, end - b * kChunk), b);
        const std::scoped_lock lock(mu);
        xor_region(fp.lanes, part.lanes);
      });
  return fp;
}

namespace ref {

Fingerprint fingerprint(std::span<const std::uint8_t> bytes) {
  Fingerprint fp;
  fp.length = bytes.size();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    const std::uint64_t c = coefficients(i / kChunk);
    for (std::size_t l = 0; l < kFingerprintLanes; ++l) {
      fp.lanes[l * kChunk + i % kChunk] ^= mul(lane_byte(c, l), bytes[i]);
    }
  }
  return fp;
}

}  // namespace ref

}  // namespace rpr::gf
