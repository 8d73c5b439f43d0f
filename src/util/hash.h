// FNV-1a 64-bit hashing, kept where a format fixes it: the archive
// manifest's per-block checksums on disk and the golden tables' digests.
// Storage verifies blocks with gf::fingerprint (gf/fingerprint.h) instead:
// GF-linear and computed at region-kernel speed, where FNV-1a is
// byte-serial.
#pragma once

#include <cstdint>
#include <span>

namespace rpr::util {

inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnv1aPrime = 0x100000001b3ULL;

[[nodiscard]] constexpr std::uint64_t fnv1a64(
    std::span<const std::uint8_t> bytes) noexcept {
  std::uint64_t hash = kFnv1aOffset;
  for (const std::uint8_t b : bytes) {
    hash ^= b;
    hash *= kFnv1aPrime;
  }
  return hash;
}

}  // namespace rpr::util
