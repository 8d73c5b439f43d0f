// GF(2^8)-linear block fingerprint: the storage layer's integrity digest.
//
// A block x of ℓ bytes is cut into m = ⌈ℓ/256⌉ chunks x_0 .. x_{m-1} of 256
// bytes (the tail chunk zero-padded). The fingerprint keeps ℓ and eight
// 256-byte lanes
//
//     F_L(x) = Σ_j c_{L,j} · x_j        L = 0..7, over GF(2^8) byte-wise,
//
// where c_{L,j} is byte L of splitmix64(K + j) for one fixed 64-bit key K.
// The fold is one dispatched kernel per run of up to 128 chunks (32 KiB),
// handed that run's coefficient words: it loads each chunk once per group
// of lanes it holds in registers (on gfni two groups of four, one affine
// op per lane and vector), and tiers without such a kernel fold lane by
// lane through `mul_region_add_multi`'s kernel. Every tier gives the same
// bytes (the kernels are exact field arithmetic). Long blocks are sharded
// across the shared thread pool; each shard folds its chunks into private
// lanes that are XORed together, so the pooled result is the serial one.
//
// Properties (homomorphic hashing after Krohn, Freedman & Mazières, IEEE
// S&P 2004, used here against random faults, not adversaries):
//
//  * Linearity. For equal-length x, y and a in GF(2^8),
//    fp(a·x ⊕ y) = a·fp(x) ⊕ fp(y): the chunks of a·x ⊕ y are a·x_j ⊕ y_j
//    (padding stays zero) and each lane is linear in the chunks.
//  * Single-chunk errors are always caught. A corruption x → x ⊕ e of equal
//    length is missed iff F_L(e) = 0 for every lane (a length change always
//    shows in ℓ). If e is nonzero in chunk j only, F_L(e) = c_{L,j}·e_j, so
//    the miss needs all eight c_{L,j} = 0, i.e. splitmix64(K + j) = 0. The
//    mixer maps only 0 to 0, which happens at j = −K − 0x9e3779b97f4a7c15
//    (mod 2^64) ≥ 2^56 — beyond the last chunk of any block. In particular
//    every single-byte change is detected.
//  * Miss bound 2^-64 for any error pattern that does not depend on the
//    key. Let the coefficient bytes be independent and uniform, and let
//    e ≠ 0 be fixed independently of them. Pick a chunk j* and a byte p with
//    δ = e_{j*}[p] ≠ 0. Byte p of F_L(e) is c_{L,j*}·δ ⊕ r_L, where r_L
//    depends only on the coefficients of the other chunks. Conditioned on
//    those, c_{L,j*}·δ is uniform (multiplying by δ ≠ 0 permutes GF(2^8)),
//    so byte p of lane L is zero with probability exactly 2^-8, independently
//    for the eight lanes. The miss needs all eight, so Pr[miss] ≤ 2^-64.
//    Within one chunk the assumption holds outright for a uniform key:
//    splitmix64 is a bijection, so splitmix64(K + j) is a uniform 64-bit
//    word and its eight bytes are independent and uniform. Across chunks
//    splitmix64 stands in for a random function, as usual for keyed hashes
//    of this kind (FNV-1a's 64 bits are nominal in the same sense).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace rpr::gf {

inline constexpr std::size_t kFingerprintLanes = 8;
/// Lane width = chunk size: each lane is a GF(2^8) combination of chunks.
inline constexpr std::size_t kFingerprintChunk = 256;

struct Fingerprint {
  /// Lane L occupies bytes [L * kFingerprintChunk, (L + 1) * kFingerprintChunk).
  std::array<std::uint8_t, kFingerprintLanes * kFingerprintChunk> lanes{};
  /// Byte length of the fingerprinted block.
  std::uint64_t length = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

/// The fingerprint of `bytes`, computed on the active tier and sharded
/// across util::ThreadPool::shared() for long blocks.
[[nodiscard]] Fingerprint fingerprint(std::span<const std::uint8_t> bytes);

/// Copies `src` into `dst` (equal sizes, no overlap) and returns the
/// fingerprint of the copy, in one pooled pass: each 32 KiB tile is folded
/// right after it is written, while it is still in L1, so the copy is not
/// read back from memory. Throws std::invalid_argument if the sizes differ.
[[nodiscard]] Fingerprint fingerprint_copy(std::span<std::uint8_t> dst,
                                           std::span<const std::uint8_t> src);

/// Folds one piece of a block into `fp`'s lanes: `bytes` holds chunks
/// first_chunk, first_chunk + 1, … of the block, and only the block's last
/// piece may end inside a chunk (that chunk is zero-padded). Serial; it
/// leaves fp.length to the caller. The lanes are linear in the chunks, so
/// the pieces of a block folded in any order, into any number of
/// fingerprints, XOR to the block's lanes: fingerprint() is this fold over
/// pool shards, and a caller that writes a block tile by tile can fold each
/// tile while it is still in cache.
void fold(Fingerprint& fp, std::span<const std::uint8_t> bytes,
          std::size_t first_chunk);

namespace ref {
/// Byte-at-a-time evaluation of the definition above (test oracle).
[[nodiscard]] Fingerprint fingerprint(std::span<const std::uint8_t> bytes);
/// The same evaluation of gf::fold (test oracle): a piece whose chunks
/// start at any index, without the block before it.
void fold(Fingerprint& fp, std::span<const std::uint8_t> bytes,
          std::size_t first_chunk);
}  // namespace ref

}  // namespace rpr::gf
