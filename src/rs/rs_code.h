// Reed-Solomon codec with the repair-oriented primitives the RPR scheme
// needs (paper §2.1, §3.3, §3.4):
//
//  * systematic encode of n data blocks into k parity blocks,
//  * full decode of any <= k erasures,
//  * extraction of *repair coefficient vectors*: for a failed block f and a
//    chosen set of n surviving blocks, the vector c with
//        b_f = sum_i c_i * b_selected[i]        (paper eq. 8)
//    Partial decoding (eqs. 4 and 9) is then just: any grouping of the terms
//    of that sum can be accumulated locally (per rack) and the partial sums
//    XORed together, because GF addition is XOR.
//  * XOR fast-path detection: when the selected set is {all surviving data,
//    P0} and the coding matrix's first parity row is all ones, every
//    coefficient is 1 and no decoding matrix needs to be built (eq. 6) —
//    the property the pre-placement optimization (§3.3) exploits.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "matrix/matrix.h"
#include "rs/block.h"

namespace rpr::rs {

/// RS(n, k): n data blocks, k parity blocks (the paper's convention).
struct CodeConfig {
  std::size_t n = 0;
  std::size_t k = 0;

  [[nodiscard]] std::size_t total() const noexcept { return n + k; }
  [[nodiscard]] bool is_data(std::size_t block) const noexcept {
    return block < n;
  }
  /// q = number of racks when each rack holds k blocks (§2.3); equals
  /// (n + k) / k rounded up.
  [[nodiscard]] std::size_t racks_when_full() const noexcept {
    return (n + k + k - 1) / k;
  }
  friend bool operator==(const CodeConfig&, const CodeConfig&) = default;
};

enum class MatrixKind {
  kCauchy,       ///< normalized Cauchy (default; first parity row all ones)
  kVandermonde,  ///< systematized extended Vandermonde (Jerasure-style)
};

/// Index of the first parity block within a stripe, i.e. P0 == block n.
constexpr std::size_t p0_index(const CodeConfig& cfg) { return cfg.n; }

/// One failed block expressed as a linear combination over a chosen set of
/// n surviving blocks (one sub-equation of paper eq. 8).
struct RepairEquation {
  std::size_t failed_block = 0;             ///< global block index being rebuilt
  std::vector<std::size_t> sources;         ///< n global block indices
  std::vector<std::uint8_t> coefficients;   ///< same length as sources

  /// True when every (nonzero) coefficient is 1: the repair is a pure XOR
  /// and no decoding matrix was needed (paper eq. 6).
  [[nodiscard]] bool xor_only() const;
  /// Number of sources with a nonzero coefficient (blocks actually read).
  [[nodiscard]] std::size_t active_sources() const;
};

class RSCode {
 public:
  explicit RSCode(CodeConfig cfg, MatrixKind kind = MatrixKind::kCauchy);

  [[nodiscard]] const CodeConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const matrix::Matrix& coding_matrix() const noexcept {
    return coding_;
  }
  [[nodiscard]] const matrix::Matrix& generator() const noexcept {
    return generator_;
  }

  /// Encodes n equally-sized data blocks into k parity blocks, on the one
  /// pooled GF pass (gf::encode_regions_pooled). A parity block of another
  /// size is replaced by an uninitialized one of the data block size.
  void encode(std::span<const Block> data, std::span<Block> parity) const;

  /// Encodes a whole stripe in place: blocks[0..n) are data, blocks[n..n+k)
  /// are written.
  void encode_stripe(std::vector<Block>& blocks) const;

  /// parity[i] = Σ_j g_ij · data[j] over `len`-byte regions (n sources, k
  /// destinations, overwritten), on the calling thread, with the matrix
  /// encode() applies. Any GF(2^8)-linear image of a block encodes the
  /// same way, so the data blocks' fingerprint lanes (gf/fingerprint.h)
  /// map to the parity blocks' lanes.
  void encode_regions(const std::uint8_t* const* data,
                      std::uint8_t* const* parity, std::size_t len) const;

  /// Builds the repair equations for `failed` (all distinct, size <= k)
  /// given the surviving blocks to read from, `selected` (exactly n global
  /// indices, disjoint from `failed`). Computes g_f * M'^-1 per failed
  /// block, where M' is the generator restricted to `selected`.
  ///
  /// `needs_matrix` below tells whether this required an inversion; the
  /// single-failure all-data+P0 case short-circuits to the XOR path.
  [[nodiscard]] std::vector<RepairEquation> repair_equations(
      std::span<const std::size_t> failed,
      std::span<const std::size_t> selected) const;

  /// True iff rebuilding `failed` from `selected` avoids building a decoding
  /// matrix: exactly one failure, and the equation is XOR-only.
  [[nodiscard]] bool is_xor_repair(
      std::span<const std::size_t> failed,
      std::span<const std::size_t> selected) const;

  /// Default survivor selection: given the failed set, pick n survivors
  /// preferring (a) the XOR set {all surviving data, P0} when it applies,
  /// then (b) data blocks, then parity blocks in index order.
  [[nodiscard]] std::vector<std::size_t> default_selection(
      std::span<const std::size_t> failed) const;

  /// Full decode: `blocks` is the whole stripe with failed entries ignored;
  /// rebuilds every block listed in `failed` in place. Returns false if
  /// more than k failures; throws as evaluate() does.
  bool decode(std::vector<Block>& blocks,
              std::span<const std::size_t> failed) const;

  /// Evaluates one repair equation against actual data, on the pooled GF
  /// pass: the bit-exact reference for everything the planners/schedulers do
  /// in pieces. Throws std::invalid_argument, naming the block, when a
  /// nonzero-coefficient source is empty or differs in length from the
  /// others.
  [[nodiscard]] Block evaluate(const RepairEquation& eq,
                               std::span<const Block> stripe) const;

 private:
  CodeConfig cfg_;
  matrix::Matrix coding_;     // k x n
  matrix::Matrix generator_;  // (n+k) x n

  /// coding_ row-major (k*n), the layout gf::encode_regions takes.
  [[nodiscard]] std::vector<std::uint8_t> coding_rows() const;
};

}  // namespace rpr::rs
