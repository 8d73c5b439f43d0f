#include "rs/rs_code.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "gf/gf256.h"
#include "gf/gf_region.h"
#include "util/contracts.h"

namespace rpr::rs {

bool RepairEquation::xor_only() const {
  return std::all_of(coefficients.begin(), coefficients.end(),
                     [](std::uint8_t c) { return c == 0 || c == 1; });
}

std::size_t RepairEquation::active_sources() const {
  return static_cast<std::size_t>(
      std::count_if(coefficients.begin(), coefficients.end(),
                    [](std::uint8_t c) { return c != 0; }));
}

namespace {
CodeConfig validated(CodeConfig cfg) {
  if (cfg.n == 0 || cfg.k == 0) {
    throw std::invalid_argument("RSCode: n and k must be positive");
  }
  if (cfg.n + cfg.k > 256) {
    throw std::invalid_argument("RSCode: n + k must be <= 256 for GF(2^8)");
  }
  return cfg;
}
}  // namespace

RSCode::RSCode(CodeConfig cfg, MatrixKind kind)
    : cfg_(validated(cfg)),
      coding_(kind == MatrixKind::kCauchy
                  ? matrix::cauchy_coding_matrix(cfg_.n, cfg_.k)
                  : matrix::vandermonde_coding_matrix(cfg_.n, cfg_.k)),
      generator_(matrix::full_generator(coding_)) {}

std::vector<std::uint8_t> RSCode::coding_rows() const {
  std::vector<std::uint8_t> rows(cfg_.k * cfg_.n);
  for (std::size_t i = 0; i < cfg_.k; ++i) {
    for (std::size_t j = 0; j < cfg_.n; ++j) {
      rows[i * cfg_.n + j] = coding_.at(i, j);
    }
  }
  return rows;
}

void RSCode::encode_regions(const std::uint8_t* const* data,
                            std::uint8_t* const* parity,
                            std::size_t len) const {
  gf::encode_regions(coding_rows(), cfg_.k, cfg_.n, data, parity, len);
}

void RSCode::encode(std::span<const Block> data,
                    std::span<Block> parity) const {
  RPR_REQUIRE(data.size() == cfg_.n, "encode takes exactly n data blocks");
  RPR_REQUIRE(parity.size() == cfg_.k, "encode fills exactly k parity blocks");
  const std::size_t block_size = data.empty() ? 0 : data[0].size();
  for (const auto& d : data) {
    if (d.size() != block_size) {
      throw std::invalid_argument("encode: data blocks must be equal-sized");
    }
  }
  // Fused matrix application: every parity cache line is written once per
  // stripe (not once per data block), on the one pooled GF pass.
  std::vector<const std::uint8_t*> srcs(cfg_.n);
  for (std::size_t j = 0; j < cfg_.n; ++j) srcs[j] = data[j].data();
  std::vector<std::uint8_t*> dsts(cfg_.k);
  for (std::size_t i = 0; i < cfg_.k; ++i) {
    // The pass overwrites every byte: a resized block would be zeroed first.
    if (parity[i].size() != block_size) {
      parity[i] = Block::uninitialized(block_size);
    }
    dsts[i] = parity[i].data();
  }
  gf::encode_regions_pooled(coding_rows(), cfg_.k, cfg_.n, srcs.data(),
                            dsts.data(), block_size);
}

void RSCode::encode_stripe(std::vector<Block>& blocks) const {
  if (blocks.size() != cfg_.total()) {
    throw std::invalid_argument("encode_stripe: wrong stripe width");
  }
  encode(std::span<const Block>(blocks.data(), cfg_.n),
         std::span<Block>(blocks.data() + cfg_.n, cfg_.k));
}

std::vector<RepairEquation> RSCode::repair_equations(
    std::span<const std::size_t> failed,
    std::span<const std::size_t> selected) const {
  if (failed.empty() || failed.size() > cfg_.k) {
    throw std::invalid_argument("repair_equations: bad failure count");
  }
  if (selected.size() != cfg_.n) {
    throw std::invalid_argument("repair_equations: need exactly n survivors");
  }
  for (std::size_t s : selected) {
    if (std::find(failed.begin(), failed.end(), s) != failed.end()) {
      throw std::invalid_argument(
          "repair_equations: selected block is in the failed set");
    }
    if (s >= cfg_.total()) {
      throw std::invalid_argument("repair_equations: block index out of range");
    }
  }

  std::vector<RepairEquation> eqs;
  eqs.reserve(failed.size());

  // Fast path (paper eq. 6): a single data-block failure repaired from
  // {all other data blocks, P0}. The first parity row is all ones, so the
  // coefficients are all 1 and no matrix inversion happens.
  if (failed.size() == 1 && cfg_.is_data(failed[0])) {
    const bool xor_set = [&] {
      bool saw_p0 = false;
      for (std::size_t s : selected) {
        if (s == p0_index(cfg_)) {
          saw_p0 = true;
        } else if (!cfg_.is_data(s)) {
          return false;
        }
      }
      return saw_p0;
    }();
    if (xor_set) {
      RepairEquation eq;
      eq.failed_block = failed[0];
      eq.sources.assign(selected.begin(), selected.end());
      eq.coefficients.assign(selected.size(), 1);
      eqs.push_back(std::move(eq));
      return eqs;
    }
  }

  // General path (paper eq. 8): invert the generator restricted to the
  // selected rows and project each failed block's generator row through it.
  const matrix::Matrix sub = generator_.select_rows(selected);
  const auto inv = sub.inverted();
  RPR_INVARIANT(inv.has_value(),
                "MDS code: any n survivor rows are invertible");

  for (std::size_t f : failed) {
    // g_f (1 x n) * M'^-1 (n x n) -> coefficients over the selected blocks.
    RepairEquation eq;
    eq.failed_block = f;
    eq.sources.assign(selected.begin(), selected.end());
    eq.coefficients.assign(cfg_.n, 0);
    for (std::size_t j = 0; j < cfg_.n; ++j) {
      std::uint8_t acc = 0;
      for (std::size_t l = 0; l < cfg_.n; ++l) {
        acc ^= gf::mul(generator_.at(f, l), inv->at(l, j));
      }
      eq.coefficients[j] = acc;
    }
    eqs.push_back(std::move(eq));
  }
  RPR_ENSURE(eqs.size() == failed.size(),
             "one repair equation per failed block");
  return eqs;
}

bool RSCode::is_xor_repair(std::span<const std::size_t> failed,
                           std::span<const std::size_t> selected) const {
  if (failed.size() != 1) return false;
  const auto eqs = repair_equations(failed, selected);
  return eqs.size() == 1 && eqs[0].xor_only();
}

std::vector<std::size_t> RSCode::default_selection(
    std::span<const std::size_t> failed) const {
  auto is_failed = [&](std::size_t b) {
    return std::find(failed.begin(), failed.end(), b) != failed.end();
  };

  std::vector<std::size_t> sel;
  sel.reserve(cfg_.n);

  // Prefer the XOR set for a single data-block failure: all surviving data
  // plus P0 (requires P0 alive and exactly one data failure).
  if (failed.size() == 1 && cfg_.is_data(failed[0]) &&
      !is_failed(p0_index(cfg_))) {
    for (std::size_t b = 0; b < cfg_.n; ++b) {
      if (!is_failed(b)) sel.push_back(b);
    }
    sel.push_back(p0_index(cfg_));
    RPR_ENSURE(sel.size() == cfg_.n, "XOR set selects exactly n survivors");
    return sel;
  }

  // Otherwise: surviving data blocks first, then parity in index order.
  for (std::size_t b = 0; b < cfg_.total() && sel.size() < cfg_.n; ++b) {
    if (!is_failed(b)) sel.push_back(b);
  }
  if (sel.size() != cfg_.n) {
    throw std::invalid_argument("default_selection: too many failures");
  }
  return sel;
}

bool RSCode::decode(std::vector<Block>& blocks,
                    std::span<const std::size_t> failed) const {
  if (failed.empty()) return true;
  if (failed.size() > cfg_.k || blocks.size() != cfg_.total()) return false;

  const auto selected = default_selection(failed);
  const auto eqs = repair_equations(failed, selected);
  for (const auto& eq : eqs) {
    blocks[eq.failed_block] = evaluate(eq, blocks);
  }
  return true;
}

Block RSCode::evaluate(const RepairEquation& eq,
                       std::span<const Block> stripe) const {
  RPR_REQUIRE(eq.sources.size() == eq.coefficients.size(),
              "equation coefficients must parallel its sources");
  // Fused single-output matrix application (encode_regions with one row):
  // the accumulator is produced in one pass over all nonzero-coefficient
  // sources, which must hold bytes, all of one length.
  std::vector<std::uint8_t> coeffs;
  std::vector<const std::uint8_t*> srcs;
  std::size_t block_size = 0;
  for (std::size_t i = 0; i < eq.sources.size(); ++i) {
    if (eq.coefficients[i] == 0) continue;
    const Block& src = stripe[eq.sources[i]];
    if (srcs.empty()) block_size = src.size();
    if (src.empty() || src.size() != block_size) {
      throw std::invalid_argument(
          "evaluate: block " + std::to_string(eq.failed_block) +
          " needs block " + std::to_string(eq.sources[i]) +
          (src.empty() ? ", which is empty"
                       : " of " + std::to_string(src.size()) +
                             " bytes; its other sources hold " +
                             std::to_string(block_size)));
    }
    coeffs.push_back(eq.coefficients[i]);
    srcs.push_back(src.data());
  }
  // Recycled, not zero-filled: the pass overwrites every byte.
  Block acc = Block::uninitialized(block_size);
  std::uint8_t* dst = acc.data();
  gf::encode_regions_pooled(coeffs, 1, coeffs.size(), srcs.data(), &dst,
                            block_size);
  return acc;
}

}  // namespace rpr::rs
