// Internal helper: the slice-streamed combine loop of runtime::Executor
// (also run alone by benchmarks).
//
// A combine consumes one slice from every input as soon as all of them
// published it, writes the result into the op's buffer, and publishes the
// slice immediately — downstream sends start forwarding while later slices
// are still being computed. Inputs are read in place through their sources
// (exec_state.h), never copied: an input's scale (a read's coefficient) is
// folded into the op's coefficient for it, so a read feeds the combine
// straight from its stripe block. The op's buffer holds stale bytes from an
// earlier run, so every slice is overwritten, never accumulated into:
//
//  * the optimized path runs one fused multi-source pass per slice that
//    overwrites it: the one pooled GF pass, gf::encode_regions_pooled with
//    one row;
//  * the matrix-cost path clears the slice, then deliberately keeps the
//    per-source general multiply passes (the paper's unoptimized-decoder
//    cost model) and is never sharded, so its measured cost stays
//    comparable between versions.
//
// Sharding rule, the pooled pass's one rule (gf/gf_region.h): a slice is
// split across the process thread pool (util::ThreadPool) only in shards
// of at least 256 KiB. A pipelined slice (64 KiB by default) is smaller
// than that and runs inline on its op thread — a plan already runs many
// combines at once, and handing 32 KiB chunks to the pool cost more than
// the GF work — while a whole-block value still spreads over the pool.
//
// Whole-block mode is the one-slice case: a single wait on all inputs, one
// fused pass.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

#include "gf/gf256.h"
#include "gf/gf_region.h"
#include "matrix/matrix.h"
#include "repair/plan.h"
#include "runtime/exec_state.h"

namespace rpr::runtime::detail {

/// Real matrix-build cost of the unoptimized decode path: constructs and
/// inverts a dim x dim GF matrix (a Cauchy matrix, guaranteed invertible).
inline void build_and_invert_matrix(std::size_t dim) {
  matrix::Matrix m(dim, dim);
  for (std::size_t i = 0; i < dim; ++i) {
    for (std::size_t j = 0; j < dim; ++j) {
      m.at(i, j) = gf::inv(static_cast<std::uint8_t>(i ^ (dim + j)));
    }
  }
  if (!m.inverted().has_value()) {
    throw std::logic_error("combine: decode-matrix inversion failed");
  }
}

/// Runs one combine op slice by slice. `is_node_dead` is polled before each
/// slice; returning true (the caller blames the node there) aborts the op.
/// On success every slice is published and true is returned; on input
/// failure or node death the op is failed and false is returned.
/// `op_start` is set when the first slice's inputs became ready, so the
/// recorded span excludes the dependency wait.
template <typename IsNodeDead>
bool stream_combine(ExecState& state, const repair::PlanOp& op,
                    repair::OpId id, std::size_t decode_matrix_dim,
                    SliceMetrics& metrics, IsNodeDead&& is_node_dead,
                    std::chrono::steady_clock::time_point& op_start) {
  if (op.with_matrix_cost) build_and_invert_matrix(decode_matrix_dim);
  rs::Block& out = state.storage(id);
  const std::size_t nin = op.inputs.size();
  // Scales are bound before any op thread starts, so they are final
  // before the inputs publish; their bytes are read only after.
  std::vector<std::uint8_t> coeffs(nin);
  for (std::size_t i = 0; i < nin; ++i) {
    coeffs[i] = gf::mul(
        op.input_coeffs.empty() ? std::uint8_t{1} : op.input_coeffs[i],
        state.scale(op.inputs[i]));
  }
  std::vector<const std::uint8_t*> srcs(nin);
  for (std::size_t s = 0; s < state.slices(); ++s) {
    if (!state.wait_inputs_slice(op.inputs, s)) {
      state.fail(id);
      return false;
    }
    if (s == 0) op_start = std::chrono::steady_clock::now();
    // Fault/schedule boundary between the dependency wait and the compute:
    // an explored kill can land exactly between a slice becoming ready and
    // its combine, the window the death poll below is meant to cover.
    check::point(check::PointKind::kStep, id, state.scope(), "combine.slice");
    if (is_node_dead()) {
      state.fail(id);
      return false;
    }
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t off = state.slice_offset(s);
    const std::size_t len = state.slice_len(s);
    // Published input regions are final; reading them in place is
    // race-free (see exec_state.h).
    for (std::size_t i = 0; i < nin; ++i) {
      srcs[i] = state.source(op.inputs[i]).bytes + off;
    }
    if (op.with_matrix_cost) {
      std::memset(out.data() + off, 0, len);
      for (std::size_t i = 0; i < nin; ++i) {
        gf::mul_region_add_general(coeffs[i], {out.data() + off, len},
                                   {srcs[i], len});
      }
    } else {
      std::uint8_t* dst = out.data() + off;
      gf::encode_regions_pooled(coeffs, 1, nin, srcs.data(), &dst, len);
    }
    metrics.combine_slice(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count(),
        len);
    state.publish_slices(id, s + 1);
  }
  return true;
}

}  // namespace rpr::runtime::detail
