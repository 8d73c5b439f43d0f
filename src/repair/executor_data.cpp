#include "repair/executor_data.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "gf/gf_region.h"
#include "repair/replan.h"

namespace rpr::repair {

std::vector<rs::Block> execute_on_data(const RepairPlan& plan,
                                       std::span<const OpId> outputs,
                                       std::span<const rs::Block> stripe) {
  // Each op's byte length is its first input's; it sizes an output whose
  // terms cancel to zero.
  std::vector<std::size_t> op_size(plan.ops.size());
  for (OpId id = 0; id < plan.ops.size(); ++id) {
    const PlanOp& op = plan.ops[id];
    if (op.kind != OpKind::kRead) {
      op_size[id] = op_size[op.inputs[0]];
    } else if (op.block < stripe.size()) {
      op_size[id] = stripe[op.block].size();
    } else {
      throw std::out_of_range("execute_on_data: block out of range");
    }
  }
  const std::vector<LeafTerms> terms = leaf_contributions(plan);

  // Every nonzero leaf of an output must hold bytes, all of one length.
  // Outputs are grouped by that length; each group is one pass.
  std::map<std::size_t, std::vector<std::size_t>> by_length;
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    const OpId id = outputs[i];
    if (id >= plan.ops.size()) {
      throw std::out_of_range("execute_on_data: bad output op");
    }
    std::size_t len = op_size[id];
    for (auto it = terms[id].begin(); it != terms[id].end(); ++it) {
      const std::size_t n = stripe[it->first].size();
      if (it == terms[id].begin()) len = n;
      if (n == 0 || n != len) {
        throw std::invalid_argument(
            "execute_on_data: op " + std::to_string(id) + " needs block " +
            std::to_string(it->first) +
            (n == 0 ? ", which is empty"
                    : " of " + std::to_string(n) +
                          " bytes; its other blocks hold " +
                          std::to_string(len)));
      }
    }
    by_length[len].push_back(i);
  }

  // By GF linearity each output is Σ coeff · leaf over its leaf terms: one
  // encode pass over the union of the group's leaf blocks computes them
  // all, with no intermediate buffer per combine.
  std::vector<rs::Block> result(outputs.size());
  for (const auto& [len, rows] : by_length) {
    std::vector<std::size_t> cols;
    for (const std::size_t r : rows) {
      for (const auto& [block, coeff] : terms[outputs[r]]) {
        cols.push_back(block);
      }
    }
    std::sort(cols.begin(), cols.end());
    cols.erase(std::unique(cols.begin(), cols.end()), cols.end());

    std::vector<std::uint8_t> matrix(rows.size() * cols.size(), 0);
    std::vector<std::uint8_t*> dsts(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      for (const auto& [block, coeff] : terms[outputs[rows[i]]]) {
        const auto c = std::lower_bound(cols.begin(), cols.end(), block);
        matrix[i * cols.size() + static_cast<std::size_t>(c - cols.begin())] =
            coeff;
      }
      // A recycled buffer holds stale bytes; the encode overwrites them all
      // (an output whose terms cancel is written as zeros).
      result[rows[i]] = rs::Block::uninitialized(len);
      dsts[i] = result[rows[i]].data();
    }
    std::vector<const std::uint8_t*> srcs(cols.size());
    for (std::size_t c = 0; c < cols.size(); ++c) {
      srcs[c] = stripe[cols[c]].data();
    }
    gf::encode_regions_pooled(matrix, rows.size(), cols.size(), srcs.data(),
                              dsts.data(), len);
  }
  return result;
}

}  // namespace rpr::repair
