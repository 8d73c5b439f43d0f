#include "repair/executor_data.h"

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "gf/gf256.h"
#include "gf/gf_region.h"
#include "util/thread_pool.h"

namespace rpr::repair {

namespace {

/// A plan value that owns no bytes: `coeff` * `bytes`. A read views its
/// stripe block with the read's coefficient still pending; a send aliases
/// its input; a combine views its own buffer, owned[owner] (coeff 1).
struct Value {
  std::span<const std::uint8_t> bytes;
  std::uint8_t coeff = 1;
  OpId owner = kNoOp;  ///< the combine whose buffer `bytes` is, if any
};

}  // namespace

std::vector<rs::Block> execute_on_data(const RepairPlan& plan,
                                       std::span<const OpId> outputs,
                                       std::span<const rs::Block> stripe) {
  std::vector<Value> value(plan.ops.size());
  std::vector<rs::Block> owned(plan.ops.size());  // combine buffers only

  for (OpId id = 0; id < plan.ops.size(); ++id) {
    const PlanOp& op = plan.ops[id];
    switch (op.kind) {
      case OpKind::kRead:
        if (op.block >= stripe.size()) {
          throw std::out_of_range("execute_on_data: block out of range");
        }
        value[id] = {stripe[op.block], op.coeff, kNoOp};
        break;
      case OpKind::kSend:
        // Data-wise a send is the identity; location is a plan-level
        // concept already checked by validate().
        value[id] = value[op.inputs[0]];
        break;
      case OpKind::kCombine: {
        // Fused aggregation: every output cache line is written once per
        // combine, sharded across the thread pool for large blocks. Each
        // input's pending read coefficient folds into its scale here, so
        // the combine is the only op that allocates.
        const std::size_t size = value[op.inputs[0]].bytes.size();
        std::vector<std::uint8_t> coeffs(op.inputs.size());
        std::vector<const std::uint8_t*> srcs(op.inputs.size());
        for (std::size_t i = 0; i < op.inputs.size(); ++i) {
          const Value& in = value[op.inputs[i]];
          const std::uint8_t scale =
              op.input_coeffs.empty() ? std::uint8_t{1} : op.input_coeffs[i];
          coeffs[i] = gf::mul(in.coeff, scale);
          srcs[i] = in.bytes.data();
        }
        rs::Block& out = owned[id];
        out.resize(size);
        util::ThreadPool::shared().parallel_for(
            size, 64, 128 << 10, [&](std::size_t b, std::size_t e) {
              std::vector<const std::uint8_t*> s(srcs.size());
              for (std::size_t j = 0; j < srcs.size(); ++j) s[j] = srcs[j] + b;
              std::uint8_t* d = out.data() + b;
              gf::encode_regions(coeffs, 1, coeffs.size(), s.data(), &d,
                                 e - b);
            });
        value[id] = {out, 1, id};
        break;
      }
    }
  }

  // A combine buffer moves out at its last appearance among the outputs
  // (earlier appearances copy it); any other output is materialised once.
  std::vector<std::size_t> uses(plan.ops.size(), 0);
  for (OpId id : outputs) {
    if (id >= plan.ops.size()) {
      throw std::out_of_range("execute_on_data: bad output op");
    }
    if (value[id].owner != kNoOp) ++uses[value[id].owner];
  }
  std::vector<rs::Block> result;
  result.reserve(outputs.size());
  for (OpId id : outputs) {
    const Value& v = value[id];
    if (v.owner != kNoOp && --uses[v.owner] == 0) {
      result.push_back(std::move(owned[v.owner]));
    } else if (v.coeff == 1) {
      result.emplace_back(v.bytes.begin(), v.bytes.end());
    } else {
      rs::Block& scaled = result.emplace_back(v.bytes.size());
      gf::mul_region(v.coeff, scaled, v.bytes);
    }
  }
  return result;
}

}  // namespace rpr::repair
