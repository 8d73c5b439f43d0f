#include "repair/planner.h"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "verify/plan_verifier.h"

namespace rpr::repair {

const char* to_string(Scheme scheme) {
  switch (scheme) {
    case Scheme::kTraditional:
      return "traditional";
    case Scheme::kCar:
      return "car";
    case Scheme::kRpr:
      return "rpr";
    case Scheme::kRprChained:
      return "rpr-chained";
  }
  throw std::logic_error("to_string: unknown scheme");
}

PlannedRepair Planner::plan(const RepairProblem& p) const {
  PlannedRepair out = do_plan(p);
  if (verify::verify_plans_enabled()) {
    verify::throw_if_violated(verify::verify_planned_repair(out, p, scheme()),
                              name() + " planner");
  }
  return out;
}

void RepairProblem::choose_default_replacements() {
  if (placement == nullptr) {
    throw std::logic_error("RepairProblem: placement not set");
  }
  replacements.clear();
  replacements.reserve(failed.size());
  std::map<topology::RackId, std::size_t> used;  // spares consumed per rack
  for (std::size_t f : failed) {
    const topology::RackId rack = placement->rack_of(f);
    replacements.push_back(placement->cluster().spare(rack, used[rack]++));
  }
}

std::vector<std::size_t> select_min_racks(
    const rs::RSCode& code, const topology::Placement& placement,
    std::span<const std::size_t> failed, topology::RackId recovery_rack) {
  const auto& cfg = code.config();
  auto is_failed = [&](std::size_t b) {
    return std::find(failed.begin(), failed.end(), b) != failed.end();
  };

  // Survivors grouped by rack.
  std::map<topology::RackId, std::vector<std::size_t>> by_rack;
  for (std::size_t b = 0; b < cfg.total(); ++b) {
    if (!is_failed(b)) by_rack[placement.rack_of(b)].push_back(b);
  }

  // Rack order: the recovery rack first (its blocks travel inner-rack only),
  // then by descending survivor count (whole racks amortize one cross-rack
  // intermediate over many blocks), rack id as tie-break.
  std::vector<topology::RackId> order;
  for (const auto& [rack, blocks] : by_rack) order.push_back(rack);
  std::stable_sort(order.begin(), order.end(),
                   [&](topology::RackId a, topology::RackId b) {
                     if ((a == recovery_rack) != (b == recovery_rack)) {
                       return a == recovery_rack;
                     }
                     const std::size_t ca = by_rack[a].size();
                     const std::size_t cb = by_rack[b].size();
                     return ca != cb ? ca > cb : a < b;
                   });

  std::vector<std::size_t> selected;
  selected.reserve(cfg.n);
  for (topology::RackId rack : order) {
    for (std::size_t b : by_rack[rack]) {
      if (selected.size() == cfg.n) break;
      selected.push_back(b);
    }
    if (selected.size() == cfg.n) break;
  }
  if (selected.size() != cfg.n) {
    throw std::invalid_argument("select_min_racks: too many failures");
  }
  std::sort(selected.begin(), selected.end());
  return selected;
}

std::unique_ptr<Planner> make_planner(Scheme scheme) {
  switch (scheme) {
    case Scheme::kTraditional:
      return std::make_unique<TraditionalPlanner>();
    case Scheme::kCar:
      return std::make_unique<CarPlanner>();
    case Scheme::kRpr:
      return std::make_unique<RprPlanner>();
    case Scheme::kRprChained:
      return std::make_unique<RprChainedPlanner>();
  }
  throw std::logic_error("make_planner: unknown scheme");
}

}  // namespace rpr::repair
