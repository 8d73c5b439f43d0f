#include "repair/reduction.h"

#include <algorithm>
#include <optional>

#include "util/contracts.h"

namespace rpr::repair::detail {

namespace {

std::string phase_label(const char* phase, const char* op) {
  return *phase == '\0' ? std::string{} : std::string(phase) + ":" + op;
}

}  // namespace

Value star_aggregate(RepairPlan& plan, std::vector<Value> values,
                     topology::NodeId aggregator, bool at_recovery,
                     double link_cost, const char* phase) {
  RPR_REQUIRE(!values.empty(), "star_aggregate needs at least one value");
  std::vector<OpId> inputs;
  inputs.reserve(values.size());
  double ready = 0.0;
  double arrival = 0.0;  // receives serialize on the aggregator's port
  for (const Value& v : values) {
    if (v.node == aggregator) {
      inputs.push_back(v.op);
      ready = std::max(ready, v.ready);
      continue;
    }
    const OpId sent =
        plan.send(v.op, v.node, aggregator, phase_label(phase, "send"));
    inputs.push_back(sent);
    arrival = std::max(arrival, v.ready) + link_cost;
    ready = std::max(ready, arrival);
  }
  if (inputs.size() == 1) {
    return Value{inputs[0], aggregator, ready, at_recovery};
  }
  const OpId comb = plan.combine(aggregator, std::move(inputs), false,
                                 phase_label(phase, "merge"));
  return Value{comb, aggregator, ready, at_recovery};
}

Value pairwise_tree(RepairPlan& plan, std::vector<Value> values,
                    double link_cost) {
  RPR_REQUIRE(!values.empty(), "pairwise_tree needs at least one value");
  while (values.size() > 1) {
    std::vector<Value> next;
    next.reserve((values.size() + 1) / 2);
    std::size_t a = 0;
    for (; a + 1 < values.size(); a += 2) {
      const Value& dst = values[a];
      const Value& src = values[a + 1];
      const OpId sent = plan.send(src.op, src.node, dst.node, "inner:send");
      const OpId comb =
          plan.combine(dst.node, {dst.op, sent}, false, "inner:merge");
      next.push_back(Value{comb, dst.node,
                           std::max(dst.ready, src.ready) + link_cost,
                           dst.at_recovery});
    }
    if (a < values.size()) next.push_back(values[a]);  // odd one rolls over
    values = std::move(next);
  }
  return values[0];
}

Value cross_reduce(RepairPlan& plan, std::vector<Value> values,
                   topology::NodeId replacement,
                   const topology::Cluster& cluster,
                   const CrossCostFn& cost) {
  RPR_REQUIRE(!values.empty(), "cross_reduce needs at least one value");
  const auto link_cost = [&](topology::NodeId a, topology::NodeId b) {
    if (!cost) return kCrossCost;
    return cost(cluster.rack_of(a), cluster.rack_of(b));
  };

  // Split off the recovery-resident value (at most one by construction).
  Value recovery{kNoOp, replacement, 0.0, true};
  bool have_recovery = false;
  std::vector<Value> sources;
  for (Value& v : values) {
    if (v.at_recovery) {
      RPR_INVARIANT(!have_recovery,
                    "at most one recovery-resident intermediate per equation");
      recovery = v;
      have_recovery = true;
    } else {
      sources.push_back(v);
    }
  }

  // Greedy schedule per Algorithm 2, driven by readiness estimates: the
  // earliest-ready intermediate either ships into the recovery rack (when
  // its downlink would be free by then — including the degenerate star for
  // two source racks) or pairs up with the next-ready source so the two
  // cross-rack transfers overlap (Fig. 5 schedule 2). `recovery_port_free`
  // tracks the estimated availability of the recovery rack's downlink.
  double recovery_port_free = 0.0;
  auto by_ready = [](const Value& x, const Value& y) {
    return x.ready != y.ready ? x.ready < y.ready : x.node < y.node;
  };
  auto send_to_recovery = [&](const Value& s) {
    const double start = std::max(s.ready, recovery_port_free);
    const double done = start + link_cost(s.node, replacement);
    const OpId sent = plan.send(s.op, s.node, replacement, "cross:send");
    if (have_recovery) {
      const OpId comb = plan.combine(replacement, {recovery.op, sent}, false,
                                     "cross:merge");
      recovery = Value{comb, replacement, done, true};
    } else {
      recovery = Value{sent, replacement, done, true};
      have_recovery = true;
    }
    recovery_port_free = done;
  };

  while (!sources.empty()) {
    std::sort(sources.begin(), sources.end(), by_ready);
    const Value s = sources.front();
    sources.erase(sources.begin());
    if (sources.empty()) {
      send_to_recovery(s);
      break;
    }
    // Candidate moves for the earliest-ready intermediate: ship it into the
    // recovery rack, or merge it with one of the remaining peers. Pick the
    // move with the smallest estimated finish (ties prefer recovery, which
    // shortens the tail).
    const double finish_recovery = std::max(s.ready, recovery_port_free) +
                                   link_cost(s.node, replacement);
    double best_finish = finish_recovery;
    std::size_t best_partner = sources.size();  // sentinel: recovery
    for (std::size_t i = 0; i < sources.size(); ++i) {
      const double finish = std::max(s.ready, sources[i].ready) +
                            link_cost(s.node, sources[i].node);
      if (finish < best_finish) {
        best_finish = finish;
        best_partner = i;
      }
    }
    if (best_partner == sources.size()) {
      send_to_recovery(s);
    } else {
      Value partner = sources[best_partner];
      sources.erase(sources.begin() +
                    static_cast<std::ptrdiff_t>(best_partner));
      const OpId sent = plan.send(s.op, s.node, partner.node, "cross:send");
      const OpId comb = plan.combine(partner.node, {partner.op, sent}, false,
                                     "cross:merge");
      sources.push_back(Value{comb, partner.node, best_finish, false});
    }
  }
  RPR_ENSURE(have_recovery && recovery.node == replacement,
             "cross reduction must terminate at the replacement node");
  return recovery;
}

Value chain_reduce(RepairPlan& plan, std::vector<Value> values,
                   topology::NodeId replacement,
                   const topology::Cluster& cluster,
                   const CrossCostFn& cost) {
  RPR_REQUIRE(!values.empty(), "chain_reduce needs at least one value");
  const auto link_cost = [&](topology::NodeId a, topology::NodeId b) {
    if (!cost) return kCrossCost;
    return cost(cluster.rack_of(a), cluster.rack_of(b));
  };

  // The recovery-resident value waits at the replacement node as the
  // chain's terminal summand; every other value is a relay station.
  std::optional<Value> recovery;
  std::vector<Value> relays;
  for (const Value& v : values) {
    if (v.at_recovery) {
      RPR_INVARIANT(!recovery.has_value(),
                    "at most one recovery-resident intermediate per equation");
      recovery = v;
    } else {
      relays.push_back(v);
    }
  }

  // Earliest-ready first, so the head starts streaming while downstream
  // racks are still partial-decoding — each station only needs its local
  // partial by the time the upstream slice arrives.
  std::stable_sort(relays.begin(), relays.end(),
                   [](const Value& a, const Value& b) {
                     return a.ready < b.ready;
                   });
  // Every value already in the recovery rack: nothing crosses.
  if (relays.empty()) return *recovery;

  // Relay the running sum: send it to the next station, XOR it in there.
  const auto hop = [&](const Value& running, const Value& station) {
    const OpId sent =
        plan.send(running.op, running.node, station.node, "chain:send");
    const OpId merged =
        plan.combine(station.node, {sent, station.op}, false, "chain:merge");
    return Value{merged, station.node,
                 std::max(running.ready + link_cost(running.node, station.node),
                          station.ready),
                 station.at_recovery};
  };
  Value running = relays.front();
  for (std::size_t i = 1; i < relays.size(); ++i) {
    running = hop(running, relays[i]);
  }
  // Final hop into the recovery rack, merged with its resident value.
  if (recovery.has_value()) return hop(running, *recovery);
  const OpId sent =
      plan.send(running.op, running.node, replacement, "chain:send");
  return Value{sent, replacement,
               running.ready + link_cost(running.node, replacement), true};
}

}  // namespace rpr::repair::detail
