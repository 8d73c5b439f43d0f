#include "repair/resilient.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "check/scheduler.h"
#include "gf/gf_region.h"
#include "repair/executor_data.h"
#include "repair/lowering.h"
#include "repair/plan.h"
#include "simnet/instrument.h"
#include "simnet/simnet.h"
#include "util/contracts.h"
#include "util/units.h"
#include "verify/plan_verifier.h"

namespace rpr::repair {

namespace {

constexpr std::size_t kNoSlot = std::numeric_limits<std::size_t>::max();

/// One banked partial sum: `value` equals XOR over `terms` of
/// coeff * block, resident at `node`, exposed to plans as pseudo stripe
/// slot `slot`. Partials may live away from the destination — a partition
/// survivor's rack aggregate stays banked at the helper that built it.
struct BankedPartial {
  rs::Block value;
  LeafTerms terms;
  topology::NodeId node = 0;
  std::size_t slot = kNoSlot;
};

/// Session state for one outstanding equation (one failed block).
struct EqState {
  std::size_t failed_block = 0;
  /// Terms still to be fetched from their storage nodes.
  LeafTerms remaining;
  /// Partial sums already accumulated somewhere alive.
  std::vector<BankedPartial> partials;
  topology::NodeId destination = 0;
  bool with_matrix = false;
  /// Cross-rack shape for the next remainder plan: the session planner's
  /// own shape (a relay chain for rpr-chained, the merge tree otherwise);
  /// switched when the destination is relocated (recovery rack died or
  /// cannot commit).
  RemainderScheme scheme = RemainderScheme::kPipeline;
  bool done = false;
  rs::Block result;
};

void drop_zero_terms(LeafTerms& terms) {
  std::erase_if(terms, [](const auto& kv) { return kv.second == 0; });
}

/// Drops the partials whose node `gone` rejects: their terms go back
/// outstanding.
template <typename Pred>
void unbank_if(EqState& s, Pred gone) {
  std::erase_if(s.partials, [&](const BankedPartial& p) {
    if (!gone(p.node)) return false;
    for (const auto& [b, c] : p.terms) s.remaining[b] ^= c;
    return true;
  });
  drop_zero_terms(s.remaining);
}

/// Banks every reusable finished value of the failed attempt into the
/// equation's partial set: a value at any alive node is folded in when its
/// leaf contributions exactly match a subset of the outstanding terms
/// (including prior partials via their pseudo slots), leaves disjoint
/// across accepted values. Accepted values merge per resident node into
/// one partial each. Returns how many values were folded.
std::size_t fold_finished_values(
    EqState& s, const RepairPlan& plan,
    const std::vector<LeafTerms>& contrib,
    const std::vector<std::pair<OpId, rs::Block>>& finished,
    const std::set<topology::NodeId>& dead) {
  // What is still owed, with every existing partial appearing as one more
  // pseudo term.
  LeafTerms owed = s.remaining;
  std::map<std::size_t, std::size_t> partial_of_slot;
  for (std::size_t i = 0; i < s.partials.size(); ++i) {
    if (s.partials[i].slot == kNoSlot) continue;
    owed[s.partials[i].slot] = 1;
    partial_of_slot[s.partials[i].slot] = i;
  }

  // Candidates: finished values on alive nodes. Destination-resident
  // values first, then largest leaf set, so one big intermediate beats the
  // reads it was built from and the destination keeps priority.
  std::vector<const std::pair<OpId, rs::Block>*> candidates;
  for (const auto& f : finished) {
    if (dead.count(plan.ops[f.first].node) != 0) continue;
    if (!contrib[f.first].empty()) candidates.push_back(&f);
  }
  std::sort(candidates.begin(), candidates.end(),
            [&](const auto* a, const auto* b) {
              const bool da = plan.ops[a->first].node == s.destination;
              const bool db = plan.ops[b->first].node == s.destination;
              if (da != db) return da;
              const std::size_t ca = contrib[a->first].size();
              const std::size_t cb = contrib[b->first].size();
              return ca != cb ? ca > cb : a->first < b->first;
            });

  std::set<std::size_t> covered;
  std::vector<const std::pair<OpId, rs::Block>*> accepted;
  for (const auto* cand : candidates) {
    const LeafTerms& leaves = contrib[cand->first];
    bool usable = true;
    for (const auto& [leaf, coeff] : leaves) {
      const auto it = owed.find(leaf);
      if (it == owed.end() || it->second != coeff ||
          covered.count(leaf) != 0) {
        usable = false;
        break;
      }
    }
    if (!usable) continue;
    for (const auto& [leaf, coeff] : leaves) {
      (void)coeff;
      covered.insert(leaf);
    }
    accepted.push_back(cand);
  }
  // Oracle hook: `usable` finished values matched outstanding terms; every
  // one of them must be folded into the banked partial set. The kDropBank
  // mutation discards them here so the checker's detection of a lost bank
  // can itself be tested.
  const std::size_t usable = accepted.size();
  if (check::mutated(check::Mutation::kDropBank)) accepted.clear();
  check::observe(check::Event{check::EventKind::kBankFold, 0, s.failed_block,
                              usable, accepted.size(), false});
  if (accepted.empty()) return 0;

  // One new partial per resident node: XOR of the accepted values there,
  // its term set the union of the real leaves they cover. An accepted
  // value whose leaves include a prior partial's slot absorbs that partial
  // (its bytes are already inside the value).
  std::map<topology::NodeId, BankedPartial> grouped;
  for (const auto* cand : accepted) {
    const topology::NodeId node = plan.ops[cand->first].node;
    BankedPartial& g = grouped[node];
    g.node = node;
    if (g.value.empty()) {
      g.value = cand->second;
    } else {
      gf::xor_region(g.value, cand->second);
    }
    for (const auto& [leaf, coeff] : contrib[cand->first]) {
      const auto pit = partial_of_slot.find(leaf);
      if (pit != partial_of_slot.end()) {
        for (const auto& [b, c] : s.partials[pit->second].terms) {
          g.terms[b] ^= c;
        }
      } else {
        g.terms[leaf] ^= coeff;
      }
    }
    drop_zero_terms(g.terms);
  }

  // Prior partials: absorbed ones drop; a survivor co-located with a new
  // group XOR-merges into it; the rest carry over untouched.
  std::vector<BankedPartial> next;
  for (auto& p : s.partials) {
    if (p.slot != kNoSlot && covered.count(p.slot) != 0) continue;
    const auto git = grouped.find(p.node);
    if (git != grouped.end()) {
      BankedPartial& g = git->second;
      gf::xor_region(g.value, p.value);
      for (const auto& [b, c] : p.terms) g.terms[b] ^= c;
      drop_zero_terms(g.terms);
    } else {
      next.push_back(std::move(p));
    }
  }
  for (auto& [node, g] : grouped) {
    (void)node;
    next.push_back(std::move(g));
  }

  // Covered real terms move out of the outstanding equation.
  for (const std::size_t leaf : covered) s.remaining.erase(leaf);
  s.partials = std::move(next);
  return accepted.size();
}

/// The always-on verification gate: online by default, and RPR_VERIFY_PLANS
/// additionally forces the full uncached algebraic fold. `run(skip_algebra)`
/// builds the report; a violation throws. The algebraic fold runs once per
/// distinct plan structure (a fingerprint is cached only after its fold
/// passed); topology and conservation are checked every time.
template <typename Run>
void verify_online(const RepairPlan& plan,
                   std::span<const verify::RemainderCheck> outputs,
                   const Run& run, const std::string& context) {
  if (!verify::online_verify_enabled() && !verify::verify_plans_enabled()) {
    return;
  }
  const std::uint64_t fp = verify::plan_fingerprint(plan, outputs);
  const bool skip =
      !verify::verify_plans_enabled() && verify::algebra_cache_contains(fp);
  verify::throw_if_violated(run(skip), context);
  if (!skip) verify::algebra_cache_insert(fp);
}

}  // namespace

RepairProblem plan_around_full_disks(const RepairProblem& problem,
                                     const ResilientOptions& opts) {
  const topology::Placement& placement = *problem.placement;
  std::set<std::size_t> lost(problem.failed.begin(), problem.failed.end());
  for (std::size_t b = 0; b < problem.code->config().total(); ++b) {
    if (opts.unavailable.count(placement.node_of(b)) != 0) lost.insert(b);
  }
  std::set<topology::NodeId> unusable = opts.unavailable;
  unusable.insert(opts.no_commit.begin(), opts.no_commit.end());
  std::vector<topology::NodeId> chosen;
  for (const topology::NodeId dest : problem.replacements) {
    if (opts.no_commit.count(dest) == 0) chosen.push_back(dest);
  }
  RepairProblem moved = problem;
  for (topology::NodeId& dest : moved.replacements) {
    if (opts.no_commit.count(dest) == 0) continue;
    dest = topology::pick_replacement(
        placement, placement.cluster().rack_of(dest), lost, unusable, chosen);
    chosen.push_back(dest);
  }
  return moved;
}

ResilientOutcome execute_resilient_with(Engine& engine,
                                        const RepairProblem& problem,
                                        const Planner& planner,
                                        std::span<const rs::Block> stripe,
                                        const ResilientOptions& opts) {
  if (problem.code == nullptr || problem.placement == nullptr) {
    throw std::invalid_argument("execute_resilient: problem not specified");
  }
  const rs::RSCode& code = *problem.code;
  const topology::Placement& placement = *problem.placement;
  const std::size_t total = code.config().total();

  const RprOptions replan_opts = planner.rpr_options();

  // A replacement on a full disk could never keep the rebuilt block.
  const RepairProblem first = plan_around_full_disks(problem, opts);
  const PlannedRepair planned = planner.plan(first);

  // Online verification of the initial plan against the planner's scheme,
  // cached on the plan and the problem each output answers.
  std::vector<verify::RemainderCheck> first_keys(
      std::min({planned.outputs.size(), planned.equations.size(),
                first.replacements.size()}));
  for (std::size_t e = 0; e < first_keys.size(); ++e) {
    first_keys[e].eq.failed_block = planned.equations[e].failed_block;
    first_keys[e].eq.terms = leaf_terms(planned.equations[e]);
    first_keys[e].eq.destination = first.replacements[e];
    first_keys[e].output = planned.outputs[e];
  }
  verify_online(
      planned.plan, first_keys,
      [&](bool skip) {
        return verify::verify_planned_repair(planned, first, planner.scheme(),
                                             skip);
      },
      "initial " + planner.name() + " plan");

  ResilientOutcome out;
  out.used_decoding_matrix = planned.used_decoding_matrix;
  out.destinations = first.replacements;

  const RemainderScheme first_scheme =
      planner.scheme() == Scheme::kRprChained ? RemainderScheme::kChain
                                              : RemainderScheme::kPipeline;
  std::vector<EqState> eqs;
  eqs.reserve(planned.equations.size());
  for (std::size_t e = 0; e < planned.equations.size(); ++e) {
    const rs::RepairEquation& eq = planned.equations[e];
    EqState s;
    s.failed_block = eq.failed_block;
    s.remaining = leaf_terms(eq);
    s.destination = first.replacements[e];
    s.with_matrix = planned.used_decoding_matrix;
    s.scheme = first_scheme;
    eqs.push_back(std::move(s));
  }

  std::set<std::size_t> unusable(problem.failed.begin(), problem.failed.end());
  std::set<topology::NodeId> dead = opts.unavailable;
  /// Latest permanent partition's per-node side map (empty = none seen).
  std::vector<int> perm_side;

  RepairPlan cur_plan = planned.plan;
  std::vector<OpId> cur_outputs = planned.outputs;
  std::vector<std::size_t> eq_of_output(eqs.size());
  for (std::size_t i = 0; i < eqs.size(); ++i) eq_of_output[i] = i;
  // The first attempt reads the caller's stripe in place; a re-plan that
  // banks partials copies it once and appends them as pseudo slots.
  std::vector<rs::Block> ext_stripe;
  std::span<const rs::Block> cur_stripe = stripe;

  const auto salvage_throw = [&]() {
    std::size_t values = 0;
    std::uint64_t bytes = 0;
    std::ostringstream os;
    os << "re-plan budget (" << opts.max_replans << ") exhausted after "
       << out.replans << " re-plan(s);";
    for (const EqState& s : eqs) {
      if (s.done) {
        os << " b" << s.failed_block << ": rebuilt;";
        continue;
      }
      values += s.partials.size();
      std::uint64_t eq_bytes = 0;
      for (const auto& p : s.partials) eq_bytes += p.value.size();
      bytes += eq_bytes;
      os << " b" << s.failed_block << ": " << s.remaining.size()
         << " term(s) outstanding, " << s.partials.size()
         << " banked partial(s), " << eq_bytes << " byte(s) salvageable";
      for (const auto& p : s.partials) os << " @node" << p.node;
      os << ";";
    }
    throw ReplanBudgetExhausted(out.replans, values, bytes, os.str());
  };

  for (std::size_t round = 0;; ++round) {
    check::point(check::PointKind::kReplan, round, 0, "resilient.attempt");
    Attempt a = engine.execute(cur_plan, cur_outputs, cur_stripe);
    out.retries += a.retries;
    out.faults_injected += a.faults_injected;
    out.total_time_s += a.elapsed_s;
    out.cross_rack_bytes += a.cross_rack_bytes;
    out.inner_rack_bytes += a.inner_rack_bytes;
    out.cross_rack_transfers += a.cross_rack_transfers;
    out.inner_rack_transfers += a.inner_rack_transfers;
    if (opts.probe.metrics && a.retries > 0) {
      opts.probe.metrics->counter("repair.retries").add(a.retries);
    }
    if (opts.probe.metrics && a.faults_injected > 0) {
      opts.probe.metrics->counter("repair.faults_injected")
          .add(a.faults_injected);
    }

    if (!a.abort) {
      RPR_INVARIANT(a.outputs.size() == cur_outputs.size(),
                    "a completed attempt delivers every requested output");
      for (std::size_t i = 0; i < cur_outputs.size(); ++i) {
        EqState& s = eqs[eq_of_output[i]];
        s.result = std::move(a.outputs[i]);
        s.done = true;
      }
      break;
    }

    const Abort& abort = *a.abort;
    if (!abort.partitioned && abort.dead_nodes.empty()) {
      throw std::runtime_error(
          "execute_resilient: attempt aborted without naming a dead node");
    }
    // Bank the aborting attempt's finished work — also when the budget is
    // gone, so the salvage report describes exactly what a future session
    // can reuse. Partitioned helpers are NOT dead: their blocks and partials
    // stay candidates (usable after heal, or near-side under a permanent
    // split).
    dead.insert(abort.dead_nodes.begin(), abort.dead_nodes.end());
    // An output that finished before the failure is simply done — its bytes
    // were delivered at a (still alive) destination.
    const auto contrib = leaf_contributions(cur_plan);
    for (std::size_t i = 0; i < cur_outputs.size(); ++i) {
      EqState& s = eqs[eq_of_output[i]];
      for (const auto& f : abort.finished) {
        if (f.first == cur_outputs[i]) {
          s.result = f.second;
          s.done = true;
          break;
        }
      }
    }
    for (EqState& s : eqs) {
      if (s.done) continue;
      unbank_if(s, [&](topology::NodeId n) { return dead.count(n) != 0; });
      // Bank freshly finished values wherever they survived — including a
      // partitioned helper's rack aggregate; unreachable is not lost.
      check::point(check::PointKind::kBank, s.failed_block, 0,
                   "resilient.bank");
      out.reused_values +=
          fold_finished_values(s, cur_plan, contrib, abort.finished, dead);
    }
    if (round >= opts.max_replans) salvage_throw();
    ++out.replans;
    ++out.faults_injected;

    const bool heal_expected = abort.partitioned && abort.heal_wait_s >= 0.0;
    if (heal_expected) {
      ++out.partition_waits;
    } else if (abort.partitioned && !abort.partition_side.empty()) {
      perm_side = abort.partition_side;
    }

    if (opts.probe.metrics) {
      opts.probe.metrics->counter("repair.replans").increment();
      opts.probe.metrics->counter("repair.faults_injected").increment();
      if (abort.partitioned) {
        opts.probe.metrics->counter("repair.partition_aborts").increment();
      }
    }
    if (opts.probe.trace) {
      obs::Span span;
      if (abort.partitioned) {
        span.name = heal_expected
                        ? "replan (partition, waiting " +
                              std::to_string(abort.heal_wait_s) + "s for heal)"
                        : "replan (partition, permanent: rerouting)";
        span.track = 0;
      } else {
        const std::vector<topology::NodeId>& lost = abort.dead_nodes;
        span.name = lost.size() > 1
                        ? "replan (" + std::to_string(lost.size()) +
                              " nodes lost, failure domain)"
                        : "replan (node " + std::to_string(lost.front()) +
                              " lost)";
        span.track = lost.front();
      }
      span.category = "replan";
      span.start_ns = static_cast<std::int64_t>(out.total_time_s * 1e9);
      span.dur_ns = 0;
      opts.probe.trace->add_span(std::move(span));
    }

    // Every block on a dead node is gone for good.
    for (std::size_t b = 0; b < total; ++b) {
      if (dead.count(placement.node_of(b)) != 0) unusable.insert(b);
    }

    std::size_t next_round_index = 0;
    RepairPlan next_plan;
    next_plan.block_size = problem.block_size;
    std::vector<OpId> next_outputs;
    std::vector<std::size_t> next_eq_of_output;
    std::vector<verify::RemainderCheck> audit;
    ext_stripe.clear();

    for (std::size_t e = 0; e < eqs.size(); ++e) {
      EqState& s = eqs[e];
      if (s.done) continue;

      // Relocate the destination when it died; this is the scheme-switch
      // point — the new recovery rack may favor a different cross-rack
      // shape.
      bool relocated = false;
      if (dead.count(s.destination) != 0) {
        std::set<topology::NodeId> cannot_commit = dead;
        cannot_commit.insert(opts.no_commit.begin(), opts.no_commit.end());
        std::vector<topology::NodeId> others;
        for (const EqState& other : eqs) {
          if (&other != &s) others.push_back(other.destination);
        }
        s.destination = topology::pick_replacement(
            placement, placement.cluster().rack_of(s.destination), unusable,
            cannot_commit, others);
        out.destinations[e] = s.destination;
        relocated = true;
      }

      // A permanent fabric split: blocks and partials on the far side of
      // this equation's destination are unreachable for good — but only
      // for routing; the helpers stay alive and undeclared-lost.
      std::set<std::size_t> eq_unusable = unusable;
      if (!perm_side.empty()) {
        const int near = perm_side[s.destination];
        unbank_if(s, [&](topology::NodeId n) { return perm_side[n] != near; });
        for (std::size_t b = 0; b < total; ++b) {
          if (perm_side[placement.node_of(b)] != near) eq_unusable.insert(b);
        }
      }

      // Patch the outstanding equation around every unusable block.
      std::vector<std::size_t> bad;
      for (const auto& [b, c] : s.remaining) {
        (void)c;
        if (eq_unusable.count(b) != 0) bad.push_back(b);
      }
      for (const std::size_t b : bad) {
        substitute_source(code, s.remaining, b, eq_unusable);
        // Patched coefficients are arbitrary: the cheap XOR-only decode
        // guarantee is void, so charge the matrix path from here on.
        s.with_matrix = true;
      }

      // A destination-resident partial must take the lowest pseudo slot so
      // the recovery-rack reduction roots at the destination (the traffic
      // closed forms assume it).
      std::stable_sort(s.partials.begin(), s.partials.end(),
                       [&](const BankedPartial& x, const BankedPartial& y) {
                         return static_cast<int>(x.node == s.destination) >
                                static_cast<int>(y.node == s.destination);
                       });

      RemainderEquation req;
      req.failed_block = s.failed_block;
      req.terms = s.remaining;
      req.destination = s.destination;
      req.with_matrix = s.with_matrix;
      for (auto& p : s.partials) {
        if (ext_stripe.empty()) ext_stripe.assign(stripe.begin(), stripe.end());
        p.slot = ext_stripe.size();
        req.partials.push_back(RemainderPartial{p.slot, p.node});
        ext_stripe.push_back(p.value);
      }
      if (relocated && !req.terms.empty()) {
        const RemainderScheme chosen =
            choose_remainder_scheme(placement, req);
        if (chosen != s.scheme) {
          ++out.scheme_switches;
          s.scheme = chosen;
          if (opts.probe.metrics) {
            opts.probe.metrics->counter("repair.scheme_switches").increment();
          }
        }
      }
      req.scheme = s.scheme;

      next_outputs.push_back(plan_remainder(next_plan, placement, req,
                                            replan_opts, next_round_index++));
      next_eq_of_output.push_back(e);
      verify::RemainderCheck check;
      check.eq = req;
      check.output = next_outputs.back();
      for (const auto& p : s.partials) {
        check.partial_decompositions[p.slot] = p.terms;
      }
      audit.push_back(std::move(check));
    }

    if (!next_outputs.empty()) {
      verify_online(
          next_plan, audit,
          [&](bool skip) {
            return verify::verify_remainder_plan(next_plan, placement, code,
                                                 audit, unusable, skip);
          },
          "mid-repair re-plan, round " + std::to_string(round));
    }

    if (next_outputs.empty()) break;  // everything finished before the fault

    // Ride out a healing partition before retrying: the banked partials of
    // unreachable-but-alive helpers stay valid, nothing is substituted.
    if (heal_expected) engine.wait_for_heal(abort.heal_wait_s);

    cur_plan = std::move(next_plan);
    cur_outputs = std::move(next_outputs);
    eq_of_output = std::move(next_eq_of_output);
    cur_stripe = ext_stripe.empty() ? stripe
                                    : std::span<const rs::Block>(ext_stripe);
  }

  out.outputs.resize(eqs.size());
  for (std::size_t e = 0; e < eqs.size(); ++e) {
    if (!eqs[e].done) {
      throw std::logic_error("execute_resilient: equation left unfinished");
    }
    out.outputs[e] = std::move(eqs[e].result);
  }
  return out;
}

namespace {

/// Discrete-event chaos engine: executes plans on SimNetwork under a fault
/// schedule, on a session-wide simulated clock. Every attempt's run is
/// recorded into `probe`, as repair::simulate records its one run.
class SimChaosEngine final : public Engine {
 public:
  SimChaosEngine(const topology::Cluster& cluster,
                 const topology::NetworkParams& net,
                 const fault::FaultSchedule& faults, const obs::Probe& probe)
      : cluster_(cluster), net_(net), faults_(faults), probe_(probe) {
    // Whole-rack deaths lower to per-node kills; the cut machinery below
    // then reports the whole failure domain in one abort.
    faults_.expand_racks(cluster);
  }

  /// Simulated time: riding out a heal is one clock jump, not a sleep.
  void wait_for_heal(double seconds) override {
    if (seconds > 0.0) clock_s_ += seconds;
  }

  Attempt execute(const RepairPlan& plan, std::span<const OpId> outputs,
                  std::span<const rs::Block> stripe) override {
    validate(plan, cluster_);

    // A healing partition active right now and cut by this plan stalls the
    // session until the fabric heals (the driver already counted the wait
    // when the previous attempt aborted).
    for (const auto& p : faults_.partitions) {
      if (!p.heals()) continue;
      const double heal_at = p.at_s + p.heal_after_s;
      if (clock_s_ >= p.at_s && clock_s_ < heal_at &&
          plan_crosses(p, plan)) {
        clock_s_ = heal_at;
      }
    }

    simnet::SimNetwork sim(cluster_, net_);
    for (const auto& st : faults_.stragglers) {
      sim.slow_node(st.node, st.factor);
      if (straggles_counted_.insert(st.node).second) ++injected_faults_;
    }
    for (const auto& d : faults_.slow_disks) {
      sim.slow_compute(d.node, d.factor);
      if (slowdisks_counted_.insert(d.node).second) ++injected_faults_;
    }

    // Shared lowering (repair/lowering.h): per-op task ranges index the
    // TaskStats back to plan ops — one task per op, or one per slice when
    // the params enable slice pipelining.
    const detail::LoweredPlan lowered =
        detail::lower_plan(sim, plan, net_.slice_size);
    const simnet::RunResult run = sim.run();
    simnet::record_run(run, cluster_, probe_);

    // Earliest kill that bites this attempt: some task touching the killed
    // node would still be unfinished at the cut. Non-biting kills stay
    // pending — they bite (and are reported) the first time a plan needs
    // the node.
    const fault::KillNode* biting_kill = nullptr;
    util::SimTime kill_cut = 0;
    for (const auto& kill : faults_.kills) {
      if (dead_.count(kill.node) != 0) continue;
      const util::SimTime cut = rel_cut(kill.at_s);
      if (cut >= run.makespan) continue;
      bool touches = false;
      for (OpId id = 0; id < plan.ops.size() && !touches; ++id) {
        for (const simnet::TaskId t : lowered.slice_tasks[id]) {
          const simnet::TaskStats& st = run.tasks[t];
          if ((st.node == kill.node || st.from == kill.node) &&
              st.finish > cut) {
            touches = true;
            break;
          }
        }
      }
      if (!touches) continue;
      if (biting_kill == nullptr || cut < kill_cut) {
        biting_kill = &kill;
        kill_cut = cut;
      }
    }

    // Earliest partition that bites: a cross-cut transfer would run while
    // the split is active.
    const fault::Partition* biting_part = nullptr;
    util::SimTime part_cut = 0;
    for (const auto& p : faults_.partitions) {
      const double heal_rel_s =
          p.heals() ? (p.at_s + p.heal_after_s) - clock_s_ : -1.0;
      if (p.heals() && heal_rel_s <= 0.0) continue;  // already healed
      const util::SimTime cut = rel_cut(p.at_s);
      if (cut >= run.makespan) continue;
      const util::SimTime heal_cut =
          p.heals() ? static_cast<util::SimTime>(heal_rel_s * util::kNsPerSec)
                    : std::numeric_limits<util::SimTime>::max();
      bool bites = false;
      for (const simnet::TaskStats& st : run.tasks) {
        if (st.kind != simnet::TaskKind::kTransfer || st.from == st.node) {
          continue;
        }
        if (!p.separates(cluster_.rack_of(st.from),
                         cluster_.rack_of(st.node))) {
          continue;
        }
        if (st.finish > cut && st.start < heal_cut) {
          bites = true;
          break;
        }
      }
      if (!bites) continue;
      if (biting_part == nullptr || cut < part_cut) {
        biting_part = &p;
        part_cut = cut;
      }
    }

    Attempt a;
    a.faults_injected = injected_faults_;
    injected_faults_ = 0;

    if (biting_kill == nullptr && biting_part == nullptr) {
      a.outputs = execute_on_data(plan, outputs, stripe);
      a.elapsed_s = util::to_sec(run.makespan);
      clock_s_ += a.elapsed_s;
      a.cross_rack_bytes = run.cross_rack_bytes;
      a.inner_rack_bytes = run.inner_rack_bytes;
      a.cross_rack_transfers = run.cross_rack_transfers;
      a.inner_rack_transfers = run.inner_rack_transfers;
      return a;
    }

    // Ties go to the kill: a node death explains more than a reachability
    // loss at the same instant.
    const bool partition_wins =
        biting_part != nullptr &&
        (biting_kill == nullptr || part_cut < kill_cut);
    const util::SimTime cut = partition_wins ? part_cut : kill_cut;
    const double cut_s = util::to_sec(cut);

    Abort& abort = a.abort.emplace();
    if (partition_wins) {
      abort.partitioned = true;
      abort.heal_wait_s =
          biting_part->heals()
              ? (biting_part->at_s + biting_part->heal_after_s) -
                    (clock_s_ + cut_s)
              : -1.0;
      abort.partition_side = biting_part->sides(cluster_);
    } else {
      // Report every node dead by the cut in one abort — a TOR death takes
      // the whole rack down at once and one re-plan absorbs it. The biting
      // kill's node is the one blamed, so it goes first.
      abort.dead_nodes.push_back(biting_kill->node);
      dead_.insert(biting_kill->node);
      for (const auto& kill : faults_.kills) {
        if (dead_.count(kill.node) != 0) continue;
        if (rel_cut(kill.at_s) <= cut) {
          dead_.insert(kill.node);
          abort.dead_nodes.push_back(kill.node);
        }
      }
    }
    a.elapsed_s = cut_s;
    clock_s_ += a.elapsed_s;

    // Values fully materialized by the cut — every slice of the op landed —
    // excluding any at a dead node. Traffic is counted per slice task, so a
    // transfer interrupted mid-stream still accounts the slices that made
    // it across before the kill (a banked *value* stays all-or-nothing; the
    // real engines likewise discard partially-streamed buffers on abort).
    std::vector<OpId> done_ops;
    for (OpId id = 0; id < plan.ops.size(); ++id) {
      bool all_done = true;
      for (const simnet::TaskId t : lowered.slice_tasks[id]) {
        const simnet::TaskStats& st = run.tasks[t];
        if (st.finish > cut) {
          all_done = false;
          continue;
        }
        if (st.kind == simnet::TaskKind::kTransfer && st.from != st.node) {
          (st.cross_rack ? a.cross_rack_bytes : a.inner_rack_bytes) +=
              st.bytes;
          ++(st.cross_rack ? a.cross_rack_transfers : a.inner_rack_transfers);
        }
      }
      if (!all_done) continue;
      if (dead_.count(plan.ops[id].node) != 0) continue;
      done_ops.push_back(id);
    }
    auto values = execute_on_data(plan, done_ops, stripe);
    abort.finished.reserve(done_ops.size());
    for (std::size_t i = 0; i < done_ops.size(); ++i) {
      abort.finished.emplace_back(done_ops[i], std::move(values[i]));
    }
    return a;
  }

 private:
  /// Engine-relative cut time of an absolute schedule time.
  [[nodiscard]] util::SimTime rel_cut(double at_s) const {
    const double rel_s = std::max(0.0, at_s - clock_s_);
    return static_cast<util::SimTime>(rel_s * util::kNsPerSec);
  }

  [[nodiscard]] bool plan_crosses(const fault::Partition& p,
                                  const RepairPlan& plan) const {
    for (const PlanOp& op : plan.ops) {
      if (op.kind != OpKind::kSend || op.from == op.node) continue;
      if (p.separates(cluster_.rack_of(op.from), cluster_.rack_of(op.node))) {
        return true;
      }
    }
    return false;
  }

  const topology::Cluster& cluster_;
  topology::NetworkParams net_;
  fault::FaultSchedule faults_;
  obs::Probe probe_;
  double clock_s_ = 0.0;
  std::set<topology::NodeId> dead_;
  std::set<topology::NodeId> straggles_counted_;
  std::set<topology::NodeId> slowdisks_counted_;
  std::size_t injected_faults_ = 0;
};

}  // namespace

ResilientOutcome simulate_resilient(const RepairProblem& problem,
                                    const Planner& planner,
                                    std::span<const rs::Block> stripe,
                                    const topology::NetworkParams& net,
                                    const fault::FaultSchedule& faults,
                                    const ResilientOptions& opts) {
  SimChaosEngine engine(problem.placement->cluster(), net, faults, opts.probe);
  return execute_resilient_with(engine, problem, planner, stripe, opts);
}

}  // namespace rpr::repair
