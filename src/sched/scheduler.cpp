#include "sched/scheduler.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "repair/analysis.h"
#include "repair/lowering.h"
#include "simnet/instrument.h"
#include "util/contracts.h"
#include "util/slice.h"

namespace rpr::sched {

using repair::PlannedRepair;
using repair::RepairProblem;
using repair::Scheme;
using simnet::TaskId;
using topology::NodeId;
using util::SimTime;

const char* read_path_name(ReadPath p) {
  switch (p) {
    case ReadPath::kHealthy:
      return "healthy";
    case ReadPath::kCommitted:
      return "committed";
    case ReadPath::kBanked:
      return "banked";
    case ReadPath::kPromoted:
      return "promoted";
    case ReadPath::kCommitWait:
      return "commit_wait";
  }
  return "?";
}

namespace {

constexpr SimTime to_ns(double seconds) {
  return static_cast<SimTime>(seconds *
                              static_cast<double>(util::kNsPerSec));
}

/// Foreground priority beats repair on same-instant ties; promoted
/// degraded reads beat both.
constexpr int kForegroundPriority = 1;
constexpr int kDegradedPriority = 2;

struct StripeState {
  enum class Phase { kQueued, kInFlight, kCommitted };
  Phase phase = Phase::kQueued;
  SimTime arrival = 0;
  SimTime admit = 0;
  SimTime commit = 0;
  int base_priority = 0;
  Scheme scheme = Scheme::kRpr;
  bool damaged = false;
  bool arrived = false;
  /// Outstanding lowered repair tasks; commit when it reaches zero.
  std::size_t remaining = 0;
  TaskId first = 0, last = 0;
  /// Output-op slice tasks per failed block (the published prefix banked
  /// reads stream from), and that block's replacement node.
  std::map<std::size_t, std::vector<TaskId>> out_tasks;
  std::map<std::size_t, NodeId> replacement;
  /// Reads parked until commit (kWaitForCommit policy).
  std::vector<std::size_t> waiting_reads;
};

struct ReadState {
  ReadEvent ev;
  SimTime arrival = 0;
  ReadPath path = ReadPath::kHealthy;
  TaskId done_task = simnet::kNoTask;
};

/// Nearest-rank percentile over an unsorted sample set (q in [0,1]): the
/// smallest value with at least q * n samples <= it; 0 when empty.
double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  if (q <= 0.0) return samples.front();
  if (q >= 1.0) return samples.back();
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return samples[rank == 0 ? 0 : rank - 1];
}

/// Deterministic uniform in [0,1) from a raw 64-bit draw (independent of
/// libstdc++'s distribution implementations).
double uniform01(std::uint64_t raw) {
  return std::ldexp(static_cast<double>(raw >> 11), -53);
}

}  // namespace

FleetSchedOutcome run_fleet(const FleetWorkload& workload,
                            const topology::Cluster& cluster,
                            const topology::NetworkParams& params,
                            const SchedulerOptions& options) {
  if (options.max_inflight == 0) {
    throw std::invalid_argument("run_fleet: max_inflight must be >= 1");
  }
  for (const StripeArrival& s : workload.stripes) {
    if (s.problem.code == nullptr || s.problem.placement == nullptr) {
      throw std::invalid_argument("run_fleet: stripe problem not specified");
    }
    if (s.arrival_s < 0) {
      throw std::invalid_argument("run_fleet: negative arrival time");
    }
  }
  if (workload.foreground.qps > 0 && workload.foreground.duration_s <= 0) {
    throw std::invalid_argument(
        "run_fleet: foreground qps needs a positive duration");
  }

  simnet::SimNetwork net(cluster, params);
  if (options.repair_share < 1.0) {
    net.set_arbiter(simnet::ArbiterConfig{options.repair_share});
  }

  FleetSchedOutcome out;
  std::vector<StripeState> stripes(workload.stripes.size());
  std::vector<ReadState> reads;

  // --- materialize the read stream: explicit probes + seeded generator.
  for (const ReadEvent& ev : workload.reads) {
    if (ev.stripe >= workload.stripes.size()) {
      throw std::invalid_argument("run_fleet: read references unknown stripe");
    }
    reads.push_back(ReadState{ev, to_ns(ev.time_s)});
  }
  if (workload.foreground.qps > 0 && !workload.stripes.empty()) {
    std::mt19937_64 gen(workload.foreground.seed);
    double t = 0.0;
    while (true) {
      const double u = std::max(uniform01(gen()), 1e-12);
      t += -std::log(u) / workload.foreground.qps;
      if (t >= workload.foreground.duration_s) break;
      ReadEvent ev;
      ev.time_s = t;
      ev.stripe = static_cast<std::size_t>(gen() % workload.stripes.size());
      const auto& cfg = workload.stripes[ev.stripe].problem.code->config();
      ev.block = static_cast<std::size_t>(gen() % cfg.n);
      ev.reader = static_cast<NodeId>(gen() % cluster.total_nodes());
      reads.push_back(ReadState{ev, to_ns(ev.time_s)});
    }
  }

  // --- timers: zero-byte same-node transfers are instant and portless,
  // so they fire at exactly their earliest_start and cost nothing. They
  // are the first tasks added: arrival timers (task id -> stripe), then
  // one read timer per read (task id first_read_timer + ri).
  std::vector<std::size_t> arrival_stripe;

  for (std::size_t i = 0; i < workload.stripes.size(); ++i) {
    const StripeArrival& sa = workload.stripes[i];
    StripeState& st = stripes[i];
    st.arrival = to_ns(sa.arrival_s);
    st.base_priority = sa.priority;
    st.damaged = !sa.problem.failed.empty();
    if (!st.damaged) continue;  // readable but nothing to repair
    const NodeId timer_node = sa.problem.replacements.empty()
                                  ? NodeId{0}
                                  : sa.problem.replacements.front();
    const TaskId timer = net.add_transfer(
        timer_node, timer_node, 0, {}, "sched:arrive s" + std::to_string(i));
    net.set_earliest_start(timer, st.arrival);
    RPR_INVARIANT(timer == arrival_stripe.size(),
                  "arrival timers are the first tasks");
    arrival_stripe.push_back(i);
  }
  const TaskId first_read_timer = net.task_count();
  for (std::size_t i = 0; i < reads.size(); ++i) {
    const TaskId timer =
        net.add_transfer(reads[i].ev.reader, reads[i].ev.reader, 0, {},
                         "sched:read r" + std::to_string(i));
    net.set_earliest_start(timer, reads[i].arrival);
  }

  // --- scheduler state driven by the finish hook.
  std::vector<std::size_t> queue;  // stripe indices awaiting admission
  std::size_t inflight = 0;
  /// Admitted stripes' task ranges, ascending by first id.
  std::vector<std::tuple<TaskId, TaskId, std::size_t>> ranges;

  out.admission_wait_s.assign(stripes.size(), 0.0);
  out.completion_s.assign(stripes.size(), 0.0);
  out.scheme_of.assign(stripes.size(), options.scheme);

  const auto plan_stripe = [&](std::size_t idx) -> PlannedRepair {
    const RepairProblem& problem = workload.stripes[idx].problem;
    if (!options.auto_scheme) {
      stripes[idx].scheme = options.scheme;
      return repair::make_planner(options.scheme)->plan(problem);
    }
    auto pick = repair::analysis::choose_star_or_chain(problem, cluster, params,
                                                       options.slice_size);
    stripes[idx].scheme = pick.scheme;
    if (pick.scheme == Scheme::kRprChained) {
      ++out.auto_chained_picks;
    } else {
      ++out.auto_star_picks;
    }
    return std::move(pick.planned);
  };

  const auto admit = [&](std::size_t idx, SimTime now) {
    StripeState& st = stripes[idx];
    const RepairProblem& problem = workload.stripes[idx].problem;
    const PlannedRepair planned = plan_stripe(idx);
    repair::validate(planned.plan, cluster);

    st.first = net.task_count();
    const repair::detail::LoweredPlan lowered =
        repair::detail::lower_plan(net, planned.plan, options.slice_size);
    st.last = net.task_count();
    st.remaining = st.last - st.first;
    for (std::size_t j = 0; j < problem.failed.size(); ++j) {
      st.out_tasks[problem.failed[j]] =
          lowered.slice_tasks[planned.outputs[j]];
      st.replacement[problem.failed[j]] = problem.replacements[j];
    }
    st.phase = StripeState::Phase::kInFlight;
    st.admit = now;
    out.admission_wait_s[idx] = util::to_sec(now - st.arrival);
    out.scheme_of[idx] = st.scheme;
    ranges.emplace_back(st.first, st.last, idx);
    ++inflight;
  };

  const auto admit_available = [&](SimTime now) {
    while (inflight < options.max_inflight && !queue.empty()) {
      // Highest effective priority first; aging makes the order
      // starvation-free. Ties: earliest arrival, then lowest index.
      std::size_t best = 0;
      double best_eff = 0.0;
      for (std::size_t qi = 0; qi < queue.size(); ++qi) {
        const StripeState& st = stripes[queue[qi]];
        const double eff =
            static_cast<double>(st.base_priority) +
            options.aging_priority_per_s * util::to_sec(now - st.arrival);
        const bool better =
            qi == 0 || eff > best_eff ||
            (eff == best_eff &&
             (st.arrival < stripes[queue[best]].arrival ||
              (st.arrival == stripes[queue[best]].arrival &&
               queue[qi] < queue[best])));
        if (better) {
          best = qi;
          best_eff = eff;
        }
      }
      const std::size_t idx = queue[best];
      queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(best));
      admit(idx, now);
    }
  };

  const auto read_bytes = [&](const ReadState& r) -> std::uint64_t {
    const std::uint64_t block =
        workload.stripes[r.ev.stripe].problem.block_size;
    return workload.foreground.read_size != 0 ? workload.foreground.read_size
                                              : block;
  };

  const auto serve_from_replacement = [&](std::size_t ri, ReadPath path) {
    ReadState& r = reads[ri];
    const StripeState& st = stripes[r.ev.stripe];
    const NodeId from = st.replacement.at(r.ev.block);
    const TaskId t = net.add_transfer(
        from, r.ev.reader, workload.stripes[r.ev.stripe].problem.block_size,
        {}, "sched:dread r" + std::to_string(ri));
    net.set_class(t, simnet::TrafficClass::kForeground);
    net.set_priority(t, kForegroundPriority);
    r.path = path;
    r.done_task = t;
  };

  const auto resolve_read = [&](std::size_t ri) {
    ReadState& r = reads[ri];
    StripeState& st = stripes[r.ev.stripe];
    const RepairProblem& problem = workload.stripes[r.ev.stripe].problem;
    const bool lost =
        std::find(problem.failed.begin(), problem.failed.end(), r.ev.block) !=
        problem.failed.end();

    if (!lost) {
      const NodeId owner = problem.placement->node_of(r.ev.block);
      const TaskId t =
          net.add_transfer(owner, r.ev.reader, read_bytes(r), {},
                           "sched:read r" + std::to_string(ri));
      net.set_class(t, simnet::TrafficClass::kForeground);
      net.set_priority(t, kForegroundPriority);
      r.path = ReadPath::kHealthy;
      r.done_task = t;
      return;
    }

    switch (st.phase) {
      case StripeState::Phase::kCommitted:
        serve_from_replacement(ri, ReadPath::kCommitted);
        return;
      case StripeState::Phase::kInFlight: {
        if (options.degraded == DegradedPolicy::kWaitForCommit) {
          r.path = ReadPath::kCommitWait;
          st.waiting_reads.push_back(ri);
          return;
        }
        // Banked streaming: relay each published output slice to the
        // reader as it lands; already-published slices flow immediately.
        const std::vector<TaskId>& slices = st.out_tasks.at(r.ev.block);
        const NodeId from = st.replacement.at(r.ev.block);
        const std::uint64_t block = problem.block_size;
        TaskId prev = simnet::kNoTask;
        for (std::size_t s = 0; s < slices.size(); ++s) {
          std::vector<TaskId> deps{slices[s]};
          if (prev != simnet::kNoTask) deps.push_back(prev);
          const std::uint64_t bytes =
              util::slice_len(block, options.slice_size, s);
          prev = net.add_transfer(from, r.ev.reader, bytes, std::move(deps),
                                  "sched:bank r" + std::to_string(ri));
          net.set_class(prev, simnet::TrafficClass::kForeground);
          net.set_priority(prev, kDegradedPriority);
        }
        r.path = ReadPath::kBanked;
        r.done_task = prev;
        return;
      }
      case StripeState::Phase::kQueued: {
        if (options.degraded == DegradedPolicy::kWaitForCommit) {
          r.path = ReadPath::kCommitWait;
          st.waiting_reads.push_back(ri);
          return;
        }
        // Promote a one-block degraded-read plan past the admission queue.
        RepairProblem read = problem;
        read.failed = {r.ev.block};
        read.replacements = {r.ev.reader};
        const PlannedRepair pr =
            repair::DegradedReadPlanner(problem.failed).plan(read);
        repair::validate(pr.plan, cluster);
        const TaskId first = net.task_count();
        const repair::detail::LoweredPlan lowered =
            repair::detail::lower_plan(net, pr.plan, options.slice_size);
        for (TaskId t = first; t < net.task_count(); ++t) {
          net.set_class(t, simnet::TrafficClass::kForeground);
          net.set_priority(t, kDegradedPriority);
        }
        r.path = ReadPath::kPromoted;
        r.done_task = lowered.last(pr.outputs[0]);
        return;
      }
    }
  };

  const auto commit_stripe = [&](std::size_t idx, SimTime now) {
    StripeState& st = stripes[idx];
    st.phase = StripeState::Phase::kCommitted;
    st.commit = now;
    out.completion_s[idx] = util::to_sec(now);
    RPR_INVARIANT(inflight > 0, "commit implies an in-flight stripe");
    --inflight;
    for (const std::size_t ri : st.waiting_reads) {
      serve_from_replacement(ri, ReadPath::kCommitWait);
    }
    st.waiting_reads.clear();
  };

  std::vector<std::size_t> committed;  // per batch, reused
  net.set_finish_hook([&](SimTime now, std::span<const TaskId> done) {
    // 1) account repair-task completions; collect commits.
    committed.clear();
    for (const TaskId id : done) {
      auto it = std::upper_bound(
          ranges.begin(), ranges.end(), id,
          [](TaskId v, const auto& rg) { return v < std::get<0>(rg); });
      if (it == ranges.begin()) continue;
      --it;
      if (id >= std::get<1>(*it)) continue;
      StripeState& st = stripes[std::get<2>(*it)];
      RPR_INVARIANT(st.remaining > 0, "completions match lowered tasks");
      if (--st.remaining == 0) committed.push_back(std::get<2>(*it));
    }
    for (const std::size_t idx : committed) commit_stripe(idx, now);

    // 2) arrivals join the queue; 3) reads resolve against current state.
    for (const TaskId id : done) {
      if (id < arrival_stripe.size()) {
        stripes[arrival_stripe[id]].arrived = true;
        queue.push_back(arrival_stripe[id]);
      }
    }
    for (const TaskId id : done) {
      if (id >= first_read_timer && id - first_read_timer < reads.size()) {
        resolve_read(id - first_read_timer);
      }
    }

    // 4) fill freed / still-free repair slots; what remains is backlog.
    admit_available(now);
    out.max_queue_depth = std::max(out.max_queue_depth, queue.size());
  });

  const simnet::RunResult r = net.run();
  record_run(r, cluster, options.probe);

  // --- harvest.
  out.makespan_s = util::to_sec(r.makespan);
  out.repair_bytes = r.repair_bytes;
  out.foreground_bytes = r.foreground_bytes;
  out.cross_rack_bytes = r.cross_rack_bytes;
  out.inner_rack_bytes = r.inner_rack_bytes;
  out.rack_upload_bytes = r.rack_upload_bytes;
  out.rack_download_bytes = r.rack_download_bytes;

  std::uint64_t rebuilt_bytes = 0;
  std::vector<double> completions;
  for (std::size_t i = 0; i < stripes.size(); ++i) {
    if (!stripes[i].damaged) continue;
    RPR_INVARIANT(stripes[i].phase == StripeState::Phase::kCommitted,
                  "every damaged stripe commits by the end of the run");
    completions.push_back(out.completion_s[i]);
    out.last_commit_s = std::max(out.last_commit_s, out.completion_s[i]);
    rebuilt_bytes += workload.stripes[i].problem.block_size *
                     workload.stripes[i].problem.failed.size();
  }
  out.completion_p50_s = percentile(completions, 0.50);
  out.completion_p95_s = percentile(completions, 0.95);
  out.completion_p99_s = percentile(completions, 0.99);
  out.repair_throughput_bps =
      out.last_commit_s > 0
          ? static_cast<double>(rebuilt_bytes) / out.last_commit_s
          : 0.0;

  std::vector<double> fg_lat, degraded_lat;
  out.reads.reserve(reads.size());
  for (std::size_t ri = 0; ri < reads.size(); ++ri) {
    const ReadState& rs = reads[ri];
    RPR_INVARIANT(rs.done_task != simnet::kNoTask,
                  "every read is answered by the end of the run");
    ReadRecord rec;
    rec.arrival_s = util::to_sec(rs.arrival);
    rec.latency_s =
        util::to_sec(r.tasks[rs.done_task].finish - rs.arrival);
    rec.path = rs.path;
    rec.stripe = rs.ev.stripe;
    rec.block = rs.ev.block;
    out.reads.push_back(rec);
    ++out.reads_by_path[static_cast<std::size_t>(rs.path)];
    if (rs.path == ReadPath::kHealthy) {
      fg_lat.push_back(rec.latency_s);
    } else {
      degraded_lat.push_back(rec.latency_s);
    }
  }
  out.foreground_p50_s = percentile(fg_lat, 0.50);
  out.foreground_p95_s = percentile(fg_lat, 0.95);
  out.foreground_p99_s = percentile(fg_lat, 0.99);
  out.degraded_p50_s = percentile(degraded_lat, 0.50);
  out.degraded_p99_s = percentile(degraded_lat, 0.99);

  if (options.probe.metrics != nullptr) {
    obs::MetricsRegistry& m = *options.probe.metrics;
    auto& admission = m.histogram("sched.admission_wait_s");
    auto& completion = m.histogram("sched.stripe_completion_s");
    for (std::size_t i = 0; i < stripes.size(); ++i) {
      if (!stripes[i].damaged) continue;
      admission.observe(out.admission_wait_s[i]);
      completion.observe(out.completion_s[i]);
    }
    auto& fg = m.histogram("sched.foreground_latency_s");
    auto& dg = m.histogram("sched.degraded_read_latency_s");
    for (const ReadRecord& rec : out.reads) {
      (rec.path == ReadPath::kHealthy ? fg : dg).observe(rec.latency_s);
    }
    m.max_gauge("sched.queue_depth")
        .observe(static_cast<double>(out.max_queue_depth));
    m.counter("sched.repair_bytes").add(out.repair_bytes);
    m.counter("sched.foreground_bytes").add(out.foreground_bytes);
    m.counter("sched.auto.star").add(out.auto_star_picks);
    m.counter("sched.auto.chained").add(out.auto_chained_picks);
    for (std::size_t p = 0; p < kReadPathCount; ++p) {
      m.counter(std::string("sched.reads.") +
                read_path_name(static_cast<ReadPath>(p)))
          .add(out.reads_by_path[p]);
    }
  }
  return out;
}

}  // namespace rpr::sched
