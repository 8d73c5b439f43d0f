#include "storage/storage_system.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "gf/fingerprint.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace rpr::storage {

using topology::NodeId;
using topology::RackId;

namespace {

topology::Cluster make_cluster(const StorageOptions& opts) {
  const std::size_t racks =
      topology::racks_needed(opts.code, opts.policy) + opts.extra_racks;
  const std::size_t slots =
      opts.policy == topology::PlacementPolicy::kFlat ? 1 : opts.code.k;
  // k spares per rack: a replacement target for every block a rack can
  // lose.
  return topology::Cluster(racks, slots, opts.code.k);
}

/// A session's summed seconds back on the simulator's ns clock, rounded:
/// truncation would drop a nanosecond whenever the sum lands just below.
util::SimTime to_sim_time(double seconds) {
  return static_cast<util::SimTime>(
      std::llround(seconds * static_cast<double>(util::kNsPerSec)));
}

void count_digested(const obs::Probe& probe, std::uint64_t bytes) {
  if (probe.metrics != nullptr) {
    probe.metrics->counter("storage.digest_bytes").add(bytes);
  }
}

}  // namespace

StorageSystem::StorageSystem(StorageOptions opts)
    : opts_(opts),
      code_(opts.code, opts.matrix),
      cluster_(make_cluster(opts)),
      planner_(repair::make_planner(opts.repair_scheme)),
      alive_(cluster_.total_nodes(), true) {
  if (opts_.block_size == 0) {
    throw std::invalid_argument("StorageSystem: block_size must be positive");
  }
  // Reject a chaos schedule that names nodes, racks or blocks this cluster
  // does not have — a typo'd schedule must fail loudly at construction, not
  // silently never fire.
  opts_.chaos.validate(cluster_, code_.config().total());
}

StripeId StorageSystem::put(std::span<const std::uint8_t> object) {
  const auto& cfg = code_.config();
  if (object.size() > cfg.n * opts_.block_size) {
    throw std::invalid_argument("put: object exceeds one stripe");
  }

  // Split + zero-pad into n data blocks, then encode the stripe.
  std::vector<rs::Block> blocks(cfg.total());
  for (std::size_t b = 0; b < cfg.n; ++b) {
    blocks[b].assign(opts_.block_size, 0);
    const std::size_t off = b * opts_.block_size;
    if (off < object.size()) {
      const std::size_t len = std::min<std::size_t>(
          opts_.block_size, object.size() - off);
      std::copy_n(object.begin() + static_cast<std::ptrdiff_t>(off), len,
                  blocks[b].begin());
    }
  }
  code_.encode_stripe(blocks);

  // Place with the configured policy, rotating racks per stripe so stripes
  // spread across the cluster the way consecutive stripes do in production.
  const StripeId id = next_stripe_++;
  const topology::Placement placement =
      topology::make_placement(cluster_, cfg, opts_.policy)
          .rotated(static_cast<std::size_t>(id));

  Stripe s;
  s.object_size = object.size();
  s.node_of_block.resize(cfg.total());
  for (std::size_t b = 0; b < cfg.total(); ++b) {
    s.node_of_block[b] = placement.node_of(b);
  }
  // The n+k digests are independent: fingerprint the blocks in parallel,
  // small blocks a few to a chunk so the pool only engages when it pays
  // (a long block's fingerprint shards itself).
  s.digest.resize(cfg.total());
  util::ThreadPool::shared().parallel_for(
      cfg.total(), 1,
      std::max<std::size_t>(1, (256 << 10) / opts_.block_size),
      [&](std::size_t b, std::size_t e) {
        for (; b < e; ++b) s.digest[b] = gf::fingerprint(blocks[b]);
      });
  count_digested(opts_.probe, cfg.total() * opts_.block_size);
  s.blocks = std::move(blocks);
  for (std::size_t b = 0; b < cfg.total(); ++b) {
    if (!alive_[s.node_of_block[b]]) s.blocks[b] = {};
  }
  stripes_[id] = std::move(s);
  return id;
}

std::vector<std::uint8_t> StorageSystem::get(StripeId stripe) const {
  const auto it = stripes_.find(stripe);
  if (it == stripes_.end()) throw std::out_of_range("get: unknown stripe");
  const Stripe& s = it->second;
  const auto& cfg = code_.config();

  const auto lost = lost_blocks(stripe);

  std::vector<std::uint8_t> object(s.object_size);
  const auto place = [&](std::size_t b, const rs::Block& bytes) {
    const std::size_t off = b * opts_.block_size;
    if (off >= object.size()) return;
    const std::size_t len =
        std::min<std::size_t>(opts_.block_size, object.size() - off);
    std::copy_n(bytes.begin(), len,
                object.begin() + static_cast<std::ptrdiff_t>(off));
  };
  // Intact data blocks go straight from their slots into the object.
  bool lost_data = false;
  for (std::size_t b = 0; b < cfg.n; ++b) {
    if (s.blocks[b].empty()) {
      lost_data = true;
    } else {
      place(b, s.blocks[b]);
    }
  }
  if (!lost_data) return object;

  // Degraded read: decode only the lost data blocks, in memory (no
  // placement change), and verify each before it joins the object.
  if (lost.size() > cfg.k) {
    throw std::runtime_error("get: stripe unrecoverable");
  }
  const auto selected = code_.default_selection(lost);
  const auto eqs = code_.repair_equations(lost, selected);
  for (const auto& eq : eqs) {
    if (!cfg.is_data(eq.failed_block)) continue;
    const rs::Block rebuilt = code_.evaluate(eq, s.blocks);
    if (digest(rebuilt) != s.digest[eq.failed_block]) {
      throw std::runtime_error("get: block " +
                               std::to_string(eq.failed_block) +
                               " failed digest verification");
    }
    place(eq.failed_block, rebuilt);
  }
  return object;
}

void StorageSystem::fail_node(NodeId node) {
  if (node >= cluster_.total_nodes()) {
    throw std::out_of_range("fail_node: bad node");
  }
  alive_[node] = false;
  wipe_node(node);
}

void StorageSystem::fail_rack(RackId rack) {
  for (NodeId node : cluster_.nodes_in_rack(rack)) fail_node(node);
}

void StorageSystem::revive_node(NodeId node) {
  if (node >= cluster_.total_nodes()) {
    throw std::out_of_range("revive_node: bad node");
  }
  alive_[node] = true;
  wipe_node(node);
}

void StorageSystem::wipe_node(NodeId node) {
  for (auto& [id, s] : stripes_) {
    (void)id;
    for (std::size_t b = 0; b < s.node_of_block.size(); ++b) {
      if (s.node_of_block[b] != node) continue;
      s.blocks[b] = {};  // release the bytes, not just the size
      s.corrupt.erase(b);
    }
  }
}

gf::Fingerprint StorageSystem::digest(
    std::span<const std::uint8_t> bytes) const {
  count_digested(opts_.probe, bytes.size());
  return gf::fingerprint(bytes);
}

std::vector<std::size_t> StorageSystem::lost_blocks(StripeId stripe) const {
  const auto it = stripes_.find(stripe);
  if (it == stripes_.end()) {
    throw std::out_of_range("lost_blocks: unknown stripe");
  }
  // An empty slot is a dead node or corrupt bytes: both were recorded when
  // they happened, so nothing is hashed here.
  std::vector<std::size_t> lost;
  const Stripe& s = it->second;
  for (std::size_t b = 0; b < s.blocks.size(); ++b) {
    if (s.blocks[b].empty()) lost.push_back(b);
  }
  return lost;
}

void StorageSystem::corrupt_block(StripeId stripe, std::size_t block) {
  const auto it = stripes_.find(stripe);
  if (it == stripes_.end()) {
    throw std::out_of_range("corrupt_block: unknown stripe");
  }
  Stripe& s = it->second;
  if (block >= s.node_of_block.size()) {
    throw std::out_of_range("corrupt_block: bad block");
  }
  // The block's bytes on its node: in the view, or already corrupt.
  const auto stale = s.corrupt.find(block);
  const bool in_view = !s.blocks[block].empty();
  if (!in_view && stale == s.corrupt.end()) {
    throw std::runtime_error("corrupt_block: block not stored");
  }
  rs::Block& data = in_view ? s.blocks[block] : stale->second;
  // Mix the block index into the seed so two corruptions differ.
  fault::corrupt_bytes(data, opts_.chaos.seed ^ (stripe * 1000003 + block));
  // Hash the new bytes once; moving them keeps the view digest-intact.
  const bool intact = digest(data) == s.digest[block];
  if (in_view && !intact) {
    s.corrupt[block] = std::exchange(s.blocks[block], {});
  } else if (!in_view && intact) {
    s.blocks[block] = std::move(stale->second);
    s.corrupt.erase(stale);
  }
}

void StorageSystem::apply_chaos_corruptions() {
  if (chaos_corruptions_applied_ || opts_.chaos.corruptions.empty()) return;
  chaos_corruptions_applied_ = true;
  // corrupt_bytes XORs masks in place, so a second application would undo
  // the first — the schedule is applied exactly once, to every stripe.
  for (const auto& [id, s] : stripes_) {
    (void)s;
    for (const auto& c : opts_.chaos.corruptions) {
      const auto lost = lost_blocks(id);
      if (c.block >= code_.config().total()) continue;
      if (std::find(lost.begin(), lost.end(), c.block) != lost.end()) {
        continue;  // already lost or corrupt
      }
      corrupt_block(id, c.block);
    }
  }
}

StorageSystem::Rebuild StorageSystem::prepare_rebuild(
    const Stripe& s, std::vector<std::size_t> failed,
    std::optional<NodeId> reader) const {
  Rebuild r;
  r.placement = std::make_unique<topology::Placement>(
      cluster_, code_.config(), s.node_of_block);
  std::set<std::size_t> lost;
  for (std::size_t b = 0; b < s.blocks.size(); ++b) {
    if (!s.blocks[b].empty()) continue;
    lost.insert(b);
    // Another lost block's node is no source: a re-plan must never
    // substitute it back.
    if (std::find(failed.begin(), failed.end(), b) == failed.end()) {
      r.ropts.unavailable.insert(s.node_of_block[b]);
    }
  }
  r.ropts.probe = opts_.probe;
  for (NodeId node = 0; node < cluster_.total_nodes(); ++node) {
    if (!alive_[node]) r.ropts.unavailable.insert(node);
    // A full disk still serves reads and partial decodes but can never
    // accept a committed block.
    if (!reader && opts_.chaos.diskfull(node)) r.ropts.no_commit.insert(node);
  }
  r.problem.code = &code_;
  r.problem.placement = r.placement.get();
  r.problem.block_size = opts_.block_size;
  if (reader) {
    r.problem.replacements = {*reader};
  } else {
    std::set<NodeId> unusable = r.ropts.unavailable;
    unusable.insert(r.ropts.no_commit.begin(), r.ropts.no_commit.end());
    for (const std::size_t f : failed) {
      r.problem.replacements.push_back(topology::pick_replacement(
          *r.placement, r.placement->rack_of(f), lost, unusable,
          r.problem.replacements));
    }
  }
  r.problem.failed = std::move(failed);
  return r;
}

RepairReport StorageSystem::repair(StripeId stripe) {
  const auto it = stripes_.find(stripe);
  if (it == stripes_.end()) throw std::out_of_range("repair: unknown stripe");

  apply_chaos_corruptions();
  auto failed = lost_blocks(stripe);
  if (failed.size() > code_.config().k) {
    throw std::runtime_error("repair: stripe unrecoverable");
  }
  return run_rebuild(stripe, prepare_rebuild(it->second, std::move(failed)));
}

RepairReport StorageSystem::run_rebuild(StripeId stripe, const Rebuild& r) {
  Stripe& s = stripes_.at(stripe);
  const auto& failed = r.problem.failed;
  RepairReport report;
  report.stripe = stripe;
  report.scheme = planner_->name();
  if (failed.empty()) return report;

  // CAR covers single failures only; fall back to RPR's multi-failure
  // extension for the rest (what a CAR deployment would have to do anyway).
  const repair::RprPlanner multi_fallback;
  const bool use_fallback =
      failed.size() > 1 && opts_.repair_scheme == repair::Scheme::kCar;
  const repair::Planner& planner =
      use_fallback ? static_cast<const repair::Planner&>(multi_fallback)
                   : *planner_;

  // One resilient session for every repair: kills/stragglers fire on the
  // simulated clock and the driver re-plans around dead helpers, reusing
  // banked partial sums. An empty chaos schedule is the zero-fault session.
  repair::ResilientOutcome out = repair::simulate_resilient(
      r.problem, planner, s.blocks, opts_.network, opts_.chaos, r.ropts);
  report.used_decoding_matrix = out.used_decoding_matrix;
  report.cross_rack_bytes = out.cross_rack_bytes;
  report.inner_rack_bytes = out.inner_rack_bytes;
  report.simulated_repair_time = to_sim_time(out.total_time_s);
  report.replans = out.replans;
  report.retries = out.retries;
  report.faults_injected = out.faults_injected;
  report.reused_values = out.reused_values;
  report.scheme_switches = out.scheme_switches;
  report.partition_waits = out.partition_waits;

  // Verified commit: a rebuilt block is installed only when its bytes hash
  // to the digest recorded at encode time — a wrong repair must never
  // replace good data with garbage.
  for (std::size_t i = 0; i < failed.size(); ++i) {
    if (digest(out.outputs[i]) != s.digest[failed[i]]) {
      throw std::runtime_error(
          "repair: rebuilt block " + std::to_string(failed[i]) +
          " failed digest verification; not committing");
    }
  }
  report.verified = true;
  for (std::size_t i = 0; i < failed.size(); ++i) {
    // Drop any corrupt stale copy still sitting at the old location.
    s.corrupt.erase(failed[i]);
    s.blocks[failed[i]] = std::move(out.outputs[i]);
    s.node_of_block[failed[i]] = out.destinations[i];
    report.repaired_blocks.push_back(failed[i]);
  }
  return report;
}

std::vector<RepairReport> StorageSystem::repair_all() {
  // Chaos corruptions are normally applied lazily by repair(); surface them
  // here too so the damage scan below sees corrupt blocks as lost.
  apply_chaos_corruptions();
  std::vector<RepairReport> reports;
  for (const auto& [id, s] : stripes_) {
    if (lost_blocks(id).empty()) continue;
    reports.push_back(repair(id));
  }
  return reports;
}

ReadReport StorageSystem::read_block(StripeId stripe, std::size_t block,
                                     NodeId reader) {
  const auto it = stripes_.find(stripe);
  if (it == stripes_.end()) {
    throw std::out_of_range("read_block: unknown stripe");
  }
  const Stripe& s = it->second;
  if (block >= s.node_of_block.size()) {
    throw std::out_of_range("read_block: bad block");
  }
  if (reader >= cluster_.total_nodes()) {
    throw std::out_of_range("read_block: bad reader");
  }

  ReadReport report;
  report.stripe = stripe;
  report.block = block;
  report.reader = reader;

  apply_chaos_corruptions();
  const auto lost = lost_blocks(stripe);
  const bool block_lost =
      std::find(lost.begin(), lost.end(), block) != lost.end();

  if (!block_lost) {
    // Healthy read: hand back the stored (digest-intact) bytes; the cost
    // is one block transfer to the reader.
    const NodeId src = s.node_of_block[block];
    report.data = s.blocks[block];
    repair::RepairPlan plan;
    plan.block_size = opts_.block_size;
    const auto r = plan.read(src, block, 1);
    (void)plan.send(r, src, reader);
    const auto sim =
        repair::simulate(plan, cluster_, opts_.network, opts_.probe);
    report.simulated_read_time = sim.total_repair_time;
    report.cross_rack_bytes = sim.cross_rack_bytes;
    report.inner_rack_bytes = sim.inner_rack_bytes;
  } else {
    if (lost.size() > code_.config().k) {
      throw std::runtime_error("read_block: stripe unrecoverable");
    }
    report.degraded = true;
    // One-equation repair whose "replacement" is the reader; the planner
    // excludes every other lost block as a source.
    const Rebuild r = prepare_rebuild(s, {block}, reader);
    const repair::DegradedReadPlanner planner(lost);
    // A helper killed mid-read re-plans the equation around the loss
    // instead of failing the read.
    repair::ResilientOutcome out = repair::simulate_resilient(
        r.problem, planner, s.blocks, opts_.network, opts_.chaos, r.ropts);
    report.data = std::move(out.outputs[0]);
    report.simulated_read_time = to_sim_time(out.total_time_s);
    report.cross_rack_bytes = out.cross_rack_bytes;
    report.inner_rack_bytes = out.inner_rack_bytes;
    report.replans = out.replans;
    report.retries = out.retries;
    report.faults_injected = out.faults_injected;
  }

  // A read must never deliver wrong bytes: verify against the encode-time
  // digest before handing the block to the client.
  if (digest(report.data) != s.digest[block]) {
    throw std::runtime_error("read_block: block " + std::to_string(block) +
                             " failed digest verification");
  }
  report.verified = true;
  return report;
}

FleetRepairReport StorageSystem::repair_all_scheduled(
    const sched::SchedulerOptions& sopts,
    const sched::ForegroundWorkload& foreground) {
  apply_chaos_corruptions();
  FleetRepairReport report;

  std::vector<Rebuild> rebuilds;
  sched::FleetWorkload workload;
  workload.foreground = foreground;
  for (const auto& [id, s] : stripes_) {
    auto failed = lost_blocks(id);
    if (failed.empty()) continue;
    if (failed.size() > code_.config().k) {
      throw std::runtime_error("repair_all_scheduled: stripe " +
                               std::to_string(id) + " unrecoverable");
    }
    rebuilds.push_back(prepare_rebuild(s, std::move(failed)));
    sched::StripeArrival arrival;
    arrival.problem = rebuilds.back().problem;
    workload.stripes.push_back(std::move(arrival));
    report.stripes.push_back(id);
  }

  if (!workload.stripes.empty() || foreground.qps > 0.0) {
    report.schedule =
        sched::run_fleet(workload, cluster_, opts_.network, sopts);
  }
  // Commit the data through the verified per-stripe path, onto the
  // replacements the wave timed: the scheduler timed the wave; the repairs
  // move and install the real bytes.
  report.repairs.reserve(report.stripes.size());
  for (std::size_t i = 0; i < report.stripes.size(); ++i) {
    report.repairs.push_back(run_rebuild(report.stripes[i], rebuilds[i]));
  }
  return report;
}

std::vector<NodeId> StorageSystem::stripe_nodes(StripeId stripe) const {
  const auto it = stripes_.find(stripe);
  if (it == stripes_.end()) {
    throw std::out_of_range("stripe_nodes: unknown stripe");
  }
  return it->second.node_of_block;
}

}  // namespace rpr::storage
