#include "storage/storage_system.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "gf/fingerprint.h"
#include "gf/gf_region.h"
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

// put's tile: the chunks of each data block copied and folded into its
// fingerprint while they are still in L1 (32 KiB); the n tiles at one
// offset stay in L2 while the parity tiles are encoded from them.
constexpr std::size_t kTileChunks = 128;
// Smallest run of chunks worth a pool shard (128 KiB per block).
constexpr std::size_t kShardChunks = 512;

/// Writes the stripe of `object` into the n+k `blocks` (recycled, so every
/// byte is overwritten) and their digests, in one pass: each tile of the n
/// data blocks is copied in (only the padded tail zero-filled) and folded
/// into its block's fingerprint while it is in cache, then the k parity
/// tiles at that offset are encoded from the n data tiles. The chunks are
/// sharded over the shared pool; each shard folds into private lanes that
/// are XORed into the data digests. The parity digests follow by
/// linearity, fp(P_i) = Σ_j g_ij · fp(D_j): one encode over the data
/// digests' 2 KiB of lanes, so a parity digest is what the code predicts
/// (a faulty encode is caught at the first read of that parity instead of
/// being certified here).
void write_stripe(const rs::RSCode& code, std::span<const std::uint8_t> object,
                  std::vector<rs::Block>& blocks,
                  std::vector<gf::Fingerprint>& digest) {
  constexpr std::size_t kChunk = gf::kFingerprintChunk;
  const std::size_t n = code.config().n;
  const std::size_t k = code.config().k;
  const std::size_t bs = blocks[0].size();
  digest.assign(n + k, {.lanes = {}, .length = bs});
  std::mutex mu;  // guards `digest` while shards XOR their lanes in
  util::ThreadPool::shared().parallel_for(
      (bs + kChunk - 1) / kChunk, kTileChunks, kShardChunks,
      [&](std::size_t first, std::size_t end) {
        std::vector<gf::Fingerprint> part(n);
        std::vector<const std::uint8_t*> data(n);
        std::vector<std::uint8_t*> parity(k);
        for (std::size_t c = first; c < end; c += kTileChunks) {
          const std::size_t off = c * kChunk;
          const std::size_t len =
              std::min(std::min(end, c + kTileChunks) * kChunk, bs) - off;
          for (std::size_t j = 0; j < n; ++j) {
            const std::size_t at = j * bs + off;  // offset in the object
            const std::size_t copied =
                at < object.size() ? std::min(len, object.size() - at) : 0;
            std::uint8_t* dst = blocks[j].data() + off;
            if (copied != 0) std::memcpy(dst, object.data() + at, copied);
            std::memset(dst + copied, 0, len - copied);
            gf::fold(part[j], {dst, len}, c);
            data[j] = dst;
          }
          for (std::size_t i = 0; i < k; ++i) {
            parity[i] = blocks[n + i].data() + off;
          }
          code.encode_regions(data.data(), parity.data(), len);
        }
        const std::scoped_lock lock(mu);
        for (std::size_t j = 0; j < n; ++j) {
          gf::xor_region(digest[j].lanes, part[j].lanes);
        }
      });
  std::vector<const std::uint8_t*> data_lanes(n);
  for (std::size_t j = 0; j < n; ++j) data_lanes[j] = digest[j].lanes.data();
  std::vector<std::uint8_t*> parity_lanes(k);
  for (std::size_t i = 0; i < k; ++i) {
    parity_lanes[i] = digest[n + i].lanes.data();
  }
  code.encode_regions(data_lanes.data(), parity_lanes.data(),
                      digest[0].lanes.size());
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

  std::vector<rs::Block> blocks(cfg.total());
  for (rs::Block& b : blocks) b = rs::Block::uninitialized(opts_.block_size);
  Stripe s;
  write_stripe(code_, object, blocks, s.digest);
  count_digested(opts_.probe, cfg.n * opts_.block_size);

  // Place with the configured policy, rotating racks per stripe so stripes
  // spread across the cluster the way consecutive stripes do in production.
  const StripeId id = next_stripe_++;
  const topology::Placement placement =
      topology::make_placement(cluster_, cfg, opts_.policy)
          .rotated(static_cast<std::size_t>(id));
  s.object_size = object.size();
  s.node_of_block.resize(cfg.total());
  for (std::size_t b = 0; b < cfg.total(); ++b) {
    s.node_of_block[b] = placement.node_of(b);
  }
  s.blocks = std::move(blocks);
  for (std::size_t b = 0; b < cfg.total(); ++b) {
    if (!alive_[s.node_of_block[b]]) s.blocks[b] = {};
  }
  stripes_[id] = std::move(s);
  return id;
}

rs::Block StorageSystem::get(StripeId stripe) const {
  const auto it = stripes_.find(stripe);
  if (it == stripes_.end()) throw std::out_of_range("get: unknown stripe");
  const Stripe& s = it->second;
  const auto& cfg = code_.config();
  const std::size_t bs = opts_.block_size;

  const auto lost = lost_blocks(stripe);
  if (lost.size() > cfg.k) {
    throw std::runtime_error("get: stripe unrecoverable");
  }
  // Degraded read: decode only the lost data blocks holding object bytes,
  // in memory (no placement change), and verify each before it is used.
  const std::size_t used = (s.object_size + bs - 1) / bs;
  std::vector<std::size_t> needed;
  for (const std::size_t b : lost) {
    if (b < used) needed.push_back(b);
  }
  std::map<std::size_t, rs::Block> decoded;
  if (!needed.empty()) {
    const auto eqs =
        code_.repair_equations(needed, code_.default_selection(lost));
    for (const auto& eq : eqs) {
      rs::Block rebuilt = code_.evaluate(eq, s.blocks);
      if (digest(rebuilt) != s.digest[eq.failed_block]) {
        throw std::runtime_error("get: block " +
                                 std::to_string(eq.failed_block) +
                                 " failed digest verification");
      }
      decoded.emplace(eq.failed_block, std::move(rebuilt));
    }
  }

  // Write the object once into recycled pages, each block by one copy
  // sharded over the shared pool, from its slot or its decode.
  rs::Block object = rs::Block::uninitialized(s.object_size);
  for (std::size_t b = 0; b < used; ++b) {
    const auto d = decoded.find(b);
    const rs::Block& bytes = d != decoded.end() ? d->second : s.blocks[b];
    rs::copy_bytes(object.data() + b * bs, bytes.data(),
                   std::min<std::size_t>(bs, s.object_size - b * bs));
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
      s.blocks[b].clear();  // the pages go back to the pool
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

  // A read must never deliver wrong bytes: what it hands the client is
  // checked against the encode-time digest.
  gf::Fingerprint delivered;
  if (!block_lost) {
    // Healthy read: hand back a copy of the stored bytes, fingerprinted
    // tile by tile as it is written; the cost is one block transfer to the
    // reader.
    const NodeId src = s.node_of_block[block];
    const rs::Block& stored = s.blocks[block];
    report.data = rs::Block::uninitialized(stored.size());
    count_digested(opts_.probe, stored.size());
    delivered = gf::fingerprint_copy(report.data, stored);
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
    delivered = digest(report.data);
  }
  if (delivered != s.digest[block]) {
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
