// Repair-stack benchmark runner.
//
// Runs one workload closed-loop (one operation in flight, no threads of its
// own) for a fixed wall time against the public entry points of the storage,
// runtime/net and sched layers, checks every output, and writes the raw
// samples as one JSON document for run.py to turn into metrics:
//
//   store-wave     storage::StorageSystem, RS(12,4), RPR placement and
//                  scheme, 16 MiB blocks: put, fail a node, degraded and
//                  healthy read_block, repair, get -- on a fresh system per
//                  cycle, every byte compared with the original.
//   engine-stream  one RS(12,4) RPR single-failure plan repaired in turn on
//                  runtime::Testbed and net::TcpRuntime, at 64 KiB slices and
//                  whole-block, with unpaced links.
//   fleet-sim      sched::run_fleet on an RS(14,10) fleet that lost node 0,
//                  under a foreground read load.
//
// With --trace 1 the runner runs the workload twice for half the time each:
// first plain, then traced. The traced half turns on the engines' metrics
// registries and records a span around every call it makes into a layer,
// including replays of the layer calls each storage operation makes
// internally (recorded as children of the operation's span, so that the
// operation's self time is what the listed layers do not explain). Layer
// probes then time single layers alone on the workload's own inputs.
//
// Before each cycle the runner times fixed work of its own (HostReference),
// so that run.py can express cycle times in units of it: the shared host's
// speed drifts by tens of percent over minutes.
//
// Usage:
//   perfbench_runner --workload W --seed N --seconds S --trace 0|1
//                    --out FILE [--corrupt]
// --corrupt flips one byte of the first checked output, to show that a
// wrong result is counted as a failed operation.
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "gf/gf_region.h"
#include "net/message.h"
#include "net/socket.h"
#include "net/tcp_runtime.h"
#include "obs/metrics.h"
#include "repair/analysis.h"
#include "repair/executor_data.h"
#include "repair/executor_sim.h"
#include "repair/planner.h"
#include "runtime/combine_stream.h"
#include "runtime/exec_state.h"
#include "runtime/testbed.h"
#include "sched/scheduler.h"
#include "storage/storage_system.h"
#include "topology/placement.h"
#include "util/hash.h"
#include "util/thread_pool.h"
#include "verify/plan_verifier.h"

extern char** environ;

namespace {

using rpr::obs::MetricsRegistry;
using rpr::repair::OpId;
using rpr::repair::PlannedRepair;
using rpr::repair::RepairProblem;
using rpr::repair::Scheme;
using rpr::rs::Block;
using rpr::rs::CodeConfig;
using rpr::topology::Cluster;
using rpr::topology::NetworkParams;
using rpr::topology::NodeId;
using rpr::topology::Placement;
using Bytes = std::span<const std::uint8_t>;

// ---------------------------------------------------------------------------
// Options, clock, inputs

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool corrupt = false;
  std::string out;
};

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}


/// splitmix64: a seeded byte stream, so the same seed gives the same inputs.
void fill_random(std::span<std::uint8_t> out, std::uint64_t seed) {
  std::uint64_t x = seed;
  std::size_t i = 0;
  for (; i + 8 <= out.size(); i += 8) {
    x += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    std::memcpy(out.data() + i, &z, 8);
  }
  for (; i < out.size(); ++i) out[i] = static_cast<std::uint8_t>(x >> (i % 8));
}

std::uint8_t nonzero_coeff(std::uint64_t seed, std::size_t i) {
  return static_cast<std::uint8_t>(1 + (seed * 131 + i * 29) % 255);
}

/// Host-speed reference: fixed work written here, so no change to the
/// repository can make it faster or slower, while a busier or slower host
/// slows it much as it slows the workloads. A dependent multiply chain
/// (core speed), a pointer chase through a 32 MiB ring (memory latency),
/// ordered-map churn (allocator and pointer chasing) and 32 MiB copies
/// (memory bandwidth).
class HostReference {
 public:
  HostReference()
      : ring_((32u << 20) / sizeof(std::uint32_t)),
        from_(32u << 20, 1),
        to_(32u << 20, 0) {
    // Sattolo's shuffle: one cycle through every slot.
    std::uint64_t r = 0x2545F4914F6CDD1DULL;
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      ring_[i] = static_cast<std::uint32_t>(i);
    }
    for (std::size_t i = ring_.size() - 1; i > 0; --i) {
      r ^= r << 13;
      r ^= r >> 7;
      r ^= r << 17;
      std::swap(ring_[i], ring_[r % i]);
    }
  }

  /// Seconds the fixed work took.
  double measure() {
    const double t0 = now_s();
    std::uint64_t x = 1;
    for (int i = 0; i < 20'000'000; ++i) {
      x ^= x >> 13;
      x *= 0x9E3779B97F4A7C15ULL;
      x += static_cast<std::uint64_t>(i);
    }
    std::uint32_t p = 0;
    for (int i = 0; i < 200'000; ++i) p = ring_[p];
    std::map<std::uint64_t, std::uint64_t> m;
    std::uint64_t k = x;
    for (int i = 0; i < 100'000; ++i) {
      k = k * 6364136223846793005ULL + 1442695040888963407ULL;
      m[k >> 44] += k;
      if (m.size() > 20'000) m.erase(m.begin());
    }
    for (int i = 0; i < 4; ++i) {
      std::memcpy(to_.data(), from_.data(), from_.size());
      from_[static_cast<std::size_t>(i)] = to_[static_cast<std::size_t>(i) + 1];
    }
    sink_ = x + p + m.size() + to_[7];
    return now_s() - t0;
  }

  /// Seconds the same multiply chain takes split over the shared thread
  /// pool: how much of the machine's cores the process gets, which the
  /// threaded engines depend on. util::ThreadPool's chunk hand-off is the
  /// only repository code this touches.
  double measure_parallel() {
    const double t0 = now_s();
    std::atomic<std::uint64_t> acc{0};
    rpr::util::ThreadPool::shared().parallel_for(
        64, 1, 1, [&](std::size_t begin, std::size_t end) {
          std::uint64_t x = begin + 1;
          for (std::size_t c = begin; c < end; ++c) {
            for (int i = 0; i < 400'000; ++i) {
              x ^= x >> 13;
              x *= 0x9E3779B97F4A7C15ULL;
              x += static_cast<std::uint64_t>(i);
            }
          }
          acc += x;
        });
    sink_ = acc.load();
    return now_s() - t0;
  }

 private:
  std::vector<std::uint32_t> ring_;
  std::vector<std::uint8_t> from_;
  std::vector<std::uint8_t> to_;
  volatile std::uint64_t sink_ = 0;
};

bool same_bytes(Bytes a, Bytes b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size()) == 0;
}

// ---------------------------------------------------------------------------
// Recording: operations, spans, layer values

struct OpRecord {
  std::string phase;
  int cycle = 0;
  std::string kind;
  double seconds = 0.0;
  std::uint64_t bytes = 0;
  bool ok = true;
  std::string error;
};

struct SpanRecord {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = no parent
  std::string name;
  double start = 0.0;
  double end = 0.0;
  std::uint64_t bytes = 0;  ///< bytes the call processed (0 = n/a)
  std::uint64_t items = 0;  ///< items it produced or handled (0 = n/a)
};

class Recorder {
 public:
  explicit Recorder(const Options& opt) : opt_(opt) {}

  [[nodiscard]] const Options& options() const { return opt_; }
  [[nodiscard]] bool traced() const { return traced_; }
  void set_phase(bool traced) { traced_ = traced; }
  void next_cycle() { ++cycle_; }

  /// Flips one byte of the first output checked, when --corrupt is given.
  void maybe_corrupt(std::span<std::uint8_t> out) {
    if (!opt_.corrupt || corrupted_ || out.empty()) return;
    out[out.size() / 2] ^= 0x5A;
    corrupted_ = true;
  }

  /// Times one workload operation. In the traced phase it also opens a span
  /// named `span_name`; the span id is returned so that replays can hang
  /// their spans under it (0 outside the traced phase). `fn` returns an
  /// error message, empty on success; an exception is a failure too.
  std::uint32_t op(const std::string& kind, const std::string& span_name,
                   std::uint64_t bytes,
                   const std::function<std::string()>& fn) {
    OpRecord r;
    r.phase = traced_ ? "traced" : "plain";
    r.cycle = cycle_;
    r.kind = kind;
    r.bytes = bytes;
    const double t0 = now_s();
    try {
      r.error = fn();
    } catch (const std::exception& e) {
      r.error = std::string("exception: ") + e.what();
    }
    const double t1 = now_s();
    r.seconds = t1 - t0;
    r.ok = r.error.empty();
    ops_.push_back(r);
    if (!traced_) return 0;
    spans_.push_back({next_id_, 0, span_name, t0, t1, bytes, 0});
    return next_id_++;
  }

  /// Records a check that is not itself timed (a commit, a read inside a
  /// simulated fleet, a traffic check).
  void check(const std::string& kind, const std::string& error) {
    ops_.push_back({traced_ ? "traced" : "plain", cycle_, kind, 0.0, 0,
                    error.empty(), error});
  }

  /// Times a layer call as a span (in any phase; the call decides whether
  /// it runs). Returns fn's result.
  template <typename F>
  auto span(const std::string& name, std::uint32_t parent, std::uint64_t bytes,
            F&& fn) {
    const double t0 = now_s();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      spans_.push_back({next_id_++, parent, name, t0, now_s(), bytes, 0});
    } else {
      auto result = fn();
      spans_.push_back({next_id_++, parent, name, t0, now_s(), bytes, 0});
      // Keep pure computations (digests) from being optimized away.
      if constexpr (std::is_integral_v<decltype(result)>) sink_ = result;
      return result;
    }
  }

  /// Sets the item count of the most recent span.
  void annotate_items(std::uint64_t items) { spans_.back().items = items; }

  void setup(double seconds) { setup_s_.push_back(seconds); }
  /// Times the host reference once; run_phases calls it before each cycle.
  void measure_host() {
    host_s_.push_back(host_.measure());
    host_par_s_.push_back(host_.measure_parallel());
  }
  /// Counts one repair's cross-rack traffic, in blocks.
  void repaired(std::uint64_t cross_bytes, std::uint64_t block_size) {
    cross_blocks_ += static_cast<double>(cross_bytes) /
                     static_cast<double>(block_size);
    ++repairs_;
    layers_["cross_rack_blocks_per_repair"] =
        cross_blocks_ / static_cast<double>(repairs_);
  }
  void layer(const std::string& name, double value) { layers_[name] = value; }
  void config(const std::string& name, const std::string& value) {
    config_[name] = value;
  }

  void write(std::FILE* f) const;

 private:
  const Options& opt_;
  bool traced_ = false;
  bool corrupted_ = false;
  int cycle_ = 0;
  std::uint32_t next_id_ = 1;
  std::vector<OpRecord> ops_;
  std::vector<SpanRecord> spans_;
  std::vector<double> setup_s_;
  HostReference host_;
  std::vector<double> host_s_;
  std::vector<double> host_par_s_;
  std::map<std::string, double> layers_;
  std::map<std::string, std::string> config_;
  double cross_blocks_ = 0.0;
  std::size_t repairs_ = 0;
  volatile std::uint64_t sink_ = 0;
};

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': o += "\\\""; break;
      case '\\': o += "\\\\"; break;
      case '\n': o += "\\n"; break;
      case '\t': o += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          o += buf;
        } else {
          o += c;
        }
    }
  }
  return o + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void Recorder::write(std::FILE* f) const {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::fprintf(f, "{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, ",
               json_str(opt_.workload).c_str(),
               static_cast<unsigned long long>(opt_.seed),
               json_num(opt_.seconds).c_str());
  std::fprintf(f, "\"trace\": %d, \"peak_rss_kb\": %ld,\n",
               opt_.trace ? 1 : 0, ru.ru_maxrss);
  std::fprintf(f, "\"config\": {");
  const char* sep = "";
  for (const auto& [k, v] : config_) {
    std::fprintf(f, "%s%s: %s", sep, json_str(k).c_str(), json_str(v).c_str());
    sep = ", ";
  }
  auto write_list = [f](const char* name, const std::vector<double>& xs) {
    std::fprintf(f, "\"%s\": [", name);
    const char* comma = "";
    for (const double x : xs) {
      std::fprintf(f, "%s%s", comma, json_num(x).c_str());
      comma = ", ";
    }
    std::fprintf(f, "],\n");
  };
  std::fprintf(f, "},\n");
  write_list("setup_s", setup_s_);
  write_list("host_s", host_s_);
  write_list("host_par_s", host_par_s_);
  std::fprintf(f, "\"layers\": {");
  sep = "";
  for (const auto& [k, v] : layers_) {
    std::fprintf(f, "%s%s: %s", sep, json_str(k).c_str(), json_num(v).c_str());
    sep = ", ";
  }
  std::fprintf(f, "},\n\"ops\": [\n");
  sep = "";
  for (const OpRecord& r : ops_) {
    std::fprintf(f,
                 "%s{\"phase\": \"%s\", \"cycle\": %d, \"kind\": %s, "
                 "\"s\": %s, \"bytes\": %llu, \"ok\": %s, \"error\": %s}",
                 sep, r.phase.c_str(), r.cycle, json_str(r.kind).c_str(),
                 json_num(r.seconds).c_str(),
                 static_cast<unsigned long long>(r.bytes),
                 r.ok ? "true" : "false", json_str(r.error).c_str());
    sep = ",\n";
  }
  std::fprintf(f, "],\n\"spans\": [\n");
  sep = "";
  for (const SpanRecord& s : spans_) {
    std::fprintf(f,
                 "%s{\"id\": %u, \"parent\": %u, \"name\": %s, \"start\": %s, "
                 "\"end\": %s, \"bytes\": %llu, \"items\": %llu}",
                 sep, s.id, s.parent, json_str(s.name).c_str(),
                 json_num(s.start).c_str(), json_num(s.end).c_str(),
                 static_cast<unsigned long long>(s.bytes),
                 static_cast<unsigned long long>(s.items));
    sep = ",\n";
  }
  std::fprintf(f, "]}\n");
}

/// Runs `cycle` until the phase's share of --seconds is used up (at least
/// once): the whole budget untraced, or with --trace 1 half plain and half
/// traced. `traced_setup` runs once, untimed, before the traced half.
void run_phases(Recorder& rec, const std::function<void()>& cycle,
                const std::function<void()>& traced_setup = {}) {
  const Options& opt = rec.options();
  auto loop = [&](double budget) {
    const double start = now_s();
    do {
      rec.measure_host();
      cycle();
      rec.next_cycle();
    } while (now_s() - start < budget);
  };
  if (!opt.trace) {
    rec.set_phase(false);
    loop(opt.seconds);
    return;
  }
  rec.set_phase(false);
  loop(opt.seconds / 2);
  rec.set_phase(true);
  if (traced_setup) traced_setup();
  loop(opt.seconds / 2);
}

/// Repeats the set-up `reps` times, records each duration, and keeps the
/// last result.
template <typename F>
auto timed_setup(Recorder& rec, int reps, F&& make) {
  std::optional<decltype(make())> result;
  for (int i = 0; i < reps; ++i) {
    result.reset();
    const double t0 = now_s();
    result.emplace(make());
    rec.setup(now_s() - t0);
  }
  return std::move(*result);
}

/// FNV-1a of every block, as StorageSystem digests a stripe.
std::uint64_t digest_blocks(const std::vector<Block>& blocks) {
  std::uint64_t acc = 0;
  for (const Block& b : blocks) acc ^= rpr::util::fnv1a64(b);
  return acc;
}

std::string traffic_error(const char* what, std::uint64_t got,
                          std::uint64_t want) {
  if (got == want) return {};
  return std::string(what) + ": cross-rack bytes " + std::to_string(got) +
         " != closed form " + std::to_string(want);
}

/// Closed-form (repair/analysis) cross-rack bytes of a planned repair.
std::uint64_t predicted_cross_bytes(const RepairProblem& problem,
                                    const PlannedRepair& planned) {
  return rpr::repair::analysis::predicted_traffic(Scheme::kRpr, problem,
                                                  planned)
             .cross_transfers *
         problem.block_size;
}

/// GF kernel probes on `srcs` (equal-length regions): the fused
/// multi-source accumulate once over whole blocks (DRAM) and many times
/// over one 64 KiB window (in cache).
void probe_gf(Recorder& rec, const std::vector<const std::uint8_t*>& srcs,
              std::size_t len, std::uint64_t seed) {
  std::vector<std::uint8_t> coeffs(srcs.size());
  for (std::size_t i = 0; i < coeffs.size(); ++i) {
    coeffs[i] = nonzero_coeff(seed, i);
  }
  std::vector<std::uint8_t> dst(len, 0);
  for (int rep = 0; rep < 3; ++rep) {
    rec.span("gf.mul_region_add_multi.16MiB", 0, srcs.size() * len, [&] {
      rpr::gf::mul_region_add_multi(coeffs, srcs.data(), dst);
    });
  }
  constexpr std::size_t kWindow = 64 << 10;
  constexpr int kIters = 512;
  std::vector<std::uint8_t> small(kWindow, 0);
  for (int rep = 0; rep < 5; ++rep) {
    rec.span("gf.mul_region_add_multi.64KiB", 0,
             srcs.size() * kWindow * kIters, [&] {
               for (int i = 0; i < kIters; ++i) {
                 rpr::gf::mul_region_add_multi(coeffs, srcs.data(), small);
               }
             });
  }
}

// ---------------------------------------------------------------------------
// store-wave

constexpr CodeConfig kStoreCfg{12, 4};
constexpr std::uint64_t kStoreBlock = 16ull << 20;
constexpr std::size_t kStoreStripes = 2;
constexpr NodeId kStoreFailedNode = 0;

struct StoreInputs {
  /// One object per stripe: n blocks of data, back to back.
  std::vector<std::vector<std::uint8_t>> objects;
  /// The k parity blocks each object encodes to.
  std::vector<std::vector<Block>> parity;

  [[nodiscard]] Bytes expected(std::size_t s, std::size_t b) const {
    if (b < kStoreCfg.n) {
      return Bytes(objects[s]).subspan(b * kStoreBlock, kStoreBlock);
    }
    return parity[s][b - kStoreCfg.n];
  }

  /// The whole stripe as blocks, `lost` left empty (replay input).
  [[nodiscard]] std::vector<Block> stripe(std::size_t s,
                                          std::size_t lost) const {
    std::vector<Block> blocks(kStoreCfg.total());
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      if (b == lost) continue;
      const Bytes e = expected(s, b);
      blocks[b].assign(e.begin(), e.end());
    }
    return blocks;
  }
};

StoreInputs make_store_inputs(std::uint64_t seed) {
  const rpr::rs::RSCode code(kStoreCfg);
  StoreInputs in;
  for (std::size_t s = 0; s < kStoreStripes; ++s) {
    std::vector<std::uint8_t> object(kStoreCfg.n * kStoreBlock);
    fill_random(object, seed * 1000003 + s);
    std::vector<Block> data(kStoreCfg.n);
    for (std::size_t b = 0; b < kStoreCfg.n; ++b) {
      const Bytes block = Bytes(object).subspan(b * kStoreBlock, kStoreBlock);
      data[b].assign(block.begin(), block.end());
    }
    std::vector<Block> parity(kStoreCfg.k);
    code.encode(data, parity);
    in.objects.push_back(std::move(object));
    in.parity.push_back(std::move(parity));
  }
  return in;
}

rpr::storage::StorageOptions store_options(MetricsRegistry* reg) {
  rpr::storage::StorageOptions o;
  o.code = kStoreCfg;
  o.policy = rpr::topology::PlacementPolicy::kRpr;
  o.repair_scheme = Scheme::kRpr;
  o.block_size = kStoreBlock;
  o.network = NetworkParams{};
  o.network.slice_size = 0;  // storage repairs simulate whole-block plans
  o.probe.metrics = reg;
  return o;
}

/// First alive node of `rack` holding no block of the stripe: the rule
/// StorageSystem uses to pick a rack-local replacement.
NodeId replacement_in_rack(const rpr::storage::StorageSystem& sys,
                           const std::vector<NodeId>& nodes,
                           rpr::topology::RackId rack) {
  for (const NodeId n : sys.cluster().nodes_in_rack(rack)) {
    if (sys.node_alive(n) &&
        std::find(nodes.begin(), nodes.end(), n) == nodes.end()) {
      return n;
    }
  }
  throw std::runtime_error("no replacement node in rack");
}

void run_store_wave(Recorder& rec) {
  const Options& opt = rec.options();
  const StoreInputs in =
      timed_setup(rec, 5, [&] { return make_store_inputs(opt.seed); });
  const rpr::rs::RSCode code(kStoreCfg);
  MetricsRegistry reg;
  const std::size_t n = kStoreCfg.n;

  run_phases(rec, [&] {
    const bool traced = rec.traced();
    rpr::storage::StorageSystem sys(store_options(traced ? &reg : nullptr));
    const Cluster& cluster = sys.cluster();
    std::vector<rpr::storage::StripeId> ids(kStoreStripes);

    for (std::size_t s = 0; s < kStoreStripes; ++s) {
      const auto& object = in.objects[s];
      const std::uint32_t sp =
          rec.op("put", "storage.put", object.size(), [&] {
            ids[s] = sys.put(object);
            return std::string();
          });
      if (sp != 0) {
        // put = split + rs encode + one digest per block + install.
        std::vector<Block> blocks(kStoreCfg.total());
        for (std::size_t b = 0; b < n; ++b) {
          const Bytes e = in.expected(s, b);
          blocks[b].assign(e.begin(), e.end());
        }
        rec.span("rs.encode_stripe", sp, object.size(),
                 [&] { code.encode_stripe(blocks); });
        rec.span("digest.stripe", sp, blocks.size() * kStoreBlock,
                 [&] { return digest_blocks(blocks); });
      }
    }

    sys.fail_node(kStoreFailedNode);
    // A reader in another rack than the failed node: rack 1's first spare.
    const NodeId reader = static_cast<NodeId>(
        cluster.nodes_per_rack() + cluster.block_slots_per_rack());

    std::vector<std::size_t> lost(kStoreStripes);
    for (std::size_t s = 0; s < kStoreStripes; ++s) {
      const auto nodes = sys.stripe_nodes(ids[s]);
      const auto it = std::find(nodes.begin(), nodes.end(), kStoreFailedNode);
      if (it == nodes.end()) {
        rec.check("read_degraded", "failed node holds no block of the stripe");
        continue;
      }
      lost[s] = static_cast<std::size_t>(it - nodes.begin());
      std::size_t healthy = lost[s];
      for (std::size_t b = 0; b < nodes.size(); ++b) {
        if (b != lost[s] && cluster.rack_of(nodes[b]) ==
                                cluster.rack_of(kStoreFailedNode)) {
          healthy = b;
          break;
        }
      }

      // Degraded read of the lost block, rooted at the reader.
      const Placement placement(cluster, kStoreCfg, nodes);
      RepairProblem rp;
      rp.code = &code;
      rp.placement = &placement;
      rp.block_size = kStoreBlock;
      rp.failed = {lost[s]};
      rp.replacements = {reader};
      const rpr::repair::DegradedReadPlanner read_planner({lost[s]});
      const PlannedRepair read_plan = read_planner.plan(rp);
      const std::uint64_t read_cross = predicted_cross_bytes(rp, read_plan);
      const std::uint32_t sd = rec.op(
          "read_degraded", "storage.read_block.degraded", kStoreBlock, [&] {
            auto r = sys.read_block(ids[s], lost[s], reader);
            rec.maybe_corrupt(r.data);
            if (!r.degraded) return std::string("read not degraded");
            if (!same_bytes(r.data, in.expected(s, lost[s]))) {
              return std::string("degraded read: byte mismatch");
            }
            return traffic_error("degraded read", r.cross_rack_bytes,
                                 read_cross);
          });
      if (sd != 0) {
        const std::vector<Block> view = in.stripe(s, lost[s]);
        const std::uint64_t sb = (kStoreCfg.total() - 1) * kStoreBlock;
        rec.span("digest.stripe", sd, sb, [&] { return digest_blocks(view); });
        rec.span("digest.stripe", sd, sb, [&] { return digest_blocks(view); });
        const PlannedRepair planned =
            rec.span("plan", sd, 0, [&] { return read_planner.plan(rp); });
        rec.annotate_items(planned.plan.ops.size());
        const std::uint64_t read_bytes =
            planned.equations[0].active_sources() * kStoreBlock;
        const auto out = rec.span(
            "exec_data", sd, read_bytes, [&] {
              return rpr::repair::execute_on_data(planned.plan,
                                                  planned.outputs, view);
            });
        rec.span("simnet.simulate", sd, 0, [&] {
          return rpr::repair::simulate(planned.plan, cluster,
                                       sys.options().network);
        });
        rec.span("digest.block", sd, kStoreBlock,
                 [&] { return rpr::util::fnv1a64(out[0]); });
      }

      // Healthy read of an intact block in the failed node's rack.
      const std::uint64_t healthy_cross =
          cluster.rack_of(nodes[healthy]) != cluster.rack_of(reader)
              ? kStoreBlock
              : 0;
      const std::uint32_t sh = rec.op(
          "read_healthy", "storage.read_block.healthy", kStoreBlock, [&] {
            const auto r = sys.read_block(ids[s], healthy, reader);
            if (r.degraded) return std::string("healthy read was degraded");
            if (!same_bytes(r.data, in.expected(s, healthy))) {
              return std::string("healthy read: byte mismatch");
            }
            return traffic_error("healthy read", r.cross_rack_bytes,
                                 healthy_cross);
          });
      if (sh != 0) {
        const std::vector<Block> view = in.stripe(s, lost[s]);
        rec.span("digest.stripe", sh, (kStoreCfg.total() - 1) * kStoreBlock,
                 [&] { return digest_blocks(view); });
        rpr::repair::RepairPlan plan;
        plan.block_size = kStoreBlock;
        const OpId r = plan.read(nodes[healthy], healthy, 1);
        (void)plan.send(r, nodes[healthy], reader);
        rec.span("simnet.simulate", sh, 0, [&] {
          return rpr::repair::simulate(plan, cluster, sys.options().network);
        });
        rec.span("digest.block", sh, kStoreBlock,
                 [&] { return rpr::util::fnv1a64(view[healthy]); });
      }
    }

    for (std::size_t s = 0; s < kStoreStripes; ++s) {
      const auto nodes = sys.stripe_nodes(ids[s]);
      const Placement placement(cluster, kStoreCfg, nodes);
      RepairProblem rp;
      rp.code = &code;
      rp.placement = &placement;
      rp.block_size = kStoreBlock;
      rp.failed = {lost[s]};
      rp.replacements = {
          replacement_in_rack(sys, nodes, cluster.rack_of(nodes[lost[s]]))};
      const rpr::repair::RprPlanner planner;
      const std::uint64_t cross = predicted_cross_bytes(rp, planner.plan(rp));
      const std::uint32_t sr =
          rec.op("repair", "storage.repair", kStoreBlock, [&] {
            const auto r = sys.repair(ids[s]);
            rec.repaired(r.cross_rack_bytes, kStoreBlock);
            if (!r.verified) return std::string("repair not verified");
            if (r.repaired_blocks != std::vector<std::size_t>{lost[s]}) {
              return std::string("repair rebuilt the wrong blocks");
            }
            return traffic_error("repair", r.cross_rack_bytes, cross);
          });
      if (sr != 0) {
        // repair = lost_blocks (hash every stored block) + stripe_view
        // (hash again, copy) + plan + online verify + execute_on_data +
        // simulate + digest of the rebuilt block + install.
        const std::vector<Block> view = in.stripe(s, lost[s]);
        const std::uint64_t sb = (kStoreCfg.total() - 1) * kStoreBlock;
        rec.span("digest.stripe", sr, sb, [&] { return digest_blocks(view); });
        rec.span("digest.stripe", sr, sb, [&] { return digest_blocks(view); });
        const PlannedRepair planned =
            rec.span("plan", sr, 0, [&] { return planner.plan(rp); });
        rec.annotate_items(planned.plan.ops.size());
        const auto report = rec.span("verify.online", sr, 0, [&] {
          return rpr::verify::verify_planned_repair(planned, rp, Scheme::kRpr,
                                                    /*skip_algebra=*/true);
        });
        if (!report.ok()) rec.check("verify", report.to_string());
        const std::uint64_t read_bytes =
            planned.equations[0].active_sources() * kStoreBlock;
        const auto out = rec.span(
            "exec_data", sr, read_bytes, [&] {
              return rpr::repair::execute_on_data(planned.plan,
                                                  planned.outputs, view);
            });
        rec.span("simnet.simulate", sr, 0, [&] {
          return rpr::repair::simulate(planned.plan, cluster,
                                       sys.options().network);
        });
        rec.span("digest.block", sr, kStoreBlock,
                 [&] { return rpr::util::fnv1a64(out[0]); });
        // The repair's own GF work, alone (not a child: exec_data holds it).
        const auto& eq = planned.equations[0];
        std::vector<std::uint8_t> coeffs;
        std::vector<const std::uint8_t*> srcs;
        for (std::size_t i = 0; i < eq.sources.size(); ++i) {
          if (eq.coefficients[i] == 0) continue;
          coeffs.push_back(eq.coefficients[i]);
          srcs.push_back(view[eq.sources[i]].data());
        }
        std::vector<std::uint8_t> dst(kStoreBlock, 0);
        rec.span("gf.repair_equation", 0, srcs.size() * kStoreBlock, [&] {
          rpr::gf::mul_region_add_multi(coeffs, srcs.data(), dst);
        });
        if (!same_bytes(dst, in.expected(s, lost[s]))) {
          rec.check("gf", "repair equation replay: byte mismatch");
        }
        rec.span("verify.bound", 0, 0, [&] {
          return rpr::repair::analysis::makespan_lower_bound(
              planned.plan, cluster, sys.options().network, 0);
        });
      }
    }

    for (std::size_t s = 0; s < kStoreStripes; ++s) {
      rec.op("get", "storage.get", in.objects[s].size(), [&] {
        const auto object = sys.get(ids[s]);
        if (!same_bytes(object, in.objects[s])) {
          return std::string("get: byte mismatch");
        }
        return std::string();
      });
    }
  });

  if (!opt.trace) return;
  // Layer probes on the workload's own bytes.
  std::vector<const std::uint8_t*> srcs;
  for (std::size_t b = 0; b < n; ++b) srcs.push_back(in.expected(0, b).data());
  probe_gf(rec, srcs, kStoreBlock, opt.seed);
  // The ROADMAP's 64 MiB seed rows: FNV-1a and mul_region_add on one buffer.
  const Bytes buf = Bytes(in.objects[0]).first(64ull << 20);
  std::vector<std::uint8_t> dst(buf.size(), 0);
  for (int rep = 0; rep < 3; ++rep) {
    rec.span("seed.fnv1a64.64MiB", 0, buf.size(),
             [&] { return rpr::util::fnv1a64(buf); });
    rec.span("seed.mul_region_add.64MiB", 0, buf.size(),
             [&] { rpr::gf::mul_region_add(0x53, dst, buf); });
  }
}

// ---------------------------------------------------------------------------
// engine-stream

constexpr CodeConfig kEngineCfg{12, 4};
constexpr std::uint64_t kEngineBlock = 16ull << 20;
constexpr std::size_t kEngineSlice = 64 << 10;
constexpr double kUnpaced = 1 << 20;  // time_scale: links effectively unpaced

struct EngineInputs {
  rpr::topology::PlacedStripe placed;
  std::unique_ptr<rpr::rs::RSCode> code;
  RepairProblem problem;
  PlannedRepair planned;
  std::vector<Block> stripe;  ///< block 0 (the failed one) left empty
  Block expected;             ///< the original block 0
  std::uint64_t cross_bytes = 0;
};

/// Heap-allocated because `problem` points into `placed`.
std::unique_ptr<EngineInputs> make_engine_inputs(std::uint64_t seed) {
  auto owned = std::make_unique<EngineInputs>(EngineInputs{
      rpr::topology::make_placed_stripe(kEngineCfg,
                                        rpr::topology::PlacementPolicy::kRpr),
      std::make_unique<rpr::rs::RSCode>(kEngineCfg), {}, {}, {}, {}, 0});
  EngineInputs& in = *owned;
  in.stripe.resize(kEngineCfg.total());
  for (std::size_t b = 0; b < kEngineCfg.n; ++b) {
    in.stripe[b].resize(kEngineBlock);
    fill_random(in.stripe[b], seed * 7919 + b);
  }
  in.code->encode_stripe(in.stripe);
  in.expected = std::move(in.stripe[0]);
  in.stripe[0].clear();
  in.problem.code = in.code.get();
  in.problem.placement = &in.placed.placement;
  in.problem.block_size = kEngineBlock;
  in.problem.failed = {0};
  in.problem.choose_default_replacements();
  in.planned = rpr::repair::RprPlanner().plan(in.problem);
  rpr::repair::validate(in.planned.plan, in.placed.cluster);
  rpr::verify::throw_if_violated(
      rpr::verify::verify_planned_repair(in.planned, in.problem, Scheme::kRpr),
      "engine-stream plan");
  in.cross_bytes = predicted_cross_bytes(in.problem, in.planned);
  return owned;
}

using TestbedParams = rpr::runtime::TestbedParams;
using TcpParams = rpr::net::TcpRuntimeParams;

/// Testbed and TCP runtime parameters name these fields alike.
template <typename Params>
Params engine_params(const Cluster& c, std::size_t slice,
                     MetricsRegistry* reg) {
  Params p;
  p.net = rpr::runtime::RegionNet::uniform(
      c.racks(), rpr::util::Bandwidth::gbps(10), rpr::util::Bandwidth::gbps(1));
  p.time_scale = kUnpaced;
  p.decode_matrix_dim = kEngineCfg.n;
  p.slice_size = slice;
  p.metrics = reg;
  return p;
}

/// The four engine configurations, each with its own metrics registry
/// (null = untraced).
struct Engines {
  Engines(const Cluster& c, bool traced)
      : reg_tb_slice(traced ? std::make_unique<MetricsRegistry>() : nullptr),
        reg_tcp_slice(traced ? std::make_unique<MetricsRegistry>() : nullptr),
        reg_tb_whole(traced ? std::make_unique<MetricsRegistry>() : nullptr),
        reg_tcp_whole(traced ? std::make_unique<MetricsRegistry>() : nullptr),
        tb_slice(c, engine_params<TestbedParams>(c, kEngineSlice,
                                                  reg_tb_slice.get())),
        tcp_slice(c, engine_params<TcpParams>(c, kEngineSlice,
                                              reg_tcp_slice.get())),
        tb_whole(c, engine_params<TestbedParams>(c, 0, reg_tb_whole.get())),
        tcp_whole(c, engine_params<TcpParams>(c, 0, reg_tcp_whole.get())) {}

  std::unique_ptr<MetricsRegistry> reg_tb_slice, reg_tcp_slice, reg_tb_whole,
      reg_tcp_whole;
  rpr::runtime::Testbed tb_slice;
  rpr::net::TcpRuntime tcp_slice;
  rpr::runtime::Testbed tb_whole;
  rpr::net::TcpRuntime tcp_whole;
};

double histogram_quantile(const MetricsRegistry& reg, const std::string& name,
                          double q) {
  const auto* h = reg.find_histogram(name);
  return h == nullptr ? NAN : h->quantile(q);
}

void export_slice_metrics(Recorder& rec, const MetricsRegistry& reg,
                          const std::string& prefix) {
  for (const char* phase : {"combine", "cross", "inner"}) {
    const std::string name = prefix + ".slice." + phase + "_latency_s";
    rec.layer(name + ".p50", histogram_quantile(reg, name, 0.5));
    const auto* h = reg.find_histogram(name);
    rec.layer(name + ".mean", h == nullptr ? NAN : h->mean());
  }
  const auto* peak = reg.find_max_gauge(prefix + ".bytes_in_flight_peak");
  rec.layer(prefix + ".bytes_in_flight_peak",
            peak == nullptr ? 0.0 : peak->value());
}

/// ExecState + stream_combine alone: one combine of `nin` published inputs
/// at 64 KiB slices, on the same 16 MiB blocks.
void probe_stream_combine(Recorder& rec, const EngineInputs& in) {
  using rpr::runtime::detail::ExecState;
  const std::size_t nin = kEngineCfg.n;  // blocks 1..n stand in as inputs
  rpr::repair::PlanOp op;
  op.kind = rpr::repair::OpKind::kCombine;
  op.inputs.resize(nin);
  std::iota(op.inputs.begin(), op.inputs.end(), OpId{0});
  for (int rep = 0; rep < 3; ++rep) {
    ExecState state(nin + 1, kEngineBlock, kEngineSlice);
    for (std::size_t i = 0; i < nin; ++i) state.publish(i, in.stripe[i + 1]);
    rpr::runtime::detail::SliceMetrics metrics(nullptr, "perfbench");
    auto op_start = Clock::now();
    const bool ok = rec.span("exec.stream_combine", 0, nin * kEngineBlock, [&] {
      return rpr::runtime::detail::stream_combine(
          state, op, nin, kEngineCfg.n, metrics, [] { return false; },
          op_start);
    });
    rec.annotate_items(state.slices());
    if (!ok) rec.check("stream_combine", "combine failed");
  }
}

/// The socket layer alone: 64 KiB framed values written and read back
/// through one loopback connection, on the calling thread.
void probe_loopback(Recorder& rec, const Block& payload_src) {
  constexpr std::size_t kFrame = 64 << 10;
  constexpr int kFrames = 2048;  // 128 MiB per rep
  rpr::net::Listener listener;
  rpr::net::Socket tx = rpr::net::connect_local(listener.port(), 5.0);
  rpr::net::Socket rx = listener.accept(5.0);
  if (!rx.valid()) {
    rec.check("loopback", "accept timed out");
    return;
  }
  const Bytes payload = Bytes(payload_src).first(kFrame);
  std::vector<std::uint8_t> sink(kFrame);
  for (int rep = 0; rep < 3; ++rep) {
    const bool ok = rec.span("net.loopback", 0, kFrame * kFrames, [&] {
      for (int i = 0; i < kFrames; ++i) {
        (void)rpr::net::send_value(tx, static_cast<std::uint64_t>(i), payload);
        const auto h = rpr::net::recv_header(rx, kFrame);
        if (h.payload_len != kFrame) return false;
        rx.read_exact(sink);
      }
      return true;
    });
    if (!ok || !same_bytes(sink, payload)) {
      rec.check("loopback", "frame mismatch");
    }
  }
}

void run_engine_stream(Recorder& rec) {
  const Options& opt = rec.options();
  // Set-up: data, encode, plan, verify, and the four engines.
  auto make = [&] {
    auto in = make_engine_inputs(opt.seed);
    auto engines = std::make_unique<Engines>(in->placed.cluster, false);
    return std::make_pair(std::move(in), std::move(engines));
  };
  const auto setup = timed_setup(rec, 5, make);
  const EngineInputs& in = *setup.first;
  Engines* plain = setup.second.get();
  std::unique_ptr<Engines> traced;
  const std::vector<OpId> outputs = in.planned.outputs;

  auto repair_on = [&](const std::string& kind, const std::string& span,
                       auto& engine) {
    rec.op(kind, span, kEngineBlock, [&] {
      auto r = engine.execute(in.planned.plan, outputs, in.stripe);
      rec.repaired(r.cross_rack_bytes, kEngineBlock);
      if (r.abort) return std::string("engine aborted");
      if (r.outputs.size() != 1) return std::string("missing output");
      rec.maybe_corrupt(r.outputs[0]);
      if (!same_bytes(r.outputs[0], in.expected)) {
        return std::string("rebuilt block: byte mismatch");
      }
      return traffic_error(kind.c_str(), r.cross_rack_bytes, in.cross_bytes);
    });
  };

  run_phases(
      rec,
      [&] {
        Engines& e = rec.traced() ? *traced : *plain;
        repair_on("testbed_slice", "runtime.testbed.execute.slice", e.tb_slice);
        repair_on("tcp_slice", "net.tcp.execute.slice", e.tcp_slice);
        repair_on("testbed_whole", "runtime.testbed.execute.whole", e.tb_whole);
        repair_on("tcp_whole", "net.tcp.execute.whole", e.tcp_whole);
      },
      [&] { traced = std::make_unique<Engines>(in.placed.cluster, true); });

  if (!opt.trace) return;
  export_slice_metrics(rec, *traced->reg_tb_slice, "testbed");
  export_slice_metrics(rec, *traced->reg_tcp_slice, "tcp");
  const auto* opened = traced->reg_tcp_slice->find_counter("tcp.conn.opened");
  const auto* reused = traced->reg_tcp_slice->find_counter("tcp.conn.reused");
  rec.layer("tcp.conn.opened",
            opened ? static_cast<double>(opened->value()) : 0.0);
  rec.layer("tcp.conn.reused",
            reused ? static_cast<double>(reused->value()) : 0.0);

  // Layer probes on the same stripe and plan.
  std::vector<const std::uint8_t*> srcs;
  for (std::size_t b = 1; b <= kEngineCfg.n; ++b) {
    srcs.push_back(in.stripe[b].data());
  }
  probe_gf(rec, srcs, kEngineBlock, opt.seed);
  probe_stream_combine(rec, in);
  probe_loopback(rec, in.stripe[1]);
  const rpr::repair::RprPlanner planner;
  for (int rep = 0; rep < 20; ++rep) {
    const auto planned =
        rec.span("plan", 0, 0, [&] { return planner.plan(in.problem); });
    rec.annotate_items(planned.plan.ops.size());
    rec.span("verify.online", 0, 0, [&] {
      return rpr::verify::verify_planned_repair(planned, in.problem,
                                                Scheme::kRpr, true);
    });
    rec.span("verify.bound", 0, 0, [&] {
      return rpr::repair::analysis::makespan_lower_bound(
          planned.plan, in.placed.cluster, NetworkParams{}, kEngineSlice);
    });
  }
}

// ---------------------------------------------------------------------------
// fleet-sim

constexpr CodeConfig kFleetCfg{14, 10};
constexpr std::uint64_t kFleetBlock = 64ull << 20;
constexpr std::size_t kFleetStripes = 100;
constexpr std::size_t kFleetSlice = 256 << 10;
constexpr std::size_t kFleetMaxInflight = 16;
constexpr double kFleetShare = 0.5;
constexpr double kFleetFgQps = 20.0;
constexpr double kFleetFgDuration = 600.0;
constexpr std::uint64_t kFleetFgReadSize = 4ull << 20;
constexpr double kFleetProbeAt = 0.2;
/// One probe read per this many lost blocks. A probe on every one of the
/// 100 lost blocks makes one run_fleet call take ~48 s instead of ~4 s (the
/// promoted read plans all wait on ports and are re-scanned on every
/// completion), which does not fit a measured run.
constexpr std::size_t kFleetProbeEvery = 10;

/// The rack-rotated damaged fleet of bench/fleet_sweep.cpp: node 0 died,
/// each stripe repairs the block it kept there.
struct Fleet {
  explicit Fleet(std::uint64_t seed) {
    const Placement base = rpr::topology::make_placement(
        cluster, kFleetCfg, rpr::topology::PlacementPolicy::kRpr);
    placements.reserve(kFleetStripes);
    for (std::size_t s = 0; s < kFleetStripes; ++s) {
      std::vector<NodeId> nodes(kFleetCfg.total());
      std::size_t failed = s % kFleetCfg.total();
      for (std::size_t b = 0; b < kFleetCfg.total(); ++b) {
        const auto node = base.node_of(b);
        const auto rack = (cluster.rack_of(node) + s) % cluster.racks();
        nodes[b] = rack * cluster.nodes_per_rack() +
                   node % cluster.nodes_per_rack();
        if (nodes[b] == 0) failed = b;
      }
      placements.emplace_back(cluster, kFleetCfg, std::move(nodes));
      rpr::sched::StripeArrival arrival;
      arrival.problem.code = &code;
      arrival.problem.placement = &placements.back();
      arrival.problem.block_size = kFleetBlock;
      arrival.problem.failed = {failed};
      arrival.problem.choose_default_replacements();
      workload.stripes.push_back(std::move(arrival));
    }
    workload.foreground.qps = kFleetFgQps;
    workload.foreground.duration_s = kFleetFgDuration;
    workload.foreground.read_size = kFleetFgReadSize;
    workload.foreground.seed = seed;
    const auto reader = static_cast<NodeId>(cluster.total_nodes() - 1);
    for (std::size_t s = 0; s < kFleetStripes; s += kFleetProbeEvery) {
      workload.reads.push_back(rpr::sched::ReadEvent{
          kFleetProbeAt, s, workload.stripes[s].problem.failed[0], reader});
    }
    // Closed-form traffic of every stripe's plan; the plan's own transfer
    // count must match it.
    const rpr::repair::RprPlanner planner;
    for (const auto& a : workload.stripes) {
      const PlannedRepair planned = planner.plan(a.problem);
      const auto predicted = rpr::repair::analysis::predicted_traffic(
          Scheme::kRpr, a.problem, planned);
      const auto actual = rpr::repair::traffic(planned.plan, cluster);
      if (actual.cross_rack_transfers != predicted.cross_transfers) {
        traffic_mismatches++;
      }
      cross_bytes.push_back(predicted.cross_transfers * kFleetBlock);
    }
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  rpr::rs::RSCode code{kFleetCfg};
  Cluster cluster{kFleetCfg.racks_when_full(), kFleetCfg.k, kFleetCfg.k};
  std::vector<Placement> placements;
  rpr::sched::FleetWorkload workload;
  /// Closed-form cross-rack bytes of each stripe's repair plan.
  std::vector<std::uint64_t> cross_bytes;
  std::size_t traffic_mismatches = 0;
};

rpr::sched::SchedulerOptions fleet_options(MetricsRegistry* reg) {
  rpr::sched::SchedulerOptions o;
  o.max_inflight = kFleetMaxInflight;
  o.repair_share = kFleetShare;
  o.slice_size = kFleetSlice;
  o.scheme = Scheme::kRpr;
  o.degraded = rpr::sched::DegradedPolicy::kServe;
  o.probe.metrics = reg;
  return o;
}

void run_fleet_sim(Recorder& rec) {
  const Options& opt = rec.options();
  const auto fleet = timed_setup(
      rec, 20, [&] { return std::make_unique<Fleet>(opt.seed); });
  rec.check("fleet_traffic",
            fleet->traffic_mismatches == 0
                ? std::string()
                : std::to_string(fleet->traffic_mismatches) +
                      " stripe plans differ from the closed-form traffic");
  MetricsRegistry reg;
  std::optional<std::pair<double, double>> first;  // (last commit, fg p99)

  run_phases(rec, [&] {
    rpr::sched::FleetSchedOutcome out;
    rec.op("run_fleet", "sched.run_fleet", kFleetStripes * kFleetBlock, [&] {
      out = rpr::sched::run_fleet(fleet->workload, fleet->cluster,
                                  NetworkParams{},
                                  fleet_options(rec.traced() ? &reg : nullptr));
      return std::string();
    });
    if (opt.corrupt && !first && !out.completion_s.empty()) {
      out.completion_s[0] = NAN;
    }
    // Every stripe must commit and every read complete.
    for (std::size_t s = 0; s < kFleetStripes; ++s) {
      const double c = s < out.completion_s.size() ? out.completion_s[s] : NAN;
      rec.check("commit", std::isfinite(c) && c > 0.0
                              ? std::string()
                              : "stripe " + std::to_string(s) +
                                    " never committed");
    }
    std::size_t by_path = 0;
    for (const std::size_t n : out.reads_by_path) by_path += n;
    for (const auto& r : out.reads) {
      rec.check("read", std::isfinite(r.latency_s) && r.latency_s >= 0.0
                            ? std::string()
                            : "read of stripe " + std::to_string(r.stripe) +
                                  " block " + std::to_string(r.block) +
                                  " via " + rpr::sched::read_path_name(r.path) +
                                  ": latency " + std::to_string(r.latency_s));
    }
    rec.check("reads", out.reads.size() >= fleet->workload.reads.size() &&
                               by_path == out.reads.size()
                           ? std::string()
                           : "reads missing from the outcome");
    for (std::size_t s = 0; s < kFleetStripes; ++s) {
      rec.repaired(fleet->cross_bytes[s], kFleetBlock);
    }
    // Same inputs, same schedule: the simulation is deterministic.
    const std::pair<double, double> key{out.last_commit_s,
                                        out.foreground_p99_s};
    if (!first) first = key;
    rec.check("deterministic", key == *first
                                   ? std::string()
                                   : "run_fleet changed its schedule "
                                     "between calls");
    rec.layer("fleet.wave_complete_s", out.last_commit_s);
    rec.layer("fleet.fg_read_p99_s", out.foreground_p99_s);
  });

  if (!opt.trace) return;
  const auto* tasks = reg.find_counter("sim.tasks");
  rec.layer("sim.tasks", tasks ? static_cast<double>(tasks->value()) : 0.0);
  const auto* depth = reg.find_max_gauge("sched.queue_depth");
  rec.layer("sched.queue_depth", depth ? depth->value() : 0.0);
  rec.layer("sched.admission_wait_s.p50",
            histogram_quantile(reg, "sched.admission_wait_s", 0.5));
  for (std::size_t p = 0; p < rpr::sched::kReadPathCount; ++p) {
    const std::string name =
        std::string("sched.reads.") +
        rpr::sched::read_path_name(static_cast<rpr::sched::ReadPath>(p));
    const auto* c = reg.find_counter(name);
    rec.layer(name, c ? static_cast<double>(c->value()) : 0.0);
  }
  // Planner, verifier and simulator alone on the fleet's stripes.
  const rpr::repair::RprPlanner planner;
  for (const auto& a : fleet->workload.stripes) {
    const auto planned =
        rec.span("plan", 0, 0, [&] { return planner.plan(a.problem); });
    rec.annotate_items(planned.plan.ops.size());
    rec.span("verify.online", 0, 0, [&] {
      return rpr::verify::verify_planned_repair(planned, a.problem,
                                                Scheme::kRpr, true);
    });
    rec.span("verify.bound", 0, 0, [&] {
      return rpr::repair::analysis::makespan_lower_bound(
          planned.plan, fleet->cluster, NetworkParams{}, kFleetSlice);
    });
  }
  const auto planned = planner.plan(fleet->workload.stripes[0].problem);
  for (int rep = 0; rep < 5; ++rep) {
    rec.span("simnet.simulate", 0, 0, [&] {
      return rpr::repair::simulate(planned.plan, fleet->cluster,
                                   NetworkParams{});
    });
  }
}

// ---------------------------------------------------------------------------
// main

/// The measured configuration, pinned: these variables each select a
/// different program than the one the benchmark measures.
std::string refused_environment() {
  if (std::getenv("RPR_GF_FORCE") != nullptr) return "RPR_GF_FORCE";
  if (std::getenv("RPR_VERIFY_PLANS") != nullptr) return "RPR_VERIFY_PLANS";
  const char* online = std::getenv("RPR_VERIFY_ONLINE");
  if (online != nullptr && std::string(online) == "0") {
    return "RPR_VERIFY_ONLINE=0";
  }
  return {};
}

void record_config(Recorder& rec) {
  rec.config("gf_tier", rpr::gf::tier_name(rpr::gf::active_tier()));
  rec.config("thread_pool",
             std::to_string(rpr::util::ThreadPool::shared().size()));
  rec.config("online_verify",
             rpr::verify::online_verify_enabled() ? "on" : "off");
  char host[256] = {};
  gethostname(host, sizeof host - 1);
  rec.config("host", host);
  utsname u{};
  if (uname(&u) == 0) {
    rec.config("kernel",
               std::string(u.sysname) + " " + u.release + " " + u.machine);
  }
  rec.config("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv(*e);
    if (kv.rfind("RPR_", 0) == 0) {
      const auto eq = kv.find('=');
      rec.config("env." + kv.substr(0, eq), kv.substr(eq + 1));
    }
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner --workload store-wave|engine-stream|"
               "fleet-sim --seed N --seconds S --trace 0|1 --out FILE "
               "[--corrupt]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        opt.workload = value();
      } else if (a == "--seed") {
        opt.seed = std::stoull(value());
      } else if (a == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (a == "--trace") {
        opt.trace = value() != "0";
      } else if (a == "--out") {
        opt.out = value();
      } else if (a == "--corrupt") {
        opt.corrupt = true;
      } else {
        return usage();
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return usage();
    }
  }
  if (opt.out.empty() || opt.seconds <= 0) return usage();
  if (const std::string bad = refused_environment(); !bad.empty()) {
    std::fprintf(stderr, "perfbench: refusing to run with %s set\n",
                 bad.c_str());
    return 3;
  }

  Recorder rec(opt);
  record_config(rec);
  try {
    if (opt.workload == "store-wave") {
      run_store_wave(rec);
    } else if (opt.workload == "engine-stream") {
      run_engine_stream(rec);
    } else if (opt.workload == "fleet-sim") {
      run_fleet_sim(rec);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::FILE* f = std::fopen(opt.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", opt.out.c_str());
    return 1;
  }
  rec.write(f);
  std::fclose(f);
  return 0;
}
