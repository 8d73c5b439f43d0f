#include "fault/fault.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <set>
#include <sstream>
#include <stdexcept>

#include "util/rng.h"

namespace rpr::fault {
namespace {

[[noreturn]] void bad_spec(std::string_view entry, const char* why) {
  std::ostringstream os;
  os << "FaultSchedule::parse: bad entry '" << entry << "': " << why;
  throw std::invalid_argument(os.str());
}

std::uint64_t parse_u64(std::string_view entry, std::string_view text,
                        const char* what) {
  std::uint64_t value = 0;
  const auto* first = text.data();
  const auto* last = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last || text.empty()) bad_spec(entry, what);
  return value;
}

double parse_double(std::string_view entry, std::string_view text,
                    const char* what) {
  if (text.empty()) bad_spec(entry, what);
  std::string owned(text);
  std::size_t consumed = 0;
  double value = 0.0;
  try {
    value = std::stod(owned, &consumed);
  } catch (const std::exception&) {
    bad_spec(entry, what);
  }
  if (consumed != owned.size()) bad_spec(entry, what);
  return value;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

/// Rack ids '+'-separated ('+' because ',' and ';' split entries).
std::vector<topology::RackId> parse_rack_group(std::string_view entry,
                                               std::string_view text) {
  std::vector<topology::RackId> out;
  std::size_t begin = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == '+') {
      const auto id = trim(text.substr(begin, i - begin));
      out.push_back(parse_u64(entry, id, "rack id must be a number"));
      begin = i + 1;
    }
  }
  return out;
}

void parse_partition(FaultSchedule& out, std::string_view entry,
                     std::string_view args) {
  const auto at = args.find('@');
  if (at == std::string_view::npos) {
    bad_spec(entry, "expected '{A|B}@T' or '{A|B}@T~D'");
  }
  std::string_view sides = trim(args.substr(0, at));
  if (sides.size() >= 2 && sides.front() == '{' && sides.back() == '}') {
    sides = sides.substr(1, sides.size() - 2);
  }
  const auto bar = sides.find('|');
  if (bar == std::string_view::npos) {
    bad_spec(entry, "expected two '|'-separated rack groups");
  }
  Partition p;
  p.side_a = parse_rack_group(entry, sides.substr(0, bar));
  p.side_b = parse_rack_group(entry, sides.substr(bar + 1));
  std::string_view when = args.substr(at + 1);
  const auto tilde = when.find('~');
  if (tilde != std::string_view::npos) {
    p.heal_after_s = parse_double(entry, when.substr(tilde + 1),
                                  "heal delay must be a number of seconds");
    if (p.heal_after_s < 0.0) bad_spec(entry, "heal delay must be >= 0");
    when = when.substr(0, tilde);
  }
  p.at_s =
      parse_double(entry, when, "partition time must be a number of seconds");
  if (p.at_s < 0.0) bad_spec(entry, "partition time must be >= 0");
  std::set<topology::RackId> seen;
  for (const auto r : p.side_a) {
    if (!seen.insert(r).second) bad_spec(entry, "rack listed twice");
  }
  for (const auto r : p.side_b) {
    if (!seen.insert(r).second) {
      bad_spec(entry, "rack listed on both sides of the partition");
    }
  }
  out.partitions.push_back(std::move(p));
}

void parse_entry(FaultSchedule& out, std::string_view entry) {
  const auto colon = entry.find(':');
  if (colon == std::string_view::npos) {
    bad_spec(entry, "expected '<kind>:<args>'");
  }
  const std::string_view kind = entry.substr(0, colon);
  const std::string_view args = entry.substr(colon + 1);

  if (kind == "kill") {
    const auto at = args.find('@');
    if (at == std::string_view::npos) bad_spec(entry, "expected 'NODE@T'");
    KillNode k;
    k.node = parse_u64(entry, args.substr(0, at), "node id must be a number");
    k.at_s = parse_double(entry, args.substr(at + 1),
                          "kill time must be a number of seconds");
    if (k.at_s < 0.0) bad_spec(entry, "kill time must be >= 0");
    if (out.kill_of(k.node) != nullptr) {
      bad_spec(entry, "duplicate kill of the same node");
    }
    out.kills.push_back(k);
  } else if (kind == "straggle") {
    const auto star = args.find('*');
    if (star == std::string_view::npos) bad_spec(entry, "expected 'NODE*F'");
    Straggle s;
    s.node = parse_u64(entry, args.substr(0, star), "node id must be a number");
    std::string_view rest = args.substr(star + 1);
    const auto x = rest.find('x');
    if (x != std::string_view::npos) {
      s.attempts = parse_u64(entry, rest.substr(x + 1),
                             "attempt count must be a number");
      if (s.attempts == 0) bad_spec(entry, "attempt count must be >= 1");
      rest = rest.substr(0, x);
    }
    s.factor = parse_double(entry, rest, "slowdown factor must be a number");
    if (s.factor <= 1.0) bad_spec(entry, "slowdown factor must be > 1");
    if (out.straggle_of(s.node) != nullptr) {
      bad_spec(entry, "duplicate straggle of the same node");
    }
    out.stragglers.push_back(s);
  } else if (kind == "corrupt") {
    Corrupt c;
    c.block = parse_u64(entry, args, "block index must be a number");
    for (const auto& existing : out.corruptions) {
      if (existing.block == c.block) {
        bad_spec(entry, "duplicate corrupt of the same block");
      }
    }
    out.corruptions.push_back(c);
  } else if (kind == "rack") {
    const auto at = args.find('@');
    if (at == std::string_view::npos) bad_spec(entry, "expected 'RACK@T'");
    RackKill rk;
    rk.rack = parse_u64(entry, args.substr(0, at), "rack id must be a number");
    rk.at_s = parse_double(entry, args.substr(at + 1),
                           "kill time must be a number of seconds");
    if (rk.at_s < 0.0) bad_spec(entry, "kill time must be >= 0");
    for (const auto& existing : out.rack_kills) {
      if (existing.rack == rk.rack) {
        bad_spec(entry, "duplicate kill of the same rack");
      }
    }
    out.rack_kills.push_back(rk);
  } else if (kind == "partition") {
    parse_partition(out, entry, args);
  } else if (kind == "slowdisk") {
    const auto star = args.find('*');
    if (star == std::string_view::npos) bad_spec(entry, "expected 'NODE*F'");
    SlowDisk d;
    d.node = parse_u64(entry, args.substr(0, star), "node id must be a number");
    d.factor = parse_double(entry, args.substr(star + 1),
                            "slowdown factor must be a number");
    if (d.factor <= 1.0) bad_spec(entry, "slowdown factor must be > 1");
    if (out.slowdisk_of(d.node) != nullptr) {
      bad_spec(entry, "duplicate slowdisk of the same node");
    }
    out.slow_disks.push_back(d);
  } else if (kind == "diskfull") {
    DiskFull f;
    f.node = parse_u64(entry, args, "node id must be a number");
    if (out.diskfull(f.node)) {
      bad_spec(entry, "duplicate diskfull of the same node");
    }
    out.disk_fulls.push_back(f);
  } else if (kind == "seed") {
    out.seed = parse_u64(entry, args, "seed must be a number");
  } else {
    bad_spec(entry,
             "unknown kind (want kill/straggle/corrupt/rack/partition/"
             "slowdisk/diskfull/seed)");
  }
}

/// splitmix64 finalizer — a cheap, well-mixed 64-bit hash.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::vector<int> Partition::sides(const topology::Cluster& cluster) const {
  std::vector<int> side(cluster.total_nodes());
  for (topology::NodeId n = 0; n < side.size(); ++n) {
    side[n] = side_of(cluster.rack_of(n));
  }
  return side;
}

double RetryPolicy::backoff_jittered_s(std::size_t retry,
                                       std::uint64_t key) const noexcept {
  const double b = backoff_s(retry);
  if (jitter <= 0.0) return b;
  const std::uint64_t h = mix64(mix64(key) ^ (retry + 1));
  // 53 high bits -> uniform double in [0, 1).
  const double u =
      static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
  return b * (1.0 + jitter * u);
}

const Straggle* FaultSchedule::straggle_of(topology::NodeId node) const {
  for (const auto& s : stragglers) {
    if (s.node == node) return &s;
  }
  return nullptr;
}

const KillNode* FaultSchedule::kill_of(topology::NodeId node) const {
  for (const auto& k : kills) {
    if (k.node == node) return &k;
  }
  return nullptr;
}

std::vector<std::size_t> FaultSchedule::corrupt_blocks() const {
  std::vector<std::size_t> out;
  out.reserve(corruptions.size());
  for (const auto& c : corruptions) out.push_back(c.block);
  return out;
}

const SlowDisk* FaultSchedule::slowdisk_of(topology::NodeId node) const {
  for (const auto& d : slow_disks) {
    if (d.node == node) return &d;
  }
  return nullptr;
}

bool FaultSchedule::diskfull(topology::NodeId node) const {
  for (const auto& f : disk_fulls) {
    if (f.node == node) return true;
  }
  return false;
}

void FaultSchedule::expand_racks(const topology::Cluster& cluster) {
  for (const auto& rk : rack_kills) {
    for (const auto node : cluster.nodes_in_rack(rk.rack)) {
      if (const auto* existing = kill_of(node)) {
        // Keep whichever death strikes first.
        if (existing->at_s > rk.at_s) {
          for (auto& k : kills) {
            if (k.node == node) k.at_s = rk.at_s;
          }
        }
        continue;
      }
      kills.push_back(KillNode{node, rk.at_s});
    }
  }
  rack_kills.clear();
}

void FaultSchedule::validate(const topology::Cluster& cluster,
                             std::size_t total_blocks) const {
  const auto bad = [](const std::string& what) {
    throw std::invalid_argument("FaultSchedule::validate: " + what);
  };
  const auto check_node = [&](topology::NodeId node, const char* kind) {
    if (node >= cluster.total_nodes()) {
      bad(std::string(kind) + ": node " + std::to_string(node) +
          " out of range (cluster has " +
          std::to_string(cluster.total_nodes()) + " nodes)");
    }
  };
  const auto check_rack = [&](topology::RackId rack, const char* kind) {
    if (rack >= cluster.racks()) {
      bad(std::string(kind) + ": rack " + std::to_string(rack) +
          " out of range (cluster has " + std::to_string(cluster.racks()) +
          " racks)");
    }
  };
  for (const auto& k : kills) check_node(k.node, "kill");
  for (const auto& s : stragglers) check_node(s.node, "straggle");
  for (const auto& d : slow_disks) check_node(d.node, "slowdisk");
  for (const auto& f : disk_fulls) check_node(f.node, "diskfull");
  for (const auto& rk : rack_kills) check_rack(rk.rack, "rack");
  for (const auto& p : partitions) {
    if (p.side_a.empty() || p.side_b.empty()) {
      bad("partition: both sides must name at least one rack");
    }
    for (const auto r : p.side_a) check_rack(r, "partition");
    for (const auto r : p.side_b) check_rack(r, "partition");
  }
  if (total_blocks > 0) {
    for (const auto& c : corruptions) {
      if (c.block >= total_blocks) {
        bad("corrupt: block " + std::to_string(c.block) +
            " out of range (stripe has " + std::to_string(total_blocks) +
            " blocks)");
      }
    }
  }
}

FaultSchedule FaultSchedule::parse(std::string_view spec) {
  FaultSchedule out;
  std::size_t begin = 0;
  for (std::size_t i = 0; i <= spec.size(); ++i) {
    if (i == spec.size() || spec[i] == ';' || spec[i] == ',') {
      const std::string_view entry = trim(spec.substr(begin, i - begin));
      if (!entry.empty()) parse_entry(out, entry);
      begin = i + 1;
    }
  }
  return out;
}

std::string FaultSchedule::describe() const {
  std::ostringstream os;
  const char* sep = "";
  for (const auto& k : kills) {
    os << sep << "kill:" << k.node << '@' << k.at_s;
    sep = ";";
  }
  for (const auto& s : stragglers) {
    os << sep << "straggle:" << s.node << '*' << s.factor;
    if (s.transient()) os << 'x' << s.attempts;
    sep = ";";
  }
  for (const auto& c : corruptions) {
    os << sep << "corrupt:" << c.block;
    sep = ";";
  }
  for (const auto& rk : rack_kills) {
    os << sep << "rack:" << rk.rack << '@' << rk.at_s;
    sep = ";";
  }
  for (const auto& p : partitions) {
    os << sep << "partition:{";
    const char* plus = "";
    for (const auto r : p.side_a) {
      os << plus << r;
      plus = "+";
    }
    os << '|';
    plus = "";
    for (const auto r : p.side_b) {
      os << plus << r;
      plus = "+";
    }
    os << "}@" << p.at_s;
    if (p.heals()) os << '~' << p.heal_after_s;
    sep = ";";
  }
  for (const auto& d : slow_disks) {
    os << sep << "slowdisk:" << d.node << '*' << d.factor;
    sep = ";";
  }
  for (const auto& f : disk_fulls) {
    os << sep << "diskfull:" << f.node;
    sep = ";";
  }
  os << sep << "seed:" << seed;
  return os.str();
}

void corrupt_bytes(std::span<std::uint8_t> bytes, std::uint64_t seed) {
  if (bytes.empty()) return;
  util::Xoshiro256 rng(seed);
  // Flip a handful of bytes with a guaranteed-nonzero XOR mask so the
  // corruption can never accidentally restore the original content.
  const std::size_t flips = 1 + rng.below(std::min<std::uint64_t>(
                                    bytes.size(), 16));
  for (std::size_t i = 0; i < flips; ++i) {
    const std::size_t pos = rng.below(bytes.size());
    const auto mask = static_cast<std::uint8_t>(1 + rng.below(255));
    bytes[pos] ^= mask;
  }
}

}  // namespace rpr::fault
