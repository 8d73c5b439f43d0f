#include "check/lock_graph.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>

#if defined(__GLIBC__)
#include <execinfo.h>
#include <unistd.h>
#endif

#include "check/scheduler.h"

namespace rpr::check {

namespace {

std::atomic<bool> g_lock_graph_enabled{false};

/// A call stack's raw return addresses: cheap to capture, symbolized only
/// when an edge keeps it as its witness.
struct Stack {
  static constexpr int kDepth = 12;
  std::array<void*, kDepth> frames{};
  int n = 0;
};

/// Locks currently held by this thread, with the acquisition stack
/// captured when the graph was enabled.
struct HeldLock {
  const void* mutex;
  const char* cls;
  Stack stack;
};
thread_local std::vector<HeldLock>* t_held = nullptr;

std::vector<HeldLock>& held() {
  if (t_held == nullptr) t_held = new std::vector<HeldLock>();
  return *t_held;
}

/// Captures the current call stack.
Stack capture_stack() {
  Stack s;
#if defined(__GLIBC__)
  s.n = backtrace(s.frames.data(), Stack::kDepth);
#endif
  return s;
}

/// Symbolizes a captured stack (skipping the capture machinery itself).
/// Frames are joined with '|' so an edge dumps as one tab-separated line.
std::string symbolize(const Stack& s) {
#if defined(__GLIBC__)
  char** symbols = backtrace_symbols(s.frames.data(), s.n);
  if (symbols == nullptr) return "<backtrace failed>";
  std::string out;
  for (int i = 2; i < s.n; ++i) {  // skip capture_stack + on_acquire
    if (!out.empty()) out += "|";
    out += symbols[i];
  }
  std::free(symbols);  // NOLINT(cppcoreguidelines-no-malloc)
  return out;
#else
  (void)s;
  return "<no backtrace on this platform>";
#endif
}

std::string sanitize(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    if (c == '\t' || c == '\n') c = ' ';
  }
  return out;
}

const char* kDumpHeader = "# rpr lock-graph v1";

struct EnvInit {
  EnvInit() {
    const char* on = std::getenv("RPR_LOCK_GRAPH");
    if (on == nullptr || on[0] == '\0' || on[0] == '0') return;
    g_lock_graph_enabled.store(true, std::memory_order_release);
    if (std::getenv("RPR_LOCK_GRAPH_OUT") != nullptr) {
      std::atexit([] {
        const char* path = std::getenv("RPR_LOCK_GRAPH_OUT");
        if (path == nullptr) return;
        std::string p(path);
        if (!p.empty() && p.back() == '/') {
#if defined(__GLIBC__)
          p += "lock_graph." + std::to_string(getpid()) + ".txt";
#else
          p += "lock_graph.txt";
#endif
        }
        std::ofstream os(p);
        if (os) LockGraph::instance().dump(os);
      });
    }
  }
};
const EnvInit g_env_init;

}  // namespace

bool lock_graph_enabled() {
  return g_lock_graph_enabled.load(std::memory_order_acquire);
}

void lock_graph_set_enabled(bool on) {
  g_lock_graph_enabled.store(on, std::memory_order_release);
}

void lock_graph_note_acquire(const void* m, const char* cls) {
  LockGraph::instance().on_acquire(m, cls);
}

void lock_graph_note_release(const void* m) {
  LockGraph::instance().on_release(m);
}

LockGraph& LockGraph::instance() {
  static LockGraph* g = new LockGraph();  // leaked: outlives atexit dump
  return *g;
}

void LockGraph::on_acquire(const void* m, const char* cls) {
  std::vector<HeldLock>& h = held();
  const Stack stack = capture_stack();
  if (!h.empty()) {
    std::scoped_lock lock(mu_);
    for (const HeldLock& held_lock : h) {
      LockEdge& e = edges_[{held_lock.cls, cls}];
      if (e.count == 0) {
        e.from = held_lock.cls;
        e.to = cls;
        e.from_stack = symbolize(held_lock.stack);
        e.to_stack = symbolize(stack);
      }
      ++e.count;
    }
  }
  h.push_back(HeldLock{m, cls, stack});
}

void LockGraph::on_release(const void* m) {
  std::vector<HeldLock>& h = held();
  // Release order may differ from acquisition order; erase the newest
  // matching entry.
  for (std::size_t i = h.size(); i > 0; --i) {
    if (h[i - 1].mutex == m) {
      h.erase(h.begin() + static_cast<std::ptrdiff_t>(i - 1));
      return;
    }
  }
}

void LockGraph::clear() {
  std::scoped_lock lock(mu_);
  edges_.clear();
}

std::vector<LockEdge> LockGraph::edges() const {
  std::scoped_lock lock(mu_);
  std::vector<LockEdge> out;
  out.reserve(edges_.size());
  for (const auto& [key, e] : edges_) {
    (void)key;
    out.push_back(e);
  }
  return out;
}

std::vector<LockCycle> LockGraph::cycles() const {
  const std::vector<LockEdge> all = edges();
  // Tarjan SCC over the class graph.
  std::map<std::string, std::vector<const LockEdge*>> adj;
  std::set<std::string> nodes;
  for (const LockEdge& e : all) {
    adj[e.from].push_back(&e);
    nodes.insert(e.from);
    nodes.insert(e.to);
  }
  std::map<std::string, int> index;
  std::map<std::string, int> low;
  std::map<std::string, bool> on_stack;
  std::vector<std::string> stack;
  std::vector<std::vector<std::string>> sccs;
  int next = 0;

  struct Frame {
    std::string node;
    std::size_t edge = 0;
  };
  for (const std::string& root : nodes) {
    if (index.count(root) != 0) continue;
    std::vector<Frame> call;
    call.push_back({root, 0});
    index[root] = low[root] = next++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!call.empty()) {
      Frame& f = call.back();
      const auto& out_edges = adj[f.node];
      if (f.edge < out_edges.size()) {
        const std::string& to = out_edges[f.edge]->to;
        ++f.edge;
        if (index.count(to) == 0) {
          index[to] = low[to] = next++;
          stack.push_back(to);
          on_stack[to] = true;
          call.push_back({to, 0});
        } else if (on_stack[to]) {
          low[f.node] = std::min(low[f.node], index[to]);
        }
      } else {
        if (low[f.node] == index[f.node]) {
          std::vector<std::string> scc;
          while (true) {
            const std::string n = stack.back();
            stack.pop_back();
            on_stack[n] = false;
            scc.push_back(n);
            if (n == f.node) break;
          }
          sccs.push_back(std::move(scc));
        }
        const std::string done = f.node;
        call.pop_back();
        if (!call.empty()) {
          low[call.back().node] =
              std::min(low[call.back().node], low[done]);
        }
      }
    }
  }

  std::vector<LockCycle> out;
  for (auto& scc : sccs) {
    const std::set<std::string> members(scc.begin(), scc.end());
    LockCycle c;
    for (const LockEdge& e : all) {
      if (members.count(e.from) == 0 || members.count(e.to) == 0) continue;
      if (scc.size() > 1 || e.from == e.to) c.edges.push_back(e);
    }
    if (c.edges.empty()) continue;
    c.classes = std::move(scc);
    out.push_back(std::move(c));
  }
  return out;
}

std::string LockGraph::report() const {
  std::ostringstream os;
  const std::vector<LockEdge> all = edges();
  os << "lock-acquisition graph: " << all.size() << " edge(s)\n";
  for (const LockEdge& e : all) {
    os << "  " << e.from << " -> " << e.to << "  (x" << e.count << ")\n";
  }
  const std::vector<LockCycle> cyc = cycles();
  if (cyc.empty()) {
    os << "no cycles: acquisition order is a DAG\n";
    return os.str();
  }
  for (const LockCycle& c : cyc) {
    os << "CYCLE (potential deadlock) among:";
    for (const std::string& cls : c.classes) os << " " << cls;
    os << "\n";
    for (const LockEdge& e : c.edges) {
      os << "  " << e.from << " -> " << e.to << " witnessed by:\n";
      os << "    held " << e.from << " at: " << e.from_stack << "\n";
      os << "    took " << e.to << " at: " << e.to_stack << "\n";
    }
  }
  return os.str();
}

void LockGraph::dump(std::ostream& os) const {
  os << kDumpHeader << "\n";
  for (const LockEdge& e : edges()) {
    os << "edge\t" << sanitize(e.from) << "\t" << sanitize(e.to) << "\t"
       << e.count << "\t" << sanitize(e.from_stack) << "\t"
       << sanitize(e.to_stack) << "\n";
  }
}

void LockGraph::merge(std::istream& is) {
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::stringstream ss(line);
    std::string tag;
    std::string from;
    std::string to;
    std::string count;
    std::string fs;
    std::string ts;
    std::getline(ss, tag, '\t');
    if (tag != "edge") continue;
    std::getline(ss, from, '\t');
    std::getline(ss, to, '\t');
    std::getline(ss, count, '\t');
    std::getline(ss, fs, '\t');
    std::getline(ss, ts, '\t');
    std::scoped_lock lock(mu_);
    LockEdge& e = edges_[{from, to}];
    if (e.count == 0) {
      e.from = from;
      e.to = to;
      e.from_stack = fs;
      e.to_stack = ts;
    }
    e.count += std::strtoull(count.c_str(), nullptr, 10);
  }
}

std::string LockGraph::dot() const {
  std::set<std::pair<std::string, std::string>> hot;
  for (const LockCycle& c : cycles()) {
    for (const LockEdge& e : c.edges) hot.insert({e.from, e.to});
  }
  std::ostringstream os;
  os << "digraph locks {\n";
  for (const LockEdge& e : edges()) {
    os << "  \"" << e.from << "\" -> \"" << e.to << "\" [label=\""
       << e.count << "\"";
    if (hot.count({e.from, e.to}) != 0) os << ", color=red";
    os << "];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace rpr::check
