#include "check/scheduler.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace rpr::check {

namespace detail {
std::atomic<Scheduler*> g_scheduler{nullptr};
std::atomic<std::uint32_t> g_mutations{0};
std::atomic<std::uintptr_t> g_scope_gen{0};
thread_local bool t_checked = false;
}  // namespace detail

namespace {

std::mutex g_observer_mu;
EventObserver g_observer;
std::atomic<bool> g_has_observer{false};

}  // namespace

void install(Scheduler* s) {
  detail::g_scheduler.store(s, std::memory_order_release);
}

void observe(const Event& e) {
  if (Scheduler* s = installed()) s->observe(e);
  if (g_has_observer.load(std::memory_order_acquire)) {
    std::scoped_lock lock(g_observer_mu);
    if (g_observer) g_observer(e);
  }
}

void set_event_observer(EventObserver fn) {
  std::scoped_lock lock(g_observer_mu);
  g_observer = std::move(fn);
  g_has_observer.store(static_cast<bool>(g_observer),
                       std::memory_order_release);
}

void set_mutations(std::uint32_t mask) {
  detail::g_mutations.store(mask, std::memory_order_relaxed);
}

namespace detail {

void run_checked_impl(int ordinal, const char* name,
                      const std::function<void()>& fn) {
  Scheduler* s = installed();
  if (s == nullptr) {
    fn();
    return;
  }
  t_checked = true;
  try {
    s->register_thread(ordinal, name);
  } catch (const AbortRun&) {
    t_checked = false;
    return;
  }
  try {
    fn();
  } catch (const AbortRun&) {
    // Run aborted (violation / deadlock / replay end): unwind quietly.
  } catch (const std::exception& e) {
    s->fail_run(std::string("unexpected exception on checked thread ") +
                name + ": " + e.what());
  } catch (...) {
    s->fail_run(std::string("unexpected exception on checked thread ") +
                name);
  }
  try {
    s->deregister_thread();
  } catch (const AbortRun&) {
  }
  t_checked = false;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// CoopScheduler

struct CoopScheduler::Rec {
  int ordinal = -1;
  const char* name = "";
  bool exited = false;
  bool blocked = false;
  std::uintptr_t blocked_obj = 0;
  Point pending{PointKind::kStep, 0, 0, "start"};
  bool go = false;
  std::condition_variable cv;
};

thread_local CoopScheduler::Rec* CoopScheduler::t_rec = nullptr;

CoopScheduler::CoopScheduler(SchedOptions opts, std::vector<Choice> prefix)
    : opts_(std::move(opts)), prefix_(std::move(prefix)) {
  for (const std::uint32_t n : opts_.fault_candidates) {
    if (n >= 64) {
      throw std::invalid_argument(
          "CoopScheduler: fault candidate node ids must be < 64");
    }
  }
}

CoopScheduler::~CoopScheduler() = default;

void CoopScheduler::set_event_sink(std::function<void(const Event&)> sink) {
  std::scoped_lock lock(sink_mu_);
  sink_ = std::move(sink);
}

void CoopScheduler::fail_locked(const std::string& msg) {
  if (!has_violation_) {
    has_violation_ = true;
    violation_ = msg;
  }
  abort_ = true;
  current_ = -1;
  for (auto& [ord, r] : recs_) {
    (void)ord;
    r->cv.notify_all();
  }
}

void CoopScheduler::fail_run(const std::string& msg) {
  std::unique_lock lk(mu_);
  fail_locked(msg);
}

bool CoopScheduler::violated() const {
  std::unique_lock lk(mu_);
  return has_violation_;
}

std::string CoopScheduler::violation_message() const {
  std::unique_lock lk(mu_);
  return violation_;
}

bool CoopScheduler::diverged() const {
  std::unique_lock lk(mu_);
  return diverged_;
}

bool CoopScheduler::node_killed(std::uint32_t node) const {
  if (node >= 64) return false;
  return (killed_mask_.load(std::memory_order_acquire) &
          (std::uint64_t{1} << node)) != 0;
}

void CoopScheduler::observe(const Event& e) {
  std::scoped_lock lock(sink_mu_);
  if (sink_) sink_(e);
}

void CoopScheduler::expect_threads(std::size_t n) {
  std::unique_lock lk(mu_);
  if (abort_) return;
  for (auto it = recs_.begin(); it != recs_.end();) {
    if (it->second->exited) {
      it = recs_.erase(it);
    } else {
      fail_locked("expect_threads called while checked threads are live");
      return;
    }
  }
  expected_ = n;
  registered_ = 0;
  started_ = false;
  current_ = -1;
}

void CoopScheduler::register_thread(int ordinal, const char* name) {
  std::unique_lock lk(mu_);
  if (abort_) throw AbortRun{};
  if (expected_ == 0) {
    fail_locked("register_thread before expect_threads");
    throw AbortRun{};
  }
  if (recs_.count(ordinal) != 0) {
    fail_locked(std::string("duplicate checked-thread ordinal for ") + name);
    throw AbortRun{};
  }
  auto rec = std::make_unique<Rec>();
  Rec* r = rec.get();
  r->ordinal = ordinal;
  r->name = name;
  recs_[ordinal] = std::move(rec);
  t_rec = r;
  ++registered_;
  if (registered_ == expected_ && !started_) {
    started_ = true;
    decide(lk);  // initial decision among the full wave
  }
  park(lk, r);
}

void CoopScheduler::deregister_thread() {
  std::unique_lock lk(mu_);
  Rec* r = t_rec;
  t_rec = nullptr;
  if (r == nullptr) return;
  r->exited = true;
  if (abort_) return;
  bool any_live = false;
  for (auto& [ord, rec] : recs_) {
    (void)ord;
    if (!rec->exited) any_live = true;
  }
  if (!any_live) {
    current_ = -1;
    return;
  }
  decide(lk);
}

void CoopScheduler::yield(const Point& p) {
  if ((opts_.branch_mask & kind_bit(p.kind)) == 0) {
    // Non-branching kind: cheap abort check only (no decision, no trace).
    if (abort_) throw AbortRun{};
    return;
  }
  std::unique_lock lk(mu_);
  if (abort_) throw AbortRun{};
  Rec* r = t_rec;
  if (r == nullptr || !started_) return;
  r->pending = p;
  decide(lk);
  park(lk, r);
}

void CoopScheduler::block_on(const Point& p) {
  std::unique_lock lk(mu_);
  if (abort_) throw AbortRun{};
  Rec* r = t_rec;
  if (r == nullptr || !started_) {
    fail_locked("block_on from an unregistered thread");
    throw AbortRun{};
  }
  r->pending = p;
  r->blocked = true;
  r->blocked_obj = p.obj;
  decide(lk);
  park(lk, r);
}

void CoopScheduler::notify_obj(std::uintptr_t obj) {
  std::unique_lock lk(mu_);
  if (abort_) return;
  for (auto& [ord, r] : recs_) {
    (void)ord;
    if (!r->exited && r->blocked && r->blocked_obj == obj) {
      r->blocked = false;
      r->blocked_obj = 0;
    }
  }
}

void CoopScheduler::park(std::unique_lock<std::mutex>& lk, Rec* r) {
  r->cv.wait(lk, [&] { return r->go || abort_; });
  if (abort_) throw AbortRun{};
  r->go = false;
}

void CoopScheduler::decide(std::unique_lock<std::mutex>& lk) {
  (void)lk;
  std::vector<Rec*> enabled;
  for (auto& [ord, r] : recs_) {
    (void)ord;
    if (!r->exited && !r->blocked) enabled.push_back(r.get());
  }
  if (enabled.empty()) {
    std::string blocked;
    for (auto& [ord, r] : recs_) {
      (void)ord;
      if (r->exited || !r->blocked) continue;
      if (!blocked.empty()) blocked += ", ";
      blocked += "t" + std::to_string(r->ordinal) + " at " +
                 r->pending.label;
    }
    if (!blocked.empty()) {
      fail_locked("deadlock: all checked threads blocked (" + blocked + ")");
      throw AbortRun{};
    }
    current_ = -1;
    return;
  }

  Rec* cur = nullptr;
  if (current_ >= 0) {
    auto it = recs_.find(current_);
    if (it != recs_.end() && !it->second->exited && !it->second->blocked) {
      cur = it->second.get();
    }
  }

  DecisionRec d;
  d.current = current_;
  d.preemptive = cur != nullptr;
  for (Rec* r : enabled) {
    d.options.push_back(Choice{r->ordinal, -1});
    d.opt_obj.push_back(r->pending.obj);
    d.opt_scope.push_back(r->pending.scope);
    d.opt_label.push_back(r->pending.label);
  }
  if (faults_used_ < opts_.fault_budget) {
    const int cont = cur != nullptr ? cur->ordinal : enabled.front()->ordinal;
    for (const std::uint32_t node : opts_.fault_candidates) {
      if (node_killed(node)) continue;
      d.options.push_back(Choice{cont, static_cast<std::int32_t>(node)});
      // Fault injections are dependent with everything: never slept.
      d.opt_obj.push_back(~std::uintptr_t{0});
      d.opt_scope.push_back(~std::uintptr_t{0});
      d.opt_label.push_back("inject-kill");
    }
  }

  std::size_t take = 0;
  if (d.options.size() > 1) {
    const auto default_take = [&]() -> std::size_t {
      if (cur != nullptr) {
        for (std::size_t i = 0; i < d.options.size(); ++i) {
          if (d.options[i] == Choice{cur->ordinal, -1}) return i;
        }
      }
      return 0;
    };
    if (step_ < prefix_.size()) {
      const Choice want = prefix_[step_];
      const auto pos = std::find(d.options.begin(), d.options.end(), want);
      if (pos == d.options.end()) {
        diverged_ = true;
        if (opts_.strict_replay) {
          fail_locked("replay diverged at step " + std::to_string(step_));
          throw AbortRun{};
        }
        take = default_take();
      } else {
        take = static_cast<std::size_t>(pos - d.options.begin());
      }
    } else {
      take = default_take();
    }
    ++step_;
    d.taken = take;
    trace_.push_back(d);
  }

  const Choice chosen = d.options[take];
  if (chosen.kill >= 0) {
    killed_mask_.fetch_or(std::uint64_t{1}
                              << static_cast<std::uint32_t>(chosen.kill),
                          std::memory_order_acq_rel);
    ++faults_used_;
  }
  current_ = chosen.thread;
  Rec* next = recs_.at(chosen.thread).get();
  next->go = true;
  next->cv.notify_all();
}

// ---------------------------------------------------------------------------
// Schedule string

std::string format_schedule(const std::vector<DecisionRec>& trace) {
  std::string out;
  for (const DecisionRec& d : trace) {
    if (!out.empty()) out += ",";
    const Choice& c = d.options[d.taken];
    out += "t" + std::to_string(c.thread);
    if (c.kill >= 0) out += "k" + std::to_string(c.kill);
  }
  return out;
}

std::vector<Choice> parse_schedule(const std::string& s) {
  std::vector<Choice> out;
  std::stringstream ss(s);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (tok.empty()) continue;
    if (tok[0] != 't') {
      throw std::invalid_argument("bad schedule token: " + tok);
    }
    Choice c;
    const std::size_t kpos = tok.find('k', 1);
    c.thread = std::stoi(tok.substr(1, kpos == std::string::npos
                                           ? std::string::npos
                                           : kpos - 1));
    if (kpos != std::string::npos) {
      c.kill = std::stoi(tok.substr(kpos + 1));
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace rpr::check
