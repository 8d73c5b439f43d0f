// Deterministic concurrency checking: instrumentation hooks + cooperative
// scheduler for the slice-streaming repair runtime.
//
// The runtime's synchronization points (slice publish, first-wins resolve,
// port acquire/release, retry decision, bank/re-plan trigger) call the
// inline hooks below. With no scheduler installed (production) every hook
// is one relaxed atomic load and a branch — no locks, no allocation. A
// test installs a `Scheduler` (normally `CoopScheduler` driven by
// `check::explore`) and the instrumented threads become *cooperative*:
// exactly one checked thread runs at a time, and every context switch is a
// recorded decision the explorer can enumerate, bound, and replay.
//
// Ground rules for instrumented code:
//  * `point()` must be called with no `check::Mutex` held (it may throw
//    `AbortRun` to unwind the run once a violation is recorded).
//  * A `check::Mutex` contended between a *checked* and an *unchecked*
//    thread can stall a scheduled run, because only checked threads
//    participate in the wake protocol. Instrumented code must keep all
//    contenders on checked threads while a scheduler is installed — this
//    is why `util::ThreadPool::parallel_for` runs inline under checking.
//  * Checked thread ordinals must be deterministic across runs (use the
//    plan op id / worker node id, never a spawn-order counter).
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace rpr::check {

// ---------------------------------------------------------------------------
// Instrumentation points

/// Kind of an instrumented synchronization point. Values are bit positions
/// so explore options can mask which kinds branch.
enum class PointKind : std::uint8_t {
  kLockAcquire = 0,  ///< about to acquire a check::Mutex
  kCondWait = 1,     ///< blocked until an object is notified
  kPublish = 2,      ///< about to publish slice progress
  kResolve = 3,      ///< about to resolve an op (first-wins commit/fail)
  kRetry = 4,        ///< top of a retry attempt
  kBank = 5,         ///< banking decision in the resilient driver
  kReplan = 6,       ///< re-plan trigger in the resilient driver
  kStep = 7,         ///< generic instrumented step / fault boundary
};

constexpr unsigned kind_bit(PointKind k) {
  return 1u << static_cast<unsigned>(k);
}

/// Default set of branch-eligible kinds: protocol-level boundaries. Lock
/// acquisitions still serialize and block under the scheduler but do not
/// branch by default (the state space stays protocol-sized; forced
/// switches at blocking points cover lock-order interleavings).
constexpr unsigned kDefaultBranchMask =
    kind_bit(PointKind::kPublish) | kind_bit(PointKind::kResolve) |
    kind_bit(PointKind::kRetry) | kind_bit(PointKind::kBank) |
    kind_bit(PointKind::kReplan) | kind_bit(PointKind::kStep);

/// One instrumented point. `obj` identifies the synchronized object (mutex
/// address, condition address, op id...); `scope` optionally groups
/// related objects (e.g. all ops of one ExecState) so sleep-set pruning
/// never treats same-scope accesses as independent. `label` is a static
/// string naming the site.
struct Point {
  PointKind kind = PointKind::kStep;
  std::uintptr_t obj = 0;
  std::uintptr_t scope = 0;
  const char* label = "";
};

// ---------------------------------------------------------------------------
// Oracle-visible protocol events

enum class EventKind : std::uint8_t {
  kSliceCounter,  ///< slices_done transition a -> b on (src, op)
  kCommit,        ///< op resolved done (first-wins winner)
  kFail,          ///< op resolved failed
  kBankFold,      ///< re-plan banking: a = usable values, b = folded
};

struct Event {
  EventKind kind = EventKind::kSliceCounter;
  std::uint64_t src = 0;  ///< emitting state instance (disambiguates re-plans)
  std::uint64_t op = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  bool duplicate = false;  ///< a resolution landed on an already-resolved op
};

// ---------------------------------------------------------------------------
// Mutations (self-test hooks: deliberately break an invariant so the
// checker's detection of it can itself be tested)

enum class Mutation : std::uint32_t {
  kDropBank = 1u << 0,            ///< resilient: discard reusable partials
  kNonMonotonicPublish = 1u << 1, ///< exec_state: bypass the monotonic guard
  kDoubleCommit = 1u << 2,        ///< exec_state: bypass first-wins resolve
};

// ---------------------------------------------------------------------------
// Scheduler interface

/// Thrown through checked threads to end a run early (violation recorded
/// or deadlock detected). `run_checked` absorbs it.
struct AbortRun {};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Declares that `n` checked threads will register before scheduling
  /// starts (a registration barrier: nobody runs until everyone parked).
  /// May be called again after all previous threads deregistered (waves).
  virtual void expect_threads(std::size_t n) = 0;
  virtual void register_thread(int ordinal, const char* name) = 0;
  virtual void deregister_thread() = 0;

  /// Called by a checked thread at an instrumented point, before acting.
  /// May deschedule the caller; returns when rescheduled.
  virtual void yield(const Point& p) = 0;
  /// Called when the caller cannot proceed until `p.obj` is notified
  /// (mutex unlock / condition publish). Blocks until then.
  virtual void block_on(const Point& p) = 0;
  /// Re-enables threads blocked on `obj` (they run when next chosen).
  virtual void notify_obj(std::uintptr_t obj) = 0;

  /// Protocol event sink (thread-safe; may be called from unchecked
  /// threads, e.g. the resilient driver folding banked values).
  virtual void observe(const Event& e) = 0;

  /// True once the explorer injected a kill of `node` this run.
  virtual bool node_killed(std::uint32_t node) const = 0;

  /// Records a violation and aborts the run (idempotent; first wins).
  virtual void fail_run(const std::string& msg) = 0;
};

namespace detail {
extern std::atomic<Scheduler*> g_scheduler;
extern std::atomic<std::uint32_t> g_mutations;
extern std::atomic<std::uintptr_t> g_scope_gen;
extern thread_local bool t_checked;
}  // namespace detail

/// Fresh identity for an event/scope source (e.g. one ExecState instance).
/// Heap addresses are NOT usable as identity across a run: a re-planning
/// driver frees one attempt's state and allocates the next, and the
/// allocator may hand back the same address — aliasing two attempts in the
/// oracles (observed as a bogus "two first-wins winners" on re-plan
/// scenarios). The explorer resets the counter at every run boundary so
/// ids are deterministic per schedule.
inline std::uintptr_t next_scope_id() {
  return detail::g_scope_gen.fetch_add(1, std::memory_order_relaxed) + 1;
}
inline void reset_scope_ids() {
  detail::g_scope_gen.store(0, std::memory_order_relaxed);
}

/// Installs (or clears, with nullptr) the process-wide scheduler. Only one
/// exploration may run at a time in a process.
void install(Scheduler* s);

/// The installed scheduler, if any (null in production).
inline Scheduler* installed() {
  return detail::g_scheduler.load(std::memory_order_acquire);
}

/// The installed scheduler, but only for threads that registered with it.
/// Unchecked threads (main, TCP acceptors, pool workers) see null and take
/// the plain uninstrumented path.
inline Scheduler* scheduled() {
  return detail::t_checked
             ? detail::g_scheduler.load(std::memory_order_relaxed)
             : nullptr;
}

/// True on a thread currently registered with the installed scheduler.
inline bool this_thread_checked() { return scheduled() != nullptr; }

/// Instrumented-point hook: no-op unless the calling thread is checked.
inline void point(PointKind k, std::uintptr_t obj, std::uintptr_t scope,
                  const char* label) {
  if (Scheduler* s = scheduled()) s->yield(Point{k, obj, scope, label});
}

/// Notifies scheduler-blocked waiters of `obj` (call after cv.notify_all).
inline void notify_object(std::uintptr_t obj) {
  if (Scheduler* s = scheduled()) s->notify_obj(obj);
}

/// Protocol-event hook. Uses installed() (not scheduled()) so events from
/// unchecked threads — the resilient driver runs on the scenario thread —
/// still reach the oracles; Scheduler::observe must be thread-safe.
void observe(const Event& e);

/// Test-only global event observer, independent of any scheduler (used by
/// the sim-engine fault sweep and plain unit tests).
using EventObserver = std::function<void(const Event&)>;
void set_event_observer(EventObserver fn);

/// True once the explorer injected a kill of `node`. Callable from any
/// thread (engines poll it inside is_dead).
inline bool node_killed(std::uint32_t node) {
  Scheduler* s = installed();
  return s != nullptr && s->node_killed(node);
}

/// Declares the next wave of checked threads (no-op without a scheduler).
inline void expect_threads(std::size_t n) {
  if (Scheduler* s = installed()) s->expect_threads(n);
}

// ---------------------------------------------------------------------------
// Mutation hooks

inline bool mutated(Mutation m) {
  return (detail::g_mutations.load(std::memory_order_relaxed) &
          static_cast<std::uint32_t>(m)) != 0u;
}

void set_mutations(std::uint32_t mask);

/// RAII scope enabling one mutation (tests only).
class MutationGuard {
 public:
  explicit MutationGuard(Mutation m) {
    set_mutations(static_cast<std::uint32_t>(m));
  }
  ~MutationGuard() { set_mutations(0); }
  MutationGuard(const MutationGuard&) = delete;
  MutationGuard& operator=(const MutationGuard&) = delete;
};

// ---------------------------------------------------------------------------
// Checked thread entry

namespace detail {
void run_checked_impl(int ordinal, const char* name,
                      const std::function<void()>& fn);
}  // namespace detail

/// Runs `fn` as a checked thread of the installed scheduler (plain call
/// when none is installed). Registers under `ordinal`, absorbs AbortRun,
/// and converts any other exception into a recorded violation.
template <typename Fn>
void run_checked(int ordinal, const char* name, Fn&& fn) {
  if (installed() == nullptr) {
    fn();
    return;
  }
  detail::run_checked_impl(ordinal, name, std::function<void()>(fn));
}

// ---------------------------------------------------------------------------
// Instrumented mutex

void lock_graph_note_acquire(const void* m, const char* cls);
void lock_graph_note_release(const void* m);
bool lock_graph_enabled();

/// Drop-in std::mutex replacement: participates in cooperative scheduling
/// when the owning thread is checked, and records acquisition-order edges
/// into the global lock graph when that is enabled. Satisfies Lockable, so
/// std::unique_lock / std::scoped_lock / condition_variable_any work. The
/// class label names the *site family* (all port RX mutexes share one
/// class) — lock-order analysis is per class, not per instance.
class Mutex {
 public:
  Mutex() = default;
  explicit Mutex(const char* cls) : cls_(cls) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void set_class(const char* cls) { cls_ = cls; }
  [[nodiscard]] const char* lock_class() const { return cls_; }

  void lock() {
    if (Scheduler* s = scheduled()) {
      s->yield(Point{PointKind::kLockAcquire, id(), 0, cls_});
      while (!m_.try_lock()) {
        s->block_on(Point{PointKind::kLockAcquire, id(), 0, cls_});
      }
    } else {
      m_.lock();
    }
    if (lock_graph_enabled()) lock_graph_note_acquire(this, cls_);
  }

  bool try_lock() {
    if (!m_.try_lock()) return false;
    if (lock_graph_enabled()) lock_graph_note_acquire(this, cls_);
    return true;
  }

  void unlock() {
    if (lock_graph_enabled()) lock_graph_note_release(this);
    m_.unlock();
    if (Scheduler* s = scheduled()) s->notify_obj(id());
  }

 private:
  [[nodiscard]] std::uintptr_t id() const {
    return reinterpret_cast<std::uintptr_t>(this);
  }
  std::mutex m_;
  const char* cls_ = "mutex";
};

/// Multi-mutex RAII lock acquiring in *declaration order* (and releasing
/// in reverse). Replaces multi-argument std::scoped_lock on instrumented
/// paths: std::lock's deadlock-avoidance acquires in an unspecified order,
/// which both defeats lock-order analysis and hides the documented global
/// order the code relies on. Deadlock freedom must come from that global
/// order (the lock-graph analyzer checks it stays acyclic).
class OrderedLock {
 public:
  template <typename... M>
  explicit OrderedLock(M&... ms) : n_(sizeof...(M)) {
    static_assert(sizeof...(M) <= kMax, "OrderedLock: too many mutexes");
    std::size_t i = 0;
    ((locks_[i++] = &ms), ...);
    for (std::size_t j = 0; j < n_; ++j) locks_[j]->lock();
  }
  ~OrderedLock() {
    for (std::size_t j = n_; j > 0; --j) locks_[j - 1]->unlock();
  }
  OrderedLock(const OrderedLock&) = delete;
  OrderedLock& operator=(const OrderedLock&) = delete;

 private:
  static constexpr std::size_t kMax = 4;
  std::array<Mutex*, kMax> locks_{};
  std::size_t n_;
};

// ---------------------------------------------------------------------------
// Cooperative scheduler (the concrete Scheduler the explorer drives)

/// One alternative at a decision point: run `thread`, optionally first
/// injecting a kill of node `kill` (-1 = no fault).
struct Choice {
  int thread = -1;
  std::int32_t kill = -1;
  friend bool operator==(const Choice&, const Choice&) = default;
};

/// A recorded multi-option decision (single-option steps are not recorded
/// and do not consume replay-prefix entries).
struct DecisionRec {
  std::vector<Choice> options;          ///< deterministic order
  std::vector<std::uintptr_t> opt_obj;  ///< pending-point obj per option
  std::vector<std::uintptr_t> opt_scope;
  std::vector<const char*> opt_label;
  std::size_t taken = 0;
  bool preemptive = false;  ///< switching away from `current` costs 1
  int current = -1;         ///< thread running before this decision
};

struct SchedOptions {
  unsigned branch_mask = kDefaultBranchMask;
  int fault_budget = 0;
  std::vector<std::uint32_t> fault_candidates;
  bool strict_replay = false;  ///< prefix divergence = violation
};

class CoopScheduler final : public Scheduler {
 public:
  CoopScheduler(SchedOptions opts, std::vector<Choice> prefix);
  ~CoopScheduler() override;

  void set_event_sink(std::function<void(const Event&)> sink);

  void expect_threads(std::size_t n) override;
  void register_thread(int ordinal, const char* name) override;
  void deregister_thread() override;
  void yield(const Point& p) override;
  void block_on(const Point& p) override;
  void notify_obj(std::uintptr_t obj) override;
  void observe(const Event& e) override;
  [[nodiscard]] bool node_killed(std::uint32_t node) const override;
  void fail_run(const std::string& msg) override;

  [[nodiscard]] const std::vector<DecisionRec>& trace() const {
    return trace_;
  }
  [[nodiscard]] bool violated() const;
  [[nodiscard]] std::string violation_message() const;
  [[nodiscard]] bool diverged() const;

 private:
  struct Rec;
  static thread_local Rec* t_rec;
  void decide(std::unique_lock<std::mutex>& lk);
  void park(std::unique_lock<std::mutex>& lk, Rec* r);
  void fail_locked(const std::string& msg);

  SchedOptions opts_;
  std::vector<Choice> prefix_;
  mutable std::mutex mu_;
  std::map<int, std::unique_ptr<Rec>> recs_;
  std::size_t expected_ = 0;
  std::size_t registered_ = 0;
  bool started_ = false;
  int current_ = -1;
  std::size_t step_ = 0;  ///< consumed prefix entries
  std::vector<DecisionRec> trace_;
  std::atomic<bool> abort_{false};
  bool diverged_ = false;
  bool has_violation_ = false;
  std::string violation_;
  int faults_used_ = 0;
  std::atomic<std::uint64_t> killed_mask_{0};
  std::mutex sink_mu_;
  std::function<void(const Event&)> sink_;
};

/// "t<ordinal>" or "t<ordinal>k<node>" per recorded decision, comma-joined
/// — the replayable schedule string printed with violations
/// (RPR_CHECK_REPLAY=...).
std::string format_schedule(const std::vector<DecisionRec>& trace);
std::vector<Choice> parse_schedule(const std::string& s);

}  // namespace rpr::check
