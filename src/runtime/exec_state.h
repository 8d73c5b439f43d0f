// Slice-aware shared execution state of runtime::Executor (the engine under
// runtime::Testbed and net::TcpRuntime).
//
// The executor runs one producer thread per op and many consumers waiting
// on op values. Slice pipelining (Li et al., "Repair Pipelining for
// Erasure-Coded Storage") cuts every value into fixed-size slices that
// become visible to consumers one by one, so a downstream combine/send can
// start the moment slice 0 lands instead of buffering the whole
// intermediate. Whole-block mode is the case slice_count == 1, with no code
// of its own.
//
// Values
//  * a consumer reads an op's value through its source (source()): a
//    pointer to value_size() bytes and a GF scale that the consumer applies
//    where it already touches the bytes;
//  * a view copies nothing and takes no buffer. Views are bound before any
//    thread starts (bind_view): a read is a view of its stripe block with
//    the op's coefficient; a local move, and a send on a transport that
//    moves no bytes (the testbed's paced channel), is a view of its input
//    and resolves to whatever that input resolves to — a stripe block and
//    its coefficient, or another op's own buffer at scale 1. A view's
//    producer only publishes; every other op owns its value, and its
//    source is its own buffer with scale 1;
//  * an owned value is one buffer of value_size() bytes, taken by its
//    producer on first use (storage()) and never reallocated afterwards —
//    consumers read published regions by reference (no per-message scratch
//    copies);
//  * overwrite-before-publish: a taken buffer holds stale bytes from an
//    earlier run, so every producer of an owned value overwrites a slice
//    before publishing it (fast combines write with a non-accumulating
//    kernel, the matrix-cost combine clears its slice first, TCP ingest
//    reads the wire into it), and nobody reads a slice before it is
//    published;
//  * recycling: values are rs::Blocks (rs/block.h) taken uninitialized
//    from the process-wide util::PagePool, which the data executor and the
//    storage layer share, and given back when the state dies. Steady-state
//    runs therefore fault in no value pages. The outputs are moved out once
//    every op thread has joined (take_all), never copied; a view is the one
//    value take() materializes, as a scale · bytes copy in a pooled buffer.
//    A view of an owned value copies from that buffer, so take_all takes a
//    run's values in descending op id order: a view's id is above its
//    input's.
//
// Publication
//  * slices complete strictly in order per op (each op has exactly one
//    producer), so per-op progress is a single counter;
//  * publication is mutex-protected: a consumer that observed
//    `slices_done[id] > s` under the lock reads slice s's bytes
//    happens-after the producer wrote them. Producers write slice bytes
//    *outside* the lock (disjoint from every published region);
//  * resolution is first-wins (a TCP send can be failed by its sender and
//    published by its acceptor in a race; whichever lands first sticks).
//
// Wakeups
//  * a consumer that has to wait registers one Waiter — its own condition
//    and the slice it needs — on every input that is not yet resolved;
//  * publish_slices wakes a waiter only when the new counter crosses the
//    slice that waiter needs; publish (commit) and fail wake every waiter
//    on the op. A 64 KiB slice therefore wakes its consumers, not every op
//    thread of the plan;
//  * a thread run under the model checker does not register: it blocks on
//    the state's condition object and every publish, commit and fail
//    notifies that object, so explored schedules see the same sync points.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/scheduler.h"
#include "gf/gf_region.h"
#include "obs/metrics.h"
#include "repair/plan.h"
#include "rs/rs_code.h"
#include "util/slice.h"

namespace rpr::runtime {

// The slice arithmetic lives in util/slice.h so the simulator's lowering
// cuts values identically; re-exported here for the engine params' defaults.
using util::default_slice_size;
using util::slice_count;

namespace detail {

/// Null-safe per-slice telemetry: latency histograms per phase, slice
/// counters, and a high-water gauge of payload bytes concurrently in
/// flight across transfers. All hooks are no-ops without a registry.
class SliceMetrics {
 public:
  SliceMetrics(obs::MetricsRegistry* reg, const char* prefix) {
    if (reg == nullptr) return;
    const std::string p(prefix);
    cross_ = &reg->histogram(p + ".slice.cross_latency_s");
    inner_ = &reg->histogram(p + ".slice.inner_latency_s");
    combine_ = &reg->histogram(p + ".slice.combine_latency_s");
    slices_ = &reg->counter(p + ".slice.count");
    bytes_ = &reg->counter(p + ".slice.bytes");
    peak_ = &reg->max_gauge(p + ".bytes_in_flight_peak");
  }

  void transfer_slice(bool cross_rack, double seconds, std::size_t len) {
    if (slices_ == nullptr) return;
    (cross_rack ? cross_ : inner_)->observe(seconds);
    slices_->increment();
    bytes_->add(len);
  }

  void combine_slice(double seconds, std::size_t len) {
    if (slices_ == nullptr) return;
    combine_->observe(seconds);
    slices_->increment();
    bytes_->add(len);
  }

  /// Call around a transfer's in-flight window; keeps the peak gauge.
  void begin_flight(std::size_t len) {
    if (peak_ == nullptr) return;
    const std::uint64_t now =
        in_flight_.fetch_add(len, std::memory_order_relaxed) + len;
    peak_->observe(static_cast<double>(now));
  }
  void end_flight(std::size_t len) {
    if (peak_ == nullptr) return;
    in_flight_.fetch_sub(len, std::memory_order_relaxed);
  }

 private:
  obs::Histogram* cross_ = nullptr;
  obs::Histogram* inner_ = nullptr;
  obs::Histogram* combine_ = nullptr;
  obs::Counter* slices_ = nullptr;
  obs::Counter* bytes_ = nullptr;
  obs::MaxGauge* peak_ = nullptr;
  std::atomic<std::uint64_t> in_flight_{0};
};

/// Where a consumer reads an op's value: `scale` · the value_size() bytes
/// at `bytes`.
struct Source {
  const std::uint8_t* bytes = nullptr;
  std::uint8_t scale = 1;
};

/// Shared per-run execution state (see file comment).
class ExecState {
 public:
  ExecState(std::size_t ops, std::size_t value_size, std::size_t slice_size)
      : value(ops),
        slices_done(ops, 0),
        done(ops, false),
        failed(ops, false),
        view_(ops),
        owner_(ops),
        waiters_(ops),
        value_size_(value_size),
        slice_size_(slice_size == 0 ? value_size : slice_size),
        slices_(slice_count(value_size, slice_size)) {
    for (repair::OpId id = 0; id < ops; ++id) owner_[id] = id;
  }
  ExecState(const ExecState&) = delete;
  ExecState& operator=(const ExecState&) = delete;

  /// Slices every value is cut into (1 = whole-block mode).
  [[nodiscard]] std::size_t slices() const noexcept { return slices_; }
  [[nodiscard]] std::size_t value_size() const noexcept { return value_size_; }

  /// Byte offset of slice s.
  [[nodiscard]] std::size_t slice_offset(std::size_t s) const noexcept {
    return s * slice_size_;
  }
  /// Byte length of slice s (the last slice absorbs the tail).
  [[nodiscard]] std::size_t slice_len(std::size_t s) const noexcept {
    const std::size_t off = slice_offset(s);
    return off >= value_size_
               ? 0
               : (s + 1 == slices_ ? value_size_ - off : slice_size_);
  }
  /// Byte length of slices [first, upto).
  [[nodiscard]] std::size_t range_len(std::size_t first,
                                      std::size_t upto) const noexcept {
    return std::min(slice_offset(upto), value_size_) - slice_offset(first);
  }

  /// Makes op `id` a view of `scale` · the value_size() bytes at `bytes`
  /// (a read: its stripe block and coefficient). Call before any thread
  /// uses the state — consumers read a source's scale before they wait for
  /// its bytes. The op then takes no buffer; its producer only publishes.
  void bind_view(repair::OpId id, const std::uint8_t* bytes,
                 std::uint8_t scale) {
    view_[id] = Source{bytes, scale};
  }

  /// Makes op `id` a view of op `input`'s value (a local move, or a send
  /// that moves no bytes): it resolves to what `input` resolves to, so bind
  /// in op order — an input before its users — and before any thread uses
  /// the state. The op takes no buffer; its producer only publishes, once
  /// `input` has published the same slices.
  void bind_view(repair::OpId id, repair::OpId input) {
    view_[id] = view_[input];
    owner_[id] = owner_[input];
  }

  /// The scale consumers apply to op `id`'s bytes: the coefficient of the
  /// read a view resolves to, 1 for an owned value or a view of one. Fixed
  /// for the run, so it may be read before the op publishes anything.
  [[nodiscard]] std::uint8_t scale(repair::OpId id) const {
    return view_[id].scale;
  }

  /// Where consumers read op `id`'s value. Call only once the op published
  /// a slice: an owned buffer is taken by its producer on first use, so
  /// its address is not stable before then (a view publishes only after
  /// the value it resolves to did).
  [[nodiscard]] Source source(repair::OpId id) const {
    return view_[id].bytes != nullptr ? view_[id]
                                      : Source{value[owner_[id]].data(), 1};
  }

  /// The op's value buffer, taken from the pool on first call. Its
  /// bytes are stale until the producer overwrites them: write every slice
  /// before publishing it. Only the op's producer may call this before
  /// publication; the returned reference (and the buffer's data pointer)
  /// is stable for the run. The buffer is taken outside the lock: a fresh
  /// whole-block value is large, and every other op's publish and wait
  /// takes the same lock.
  rs::Block& storage(repair::OpId id) {
    {
      std::unique_lock lock(mu);
      if (value[id].size() == value_size_) return value[id];
    }
    rs::Block taken = rs::Block::uninitialized(value_size_);
    std::unique_lock lock(mu);
    if (value[id].size() != value_size_) value[id] = std::move(taken);
    return value[id];
  }

  /// Blocks until every input has published slice s (true) or any input
  /// failed (false).
  bool wait_inputs_slice(const std::vector<repair::OpId>& ids,
                         std::size_t s) {
    return wait_inputs_slices_batch(ids, s, s + 1) != 0;
  }

  /// Batch form of wait_inputs_slice: blocks until every input has
  /// published slice `s`, then returns the count of contiguous slices
  /// published by ALL inputs, capped at `max_upto` (> s, <= slices()).
  /// Returns 0 when any input failed. A consumer keeping pace with its
  /// producers sees exactly s + 1 (no behavior change); a consumer that
  /// fell behind (or one fed by an instantly-published read) drains the
  /// backlog in one call instead of one lock round-trip per slice.
  std::size_t wait_inputs_slices_batch(const std::vector<repair::OpId>& ids,
                                       std::size_t s, std::size_t max_upto) {
    std::unique_lock lock(mu);
    wait_on(lock, ids, s, [&] {
      for (repair::OpId id : ids) {
        if (failed[id]) return true;
      }
      for (repair::OpId id : ids) {
        if (slices_done[id] <= s) return false;
      }
      return true;
    });
    for (repair::OpId id : ids) {
      if (failed[id]) return 0;
    }
    std::size_t upto = max_upto > slices_ ? slices_ : max_upto;
    for (repair::OpId id : ids) {
      if (slices_done[id] < upto) upto = slices_done[id];
    }
    return upto;
  }

  /// Marks slices [0, upto) of `id` published (producer wrote their bytes
  /// before calling). Monotonic; no-op on a resolved op (first-wins).
  /// Wakes the waiters whose awaited slice the new counter crosses.
  /// The kNonMonotonicPublish mutation bypasses the monotonic guard so the
  /// model checker's detection of a backwards counter can itself be tested.
  void publish_slices(repair::OpId id, std::size_t upto) {
    check::point(check::PointKind::kPublish, id, scope(), "exec.publish");
    check::Event counter_ev{check::EventKind::kSliceCounter, scope(), id,
                            0, 0, false};
    bool changed = false;
    bool committed = false;
    {
      std::unique_lock lock(mu);
      const std::size_t before = slices_done[id];
      counter_ev.a = before;
      if (failed[id]) return;
      if (before >= upto &&
          !check::mutated(check::Mutation::kNonMonotonicPublish)) {
        return;
      }
      slices_done[id] = upto;
      counter_ev.b = upto;
      changed = true;
      if (upto >= slices_ && !done[id]) {
        done[id] = true;
        committed = true;
      }
      for (Waiter* w : waiters_[id]) {
        if (w->slice >= before && w->slice < upto) wake(*w);
      }
    }
    if (changed) check::observe(counter_ev);
    if (committed) {
      check::observe(check::Event{check::EventKind::kCommit, scope(), id, 0,
                                  0, false});
    }
    check::notify_object(cond_obj());
  }

  /// Publishes a complete value in one step (callers holding a fully
  /// materialized value, e.g. benchmarks seeding inputs).
  /// When the value buffer was taken by storage(), the bytes are copied
  /// into it rather than move-replacing the vector: a concurrent slice
  /// consumer may hold the buffer's data() pointer across this call (the
  /// class contract says it is stable for the run), so the buffer must
  /// never reallocate once sized. Found by the schedule explorer; the
  /// exposing schedule is pinned in check_test.cpp
  /// (ExplorerFindings.PublishKeepsStorageStable).
  void publish(repair::OpId id, rs::Block b) {
    check::point(check::PointKind::kResolve, id, scope(), "exec.commit");
    bool resolved_already = false;
    {
      std::unique_lock lock(mu);
      resolved_already = done[id] || failed[id];
      const bool proceed =
          !resolved_already || check::mutated(check::Mutation::kDoubleCommit);
      if (!proceed) return;
      if (value[id].size() == b.size() && !value[id].empty()) {
        std::memcpy(value[id].data(), b.data(), b.size());
      } else {
        value[id] = std::move(b);
      }
      slices_done[id] = slices_;
      done[id] = true;
      for (Waiter* w : waiters_[id]) wake(*w);
    }
    check::observe(check::Event{check::EventKind::kCommit, scope(), id, 0, 0,
                                resolved_already});
    check::notify_object(cond_obj());
  }

  /// Marks a fully-published op done without replacing its buffer (the
  /// producer streamed slices directly into storage()).
  void publish_all(repair::OpId id) { publish_slices(id, slices_); }

  void fail(repair::OpId id) {
    check::point(check::PointKind::kResolve, id, scope(), "exec.fail");
    {
      std::unique_lock lock(mu);
      if (done[id] || failed[id]) return;
      failed[id] = true;
      for (Waiter* w : waiters_[id]) wake(*w);
    }
    check::observe(
        check::Event{check::EventKind::kFail, scope(), id, 0, 0, false});
    check::notify_object(cond_obj());
  }

  [[nodiscard]] bool resolved(repair::OpId id) {
    std::unique_lock lock(mu);
    return done[id] || failed[id];
  }

  /// Published-slice progress (for resuming an interrupted ingest).
  [[nodiscard]] std::size_t progress(repair::OpId id) {
    std::unique_lock lock(mu);
    return slices_done[id];
  }

  /// Moves the values of `ids` out (take), returned parallel to `ids`:
  /// only once nothing reads them any more (every op thread has joined).
  /// Takes in descending op id order, so a view is copied before the value
  /// it aliases moves out; a repeated id is copied from its first take.
  std::vector<rs::Block> take_all(std::span<const repair::OpId> ids) {
    std::vector<std::size_t> order(ids.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return ids[a] > ids[b];
                     });
    std::vector<rs::Block> out(ids.size());
    for (std::size_t k = 0; k < order.size(); ++k) {
      const std::size_t i = order[k];
      out[i] = k > 0 && ids[order[k - 1]] == ids[i]
                   ? rs::Block(out[order[k - 1]])
                   : take(ids[i]);
    }
    return out;
  }

  /// Moves the op's value out, leaving it empty: only once nothing reads
  /// it any more (every op thread has joined). A view is returned as an
  /// owned scale · bytes copy in a pooled buffer and leaves what it
  /// resolves to untouched — take it before the value it aliases
  /// (take_all does).
  rs::Block take(repair::OpId id) {
    if (view_[id].bytes == nullptr && owner_[id] == id) {
      std::unique_lock lock(mu);
      return std::move(value[id]);
    }
    const Source v = source(id);
    if (v.bytes == nullptr) {
      throw std::logic_error("ExecState::take: op " + std::to_string(id) +
                             " is a view of op " +
                             std::to_string(owner_[id]) +
                             ", whose value was already taken");
    }
    rs::Block out = rs::Block::uninitialized(value_size_);
    gf::mul_region(v.scale, out, {v.bytes, value_size_});
    return out;
  }

  /// Test accessors: waiters notified so far, and waiters registered on
  /// `id` right now.
  [[nodiscard]] std::size_t wakes() {
    std::unique_lock lock(mu);
    return wakes_;
  }
  [[nodiscard]] std::size_t waiting_on(repair::OpId id) {
    std::unique_lock lock(mu);
    return waiters_[id].size();
  }

  check::Mutex mu{"exec.state"};
  std::vector<rs::Block> value;
  std::vector<std::size_t> slices_done;
  std::vector<bool> done;
  std::vector<bool> failed;

  /// Event/scope identity of this state instance (a re-planning driver
  /// builds a fresh ExecState per attempt; oracles key on it). A per-run
  /// generation id, NOT the heap address: the allocator can reuse one
  /// attempt's address for the next attempt's state, which aliased two
  /// attempts in the first-wins oracle. Found by the schedule explorer on
  /// the resilient re-plan scenario.
  [[nodiscard]] std::uintptr_t scope() const noexcept { return scope_id_; }

 private:
  /// One blocked consumer: woken when an input it waits on publishes past
  /// `slice`, commits or fails.
  struct Waiter {
    std::condition_variable_any cv;
    std::size_t slice = 0;
  };

  /// Called under `mu`; the waiter deregisters under `mu` before it
  /// returns, so it is alive here.
  void wake(Waiter& w) {
    ++wakes_;
    w.cv.notify_one();
  }

  /// Identity of the condition that checked threads block on.
  [[nodiscard]] std::uintptr_t cond_obj() const {
    return reinterpret_cast<std::uintptr_t>(&waiters_);
  }

  /// Waits under `lock` until `pred` holds. Production threads register a
  /// Waiter for slice `s` on every unresolved input of `ids`; a checked
  /// thread runs a cooperative block/notify loop instead (the scheduler
  /// serializes checked threads, so the unlock -> block_on window admits no
  /// lost wakeup).
  template <typename Pred>
  void wait_on(std::unique_lock<check::Mutex>& lock,
               const std::vector<repair::OpId>& ids, std::size_t s,
               Pred pred) {
    if (check::Scheduler* sched = check::scheduled()) {
      while (!pred()) {
        lock.unlock();
        sched->block_on(check::Point{check::PointKind::kCondWait, cond_obj(),
                                     scope(), "exec.wait"});
        lock.lock();
      }
      return;
    }
    if (pred()) return;
    Waiter w;
    w.slice = s;
    for (repair::OpId id : ids) {
      if (!done[id] && !failed[id]) waiters_[id].push_back(&w);
    }
    do {
      w.cv.wait(lock);
    } while (!pred());
    for (repair::OpId id : ids) std::erase(waiters_[id], &w);
  }

  /// Per op: the bound stripe view a value resolves to, or a null source;
  /// and the op whose own buffer holds its bytes when the source is null
  /// (the op itself unless it is a view of an owned value). Written only
  /// before the op threads start.
  std::vector<Source> view_;
  std::vector<repair::OpId> owner_;
  std::vector<std::vector<Waiter*>> waiters_;
  std::size_t wakes_ = 0;
  std::size_t value_size_;
  std::size_t slice_size_;
  std::size_t slices_;
  std::uintptr_t scope_id_ = check::next_scope_id();
};

}  // namespace detail
}  // namespace rpr::runtime
