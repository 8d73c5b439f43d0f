// Slice-aware shared execution state of runtime::Executor (the engine
// under runtime::Testbed and net::TcpRuntime).
//
// The executor runs one producer thread per op and many consumers waiting
// on op values. Slice pipelining (Li et al., "Repair Pipelining for
// Erasure-Coded Storage") cuts every value into fixed-size slices that
// become visible to consumers one by one, so a downstream combine/send can
// start the moment slice 0 lands instead of buffering the whole
// intermediate:
//
//  * every op value is one pre-sized accumulator buffer, allocated lazily
//    by its producer and never reallocated afterwards — consumers read
//    published regions by reference (no per-message scratch copies);
//  * slices complete strictly in order per op (each op has exactly one
//    producer), so per-op progress is a single counter;
//  * publication is mutex-protected: a consumer that observed
//    `slices_done[id] > s` under the lock reads slice s's bytes
//    happens-after the producer wrote them. Producers write slice bytes
//    *outside* the lock (disjoint from every published region);
//  * resolution is first-wins (a TCP send can be failed by its sender and
//    published by its acceptor in a race; whichever lands first sticks).
//
// Whole-block mode is the case slice_count == 1, with no code of its own.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <vector>

#include "check/scheduler.h"
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

/// Shared per-run execution state (see file comment).
class ExecState {
 public:
  ExecState(std::size_t ops, std::size_t value_size, std::size_t slice_size)
      : value(ops),
        slices_done(ops, 0),
        done(ops, false),
        failed(ops, false),
        value_size_(value_size),
        slice_size_(slice_size == 0 ? value_size : slice_size),
        slices_(slice_count(value_size, slice_size)) {}

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

  /// The op's accumulator buffer, sized on first call. Only the op's
  /// producer may call this before publication; the returned reference
  /// (and the buffer's data pointer) is stable for the run. The zeroed
  /// buffer is allocated outside the lock: whole-block values are large,
  /// and every other op's publish and wait takes the same lock.
  rs::Block& storage(repair::OpId id) {
    {
      std::unique_lock lock(mu);
      if (value[id].size() == value_size_) return value[id];
    }
    rs::Block fresh(value_size_, 0);
    std::unique_lock lock(mu);
    if (value[id].size() != value_size_) value[id] = std::move(fresh);
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
    wait_on(lock, [&] {
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
      counter_ev.a = slices_done[id];
      if (failed[id]) return;
      if (slices_done[id] >= upto &&
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
    }
    if (changed) check::observe(counter_ev);
    if (committed) {
      check::observe(check::Event{check::EventKind::kCommit, scope(), id, 0,
                                  0, false});
    }
    cv.notify_all();
    check::notify_object(cond_obj());
  }

  /// Publishes a complete value in one step (callers holding a fully
  /// materialized value, e.g. benchmarks seeding inputs).
  /// When the accumulator was pre-sized by storage(), the bytes are copied
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
    }
    check::observe(check::Event{check::EventKind::kCommit, scope(), id, 0, 0,
                                resolved_already});
    cv.notify_all();
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
    }
    check::observe(
        check::Event{check::EventKind::kFail, scope(), id, 0, 0, false});
    cv.notify_all();
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

  rs::Block take_copy(repair::OpId id) {
    std::unique_lock lock(mu);
    return value[id];
  }

  check::Mutex mu{"exec.state"};
  std::condition_variable_any cv;
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
  [[nodiscard]] std::uintptr_t cond_obj() const {
    return reinterpret_cast<std::uintptr_t>(&cv);
  }

  /// Condition wait: the plain cv under production, a cooperative
  /// block/notify loop when the calling thread is checked (the scheduler
  /// serializes checked threads, so the unlock -> block_on window admits
  /// no lost wakeup).
  template <typename Pred>
  void wait_on(std::unique_lock<check::Mutex>& lock, Pred pred) {
    if (check::Scheduler* s = check::scheduled()) {
      while (!pred()) {
        lock.unlock();
        s->block_on(check::Point{check::PointKind::kCondWait, cond_obj(),
                                 scope(), "exec.wait"});
        lock.lock();
      }
    } else {
      cv.wait(lock, std::move(pred));
    }
  }

  std::size_t value_size_;
  std::size_t slice_size_;
  std::size_t slices_;
  std::uintptr_t scope_id_ = check::next_scope_id();
};

}  // namespace detail
}  // namespace rpr::runtime
