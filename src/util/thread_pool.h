// Small reusable thread pool for sharding block-sized coding work.
//
// The coding kernels (gf_region.h) are memory-bandwidth bound on one core
// once SIMD-dispatched; the remaining headroom on multi-core hosts is
// splitting a large region across cores. parallel_for() hands out
// cache-line-aligned sub-ranges of [0, total) to the pool workers plus the
// calling thread, and returns when every chunk has run.
//
// One shared pool serves the process (ThreadPool::shared()), sized from
// RPR_THREADS or hardware_concurrency, so repeated encode/decode calls do
// not churn threads. Small inputs run inline on the caller — the pool only
// engages when a range is worth splitting.
#pragma once

#include <cstddef>
#include <functional>

namespace rpr::util {

class ThreadPool {
 public:
  /// A pool with `threads` workers (0 is clamped to 1). Workers idle on a
  /// condition variable between jobs.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker count (>= 1). The calling thread also executes chunks, so up to
  /// size() + 1 threads touch a parallel_for.
  [[nodiscard]] std::size_t size() const noexcept { return threads_; }

  /// Invoke fn(begin, end) over disjoint chunks covering [0, total).
  /// Chunk boundaries are multiples of `align`, and no chunk is smaller
  /// than min_chunk unless total is: a remainder shorter than min_chunk
  /// joins the chunk before it. Blocks until all chunks completed. fn runs
  /// concurrently on pool workers and the calling thread; it must be safe
  /// for disjoint ranges. Runs inline when the range is not worth
  /// splitting.
  void parallel_for(std::size_t total, std::size_t align,
                    std::size_t min_chunk,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  /// The process-wide pool, created on first use. Sized from the
  /// RPR_THREADS environment variable if set, else hardware_concurrency
  /// (capped at 16 workers).
  static ThreadPool& shared();

 private:
  struct Impl;
  Impl* impl_;
  std::size_t threads_;
};

}  // namespace rpr::util
