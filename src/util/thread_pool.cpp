#include "util/thread_pool.h"

#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "check/scheduler.h"

namespace rpr::util {

// A plain task-queue pool. parallel_for enqueues one closure per chunk,
// runs chunks on the calling thread too (helping drain the queue), and
// waits on a per-job countdown. Chunks are at least min_chunk bytes of
// kernel work, so the per-chunk lock round-trips are noise.
// The mutexes are check::Mutex so pool-internal acquisition edges show up
// in the lock-order graph when it is enabled.
struct ThreadPool::Impl {
  check::Mutex mu{"pool.queue"};
  std::condition_variable_any work_cv;
  std::deque<std::function<void()>> tasks;
  bool stopping = false;
  std::vector<std::thread> workers;

  void worker_loop() {
    std::unique_lock lock(mu);
    for (;;) {
      work_cv.wait(lock, [&] { return stopping || !tasks.empty(); });
      if (tasks.empty()) return;  // stopping and drained
      auto task = std::move(tasks.front());
      tasks.pop_front();
      lock.unlock();
      task();
      lock.lock();
    }
  }
};

ThreadPool::ThreadPool(std::size_t threads)
    : impl_(new Impl), threads_(threads == 0 ? 1 : threads) {
  impl_->workers.reserve(threads_);
  for (std::size_t i = 0; i < threads_; ++i) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lock(impl_->mu);
    impl_->stopping = true;
  }
  impl_->work_cv.notify_all();
  for (auto& w : impl_->workers) w.join();
  delete impl_;
}

void ThreadPool::parallel_for(
    std::size_t total, std::size_t align, std::size_t min_chunk,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (total == 0) return;
  // Under a concurrency-check scheduler the calling thread is cooperative:
  // run the whole range inline. Pool workers are unchecked threads, and an
  // unchecked thread completing a checked caller's job would wake it
  // outside the scheduler's wake protocol (and nondeterministically).
  if (check::this_thread_checked()) {
    fn(0, total);
    return;
  }
  if (align == 0) align = 1;
  if (min_chunk < align) min_chunk = align;

  // Aim for ~2 chunks per participant so a straggling core can be
  // back-filled, but never below min_chunk, and always an align multiple.
  // A remainder shorter than min_chunk joins the chunk before it, so a
  // range shorter than chunk + min_chunk is one chunk.
  const std::size_t parts = (threads_ + 1) * 2;
  std::size_t chunk = (total + parts - 1) / parts;
  chunk = ((chunk + align - 1) / align) * align;
  if (chunk < min_chunk) chunk = ((min_chunk + align - 1) / align) * align;
  if (total < chunk + min_chunk) {
    fn(0, total);
    return;
  }

  struct Job {
    check::Mutex m{"pool.job"};
    std::condition_variable_any cv;
    std::size_t remaining;
  } job;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  for (std::size_t b = 0; b < total; b = ranges.back().second) {
    ranges.emplace_back(b, total - b < chunk + min_chunk ? total : b + chunk);
  }
  job.remaining = ranges.size();

  auto run_range = [&](std::size_t b, std::size_t e) {
    fn(b, e);
    std::scoped_lock l(job.m);
    if (--job.remaining == 0) job.cv.notify_all();
  };

  {
    std::scoped_lock lock(impl_->mu);
    for (std::size_t i = 1; i < ranges.size(); ++i) {
      impl_->tasks.emplace_back(
          [&run_range, r = ranges[i]] { run_range(r.first, r.second); });
    }
  }
  impl_->work_cv.notify_all();
  run_range(ranges[0].first, ranges[0].second);

  // Help drain the queue while waiting; a grabbed task may belong to a
  // concurrent caller's job, which is fine — it all has to run anyway.
  for (;;) {
    std::function<void()> task;
    {
      std::scoped_lock lock(impl_->mu);
      if (!impl_->tasks.empty()) {
        task = std::move(impl_->tasks.front());
        impl_->tasks.pop_front();
      }
    }
    if (!task) break;
    task();
  }
  std::unique_lock l(job.m);
  job.cv.wait(l, [&] { return job.remaining == 0; });
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool([] {
    if (const char* env = std::getenv("RPR_THREADS")) {
      const long v = std::strtol(env, nullptr, 10);
      if (v > 0) return static_cast<std::size_t>(v > 64 ? 64 : v);
    }
    std::size_t hw = std::thread::hardware_concurrency();
    if (hw == 0) hw = 1;
    return hw > 16 ? std::size_t{16} : hw;
  }());
  return pool;
}

}  // namespace rpr::util
