#include "util/pages.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <new>
#include <utility>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
#define RPR_PAGE_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RPR_PAGE_POOL_ASAN 1
#endif
#endif
#ifdef RPR_PAGE_POOL_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace rpr::util {

namespace {

#ifdef RPR_PAGE_POOL_ASAN
void poison(void* p, std::size_t n) { ASAN_POISON_MEMORY_REGION(p, n); }
void unpoison(void* p, std::size_t n) { ASAN_UNPOISON_MEMORY_REGION(p, n); }
#else
void poison(void* /*p*/, std::size_t /*n*/) {}
void unpoison(void* /*p*/, std::size_t /*n*/) {}
#endif

/// The first huge-page boundary at or after address `a`.
std::uintptr_t huge_up(std::uintptr_t a) {
  return (a + kMappedBytes - 1) & ~(kMappedBytes - 1);
}

/// `bytes` of zero-filled pages that fault in on first touch: on Linux an
/// anonymous mapping whose 2 MiB-aligned interior is advised as
/// transparent huge pages (advice only: with THP off the pages stay
/// 4 KiB), calloc elsewhere.
void* map_pages(std::size_t bytes) {
#if defined(__linux__)
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
#ifdef MADV_HUGEPAGE
  const auto begin = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t lo = huge_up(begin);
  const std::uintptr_t hi = (begin + bytes) & ~(kMappedBytes - 1);
  if (hi > lo) {
    (void)madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_HUGEPAGE);
  }
#endif
#else
  void* p = std::calloc(bytes, 1);
  if (p == nullptr) throw std::bad_alloc();
#endif
  return p;
}

PagePool::Taken allocate(std::size_t bytes) {
  if (bytes >= kMappedBytes) return {map_pages(bytes), true};
  return {::operator new(bytes), false};
}

/// Frees a cached buffer.
void deallocate(void* p, std::size_t bytes) noexcept {
  unpoison(p, bytes);
  if (bytes < kMappedBytes) return ::operator delete(p);
#if defined(__linux__)
  munmap(p, bytes);
#else
  std::free(p);
#endif
}

}  // namespace

PagePool& PagePool::shared() {
  // Never destroyed: a Block or array in static storage may die after it.
  static PagePool* const pool = new PagePool;
  return *pool;
}

PagePool::~PagePool() {
  for (const auto& [bytes, cached] : by_size_) {
    for (const Cached& c : cached) deallocate(c.data, bytes);
  }
}

PagePool::Stats PagePool::stats() {
  const std::scoped_lock lock(mu_);
  return stats_;
}

PagePool::Taken PagePool::take(std::size_t bytes) {
  std::vector<std::pair<void*, std::size_t>> evicted;  // freed unlocked
  {
    const std::scoped_lock lock(mu_);
    stats_.live_bytes += bytes;
    stats_.peak_live_bytes =
        std::max(stats_.peak_live_bytes, stats_.live_bytes);
    if (const auto it = by_size_.find(bytes); it != by_size_.end()) {
      // The most used buffer, the most recently released among equals.
      std::vector<Cached>& same = it->second;
      auto pick = std::prev(same.end());
      for (auto e = pick; e != same.begin() && pick->used < bytes;) {
        --e;
        if (e->used > pick->used) pick = e;
      }
      void* data = pick->data;
      same.erase(pick);
      if (same.empty()) by_size_.erase(it);
      stats_.cached_bytes -= bytes;
      ++stats_.hits;
      unpoison(data, bytes);
      return {data, false};
    }
    ++stats_.misses;
    // No cached buffer of this size: make room under the peak. The peak
    // is at least the live bytes, so what is over is at most what is
    // cached.
    const auto over = [&] {
      const std::size_t total = stats_.live_bytes + stats_.cached_bytes;
      return total > stats_.peak_live_bytes ? total - stats_.peak_live_bytes
                                            : 0;
    };
    // Drops the least recently released buffer of one size.
    const auto evict = [&](auto it) {
      std::vector<Cached>& same = it->second;
      evicted.emplace_back(same.front().data, it->first);
      stats_.cached_bytes -= it->first;
      ++stats_.evictions;
      same.erase(same.begin());
      if (same.empty()) by_size_.erase(it);
    };
    // First the buffers of its own class, [2^j, 2^(j+1)) around `bytes`.
    const std::size_t class_lo = std::bit_floor(bytes);
    for (auto it = by_size_.lower_bound(class_lo);
         over() > 0 && it != by_size_.end() && it->first / 2 < class_lo;
         it = by_size_.lower_bound(class_lo)) {
      evict(it);
    }
    // Then the smallest buffer that covers the rest, or the largest.
    while (over() > 0) {
      auto it = by_size_.lower_bound(over());
      if (it == by_size_.end()) it = std::prev(by_size_.end());
      evict(it);
    }
  }
  for (const auto& [data, size] : evicted) deallocate(data, size);
  try {
    return allocate(bytes);
  } catch (...) {
    const std::scoped_lock lock(mu_);
    stats_.live_bytes -= bytes;
    throw;
  }
}

void PagePool::give(void* data, std::size_t bytes,
                    std::size_t used) noexcept {
#ifdef MADV_DONTNEED
  // The pages past the huge page `used` ends in go back. That huge page
  // stays whole: the kernel may collapse a split one back in full.
  const auto begin = reinterpret_cast<std::uintptr_t>(data);
  const std::uintptr_t lo = huge_up(begin + used);
  if (bytes >= kMappedBytes && lo < begin + bytes) {
    (void)madvise(reinterpret_cast<void*>(lo), begin + bytes - lo,
                  MADV_DONTNEED);
  }
#endif
  poison(data, bytes);
  const std::scoped_lock lock(mu_);
  by_size_[bytes].push_back({data, used});
  stats_.live_bytes -= bytes;
  stats_.cached_bytes += bytes;
}

}  // namespace rpr::util
