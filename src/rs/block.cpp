#include "rs/block.h"

#include <new>

#include "util/pages.h"
#include "util/thread_pool.h"

#if defined(__SANITIZE_ADDRESS__)
#define RPR_BLOCK_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RPR_BLOCK_POOL_ASAN 1
#endif
#endif
#ifdef RPR_BLOCK_POOL_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace rpr::rs {

namespace {

// From a huge page up, a miss maps whole pages that fault in 2 MiB at a
// time; below it, operator new.
constexpr std::size_t kMappedBytes = std::size_t{2} << 20;

std::uint8_t* allocate(std::size_t bytes) {
  if (bytes >= kMappedBytes) {
    return static_cast<std::uint8_t*>(util::map_pages(bytes));
  }
  return static_cast<std::uint8_t*>(::operator new(bytes));
}

void deallocate(std::uint8_t* data, std::size_t bytes) noexcept {
  if (bytes >= kMappedBytes) {
    util::unmap_pages(data, bytes);
  } else {
    ::operator delete(data);
  }
}

// Under AddressSanitizer a cached buffer is poisoned, so a read or write
// through a pointer kept past its Block's death is still reported.
void poison(std::uint8_t* data, std::size_t bytes) noexcept {
#ifdef RPR_BLOCK_POOL_ASAN
  ASAN_POISON_MEMORY_REGION(data, bytes);
#else
  (void)data;
  (void)bytes;
#endif
}

void unpoison(std::uint8_t* data, std::size_t bytes) noexcept {
#ifdef RPR_BLOCK_POOL_ASAN
  ASAN_UNPOISON_MEMORY_REGION(data, bytes);
#else
  (void)data;
  (void)bytes;
#endif
}

}  // namespace

void copy_bytes(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  constexpr std::size_t kShardBytes = std::size_t{1} << 20;
  if (n < kShardBytes) {
    if (n != 0) std::memcpy(dst, src, n);
    return;
  }
  util::ThreadPool::shared().parallel_for(
      n, 64, kShardBytes / 2, [&](std::size_t begin, std::size_t end) {
        std::memcpy(dst + begin, src + begin, end - begin);
      });
}

BlockPool& BlockPool::shared() {
  // Never destroyed: a Block in static storage may die after it.
  static BlockPool* const pool = new BlockPool;
  return *pool;
}

BlockPool::~BlockPool() {
  for (const Cached& c : lru_) {
    unpoison(c.data, c.bytes);
    deallocate(c.data, c.bytes);
  }
}

BlockPool::Stats BlockPool::stats() {
  const std::scoped_lock lock(mu_);
  return stats_;
}

BlockPool::Taken BlockPool::take(std::size_t bytes) {
  std::vector<Cached> evicted;  // freed outside the lock
  {
    const std::scoped_lock lock(mu_);
    stats_.live_bytes += bytes;
    stats_.peak_live_bytes =
        std::max(stats_.peak_live_bytes, stats_.live_bytes);
    if (const auto it = by_size_.find(bytes); it != by_size_.end()) {
      const CachedList::iterator entry = it->second.back();
      it->second.pop_back();
      if (it->second.empty()) by_size_.erase(it);
      std::uint8_t* data = entry->data;
      lru_.erase(entry);
      stats_.cached_bytes -= bytes;
      ++stats_.hits;
      unpoison(data, bytes);
      return {data, false};
    }
    ++stats_.misses;
    // No cached buffer of this size: make room under the peak, least
    // recently released first.
    while (stats_.live_bytes + stats_.cached_bytes > stats_.peak_live_bytes) {
      const Cached c = lru_.front();
      const auto it = by_size_.find(c.bytes);
      it->second.erase(it->second.begin());
      if (it->second.empty()) by_size_.erase(it);
      lru_.pop_front();
      stats_.cached_bytes -= c.bytes;
      ++stats_.evictions;
      evicted.push_back(c);
    }
  }
  for (const Cached& c : evicted) {
    unpoison(c.data, c.bytes);
    deallocate(c.data, c.bytes);
  }
  try {
    return {allocate(bytes), bytes >= kMappedBytes};
  } catch (...) {
    const std::scoped_lock lock(mu_);
    stats_.live_bytes -= bytes;
    throw;
  }
}

void BlockPool::give(std::uint8_t* data, std::size_t bytes) noexcept {
  poison(data, bytes);
  const std::scoped_lock lock(mu_);
  lru_.push_back({data, bytes});
  by_size_[bytes].push_back(std::prev(lru_.end()));
  stats_.live_bytes -= bytes;
  stats_.cached_bytes += bytes;
}

}  // namespace rpr::rs
