// PagePool: the one owner of page policy, under rs::Block's bytes and the
// large segments of util::SegmentedArray. A first touch of a fresh 4 KiB
// page costs a page fault, which on a 16 MiB block costs more than the GF
// work done on it, so the pool keeps released buffers by exact size and
// hands them back still faulted in.
//
// Retention: the pooled live bytes plus the cached bytes never exceed the
// peak of pooled live bytes. A miss that would break that evicts by size:
// first cached buffers of its own class (sizes in the same power-of-two
// range, the buffers most like the one it needs), then the smallest
// buffer that covers what is still over, or the largest when none does
// alone. A small miss thus never frees a large buffer while smaller ones
// would do. A hit returns the buffer of that size whose last user wrote
// the most (the most recently released among equals), and a cached mapped
// buffer keeps only the huge pages that user wrote into, so a run that
// repeats an earlier one gets back the buffers it had
// (docs/PERFORMANCE.md).
//
// A miss of kMappedBytes or more maps fresh zero-filled pages advised as
// transparent huge pages; a smaller one comes from operator new. Under
// AddressSanitizer a cached buffer is poisoned.
#pragma once

#include <cstddef>
#include <map>
#include <mutex>
#include <vector>

namespace rpr::util {

/// Buffers of this many bytes and more are whole huge-page-advised
/// mappings; smaller ones come from operator new.
inline constexpr std::size_t kMappedBytes = std::size_t{2} << 20;

/// The process-wide cache of buffer pages (see the file comment).
class PagePool {
 public:
  struct Stats {
    std::size_t live_bytes = 0;       ///< taken and not yet given back
    std::size_t cached_bytes = 0;     ///< given back, kept for reuse
    std::size_t peak_live_bytes = 0;  ///< high-water mark of live_bytes
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t evictions = 0;
  };
  struct Taken {
    void* data;
    bool zeroed;  ///< fresh pages, known to read as zeros
  };

  /// The pool rs::Block and util::SegmentedArray use; never destroyed.
  static PagePool& shared();

  PagePool() = default;
  /// Frees the cached buffers; every taken one must have been given back.
  ~PagePool();
  PagePool(const PagePool&) = delete;
  PagePool& operator=(const PagePool&) = delete;

  [[nodiscard]] Stats stats();

  /// A buffer of `bytes` (> 0), aligned for any fundamental type, with
  /// unspecified contents unless `zeroed`. Throws std::bad_alloc.
  [[nodiscard]] Taken take(std::size_t bytes);
  /// Gives back a buffer take(bytes) returned; `bytes` must match, and its
  /// user wrote at most its first `used` bytes. A mapped buffer's pages
  /// past the huge page those end in go back to the system.
  void give(void* data, std::size_t bytes, std::size_t used) noexcept;

 private:
  struct Cached {
    void* data;
    std::size_t used;  ///< bytes its last user wrote
  };
  std::mutex mu_;  // guards the rest
  /// The cached buffers of each size, least recently released first.
  std::map<std::size_t, std::vector<Cached>> by_size_;
  Stats stats_;
};

}  // namespace rpr::util
