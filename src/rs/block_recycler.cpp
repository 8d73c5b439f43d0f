#include "rs/block_recycler.h"

#include <cstdint>
#include <utility>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace rpr::rs {

void reserve_huge(Block& block, std::size_t size) {
  block.reserve(size);
#ifdef MADV_HUGEPAGE
  constexpr std::uintptr_t kHugePage = std::uintptr_t{2} << 20;
  const auto begin = reinterpret_cast<std::uintptr_t>(block.data());
  const std::uintptr_t lo = (begin + kHugePage - 1) & ~(kHugePage - 1);
  const std::uintptr_t hi = (begin + block.capacity()) & ~(kHugePage - 1);
  // Advice only: where THP is off or the range is not anonymous memory the
  // call fails and the pages stay 4 KiB.
  if (hi > lo) {
    (void)madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_HUGEPAGE);
  }
#endif
}

BlockRecycler& BlockRecycler::shared() {
  static BlockRecycler recycler;
  return recycler;
}

Block BlockRecycler::take(std::size_t size) {
  if (size == 0) return {};
  std::vector<Block> dropped;  // freed outside the lock
  {
    std::scoped_lock lock(mu_);
    if (size != size_) {
      dropped.swap(free_);
      size_ = size;
    } else if (!free_.empty()) {
      Block b = std::move(free_.back());
      free_.pop_back();
      return b;
    }
  }
  Block b;
  reserve_huge(b, size);
  b.resize(size);
  return b;
}

void BlockRecycler::give(std::span<Block> blocks) {
  std::scoped_lock lock(mu_);
  if (size_ == 0) return;
  for (Block& b : blocks) {
    if (b.size() == size_) free_.push_back(std::move(b));
  }
}

}  // namespace rpr::rs
