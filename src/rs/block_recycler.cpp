#include "rs/block_recycler.h"

#include <utility>

#include "util/pages.h"

namespace rpr::rs {

void reserve_huge(Block& block, std::size_t size) {
  block.reserve(size);
  util::advise_huge_pages(block.data(), block.capacity());
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
