// rs::Block and util::PagePool: the one block type and the page pool under
// it. A copy is independent of its source, the sized constructors and
// resize never expose recycled bytes, the uninitialized constructor reuses
// released pages, the pool never holds more than the peak of its live
// bytes, a hit hands out the most used buffer of its size, and concurrent
// takes and releases keep its books (run under TSan).
#include "rs/block.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "util/pages.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using rpr::rs::Block;
using rpr::util::PagePool;

constexpr std::size_t kMiB = std::size_t{1} << 20;

Block random_block(std::size_t size, std::uint64_t seed) {
  rpr::util::Xoshiro256 rng(seed);
  Block b = Block::uninitialized(size);
  for (auto& byte : b) byte = static_cast<std::uint8_t>(rng());
  return b;
}

/// Releases one buffer of `size` bytes filled with 0xA5 and returns its
/// address: the next take of that size gets it back.
const std::uint8_t* dirty(std::size_t size) {
  Block b = Block::uninitialized(size);
  std::fill(b.begin(), b.end(), std::uint8_t{0xA5});
  return b.data();
}

bool all_bytes(const Block& b, std::size_t from, std::size_t to,
               std::uint8_t value) {
  return std::all_of(b.begin() + from, b.begin() + to,
                     [&](std::uint8_t x) { return x == value; });
}

// Sizes below the copy's shard threshold and above it (sharded over the
// thread pool, with a remainder that is not a multiple of 64 B).
const std::size_t kSizes[] = {1, 1000, 3 * kMiB + 7};

TEST(Block, CopyEqualsSourceAndIsIndependent) {
  for (const std::size_t size : kSizes) {
    SCOPED_TRACE(testing::Message() << size << " bytes");
    const Block source = random_block(size, size);
    const std::vector<std::uint8_t> saved(source.begin(), source.end());

    Block copy = source;
    EXPECT_EQ(copy, source);
    EXPECT_NE(copy.data(), source.data());
    copy[size / 2] ^= 0xFF;
    EXPECT_NE(copy, source);
    EXPECT_EQ(source, saved) << "writing the copy changed its source";

    // Assignment over a block of the same size reuses its pages; over one
    // of another size it takes new ones. Both equal the source.
    Block same = Block::uninitialized(size);
    const std::uint8_t* pages = same.data();
    same = source;
    EXPECT_EQ(same, source);
    EXPECT_EQ(same.data(), pages);
    Block other(size + 3, 0x11);
    other = source;
    EXPECT_EQ(other, source);

    // Self-assignment and assignment from a range of the block itself.
    Block self = source;
    const Block& alias = self;
    self = alias;
    EXPECT_EQ(self, source);
    self.assign(self.begin() + 1, self.end());
    EXPECT_EQ(self, Block(source.begin() + 1, source.end()));
  }
}

TEST(Block, SizedConstructorAndResizeNeverExposeRecycledBytes) {
  for (const std::size_t size : kSizes) {
    SCOPED_TRACE(testing::Message() << size << " bytes");
    const std::uint8_t* pages = dirty(size);
    const Block zeros(size);
    EXPECT_EQ(zeros.data(), pages) << "the dirtied buffer was not reused";
    EXPECT_TRUE(all_bytes(zeros, 0, size, 0));

    pages = dirty(size);
    const Block filled(size, 0x3C);
    EXPECT_EQ(filled.data(), pages);
    EXPECT_TRUE(all_bytes(filled, 0, size, 0x3C));

    // assign(n, 0) onto recycled pages of another size, then of the same.
    // Every block takes its pages before the buffer is dirtied, so no miss
    // in between can evict it.
    Block assigned(size + 1, 0x77);
    pages = dirty(size);
    assigned.assign(size, 0);
    EXPECT_EQ(assigned.data(), pages);
    EXPECT_TRUE(all_bytes(assigned, 0, size, 0));
    std::fill(assigned.begin(), assigned.end(), std::uint8_t{0xA5});
    assigned.assign(size, 0);
    EXPECT_TRUE(all_bytes(assigned, 0, size, 0));

    // resize keeps the prefix and zero-fills the grown tail, on recycled
    // pages.
    const std::size_t half = size / 2;
    Block grown(half, 0x5A);
    pages = dirty(size);
    grown.resize(size);
    EXPECT_EQ(grown.data(), pages);
    EXPECT_TRUE(all_bytes(grown, 0, half, 0x5A));
    EXPECT_TRUE(all_bytes(grown, half, size, 0));
    grown.resize(half);
    ASSERT_EQ(grown.size(), half);
    EXPECT_TRUE(all_bytes(grown, 0, half, 0x5A));
    grown.resize(0);
    EXPECT_TRUE(grown.empty());
  }
}

TEST(PagePool, UninitializedHandsBackABufferReleasedAtTheSameSize) {
  for (const std::size_t size : {std::size_t{4096}, 16 * kMiB, 16 * kMiB + 13}) {
    SCOPED_TRACE(testing::Message() << size << " bytes");
    const std::uint8_t* released = dirty(size);
    const PagePool::Stats before = PagePool::shared().stats();
    const Block again = Block::uninitialized(size);
    EXPECT_EQ(again.data(), released);
    const PagePool::Stats after = PagePool::shared().stats();
    EXPECT_EQ(after.hits, before.hits + 1) << "the second take was no hit";
    EXPECT_EQ(after.live_bytes, before.live_bytes + size);
  }
  // Moves hand the pages over; clear() gives them back.
  Block a = Block::uninitialized(4096);
  const std::uint8_t* pages = a.data();
  Block b = std::move(a);
  EXPECT_EQ(b.data(), pages);
  b.clear();
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(Block::uninitialized(4096).data(), pages);
}

TEST(PagePool, MixedSizesKeepLivePlusCachedUnderPeakLive) {
  // A private pool, so the books start at zero. Sizes as store-wave uses
  // them (16 MiB blocks, a 192 MiB object) plus odd ones; nothing is
  // written, so no page is faulted in.
  PagePool pool;
  const auto check = [&](const char* step) {
    const PagePool::Stats s = pool.stats();
    EXPECT_LE(s.live_bytes + s.cached_bytes, s.peak_live_bytes) << step;
  };
  std::vector<std::pair<void*, std::size_t>> live;
  const auto take = [&](std::size_t bytes) {
    live.emplace_back(pool.take(bytes).data, bytes);
    check("take");
  };
  const auto give_all = [&] {
    for (const auto& [p, bytes] : live) {
      pool.give(p, bytes, bytes);
      check("give");
    }
    live.clear();
  };

  for (int i = 0; i < 4; ++i) take(16 * kMiB);
  take(16 * kMiB + 13);
  take(4097);
  give_all();
  EXPECT_EQ(pool.stats().peak_live_bytes, 64 * kMiB + 16 * kMiB + 13 + 4097);

  // 192 MiB is more than everything cached: its class (128-256 MiB) holds
  // nothing, and no one buffer covers the 80 MiB over the new peak, so
  // the largest go first until one does: 16 MiB + 13, four 16 MiB, then
  // the 4097-byte buffer. The peak rises to the new live bytes.
  take(192 * kMiB);
  PagePool::Stats s = pool.stats();
  EXPECT_EQ(s.cached_bytes, 0u);
  EXPECT_EQ(s.evictions, 6u);
  EXPECT_EQ(s.peak_live_bytes, 192 * kMiB);
  give_all();

  // Twelve 16 MiB blocks fit under the 192 MiB peak beside nothing else:
  // the first miss evicts the object buffer, the smallest that covers
  // 16 MiB, and the rest need no eviction.
  for (int i = 0; i < 12; ++i) take(16 * kMiB);
  s = pool.stats();
  EXPECT_EQ(s.evictions, 7u);
  EXPECT_EQ(s.cached_bytes, 0u);
  give_all();

  // Same-size takes are hits and evict nothing.
  for (int i = 0; i < 12; ++i) take(16 * kMiB);
  s = pool.stats();
  EXPECT_EQ(s.evictions, 7u);
  EXPECT_EQ(s.hits, 12u);
  // Odd sizes under the peak evict only while live + cached would exceed
  // it: 1 byte is 1 byte over, and a 16 MiB buffer is the smallest cached
  // one; 16 MiB + 1 is 2 bytes over, and its own class holds the 16 MiB
  // buffers.
  give_all();
  take(1);
  take(16 * kMiB + 1);
  s = pool.stats();
  EXPECT_EQ(s.evictions, 9u);
  EXPECT_EQ(s.live_bytes, 16 * kMiB + 2);
  EXPECT_EQ(s.cached_bytes, 10 * 16 * kMiB);
  give_all();
  check("end");
}

TEST(PagePool, SmallMissLeavesLargeBuffersCached) {
  // Four 16 MiB blocks released long before four 64 KiB buffers, then a
  // 100-byte miss one peak's worth over: the least recently released
  // buffer is a 16 MiB block, but the miss evicts one 64 KiB buffer, the
  // smallest that covers it. A 96 KiB miss, 32 KiB over, then evicts from
  // its own class (64-128 KiB): another 64 KiB buffer, not a block.
  PagePool pool;
  std::vector<void*> big, small;
  for (int i = 0; i < 4; ++i) big.push_back(pool.take(16 * kMiB).data);
  for (int i = 0; i < 4; ++i) small.push_back(pool.take(64 << 10).data);
  for (void* p : big) pool.give(p, 16 * kMiB, 16 * kMiB);
  for (void* p : small) pool.give(p, 64 << 10, 64 << 10);

  void* a = pool.take(100).data;
  PagePool::Stats s = pool.stats();
  EXPECT_EQ(s.misses, 9u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.cached_bytes, 4 * 16 * kMiB + 3 * (64 << 10));
  void* b = pool.take(96 << 10).data;
  s = pool.stats();
  EXPECT_EQ(s.evictions, 2u);
  EXPECT_EQ(s.cached_bytes, 4 * 16 * kMiB + 2 * (64 << 10));
  EXPECT_LE(s.live_bytes + s.cached_bytes, s.peak_live_bytes);
  // The blocks are all still there: four hits.
  for (void*& p : big) p = pool.take(16 * kMiB).data;
  EXPECT_EQ(pool.stats().hits, 4u);
  for (void* p : big) pool.give(p, 16 * kMiB, 16 * kMiB);
  pool.give(a, 100, 100);
  pool.give(b, 96 << 10, 96 << 10);
}

TEST(PagePool, HitReturnsTheMostUsedBufferOfItsSize) {
  // An array's partly used last segment must not go to a taker that fills
  // it while a full one of the same size is cached (nothing is written, so
  // no page is faulted in).
  PagePool pool;
  const std::size_t size = 4 * kMiB;
  void* full = pool.take(size).data;
  void* half = pool.take(size).data;
  void* empty = pool.take(size).data;
  void* also_full = pool.take(size).data;
  pool.give(full, size, size);
  pool.give(also_full, size, size);
  pool.give(half, size, size / 2);
  pool.give(empty, size, 0);
  EXPECT_EQ(pool.take(size).data, also_full);  // most recent of the full
  EXPECT_EQ(pool.take(size).data, full);
  EXPECT_EQ(pool.take(size).data, half);
  EXPECT_EQ(pool.take(size).data, empty);
  for (void* p : {full, half, empty, also_full}) pool.give(p, size, 0);
  EXPECT_EQ(pool.stats().hits, 4u);
}

TEST(PagePool, ConcurrentTakeAndReleaseFromPoolWorkers) {
  // Pool workers take, write, check, copy and release blocks of a few
  // sizes at once; every block holds only its own bytes, and the pool's
  // books balance afterwards.
  const PagePool::Stats before = PagePool::shared().stats();
  std::atomic<std::size_t> bad{0};
  rpr::util::ThreadPool::shared().parallel_for(
      64, 1, 1, [&](std::size_t begin, std::size_t end) {
        for (std::size_t task = begin; task < end; ++task) {
          for (std::size_t i = 0; i < 50; ++i) {
            const std::size_t size =
                std::size_t{1} << (10 + (task + i) % 8);  // 1–128 KiB
            const auto mark = static_cast<std::uint8_t>(task * 31 + i);
            Block b = Block::uninitialized(size);
            std::fill(b.begin(), b.end(), mark);
            const Block copy = b;
            Block zeros(size + task);
            if (!all_bytes(copy, 0, size, mark) ||
                !all_bytes(zeros, 0, size + task, 0)) {
              ++bad;
            }
          }
        }
      });
  EXPECT_EQ(bad.load(), 0u);
  const PagePool::Stats after = PagePool::shared().stats();
  EXPECT_EQ(after.live_bytes, before.live_bytes);
  EXPECT_LE(after.live_bytes + after.cached_bytes, after.peak_live_bytes);
}

}  // namespace
