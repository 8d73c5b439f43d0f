// Utility-module tests: RNG determinism and distribution sanity, unit
// types, combination enumeration, table rendering, thread-pool sharding,
// the segmented array, the 4-ary heap.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "util/combinatorics.h"
#include "util/pages.h"
#include "util/quad_heap.h"
#include "util/rng.h"
#include "util/segmented_array.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/units.h"

namespace util = rpr::util;

TEST(Rng, DeterministicAcrossInstances) {
  util::Xoshiro256 a(123), b(123);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  util::Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange) {
  util::Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowCoversAllValues) {
  util::Xoshiro256 rng(8);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.below(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, RangeInclusive) {
  util::Xoshiro256 rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.range(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, Uniform01Bounds) {
  util::Xoshiro256 rng(10);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, SplitMix64KnownFirstOutput) {
  // Reference value for seed 0 from the SplitMix64 reference code.
  util::SplitMix64 sm(0);
  EXPECT_EQ(sm.next(), 0xE220A8397B1DCDAFULL);
}

TEST(Units, BandwidthConversions) {
  EXPECT_DOUBLE_EQ(util::Bandwidth::mbps(8).as_bytes_per_sec(), 1e6);
  EXPECT_DOUBLE_EQ(util::Bandwidth::gbps(1).as_bytes_per_sec(), 1.25e8);
  EXPECT_DOUBLE_EQ(util::Bandwidth::mbytes_per_sec(5).as_bytes_per_sec(), 5e6);
  EXPECT_DOUBLE_EQ(util::Bandwidth::gbps(1).as_mbps(), 1000.0);
  EXPECT_FALSE(util::Bandwidth{}.valid());
  EXPECT_TRUE(util::Bandwidth::mbps(1).valid());
}

TEST(Units, TimeForRoundsUp) {
  const auto bw = util::Bandwidth::bytes_per_sec(3.0);
  // 1 byte at 3 B/s = 333333333.3 ns -> rounds up to ...34.
  EXPECT_EQ(bw.time_for(1), 333333334);
  EXPECT_EQ(bw.time_for(3), util::kNsPerSec);
  EXPECT_EQ(bw.time_for(0), 0);
}

TEST(Units, ToMsToSec) {
  EXPECT_DOUBLE_EQ(util::to_ms(1'500'000), 1.5);
  EXPECT_DOUBLE_EQ(util::to_sec(2'000'000'000), 2.0);
}

TEST(Combinatorics, EnumeratesAllCombinationsInOrder) {
  std::vector<std::vector<std::size_t>> got;
  util::for_each_combination(4, 2, [&](const std::vector<std::size_t>& c) {
    got.push_back(c);
  });
  const std::vector<std::vector<std::size_t>> expect = {
      {0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}};
  EXPECT_EQ(got, expect);
}

TEST(Combinatorics, EdgeCases) {
  std::size_t count = 0;
  util::for_each_combination(3, 0, [&](const auto&) { ++count; });
  EXPECT_EQ(count, 1u);  // the empty set
  count = 0;
  util::for_each_combination(3, 4, [&](const auto&) { ++count; });
  EXPECT_EQ(count, 0u);  // r > m
  count = 0;
  util::for_each_combination(5, 5, [&](const auto& c) {
    ++count;
    EXPECT_EQ(c.size(), 5u);
  });
  EXPECT_EQ(count, 1u);
}

TEST(Combinatorics, CountMatchesEnumeration) {
  for (std::size_t m = 1; m <= 10; ++m) {
    for (std::size_t r = 0; r <= m; ++r) {
      std::size_t count = 0;
      util::for_each_combination(m, r, [&](const auto&) { ++count; });
      EXPECT_EQ(count, util::n_choose_r(m, r)) << m << " choose " << r;
    }
  }
  EXPECT_EQ(util::n_choose_r(16, 4), 1820u);
}

namespace {

// Collects the [begin, end) chunks a parallel_for produced and verifies they
// tile `total` exactly once, with every internal boundary `align`-aligned
// and no chunk shorter than `min_chunk` unless `total` is.
void check_partition(std::vector<std::pair<std::size_t, std::size_t>> chunks,
                     std::size_t total, std::size_t align,
                     std::size_t min_chunk) {
  std::sort(chunks.begin(), chunks.end());
  std::size_t cursor = 0;
  for (const auto& [b, e] : chunks) {
    ASSERT_EQ(b, cursor) << "gap or overlap at " << b;
    ASSERT_LT(b, e) << "empty chunk";
    if (e != total) {
      ASSERT_EQ(e % align, 0u) << "unaligned boundary " << e;
    }
    ASSERT_GE(e - b, std::min(min_chunk, total))
        << "short chunk [" << b << ", " << e << ") of " << total;
    cursor = e;
  }
  ASSERT_EQ(cursor, total) << "range not fully covered";
}

}  // namespace

TEST(ThreadPoolSharded, CoversRangeExactlyOnce) {
  util::ThreadPool pool(3);
  for (const std::size_t total : {0u, 1u, 63u, 64u, 65u, 1000u, 4096u,
                                  (1u << 20) + 17u}) {
    std::mutex mu;
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    pool.parallel_for(total, 64, 256, [&](std::size_t b, std::size_t e) {
      const std::lock_guard<std::mutex> lock(mu);
      chunks.emplace_back(b, e);
    });
    if (total == 0) {
      EXPECT_TRUE(chunks.empty());
    } else {
      check_partition(std::move(chunks), total, 64, 256);
    }
  }
}

TEST(ThreadPoolSharded, ShortRemainderJoinsThePreviousChunk) {
  // The pooled GF pass's shape: 64-byte alignment, 256 KiB floor. A
  // remainder under the floor rides with the chunk before it, so 256 KiB + 1
  // is one chunk, not a 256 KiB chunk and a 1-byte one.
  constexpr std::size_t kAlign = 64;
  constexpr std::size_t kMin = std::size_t{256} << 10;
  constexpr std::size_t kMiB = std::size_t{1} << 20;
  util::ThreadPool pool(3);
  for (const std::size_t total :
       {kMin - 1, kMin, kMin + 1, 3 * kMin + 13, kMiB + 7, 4 * kMiB + 7}) {
    std::mutex mu;
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    pool.parallel_for(total, kAlign, kMin, [&](std::size_t b, std::size_t e) {
      const std::lock_guard<std::mutex> lock(mu);
      chunks.emplace_back(b, e);
    });
    if (total == kMin + 1) {
      EXPECT_EQ(chunks.size(), 1u);
    }
    check_partition(std::move(chunks), total, kAlign, kMin);
  }
}

TEST(ThreadPoolSharded, EveryByteTouchedExactlyOnce) {
  util::ThreadPool pool(4);
  const std::size_t total = (1u << 20) + 333;  // odd tail past the last chunk
  std::vector<std::uint8_t> hits(total, 0);
  pool.parallel_for(total, 64, 4096, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) ++hits[i];
  });
  for (std::size_t i = 0; i < total; ++i) {
    ASSERT_EQ(hits[i], 1) << "byte " << i;
  }
}

TEST(ThreadPoolSharded, SmallRangeRunsInline) {
  util::ThreadPool pool(4);
  // total below min_chunk: must be one inline chunk covering everything.
  std::atomic<int> calls{0};
  pool.parallel_for(100, 64, 1024, [&](std::size_t b, std::size_t e) {
    ++calls;
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 100u);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPoolSharded, ActuallyRunsConcurrently) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::set<std::thread::id> ids;
  std::mutex mu;
  // Many minimum-size chunks so the queue outlasts the caller's first chunk
  // and workers demonstrably participate.
  pool.parallel_for(1 << 16, 64, 64, [&](std::size_t, std::size_t) {
    const std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_GE(ids.size(), 1u);  // >=2 typically, but never flaky on 1 core
}

TEST(ThreadPoolSharded, ReusableAcrossManyJobs) {
  util::ThreadPool pool(2);
  for (int job = 0; job < 50; ++job) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(10000, 8, 128, [&](std::size_t b, std::size_t e) {
      std::size_t local = 0;
      for (std::size_t i = b; i < e; ++i) local += i;
      sum += local;
    });
    EXPECT_EQ(sum.load(), 10000u * 9999u / 2);
  }
}

TEST(ThreadPoolSharded, SharedPoolSingleton) {
  util::ThreadPool& a = util::ThreadPool::shared();
  util::ThreadPool& b = util::ThreadPool::shared();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.size(), 1u);
}

TEST(Table, RendersAlignedColumns) {
  util::TextTable t({"code", "Tra", "RPR"});
  t.add_row({"(4,2)", "40.00", "22.00"});
  t.add_row({"(12,4)", "120.00", "33.00"});
  const std::string out = t.render();
  EXPECT_NE(out.find("code"), std::string::npos);
  EXPECT_NE(out.find("(12,4)"), std::string::npos);
  // Numeric columns right-aligned: "40.00" is padded to width of "120.00".
  EXPECT_NE(out.find("  40.00"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, ShortRowsArePadded) {
  util::TextTable t({"a", "b", "c"});
  t.add_row({"x"});
  EXPECT_NO_THROW((void)t.render());
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(util::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(util::fmt(3.0, 0), "3");
  EXPECT_EQ(util::fmt(-1.5, 1), "-1.5");
}

namespace {

using Seg = util::SegmentedArray<std::uint64_t>;
constexpr std::size_t kB = Seg::kBase;
/// Elements before the first segment of 2 MiB or more: the pool maps its
/// pages rather than taking them from operator new.
constexpr std::size_t kFirstMapped = [] {
  std::size_t start = 0;
  for (std::size_t cap = kB; cap * sizeof(std::uint64_t) < util::kMappedBytes;
       cap *= 2) {
    start += cap;
  }
  return start;
}();

std::uint64_t value_at(std::size_t i) { return i * 0x9e3779b97f4a7c15ULL; }

Seg filled(std::size_t n) {
  Seg a;
  for (std::size_t i = 0; i < n; ++i) a.push_back(value_at(i));
  return a;
}

void expect_contents(const Seg& a, std::size_t n) {
  ASSERT_EQ(a.size(), n);
  std::size_t i = 0;
  for (const std::uint64_t v : a) {
    ASSERT_EQ(v, value_at(i)) << "index " << i;
    ++i;
  }
  EXPECT_EQ(i, n);
  for (std::size_t j = 0; j < n; ++j) ASSERT_EQ(a[j], value_at(j));
  if (n > 0) {
    EXPECT_EQ(a.back(), value_at(n - 1));
  }
}

}  // namespace

TEST(SegmentedArray, HoldsEverySizeAroundSegmentBoundaries) {
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, kB - 1, kB, kB + 1, 3 * kB,
        3 * kB + 1, kFirstMapped, kFirstMapped + 1}) {
    expect_contents(filled(n), n);
  }
}

TEST(SegmentedArray, ElementsNeverMove) {
  Seg a;
  std::vector<const std::uint64_t*> where;
  for (std::size_t i = 0; i < kFirstMapped + kB; ++i) {
    a.push_back(value_at(i));
    if (i % 97 == 0 || i + 1 == kB || i == kB) where.push_back(&a[i]);
  }
  std::size_t w = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i % 97 == 0 || i + 1 == kB || i == kB) {
      ASSERT_EQ(where[w++], &a[i]) << "index " << i;
    }
  }
}

TEST(SegmentedArray, CopyAndMoveKeepContents) {
  for (const std::size_t n : {std::size_t{0}, kB + 1, kFirstMapped + 3}) {
    const Seg a = filled(n);
    Seg copy = a;
    expect_contents(copy, n);
    expect_contents(a, n);
    if (n > 0) {
      EXPECT_NE(&copy[0], &a[0]);
    }
    copy.push_back(1);  // the copy grows on its own
    EXPECT_EQ(a.size(), n);

    Seg assigned = filled(5);
    assigned = a;
    expect_contents(assigned, n);

    Seg moved = std::move(copy);
    EXPECT_EQ(moved.size(), n + 1);
    EXPECT_EQ(moved.back(), 1u);
    Seg move_assigned;
    move_assigned = std::move(assigned);
    expect_contents(move_assigned, n);
  }
}

TEST(SegmentedArray, GrowToZeroFills) {
  // Dirty the heap and the pool with segments of the same sizes, mapped
  // ones included (the last two are 2 and 4 MiB), so the array below grows
  // on recycled segments and must still read zeros.
  const std::size_t big = 2 * (util::kMappedBytes / 4);
  {
    util::SegmentedArray<std::uint32_t> dirty;
    for (std::size_t i = 0; i < big; ++i) dirty.push_back(0xffffffffu);
  }
  const std::size_t misses = util::PagePool::shared().stats().misses;
  util::SegmentedArray<std::uint32_t> a;
  a.push_back(7);
  std::size_t expected = 1;
  for (const std::size_t n : {std::size_t{3}, std::size_t{1000},
                              std::size_t{5000}, std::size_t{1000}, big}) {
    a.grow_to(n);
    expected = std::max(expected, n);  // never shrinks
    ASSERT_EQ(a.size(), expected);
  }
  EXPECT_EQ(util::PagePool::shared().stats().misses, misses)
      << "a segment was not recycled";
  EXPECT_EQ(a[0], 7u);
  for (std::size_t i = 1; i < a.size(); ++i) ASSERT_EQ(a[i], 0u) << i;
  a.push_back(9);
  EXPECT_EQ(a.back(), 9u);
}

TEST(SegmentedArray, RunThatWouldCrossASegmentLandsWholeInTheNext) {
  Seg a;
  for (std::size_t i = 0; i + 2 < kB; ++i) a.push_back(value_at(i));
  const std::vector<std::uint64_t> one{11};
  const std::vector<std::uint64_t> five{21, 22, 23, 24, 25};
  std::size_t begin = a.size();
  a.append_run(one);  // fits: one slot stays free in segment 0
  EXPECT_EQ(a.size(), kB - 1);
  auto r = a.run(begin, a.size());
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], 11u);
  EXPECT_EQ(r.data(), &a[kB - 2]);

  begin = a.size();
  a.append_run(five);  // does not fit in the last slot: starts segment 1
  EXPECT_EQ(a.size(), kB + 5);
  r = a.run(begin, a.size());
  ASSERT_EQ(r.size(), 5u);
  EXPECT_TRUE(std::equal(r.begin(), r.end(), five.begin()));
  EXPECT_EQ(r.data(), &a[kB]);
  EXPECT_EQ(a[kB - 1], 0u);  // the padding

  begin = a.size();
  a.append_run({});
  EXPECT_EQ(a.size(), begin);
  EXPECT_TRUE(a.run(begin, a.size()).empty());

  // A run longer than the next segment skips to one that holds it.
  const std::vector<std::uint64_t> long_run(5 * kB, 3);
  Seg b;
  b.push_back(1);
  begin = b.size();
  b.append_run(long_run);
  r = b.run(begin, b.size());
  ASSERT_EQ(r.size(), long_run.size());
  EXPECT_TRUE(std::equal(r.begin(), r.end(), long_run.begin()));
  EXPECT_EQ(b[0], 1u);
}

TEST(QuadHeap, PopsInSortedOrderWithEqualKeysAndDuplicates) {
  // Entries ordered by key alone; the tag tells equal keys apart, and a
  // third of the pushes repeat an entry already in the heap (identical
  // duplicates, like two repayments of one bucket at one instant). Pushes
  // and pops interleave so the heap grows and shrinks through every depth
  // up to a few thousand entries; each pop must be a least key, and an
  // entry that is there.
  struct Entry {
    std::uint64_t key;
    std::uint64_t tag;
    bool operator<(const Entry& o) const {
      return key != o.key ? key < o.key : tag < o.tag;
    }
  };
  struct ByKey {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.key < b.key;
    }
  };
  util::Xoshiro256 rng(31);
  for (const std::uint64_t keys : {std::uint64_t{1}, std::uint64_t{7},
                                   std::uint64_t{1} << 40}) {
    SCOPED_TRACE(testing::Message() << keys << " distinct keys");
    util::QuadHeap<Entry, ByKey> heap;
    std::multiset<Entry> ref;
    std::vector<Entry> pushed;
    std::size_t pops = 0;
    for (int step = 0; step < 40000; ++step) {
      const bool grow = (step / 5000) % 2 == 0;
      if (ref.empty() || rng.below(4) < (grow ? 3u : 1u)) {
        Entry e{rng.below(keys), rng()};
        if (!pushed.empty() && rng.below(3) == 0) {
          e = pushed[rng.below(pushed.size())];
        }
        pushed.push_back(e);
        heap.push(e);
        ref.insert(e);
      } else {
        ASSERT_EQ(heap.top().key, ref.begin()->key);
        const Entry e = heap.pop();
        ++pops;
        ASSERT_EQ(e.key, ref.begin()->key) << "pop " << pops;
        const auto it = ref.find(e);
        ASSERT_NE(it, ref.end()) << "popped an entry that was not there";
        ref.erase(it);
      }
      ASSERT_EQ(heap.size(), ref.size());
    }
    while (!ref.empty()) {
      const Entry e = heap.pop();
      ASSERT_EQ(e.key, ref.begin()->key);
      const auto it = ref.find(e);
      ASSERT_NE(it, ref.end());
      ref.erase(it);
    }
    EXPECT_TRUE(heap.empty());
    EXPECT_GT(pops, 10000u);
  }
}
