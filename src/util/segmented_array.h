// SegmentedArray: an append-only array whose elements never move.
//
// Segment j holds kBase << j elements, so element i lives in segment
// bit_width((i >> log2 kBase) + 1) - 1 and the segments before it hold
// kBase * (2^j - 1). Growth adds the next segment and never copies or
// frees one: the array never holds two copies of its contents, and a
// reference to an element stays valid until the array dies.
//
// A segment of kPooledBytes (128 KiB) or more comes from util::PagePool
// and goes back to it, with the bytes the array used of it, when the array
// dies: the next array of the same shape reuses pages already faulted in.
// Smaller ones come from operator new, whose heap keeps them; in the pool
// their misses would evict cached blocks (docs/PERFORMANCE.md).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "util/pages.h"

namespace rpr::util {

template <typename T>
class SegmentedArray {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "SegmentedArray copies and frees its elements as bytes");
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

 public:
  /// Elements in segment 0: about 1 KiB of them, a power of two.
  static constexpr std::size_t kBase =
      std::bit_floor(std::max<std::size_t>(1, 1024 / sizeof(T)));

  /// Visits the elements in index order (range-for).
  class const_iterator {
   public:
    const T& operator*() const { return (*a_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }

   private:
    friend class SegmentedArray;
    const_iterator(const SegmentedArray* a, std::size_t i) : a_(a), i_(i) {}
    const SegmentedArray* a_;
    std::size_t i_;
  };

  SegmentedArray() = default;
  SegmentedArray(const SegmentedArray& o) : SegmentedArray() {
    for (std::size_t j = 0; j < o.segments_; ++j) {
      add_segment();
      const std::size_t n = std::min(capacity(j), o.size_ - start(j));
      std::memcpy(static_cast<void*>(seg_[j]), o.seg_[j], n * sizeof(T));
    }
    set_size(o.size_);
  }
  SegmentedArray(SegmentedArray&& o) noexcept
      : seg_(std::exchange(o.seg_, {})),
        segments_(std::exchange(o.segments_, 0)),
        size_(std::exchange(o.size_, 0)),
        tail_(std::exchange(o.tail_, nullptr)),
        tail_end_(std::exchange(o.tail_end_, nullptr)),
        tail_zeroed_(std::exchange(o.tail_zeroed_, false)) {}
  SegmentedArray& operator=(SegmentedArray o) noexcept {
    std::swap(seg_, o.seg_);
    std::swap(segments_, o.segments_);
    std::swap(size_, o.size_);
    std::swap(tail_, o.tail_);
    std::swap(tail_end_, o.tail_end_);
    std::swap(tail_zeroed_, o.tail_zeroed_);
    return *this;
  }
  ~SegmentedArray() {
    for (std::size_t j = 0; j < segments_; ++j) {
      if (!pooled(j)) {
        ::operator delete(seg_[j]);
        continue;
      }
      const std::size_t used = std::min(capacity(j), size_ - start(j));
      PagePool::shared().give(seg_[j], bytes(j), used * sizeof(T));
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] T& operator[](std::size_t i) noexcept { return *slot(i); }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return *slot(i);
  }
  [[nodiscard]] const T& back() const noexcept { return *slot(size_ - 1); }
  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, size_}; }

  void push_back(const T& v) {
    if (tail_ == tail_end_) add_segment();
    std::construct_at(tail_++, v);
    ++size_;
  }

  /// Appends value-initialized (zero) elements up to size `n`; no-op when
  /// the array already has `n`. A fresh mapped segment is already zero
  /// there, so only its pages that are read later get faulted in.
  void grow_to(std::size_t n)
    requires std::is_arithmetic_v<T>
  {
    while (size_ < n) {
      if (tail_ == tail_end_) add_segment();
      const std::size_t j = segment_of(size_);
      const std::size_t stop = std::min(n, start(j + 1));
      if (!tail_zeroed_) std::fill(slot(size_), slot(stop - 1) + 1, T{});
      set_size(stop);
    }
  }

  /// Appends `run` contiguously: when it does not fit in the room left in
  /// the last segment, that room is padded with T{} and the run starts a
  /// later segment. Read it back with run(size before, size after).
  void append_run(std::span<const T> run) { append(run); }
  /// The same for a run of another integer type, each element narrowed
  /// with static_cast: the caller checks that they fit.
  template <typename U>
    requires std::is_integral_v<U> && (!std::is_same_v<U, T>)
  void append_run(std::span<const U> run) {
    append(run);
  }

  /// The elements of the append_run call that took size() from `begin` to
  /// `end`, as one span (skipping the padding before them, if any).
  [[nodiscard]] std::span<const T> run(std::size_t begin,
                                       std::size_t end) const noexcept {
    if (begin == end) return {};
    const std::size_t first = std::max(begin, start(segment_of(end - 1)));
    return {slot(first), end - first};
  }

 private:
  static constexpr int kLog2Base = std::countr_zero(kBase);
  /// Enough segments for more elements than any machine can hold, and few
  /// enough that no segment's byte size overflows.
  static constexpr std::size_t kMaxSegments = 40;

  static constexpr std::size_t segment_of(std::size_t i) noexcept {
    return static_cast<std::size_t>(std::bit_width((i >> kLog2Base) + 1)) - 1;
  }
  /// Index of segment j's first element.
  static constexpr std::size_t start(std::size_t j) noexcept {
    return (kBase << j) - kBase;
  }
  static constexpr std::size_t capacity(std::size_t j) noexcept {
    return kBase << j;
  }
  static constexpr std::size_t bytes(std::size_t j) noexcept {
    return capacity(j) * sizeof(T);
  }

  static constexpr std::size_t kPooledBytes = std::size_t{128} << 10;
  static constexpr bool pooled(std::size_t j) noexcept {
    return bytes(j) >= kPooledBytes;
  }

  template <typename U>
  void append(std::span<const U> run) {
    if (run.empty()) return;
    for (;;) {
      if (tail_ == tail_end_) add_segment();
      const std::size_t end = start(segment_of(size_) + 1);
      if (end - size_ >= run.size()) break;
      std::fill(slot(size_), slot(end - 1) + 1, T{});
      set_size(end);
    }
    if constexpr (std::is_same_v<U, T>) {
      std::memcpy(static_cast<void*>(tail_), run.data(), run.size_bytes());
    } else {
      std::transform(run.begin(), run.end(), tail_,
                     [](U u) { return static_cast<T>(u); });
    }
    set_size(size_ + run.size());
  }

  T* slot(std::size_t i) const noexcept {
    const std::size_t j = segment_of(i);
    return seg_[j] + (i - start(j));
  }

  /// Adds the next segment; the array must be full.
  void add_segment() {
    if (segments_ == kMaxSegments) {
      throw std::length_error("SegmentedArray: too many elements");
    }
    const std::size_t j = segments_;
    const PagePool::Taken t = pooled(j)
                                  ? PagePool::shared().take(bytes(j))
                                  : PagePool::Taken{::operator new(bytes(j)),
                                                    false};
    seg_[j] = static_cast<T*>(t.data);
    tail_zeroed_ = t.zeroed;
    ++segments_;
    tail_ = seg_[j];
    tail_end_ = seg_[j] + capacity(j);
  }

  /// Sets the size to `n`, within the allocated segments.
  void set_size(std::size_t n) noexcept {
    size_ = n;
    tail_ = n == start(segments_) ? tail_end_ : slot(n);
  }

  std::array<T*, kMaxSegments> seg_{};
  std::size_t segments_ = 0;
  std::size_t size_ = 0;
  /// Where the next element goes, and the end of the last segment; equal
  /// when the array is full.
  T* tail_ = nullptr;
  T* tail_end_ = nullptr;
  /// The last segment is fresh mapped pages: its elements past size() read
  /// as zeros.
  bool tail_zeroed_ = false;
};

}  // namespace rpr::util
