// QuadHeap: a 4-ary min-heap over a plain vector.
//
// Node i's children are 4i+1 .. 4i+4, so a heap of n entries is about
// log4 n levels deep, half as many as a binary heap's: a push climbs fewer
// levels, and a pop looks at four siblings that sit side by side in memory
// at each of half as many levels. Both move a hole rather than swapping.
//
// The order is the comparator's alone: entries that compare equal pop in
// an unspecified order, so a caller that needs one sequence gives every
// entry a unique key, or only ever holds equal entries that are identical.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace rpr::util {

/// Min-heap on `Before` (a strict weak order: Before(a, b) when a pops
/// first).
template <typename T, typename Before = std::less<T>>
class QuadHeap {
 public:
  [[nodiscard]] bool empty() const noexcept { return v_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return v_.size(); }
  /// The first entry in the order; the heap must not be empty.
  [[nodiscard]] const T& top() const { return v_.front(); }

  void push(const T& x) {
    std::size_t i = v_.size();
    v_.push_back(x);
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!before_(x, v_[parent])) break;
      v_[i] = v_[parent];
      i = parent;
    }
    v_[i] = x;
  }

  /// Removes and returns the first entry; the heap must not be empty.
  T pop() {
    const T first = v_.front();
    const T last = v_.back();
    v_.pop_back();
    const std::size_t n = v_.size();
    if (n == 0) return first;
    // Move the hole at the root down to where `last` belongs.
    std::size_t i = 0;
    for (;;) {
      const std::size_t child = kArity * i + 1;
      if (child >= n) break;
      const std::size_t end = child + kArity < n ? child + kArity : n;
      std::size_t least = child;
      for (std::size_t c = child + 1; c < end; ++c) {
        if (before_(v_[c], v_[least])) least = c;
      }
      if (!before_(v_[least], last)) break;
      v_[i] = v_[least];
      i = least;
    }
    v_[i] = last;
    return first;
  }

 private:
  static constexpr std::size_t kArity = 4;
  std::vector<T> v_;
  [[no_unique_address]] Before before_{};
};

}  // namespace rpr::util
