// Block: the one owning buffer of block bytes, on recycled pages.
//
// A fresh block-sized buffer costs one page fault per 4 KiB page the first
// time it is written, which on a 16 MiB block is more than the GF work done
// on it, and std::vector writes every page once more to value-initialise
// it. A Block takes its pages from the process-wide util::PagePool
// (util/pages.h) and gives them back when it dies, so every layer that
// keeps blocks (the threaded executor's op values, the data executor's
// outputs, storage's slots and the objects get returns) reuses pages that
// are already faulted in, and nobody gives anything back by hand.
//
// Contract:
//  * Block::uninitialized(n) is the one way to take bytes without writing
//    them: the taker overwrites every byte it publishes (hot paths: put,
//    RSCode::evaluate, execute_on_data, the executor's values, get);
//  * every other constructor and resize() write every byte, as std::vector
//    does: the sized ones zero-fill, so recycled bytes never show;
//  * a copy is one pooled allocation plus one memcpy (copy_bytes, sharded
//    when large); a move steals the pages; clear() and destruction give
//    them back.
//
// Block is deliberately not std::vector<std::uint8_t, Allocator>: with any
// allocator but std::allocator, libstdc++ copies element by element, which
// made block copies several times slower (docs/PERFORMANCE.md).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <span>
#include <utility>

#include "util/pages.h"

namespace rpr::rs {

/// memcpy of `n` bytes; from 1 MiB up it is sharded over
/// util::ThreadPool::shared(), since one core cannot saturate memory.
void copy_bytes(std::uint8_t* dst, const std::uint8_t* src, std::size_t n);

/// An iterator over contiguous bytes: what a Block copies from.
template <typename It>
concept ByteIterator =
    std::contiguous_iterator<It> && sizeof(std::iter_value_t<It>) == 1;

/// A block payload. Blocks within one stripe all have the same size.
class Block {
 public:
  using value_type = std::uint8_t;
  using iterator = std::uint8_t*;
  using const_iterator = const std::uint8_t*;

  Block() noexcept = default;
  /// `size` zero bytes.
  explicit Block(std::size_t size) : Block(size, 0) {}
  Block(std::size_t size, std::uint8_t value) { assign(size, value); }
  template <ByteIterator It>
  Block(It first, It last) {
    assign(first, last);
  }

  /// `size` bytes with unspecified contents (recycled pages): the caller
  /// overwrites every byte before anyone reads it.
  [[nodiscard]] static Block uninitialized(std::size_t size) {
    Block b;
    (void)b.adopt(size);
    return b;
  }

  Block(const Block& o) : Block(o.begin(), o.end()) {}
  Block(Block&& o) noexcept
      : data_(std::exchange(o.data_, nullptr)),
        size_(std::exchange(o.size_, 0)) {}
  Block& operator=(const Block& o) {
    if (this != &o) assign(o.begin(), o.end());
    return *this;
  }
  Block& operator=(Block&& o) noexcept {
    if (this != &o) {
      release();
      data_ = std::exchange(o.data_, nullptr);
      size_ = std::exchange(o.size_, 0);
    }
    return *this;
  }
  ~Block() { release(); }

  [[nodiscard]] std::uint8_t* data() noexcept { return data_; }
  [[nodiscard]] const std::uint8_t* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] iterator begin() noexcept { return data_; }
  [[nodiscard]] iterator end() noexcept { return data_ + size_; }
  [[nodiscard]] const_iterator begin() const noexcept { return data_; }
  [[nodiscard]] const_iterator end() const noexcept { return data_ + size_; }
  std::uint8_t& operator[](std::size_t i) noexcept { return data_[i]; }
  const std::uint8_t& operator[](std::size_t i) const noexcept {
    return data_[i];
  }

  /// Gives the pages back; the block is empty.
  void clear() noexcept { release(); }

  /// Keeps the first min(old, new) size bytes; added bytes are zeros.
  void resize(std::size_t size) {
    if (size == size_) return;
    if (size == 0) return clear();
    Block b;
    const bool zeroed = b.adopt(size);
    const std::size_t kept = std::min(size, size_);
    copy_bytes(b.data_, data_, kept);
    if (!zeroed) std::memset(b.data_ + kept, 0, size - kept);
    *this = std::move(b);
  }

  void assign(std::size_t size, std::uint8_t value) {
    const bool zeroed = reshape(size);
    if (size != 0 && (value != 0 || !zeroed)) std::memset(data_, value, size);
  }
  template <ByteIterator It>
  void assign(It first, It last) {
    const auto n = static_cast<std::size_t>(last - first);
    if (n == 0) return clear();
    const auto* src =
        reinterpret_cast<const std::uint8_t*>(std::to_address(first));
    const auto at = reinterpret_cast<std::uintptr_t>(src);
    const auto mine = reinterpret_cast<std::uintptr_t>(data_);
    if (at >= mine && at < mine + size_) {  // a range of this block
      *this = Block(first, last);
      return;
    }
    (void)reshape(n);
    copy_bytes(data_, src, n);
  }

  friend bool operator==(const Block& a, const Block& b) noexcept {
    return equal(a, b);
  }
  friend bool operator==(const Block& a,
                         std::span<const std::uint8_t> b) noexcept {
    return equal(a, b);
  }

 private:
  static bool equal(std::span<const std::uint8_t> a,
                    std::span<const std::uint8_t> b) noexcept {
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
  }

  /// Owns `size` bytes from the pool, giving the old pages back. True when
  /// they are fresh pages that read as zeros.
  bool adopt(std::size_t size) {
    release();
    if (size == 0) return true;
    const util::PagePool::Taken t = util::PagePool::shared().take(size);
    data_ = static_cast<std::uint8_t*>(t.data);
    size_ = size;
    return t.zeroed;
  }
  /// Holds exactly `size` bytes, keeping the pages when the size matches.
  /// True when they are fresh pages that read as zeros.
  bool reshape(std::size_t size) { return size != size_ && adopt(size); }
  void release() noexcept {
    if (data_ != nullptr) util::PagePool::shared().give(data_, size_, size_);
    data_ = nullptr;
    size_ = 0;
  }

  std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace rpr::rs
