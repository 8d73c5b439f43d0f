#include "util/pages.h"

#include <cstdint>
#include <cstdlib>
#include <new>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace rpr::util {

namespace {
constexpr std::uintptr_t kHugePage = std::uintptr_t{2} << 20;
}  // namespace

void advise_huge_pages(void* p, std::size_t bytes) noexcept {
#ifdef MADV_HUGEPAGE
  const auto begin = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t lo = (begin + kHugePage - 1) & ~(kHugePage - 1);
  const std::uintptr_t hi = (begin + bytes) & ~(kHugePage - 1);
  if (hi > lo) {
    (void)madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_HUGEPAGE);
  }
#else
  (void)p;
  (void)bytes;
#endif
}

#if defined(__linux__)

void* map_pages(std::size_t bytes) {
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  advise_huge_pages(p, bytes);
  return p;
}

void unmap_pages(void* p, std::size_t bytes) noexcept {
  if (p != nullptr) munmap(p, bytes);
}

#else

void* map_pages(std::size_t bytes) {
  void* p = std::calloc(bytes, 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void unmap_pages(void* p, std::size_t /*bytes*/) noexcept { std::free(p); }

#endif

}  // namespace rpr::util
