// Page-level memory: whole anonymous mappings and transparent-huge-page
// advice, the one place that knows how the platform hands out pages.
//
// A first touch of a fresh 4 KiB page costs a page fault; touching a large
// buffer 2 MiB at a time costs 512 times fewer. Big buffers that are
// written once and kept (storage blocks, the simulator's task store) ask
// for huge pages here.
#pragma once

#include <cstddef>

namespace rpr::util {

/// Advises transparent huge pages on the 2 MiB-aligned interior of
/// [p, p + bytes), so the bytes written next fault in 2 MiB at a time.
/// Advice only: where the platform lacks it, THP is off or the range is
/// not anonymous memory, the pages stay 4 KiB.
void advise_huge_pages(void* p, std::size_t bytes) noexcept;

/// `bytes` of zero-filled memory that is faulted in on first touch,
/// huge-page advised, and returned to the system by unmap_pages: an
/// anonymous mapping on Linux, calloc elsewhere. Throws std::bad_alloc
/// when the system refuses.
[[nodiscard]] void* map_pages(std::size_t bytes);

/// Releases memory from map_pages(bytes); `bytes` must match.
void unmap_pages(void* p, std::size_t bytes) noexcept;

}  // namespace rpr::util
