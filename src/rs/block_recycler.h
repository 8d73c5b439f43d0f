// BlockRecycler: the one process-wide cache of block buffers.
//
// A fresh block-sized buffer costs one page fault per 4 KiB page the first
// time it is written, which on a 16 MiB block is more than the GF work done
// on it. Every layer that keeps blocks therefore takes them from, and gives
// them back to, this cache:
//
//  * the threaded executor (runtime/exec_state.h) for its op values;
//  * repair::execute_on_data for the values it returns;
//  * storage::StorageSystem for the n+k blocks of every put, giving them
//    back when a node is wiped and when the system is destroyed.
//
// Contract: one size class and no cap. Asking for another size drops the
// cache, so it never retains more than the largest set of same-size blocks
// that were live at once, provided every block given back was also taken
// here. A taken block's contents are unspecified: the taker overwrites
// every byte it publishes. A miss allocates with transparent-huge-page
// advice (reserve_huge), so even a first use faults its pages in 2 MiB at
// a time where the kernel allows it.
#pragma once

#include <cstddef>
#include <mutex>
#include <span>
#include <vector>

#include "rs/rs_code.h"

namespace rpr::rs {

/// Reserves `size` bytes of capacity in the empty `block` and advises
/// transparent huge pages on that capacity (util::advise_huge_pages), so
/// the bytes written next fault in 2 MiB at a time. The size stays 0.
void reserve_huge(Block& block, std::size_t size);

class BlockRecycler {
 public:
  static BlockRecycler& shared();

  /// A block of `size` bytes with unspecified contents (empty for 0).
  [[nodiscard]] Block take(std::size_t size);

  /// Takes back every block of `blocks` whose size is the current size
  /// class, leaving it empty; the rest stay with the caller (and are freed
  /// with it). Empty blocks are never kept.
  void give(std::span<Block> blocks);

 private:
  std::mutex mu_;
  std::size_t size_ = 0;
  std::vector<Block> free_;
};

}  // namespace rpr::rs
