#include "rs/block.h"

#include "util/thread_pool.h"

namespace rpr::rs {

void copy_bytes(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  constexpr std::size_t kShardBytes = std::size_t{1} << 20;
  if (n < kShardBytes) {
    if (n != 0) std::memcpy(dst, src, n);
    return;
  }
  util::ThreadPool::shared().parallel_for(
      n, 64, kShardBytes / 2, [&](std::size_t begin, std::size_t end) {
        std::memcpy(dst + begin, src + begin, end - begin);
      });
}

}  // namespace rpr::rs
