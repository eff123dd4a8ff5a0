// Per-channel free-block pool shared by every channel-striped allocator
// (BlockManager, SimpleAllocator, PvmDriver).
//
// Blocks are pooled by the channel they live on. Taking prefers the
// requested channel and steals from the richest channel when that pool
// runs dry — striping is best-effort; running out of space while free
// blocks remain elsewhere is not an option. The caller supplies each
// block's channel (Geometry::ChannelOf) so the pool stays free of device
// dependencies.

#ifndef GECKOFTL_FLASH_STRIPED_FREE_POOL_H_
#define GECKOFTL_FLASH_STRIPED_FREE_POOL_H_

#include <deque>
#include <vector>

#include "flash/geometry.h"
#include "flash/types.h"
#include "util/check.h"

namespace gecko {

class StripedFreePool {
 public:
  explicit StripedFreePool(uint32_t num_channels) : pools_(num_channels) {
    GECKO_CHECK_GE(num_channels, 1u);
  }

  /// Returns `block` (resident on `channel`) to the pool.
  void Push(BlockId block, ChannelId channel) {
    pools_[channel].push_back(block);
    ++size_;
  }

  /// Pops a free block, preferring channel `preferred`, stealing from the
  /// richest channel otherwise. Aborts when the pool is empty — callers
  /// gate on size() / run GC first.
  BlockId Take(ChannelId preferred) {
    GECKO_CHECK_GT(size_, 0u) << "free pool exhausted";
    std::deque<BlockId>* pool = &pools_[preferred];
    if (pool->empty()) {
      size_t best = 0;
      for (auto& candidate : pools_) {
        if (candidate.size() > best) {
          best = candidate.size();
          pool = &candidate;
        }
      }
    }
    BlockId block = pool->front();
    pool->pop_front();
    --size_;
    return block;
  }

  /// Free blocks across all channels.
  uint32_t size() const { return size_; }

  /// Drops every pooled block (power-failure recovery).
  void Clear() {
    for (auto& pool : pools_) pool.clear();
    size_ = 0;
  }

 private:
  std::vector<std::deque<BlockId>> pools_;
  uint32_t size_ = 0;
};

}  // namespace gecko

#endif  // GECKOFTL_FLASH_STRIPED_FREE_POOL_H_
