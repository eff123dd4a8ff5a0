// Grown-bad-block bookkeeping, tracked alongside the BlockManager.
//
// The medium itself is the crash-durable bad-block table: FlashDevice
// persists the retired flag across power failure exactly like firmware's
// OOB bad-block marks, so recovery "rebuilds" the table simply by asking
// the device (BlockManager::PushFreeBlock refuses retired blocks and the
// BID scan classifies them free-but-unusable). What lives here is the RAM
// side: per-block program-fail counts since the block's last successful
// erase, and the retirement policy on top of them.
//
// Retirement has two triggers:
//   - an erase fault retires the block immediately (the device does it;
//     the block held no live data, since erases only run after GC
//     migration or on fully-invalid metadata blocks);
//   - a block whose program-fail count reaches `retire_fail_threshold`
//     is *marked* for retirement: the allocator stops appending to it,
//     live pages stay readable, and the next EraseOrRetire on it retires
//     instead of erasing (mark-then-reclaim, like real firmware).
//
// Fail counts are volatile and reset by a crash: a pending mark is lost,
// which is safe — the block either fails programs again and is re-marked,
// or it behaves and stays in service.

#ifndef GECKOFTL_FTL_BAD_BLOCK_MANAGER_H_
#define GECKOFTL_FTL_BAD_BLOCK_MANAGER_H_

#include <cstdint>
#include <unordered_map>

#include "flash/flash_device.h"
#include "flash/types.h"

namespace gecko {

class BadBlockManager {
 public:
  explicit BadBlockManager(FlashDevice* device,
                           uint32_t retire_fail_threshold = 3)
      : device_(device),
        retire_fail_threshold_(retire_fail_threshold),
        factory_bad_(device->NumBadBlocks()) {}

  /// A program on `block` failed (page consumed and bad).
  void OnProgramFailed(BlockId block) { ++fail_counts_[block]; }

  /// Whether `block` should be retired instead of erased: already retired
  /// in the medium, or its fail count reached the threshold.
  bool ShouldRetire(BlockId block) const {
    if (device_->IsBadBlock(block)) return true;
    auto it = fail_counts_.find(block);
    return it != fail_counts_.end() &&
           it->second >= retire_fail_threshold_;
  }

  /// A successful erase proves the block still takes programs: clear its
  /// fail count.
  void OnBlockErased(BlockId block) { fail_counts_.erase(block); }

  /// The block was retired in the medium; drop its RAM state.
  void OnBlockRetired(BlockId block) { fail_counts_.erase(block); }

  /// Retired blocks in the medium: factory-marked + grown.
  uint32_t NumBadBlocks() const { return device_->NumBadBlocks(); }
  /// Blocks retired since the device shipped (grown bad).
  uint32_t GrownBadBlocks() const {
    return device_->NumBadBlocks() - factory_bad_;
  }

  /// Power failure: the RAM fail counts are lost. The retired set itself
  /// persists in the medium and needs no rebuild.
  void ResetRamState() { fail_counts_.clear(); }

 private:
  FlashDevice* device_;
  uint32_t retire_fail_threshold_;
  uint32_t factory_bad_;
  std::unordered_map<BlockId, uint32_t> fail_counts_;
};

}  // namespace gecko

#endif  // GECKOFTL_FTL_BAD_BLOCK_MANAGER_H_
