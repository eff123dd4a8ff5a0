// Stand-alone page allocator for experiments that run a page-validity
// structure without a full FTL (the Section 5.1/5.2 comparisons).
//
// It owns a contiguous range of device blocks, appends pages of one type,
// tracks per-block live-page counts, and erases a block as soon as all of
// its pages are obsolete (GeckoFTL's metadata-block policy, Section 4.2).
//
// Like the FTL's BlockManager, the allocator is channel-striped: it keeps
// one active append block per channel and round-robins allocations across
// them, so batched metadata writes (PVB chunk commits, Gecko run flushes)
// fan out over the channel-parallel device. One channel = the classic
// single-active behaviour.

#ifndef GECKOFTL_FLASH_SIMPLE_ALLOCATOR_H_
#define GECKOFTL_FLASH_SIMPLE_ALLOCATOR_H_

#include <vector>

#include "flash/flash_device.h"
#include "flash/page_allocator.h"
#include "flash/striped_free_pool.h"

namespace gecko {

/// Append-only allocator over the block range [first_block, first_block +
/// num_blocks). Aborts when it runs out of free blocks, so experiments must
/// size the range generously (metadata occupies ~0.1% of a real device).
class SimpleAllocator : public PageAllocator {
 public:
  SimpleAllocator(FlashDevice* device, BlockId first_block, uint32_t num_blocks,
                  IoPurpose erase_purpose = IoPurpose::kPvm);

  PhysicalAddress AllocatePage(PageType type, uint32_t stream = kNoStream,
                               uint8_t temp = 0) override;
  void OnMetadataPageInvalidated(PhysicalAddress addr) override;

  /// Blocks currently holding at least one written page (for recovery scans).
  std::vector<BlockId> NonFreeBlocks() const;

  uint32_t num_free_blocks() const { return free_pool_.size(); }
  uint64_t blocks_erased() const { return blocks_erased_; }

  /// Drops and rebuilds the allocator's RAM bookkeeping after a power
  /// failure. `live_pages` lists every metadata page that is still live;
  /// all other written pages in the allocator's range count as invalid.
  void RecoverRamState(const std::vector<PhysicalAddress>& live_pages);

 private:
  void EraseIfFullyInvalid(BlockId block);
  bool IsActiveBlock(BlockId block) const;
  void PushFreeBlock(BlockId block);

  FlashDevice* device_;
  BlockId first_block_;
  uint32_t num_blocks_;
  IoPurpose erase_purpose_;
  uint32_t stripe_;  // active slots = geometry.num_channels
  /// Next page to hand out, per channel slot.
  std::vector<PhysicalAddress> actives_;
  uint32_t next_slot_ = 0;  // round-robin cursor for stream-less pages
  StripedFreePool free_pool_;
  std::vector<uint32_t> live_count_;  // per owned block, indexed from 0
  uint64_t blocks_erased_ = 0;
};

}  // namespace gecko

#endif  // GECKOFTL_FLASH_SIMPLE_ALLOCATOR_H_
