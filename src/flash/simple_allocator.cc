#include "flash/simple_allocator.h"

namespace gecko {

SimpleAllocator::SimpleAllocator(FlashDevice* device, BlockId first_block,
                                 uint32_t num_blocks, IoPurpose erase_purpose)
    : device_(device),
      first_block_(first_block),
      num_blocks_(num_blocks),
      erase_purpose_(erase_purpose),
      stripe_(device->geometry().num_channels),
      actives_(stripe_, kNullAddress),
      free_pool_(stripe_),
      live_count_(num_blocks, 0) {
  GECKO_CHECK_LE(uint64_t{first_block} + num_blocks,
                 device->geometry().num_blocks);
  for (uint32_t i = 0; i < num_blocks; ++i) {
    PushFreeBlock(first_block + i);
  }
}

bool SimpleAllocator::IsActiveBlock(BlockId block) const {
  for (const PhysicalAddress& a : actives_) {
    if (a.IsValid() && a.block == block) return true;
  }
  return false;
}

void SimpleAllocator::PushFreeBlock(BlockId block) {
  free_pool_.Push(block, device_->ChannelOf(block));
}

PhysicalAddress SimpleAllocator::AllocatePage(PageType type, uint32_t stream,
                                              uint8_t temp) {
  (void)type;
  GECKO_CHECK(temp == 0) << "SimpleAllocator keeps one temperature class";
  const uint32_t pages_per_block = device_->geometry().pages_per_block;
  uint32_t slot;
  if (stream != kNoStream) {
    slot = stream % stripe_;  // stream-affine: see PageAllocator
  } else {
    slot = next_slot_;
    next_slot_ = (next_slot_ + 1) % stripe_;
  }
  PhysicalAddress* active = &actives_[slot];
  if (!active->IsValid() || active->page >= pages_per_block) {
    BlockId retired = active->IsValid() ? active->block : kInvalidU32;
    GECKO_CHECK_GT(free_pool_.size(), 0u)
        << "SimpleAllocator out of blocks; enlarge the metadata region";
    *active = PhysicalAddress{free_pool_.Take(slot), 0};
    // Re-check a retiring active: it may have become fully invalid while
    // it was still the append target (skipped by EraseIfFullyInvalid).
    if (retired != kInvalidU32) EraseIfFullyInvalid(retired);
  }
  PhysicalAddress out = *active;
  ++active->page;
  ++live_count_[out.block - first_block_];
  return out;
}

void SimpleAllocator::OnMetadataPageInvalidated(PhysicalAddress addr) {
  GECKO_CHECK_GE(addr.block, first_block_);
  GECKO_CHECK_LT(addr.block, first_block_ + num_blocks_);
  uint32_t idx = addr.block - first_block_;
  GECKO_CHECK_GT(live_count_[idx], 0u)
      << "double invalidation of metadata page " << addr.ToString();
  --live_count_[idx];
  EraseIfFullyInvalid(addr.block);
}

void SimpleAllocator::EraseIfFullyInvalid(BlockId block) {
  uint32_t idx = block - first_block_;
  // An active block is never erased: its free tail is still needed.
  if (IsActiveBlock(block)) return;
  if (live_count_[idx] != 0) return;
  if (device_->PagesWritten(block) == 0) return;  // already free
  device_->EraseBlock(block, erase_purpose_);
  PushFreeBlock(block);
  ++blocks_erased_;
}

std::vector<BlockId> SimpleAllocator::NonFreeBlocks() const {
  std::vector<BlockId> out;
  for (uint32_t i = 0; i < num_blocks_; ++i) {
    if (device_->PagesWritten(first_block_ + i) > 0) {
      out.push_back(first_block_ + i);
    }
  }
  return out;
}

void SimpleAllocator::RecoverRamState(
    const std::vector<PhysicalAddress>& live_pages) {
  std::fill(live_count_.begin(), live_count_.end(), 0);
  free_pool_.Clear();
  std::fill(actives_.begin(), actives_.end(), kNullAddress);
  next_slot_ = 0;
  for (const PhysicalAddress& pa : live_pages) {
    GECKO_CHECK_GE(pa.block, first_block_);
    GECKO_CHECK_LT(pa.block, first_block_ + num_blocks_);
    ++live_count_[pa.block - first_block_];
  }
  for (uint32_t i = 0; i < num_blocks_; ++i) {
    BlockId block = first_block_ + i;
    if (device_->PagesWritten(block) == 0) {
      PushFreeBlock(block);
    } else if (live_count_[i] == 0) {
      // Only dead pages (e.g. a half-written run): reclaim immediately.
      device_->EraseBlock(block, erase_purpose_);
      PushFreeBlock(block);
      ++blocks_erased_;
    }
  }
  // Partially-written blocks with live pages are abandoned as append
  // targets; fresh active blocks are taken on the next allocations. Their
  // free tail pages are reclaimed when the block becomes fully invalid.
}

}  // namespace gecko
