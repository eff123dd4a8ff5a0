#include "ftl/block_manager.h"

#include <algorithm>

namespace gecko {

BlockManager::BlockManager(FlashDevice* device, bool auto_erase_metadata)
    : device_(device),
      auto_erase_metadata_(auto_erase_metadata),
      bad_blocks_(device),
      stripe_(device->geometry().num_channels),
      block_type_(device->geometry().num_blocks, PageType::kFree),
      block_temp_(device->geometry().num_blocks, 0),
      meta_live_(device->geometry().num_blocks, 0),
      free_pool_(stripe_),
      active_refs_(device->geometry().num_blocks, 0) {
  for (BlockId b = 0; b < device->geometry().num_blocks; ++b) {
    PushFreeBlock(b);  // refuses factory-bad blocks
  }
  for (auto& actives : actives_) actives.assign(stripe_, kNullAddress);
}

void BlockManager::ConfigureTempClasses(uint32_t num_classes) {
  GECKO_CHECK_GE(num_classes, 1u);
  GECKO_CHECK(std::all_of(active_refs_.begin(), active_refs_.end(),
                          [](uint8_t refs) { return refs == 0; }))
      << "temperature classes must be configured before the first allocation";
  temp_classes_ = num_classes;
  actives_[static_cast<int>(PageType::kUser)].assign(
      uint64_t{temp_classes_} * stripe_, kNullAddress);
  user_next_slot_.assign(temp_classes_, 0);
}

void BlockManager::SetActive(PhysicalAddress& slot, PhysicalAddress value) {
  if (slot.IsValid()) {
    GECKO_CHECK_GT(active_refs_[slot.block], 0u);
    --active_refs_[slot.block];
  }
  if (value.IsValid()) ++active_refs_[value.block];
  const PhysicalAddress old = slot;
  slot = value;
  if (old.IsValid()) Changed(old.block);
  if (value.IsValid() && value.block != old.block) Changed(value.block);
}

std::vector<PhysicalAddress>& BlockManager::ActivesFor(PageType type) {
  GECKO_CHECK(type != PageType::kFree)
      << "no active block for type " << PageTypeName(type);
  return actives_[static_cast<int>(type)];
}

void BlockManager::PushFreeBlock(BlockId block) {
  // Retired blocks are free in the type maps but never usable: every path
  // that refills the pool (construction, BID recovery, post-erase) funnels
  // through here, so one check keeps bad blocks out of circulation.
  if (device_->IsBadBlock(block)) return;
  free_pool_.Push(block, device_->ChannelOf(block));
}

PhysicalAddress BlockManager::AllocatePage(PageType type, uint32_t stream,
                                           uint8_t temp) {
  std::vector<PhysicalAddress>& actives = ActivesFor(type);
  const bool user = type == PageType::kUser;
  if (!user) temp = 0;  // metadata groups have a single class
  GECKO_CHECK_LT(temp, user ? temp_classes_ : 1u);
  // One temperature class owns one contiguous band of `stripe_` slots;
  // every placement rule below stays inside the class's band, so blocks
  // never mix classes. With one class the band is the whole group — the
  // pre-separation layout exactly.
  const uint32_t base = user ? uint32_t{temp} * stripe_ : 0;
  uint32_t* cursor =
      user ? &user_next_slot_[temp] : &next_slot_[static_cast<int>(type)];
  const uint32_t pages = device_->geometry().pages_per_block;
  uint32_t slot;
  if (compact_mode_) {
    // GC: top up the fullest open active (fewest free pages) to finish
    // blocks instead of opening new ones across the stripe. Consecutive
    // allocations keep hitting the same slot until it fills, so streams
    // written during GC stay contiguous.
    slot = base + *cursor;
    uint32_t best_free = pages + 1;
    for (uint32_t s = 0; s < stripe_; ++s) {
      const PhysicalAddress& a = actives[base + s];
      if (!a.IsValid() || a.page >= pages) continue;
      uint32_t free = pages - a.page;
      if (free < best_free) {
        best_free = free;
        slot = base + s;
      }
    }
  } else if (stream != kNoStream) {
    // Stream-affine placement: one stream, one slot (see PageAllocator).
    slot = base + stream % stripe_;
  } else {
    slot = base + *cursor;
    *cursor = (*cursor + 1) % stripe_;
  }
  PhysicalAddress* active = &actives[slot];
  const uint32_t pages_per_block = device_->geometry().pages_per_block;
  if (!active->IsValid() || active->page >= pages_per_block) {
    BlockId retired = active->IsValid() ? active->block : kInvalidU32;
    GECKO_CHECK_GT(free_pool_.size(), 0u)
        << "device out of free blocks; GC must run before allocation";
    BlockId block = free_pool_.Take(slot - base);
    if (free_pool_.size() < free_pool_low_) free_pool_low_ = free_pool_.size();
#ifdef GECKO_DEBUG_GC_GROUND_TRUTH
    GECKO_CHECK(block_type_[block] == PageType::kFree)
        << "allocating non-free block " << block << " (type "
        << PageTypeName(block_type_[block]) << ") as "
        << PageTypeName(type);
    GECKO_CHECK_EQ(device_->PagesWritten(block), 0u)
        << "allocating block " << block << " with written pages";
#endif
    block_type_[block] = type;
    block_temp_[block] = temp;
    SetActive(*active, PhysicalAddress{block, 0});
    // A metadata block can become fully invalid while it is still the
    // active append target (stream-affine placement makes this common: a
    // block's own later pages supersede its earlier ones). The erase
    // check skipped it then; re-check now that it has retired.
    if (auto_erase_metadata_ && retired != kInvalidU32 &&
        type != PageType::kUser) {
      MaybeEraseMetadataBlock(retired);
    }
  }
  PhysicalAddress out = *active;
  ++active->page;
  if (type != PageType::kUser) {
    ++meta_live_[out.block];
  }
  return out;
}

void BlockManager::OnMetadataPageInvalidated(PhysicalAddress addr) {
  GECKO_CHECK(block_type_[addr.block] == PageType::kTranslation ||
              block_type_[addr.block] == PageType::kPvm)
      << "metadata invalidation on non-metadata block " << addr.ToString();
  GECKO_CHECK_GT(meta_live_[addr.block], 0u);
  --meta_live_[addr.block];
  Changed(addr.block);
  if (auto_erase_metadata_) MaybeEraseMetadataBlock(addr.block);
}

void BlockManager::OnProgramFailed(PhysicalAddress addr) {
  // A failed metadata program consumed a page AllocatePage counted live;
  // it holds nothing and will never be invalidated, so uncount it.
  PageType type = block_type_[addr.block];
  if (type == PageType::kTranslation || type == PageType::kPvm) {
    GECKO_CHECK_GT(meta_live_[addr.block], 0u);
    --meta_live_[addr.block];
    Changed(addr.block);
  }
  bad_blocks_.OnProgramFailed(addr.block);
  if (!bad_blocks_.ShouldRetire(addr.block)) return;
  // The block crossed its fail budget: stop appending to it. Live pages
  // stay readable; EraseOrRetire finishes the job when GC (or the
  // fully-invalid-metadata policy) reclaims the block.
  for (auto& actives : actives_) {
    for (PhysicalAddress& a : actives) {
      if (a.IsValid() && a.block == addr.block) SetActive(a, kNullAddress);
    }
  }
  // Vacating the slot skips the usual retire-time re-check; a fully
  // invalid metadata block would otherwise leak until shutdown.
  if (auto_erase_metadata_ &&
      (type == PageType::kTranslation || type == PageType::kPvm)) {
    MaybeEraseMetadataBlock(addr.block);
  }
}

IoPurpose BlockManager::ErasePurposeFor(PageType type) const {
  return type == PageType::kTranslation ? IoPurpose::kTranslation
                                        : IoPurpose::kPvm;
}

void BlockManager::MaybeEraseMetadataBlock(BlockId block) {
  // Section 4.2: metadata blocks are never GC victims; they are erased for
  // free once every page is invalid. The active block and pinned blocks
  // (holding previous translation-page versions, Appendix C.2.2) wait.
  if (meta_live_[block] != 0) return;
  if (IsActive(block) || IsPinned(block)) return;
  if (device_->PagesWritten(block) == 0) return;
  if (EraseOrRetire(block, ErasePurposeFor(block_type_[block]))) {
    ++metadata_blocks_erased_;
  }
}

bool BlockManager::EraseOrRetire(BlockId block, IoPurpose purpose) {
  if (bad_blocks_.ShouldRetire(block)) {
    // Marked for retirement (fail budget exhausted) — or already retired
    // in the medium. No erase attempt; the block leaves circulation.
    device_->RetireBlock(block);
    bad_blocks_.OnBlockRetired(block);
    block_type_[block] = PageType::kFree;
    block_temp_[block] = 0;
    meta_live_[block] = 0;
    Changed(block);
    return false;
  }
  if (!device_->TryEraseBlock(block, purpose)) {
    // Erase fault: the device retired the block.
    bad_blocks_.OnBlockRetired(block);
    block_type_[block] = PageType::kFree;
    block_temp_[block] = 0;
    meta_live_[block] = 0;
    Changed(block);
    return false;
  }
  bad_blocks_.OnBlockErased(block);
  OnBlockErased(block);
  return true;
}

void BlockManager::Pin(BlockId block, uint64_t seq) {
  auto it = pinned_.find(block);
  if (it == pinned_.end()) {
    pinned_.emplace(block, seq);
    Changed(block);
  } else if (it->second < seq) {
    it->second = seq;
  }
}

void BlockManager::UnpinThrough(uint64_t seq) {
  for (auto it = pinned_.begin(); it != pinned_.end();) {
    if (it->second <= seq) {
      BlockId block = it->first;
      it = pinned_.erase(it);
      Changed(block);
      // The pin may have been the only thing delaying an erase.
      if (auto_erase_metadata_ && block_type_[block] != PageType::kUser &&
          block_type_[block] != PageType::kFree) {
        MaybeEraseMetadataBlock(block);
      }
    } else {
      ++it;
    }
  }
}

void BlockManager::OnBlockErased(BlockId block) {
  block_type_[block] = PageType::kFree;
  block_temp_[block] = 0;
  meta_live_[block] = 0;
  PushFreeBlock(block);
  Changed(block);
}

std::vector<BlockId> BlockManager::BlocksOfType(PageType type) const {
  std::vector<BlockId> out;
  for (BlockId b = 0; b < block_type_.size(); ++b) {
    if (block_type_[b] == type) out.push_back(b);
  }
  return out;
}

void BlockManager::ResetRamState() {
  std::fill(block_type_.begin(), block_type_.end(), PageType::kFree);
  std::fill(block_temp_.begin(), block_temp_.end(), uint8_t{0});
  std::fill(meta_live_.begin(), meta_live_.end(), 0u);
  free_pool_.Clear();
  for (auto& actives : actives_) {
    for (PhysicalAddress& a : actives) SetActive(a, kNullAddress);
  }
  next_slot_.fill(0);
  std::fill(user_next_slot_.begin(), user_next_slot_.end(), 0u);
  pinned_.clear();
  compact_mode_ = false;
  // Pending retirement marks are lost with the RAM; blocks already retired
  // persist in the medium and PushFreeBlock keeps refusing them.
  bad_blocks_.ResetRamState();
  for (BlockId b = 0; b < block_type_.size(); ++b) Changed(b);
}

void BlockManager::RecoverFromBid(const std::vector<BidEntry>& bid) {
  GECKO_CHECK_EQ(bid.size(), block_type_.size());
  struct Partial {
    BlockId block = kInvalidU32;
    uint64_t first_seq = 0;
  };
  // One candidate partial block per active slot — (group, channel) for
  // metadata, (temperature class, channel) for the user group; the
  // channel is the block's own, so a resumed active keeps its IO on the
  // channel it already lives on.
  std::array<std::vector<Partial>, 4> partial_of;
  for (size_t g = 0; g < partial_of.size(); ++g) {
    partial_of[g].assign(g == static_cast<size_t>(PageType::kUser)
                             ? uint64_t{temp_classes_} * stripe_
                             : stripe_,
                         Partial{});
  }
  for (BlockId b = 0; b < bid.size(); ++b) {
    const BidEntry& e = bid[b];
    block_type_[b] = e.type;
    Changed(b);
    if (e.type == PageType::kFree) {
      PushFreeBlock(b);
      continue;
    }
    uint8_t temp = 0;
    if (e.type == PageType::kUser) {
      // Clamp defensively: a BID written under a larger class count must
      // still land inside the configured slot range.
      temp = e.temp < temp_classes_
                 ? e.temp
                 : static_cast<uint8_t>(temp_classes_ - 1);
      block_temp_[b] = temp;
    }
    if (e.pages_written < device_->geometry().pages_per_block) {
      // Normal operation leaves at most one partial block per slot (the
      // crash-time active); keep the newest in case an abandoned partial
      // lingers from a previous crash or a cross-channel steal.
      uint32_t slot = (e.type == PageType::kUser ? uint32_t{temp} * stripe_
                                                 : 0) +
                      device_->ChannelOf(b);
      Partial& p = partial_of[static_cast<int>(e.type)][slot];
      if (p.block == kInvalidU32 || e.first_seq > p.first_seq) {
        p = Partial{b, e.first_seq};
      }
    }
  }
  for (PageType type :
       {PageType::kUser, PageType::kTranslation, PageType::kPvm}) {
    std::vector<PhysicalAddress>& actives = ActivesFor(type);
    const std::vector<Partial>& partials = partial_of[static_cast<int>(type)];
    for (uint32_t slot = 0; slot < partials.size(); ++slot) {
      const Partial& p = partials[slot];
      if (p.block != kInvalidU32) {
        SetActive(actives[slot],
                  PhysicalAddress{p.block, device_->PagesWritten(p.block)});
      }
    }
  }
}

void BlockManager::RecoverMetadataLiveCounts(
    const std::vector<PhysicalAddress>& live) {
  for (const PhysicalAddress& addr : live) {
    GECKO_CHECK(block_type_[addr.block] == PageType::kTranslation ||
                block_type_[addr.block] == PageType::kPvm);
    ++meta_live_[addr.block];
    Changed(addr.block);
  }
}

}  // namespace gecko
