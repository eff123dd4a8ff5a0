#include "sim/pvm_driver.h"

namespace gecko {

PvmDriver::PvmDriver(FlashDevice* device, PageValidityStore* store,
                     uint32_t user_blocks, double logical_ratio)
    : device_(device),
      store_(store),
      user_blocks_(user_blocks),
      invalid_count_(user_blocks, 0),
      free_pool_(device->geometry().num_channels),
      actives_(device->geometry().num_channels, kNullAddress) {
  const Geometry& g = device->geometry();
  GECKO_CHECK_LE(user_blocks, g.num_blocks);
  num_lpns_ = static_cast<uint64_t>(uint64_t{user_blocks} *
                                    g.pages_per_block * logical_ratio);
  GECKO_CHECK_GT(num_lpns_, 0u);
  mapping_.assign(num_lpns_, kNullAddress);
  reverse_.assign(uint64_t{user_blocks} * g.pages_per_block, kInvalidU32);
  oracle_.reserve(user_blocks);
  for (uint32_t b = 0; b < user_blocks; ++b) {
    oracle_.emplace_back(g.pages_per_block);
    free_pool_.Push(b, device->ChannelOf(b));
  }
}

bool PvmDriver::IsActiveBlock(BlockId block) const {
  for (const PhysicalAddress& a : actives_) {
    if (a.IsValid() && a.block == block) return true;
  }
  return false;
}

PhysicalAddress PvmDriver::Allocate() {
  const uint32_t pages_per_block = device_->geometry().pages_per_block;
  uint32_t slot = next_slot_;
  next_slot_ = (next_slot_ + 1) % static_cast<uint32_t>(actives_.size());
  PhysicalAddress* active = &actives_[slot];
  if (!active->IsValid() || active->page >= pages_per_block) {
    *active = PhysicalAddress{free_pool_.Take(slot), 0};
  }
  PhysicalAddress out = *active;
  ++active->page;
  return out;
}

void PvmDriver::WriteLpn(Lpn lpn) {
  EnsureFreeBlocks();
  PhysicalAddress ppa = Allocate();
  SpareArea spare;
  spare.type = PageType::kUser;
  spare.key = lpn;
  device_->WritePage(ppa, spare, lpn, IoPurpose::kUserWrite);
  reverse_[device_->FlatIndex(ppa)] = lpn;

  PhysicalAddress old = mapping_[lpn];
  mapping_[lpn] = ppa;
  if (old.IsValid()) {
    // Invalidation of the before-image: the store update under test.
    store_->RecordInvalidPage(old);
    ++updates_issued_;
    oracle_[old.block].Set(old.page);
    ++invalid_count_[old.block];
  }
}

void PvmDriver::Fill() {
  for (uint64_t lpn = 0; lpn < num_lpns_; ++lpn) {
    WriteLpn(static_cast<Lpn>(lpn));
  }
}

void PvmDriver::RunUpdates(uint64_t count, Workload& workload) {
  for (uint64_t i = 0; i < count; ++i) {
    device_->stats().OnLogicalWrite();
    WriteLpn(workload.NextLpn());
  }
}

void PvmDriver::EnsureFreeBlocks() {
  while (free_pool_.size() < 2) CollectOne();
}

void PvmDriver::CollectOne() {
  const uint32_t pages_per_block = device_->geometry().pages_per_block;
  // Victim selection through the shared policy scan (greedy: fewest valid
  // pages == most invalid pages on full blocks), restricted to full,
  // non-active, reclaimable blocks — the same helper the FTLs use, so the
  // microbenchmark's GC cannot drift from theirs.
  BlockId victim = SelectGcVictim(
      user_blocks_, victim_policy_, [&](BlockId b, GcVictimCandidate* c) {
        if (IsActiveBlock(b)) return false;
        if (device_->PagesWritten(b) < pages_per_block) return false;
        if (invalid_count_[b] == 0) return false;
        c->valid = pages_per_block - invalid_count_[b];
        c->written = pages_per_block;
        c->pages_per_block = pages_per_block;
        c->channel_busy_until_us =
            device_->ChannelBusyUntilUs(device_->ChannelOf(b));
        return true;
      });
  GECKO_CHECK_NE(victim, kInvalidU32) << "PvmDriver: no reclaimable block";
  ++gc_operations_;

  // The GC query under test, validated against the exact oracle.
  Bitmap invalid = store_->QueryInvalidPages(victim);
  GECKO_CHECK(invalid == oracle_[victim])
      << store_->Name() << " GC query mismatch on block " << victim;

  for (uint32_t p = 0; p < pages_per_block; ++p) {
    PhysicalAddress addr{victim, p};
    if (invalid.Test(p)) continue;
    Lpn lpn = reverse_[device_->FlatIndex(addr)];
    if (lpn == kInvalidU32) continue;  // never written (partial block)
    // Migrate the live page (charged as GC migration, not to the store).
    PhysicalAddress dest = Allocate();
    SpareArea spare;
    spare.type = PageType::kUser;
    spare.key = lpn;
    device_->ReadPage(addr, IoPurpose::kGcMigration);
    device_->WritePage(dest, spare, lpn, IoPurpose::kGcMigration);
    reverse_[device_->FlatIndex(dest)] = lpn;
    mapping_[lpn] = dest;
  }

  store_->RecordErase(victim);
  oracle_[victim].Reset();
  invalid_count_[victim] = 0;
  device_->EraseBlock(victim, IoPurpose::kGcMigration);
  free_pool_.Push(victim, device_->ChannelOf(victim));
}

}  // namespace gecko
