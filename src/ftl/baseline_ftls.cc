#include "ftl/baseline_ftls.h"

namespace gecko {

// ---------------------------------------------------------------------------
// DFTL: RAM PVB + battery.
// ---------------------------------------------------------------------------

FtlConfig DftlFtl::DefaultConfig(uint32_t cache_capacity) {
  FtlConfig c;
  c.cache_capacity = cache_capacity;
  c.battery = true;
  c.dirty_fraction_cap = 0.0;
  c.checkpoint_period = 0;
  c.gc_policy = GcPolicy::kGreedyAll;
  c.invalidation = InvalidationMode::kImmediate;
  c.EnableMaintenanceLadder();
  return c;
}

DftlFtl::DftlFtl(FlashDevice* device, const FtlConfig& config)
    : BaseFtl(device, config) {
  store_ = std::make_unique<RamPvb>(device->geometry());
}

void DftlFtl::RecoverPvm(RecoveryReport* report) {
  // The battery copied the RAM PVB to flash before power ran out
  // (Section 5.3); recovery reads it back: B*K/8 bytes = B*K/(8*P) pages.
  // This copy lives outside the simulated address space, so only the
  // report is charged. The in-memory bitmap is simply retained.
  const Geometry& g = device_->geometry();
  RecoveryStep& step = report->Add("PVB read-back (battery copy)");
  step.page_reads = (g.TotalPages() / 8 + g.page_bytes - 1) / g.page_bytes;
}

void DftlFtl::RecoverBvc(RecoveryReport* report) {
  // The PVB is RAM-resident: counting bits costs no flash IO.
  report->Add("BVC (from RAM PVB)");
  for (BlockId b = 0; b < device_->geometry().num_blocks; ++b) {
    if (blocks_.BlockType(b) == PageType::kUser) {
      bvc_[b] = static_cast<uint32_t>(store_->QueryInvalidPages(b).Count());
    }
  }
}

void DftlFtl::RecoverDirtyEntries(RecoveryReport* report) {
  // The battery synchronized every dirty entry before power ran out;
  // there is nothing to recover (Figure 13's "battery" mark).
  report->Add("dirty mapping entries (battery)");
}

// ---------------------------------------------------------------------------
// LazyFTL: RAM PVB, dirty cap, sync-before-resume.
// ---------------------------------------------------------------------------

FtlConfig LazyFtl::DefaultConfig(uint32_t cache_capacity) {
  FtlConfig c;
  c.cache_capacity = cache_capacity;
  c.battery = false;
  c.dirty_fraction_cap = 0.1;  // Section 5.3: dirty entries capped at 10% C
  c.checkpoint_period = static_cast<uint32_t>(cache_capacity * 0.1);
  if (c.checkpoint_period == 0) c.checkpoint_period = 1;
  c.gc_policy = GcPolicy::kGreedyAll;
  c.invalidation = InvalidationMode::kImmediate;
  c.EnableMaintenanceLadder();
  return c;
}

LazyFtl::LazyFtl(FlashDevice* device, const FtlConfig& config)
    : BaseFtl(device, config) {
  store_ = std::make_unique<RamPvb>(device->geometry());
}

void LazyFtl::RecoverPvm(RecoveryReport* report) {
  // The PVB is rebuilt *after* the recovered dirty entries are
  // synchronized (so the translation table is current); see
  // RecoverDirtyEntries below.
  store_->ResetRamState();
  (void)report;
}

void LazyFtl::RecoverBvc(RecoveryReport*) {}

void LazyFtl::RecoverDirtyEntries(RecoveryReport* report) {
  // LazyFTL bounds dirty entries at runtime and pays for synchronizing
  // them before normal operation resumes — the recovery-time vs
  // write-amplification contention GeckoFTL removes (Section 4.3).
  BackwardScanRecoverEntries(config_.checkpoint_period, /*mark_uip=*/false,
                             /*mark_uncertain=*/true,
                             /*report_duplicates=*/false, report);
  SyncAllDirty(report);
  RebuildPvbFromTranslationTable(report);
}

void LazyFtl::RebuildPvbFromTranslationTable(RecoveryReport* report) {
  // Scan all translation pages (TT/P page reads, the paper's LazyFTL
  // recovery bottleneck): pages referenced by the table are live, every
  // other written user page is invalid.
  const Geometry& g = device_->geometry();
  RecoveryStep& step = report->Add("PVB rebuild (translation-table scan)");
  std::vector<Bitmap> live(g.num_blocks);
  for (auto& b : live) b = Bitmap(g.pages_per_block);
  for (TPageId t = 0; t < translation_.num_tpages(); ++t) {
    if (!translation_.Exists(t)) continue;
    std::vector<PhysicalAddress> mappings =
        translation_.ReadTPage(t, IoPurpose::kRecovery);
    ++step.page_reads;
    for (const PhysicalAddress& ppa : mappings) {
      if (ppa.IsValid()) live[ppa.block].Set(ppa.page);
    }
  }
  for (BlockId b = 0; b < g.num_blocks; ++b) {
    if (blocks_.BlockType(b) != PageType::kUser) continue;
    uint32_t written = device_->PagesWritten(b);
    uint32_t invalid = 0;
    for (uint32_t p = 0; p < written; ++p) {
      if (!live[b].Test(p)) {
        store_->RecordInvalidPage(PhysicalAddress{b, p});
        ++invalid;
      }
    }
    bvc_[b] = invalid;
  }
}

// ---------------------------------------------------------------------------
// µ-FTL: flash PVB + battery.
// ---------------------------------------------------------------------------

FtlConfig MuFtl::DefaultConfig(uint32_t cache_capacity) {
  FtlConfig c;
  c.cache_capacity = cache_capacity;
  c.battery = true;
  c.dirty_fraction_cap = 0.0;
  c.checkpoint_period = 0;
  c.gc_policy = GcPolicy::kGreedyAll;
  c.invalidation = InvalidationMode::kImmediate;
  c.EnableMaintenanceLadder();
  return c;
}

MuFtl::MuFtl(FlashDevice* device, const FtlConfig& config)
    : BaseFtl(device, config) {
  store_ =
      std::make_unique<FlashPvb>(device->geometry(), device, &blocks_);
}

uint64_t MuFtl::PvmRamBytes() const {
  // µ-FTL's translation table is a B-tree whose root alone stays resident,
  // so its RAM model drops the GMD term BaseFtl::RamBytes adds; cancel it
  // here (DESIGN.md §3). The PVB chunk directory remains.
  uint64_t gmd = translation_.GmdRamBytes();
  uint64_t store = store_->RamBytes();
  return store > gmd ? store - gmd : 0;
}

void MuFtl::RecoverPvm(RecoveryReport* report) {
  store_->ResetRamState();
  FlashPvb::RecoveryInfo info =
      store_->Recover(blocks_.BlocksOfType(PageType::kPvm));
  RecoveryStep& step = report->Add("PVB chunk directory (spare scan)");
  step.spare_reads = info.spare_reads;
  blocks_.RecoverMetadataLiveCounts(info.live_pages);
}

void MuFtl::RecoverBvc(RecoveryReport* report) {
  RecoveryStep& step = report->Add("BVC (read PVB chunks)");
  IoCounters before = device_->stats().Snapshot();
  std::vector<uint32_t> counts =
      store_->ReadAllInvalidCounts(IoPurpose::kRecovery);
  step.page_reads = (device_->stats().Snapshot() - before).TotalReads();
  for (BlockId b = 0; b < counts.size(); ++b) {
    if (blocks_.BlockType(b) == PageType::kUser) bvc_[b] = counts[b];
  }
}

void MuFtl::RecoverDirtyEntries(RecoveryReport* report) {
  report->Add("dirty mapping entries (battery)");
}

void MuFtl::MigratePvmPage(PhysicalAddress addr) {
  if (store_->RelocateIfCurrent(addr)) ++counters_.gc_migrations;
}

// ---------------------------------------------------------------------------
// IB-FTL: page-validity log, dirty cap.
// ---------------------------------------------------------------------------

FtlConfig IbFtl::DefaultConfig(uint32_t cache_capacity) {
  FtlConfig c;
  c.cache_capacity = cache_capacity;
  c.battery = false;
  c.dirty_fraction_cap = 0.1;
  c.checkpoint_period = static_cast<uint32_t>(cache_capacity * 0.1);
  if (c.checkpoint_period == 0) c.checkpoint_period = 1;
  c.gc_policy = GcPolicy::kGreedyAll;
  c.invalidation = InvalidationMode::kImmediate;
  // The log buffer can lose records across power failure, so GC validates
  // uncached victim pages against the translation table (DESIGN.md §3).
  c.gc_validate_against_translation_table = true;
  c.EnableMaintenanceLadder();
  return c;
}

IbFtl::IbFtl(FlashDevice* device, const FtlConfig& config)
    : BaseFtl(device, config) {
  store_ = std::make_unique<PageValidityLog>(device->geometry(), device,
                                             &blocks_);
}

void IbFtl::RecoverPvm(RecoveryReport* report) {
  store_->ResetRamState();
  PageValidityLog::RecoveryInfo info =
      store_->Recover(blocks_.BlocksOfType(PageType::kPvm));
  RecoveryStep& step = report->Add("PVL chain heads (full log scan)");
  step.spare_reads = info.spare_reads;
  step.page_reads = info.page_reads;
  blocks_.RecoverMetadataLiveCounts(info.live_pages);
}

void IbFtl::RecoverBvc(RecoveryReport* report) {
  report->Add("BVC (from log scan)");
  std::vector<uint32_t> counts = store_->ComputeInvalidCountsFree();
  for (BlockId b = 0; b < counts.size(); ++b) {
    if (blocks_.BlockType(b) == PageType::kUser) bvc_[b] = counts[b];
  }
}

void IbFtl::RecoverDirtyEntries(RecoveryReport* report) {
  BackwardScanRecoverEntries(config_.checkpoint_period, /*mark_uip=*/false,
                             /*mark_uncertain=*/true,
                             /*report_duplicates=*/false, report);
  SyncAllDirty(report);
}

void IbFtl::MigratePvmPage(PhysicalAddress addr) {
  if (store_->RelocateIfLive(addr)) ++counters_.gc_migrations;
}

}  // namespace gecko
