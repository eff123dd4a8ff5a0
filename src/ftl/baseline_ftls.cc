#include "ftl/baseline_ftls.h"

#include <memory>

#include "pvm/flash_pvb.h"
#include "pvm/pvl.h"
#include "pvm/ram_pvb.h"

namespace gecko {

namespace {

/// Every baseline identifies before-images immediately and runs greedy GC
/// over all blocks. Without a battery, dirty entries are capped at 10% of
/// the cache (Section 5.3) and checkpointed at the cap.
FtlConfig BaselineConfig(uint32_t cache_capacity, bool battery) {
  FtlConfig c;
  c.cache_capacity = cache_capacity;
  c.battery = battery;
  if (!battery) {
    c.dirty_fraction_cap = 0.1;
    c.checkpoint_period = static_cast<uint32_t>(cache_capacity * 0.1);
    if (c.checkpoint_period == 0) c.checkpoint_period = 1;
  }
  c.gc_policy = GcPolicy::kGreedyAll;
  c.invalidation = InvalidationMode::kImmediate;
  return c;
}

}  // namespace

// ---------------------------------------------------------------------------
// DFTL: RAM PVB + battery.
// ---------------------------------------------------------------------------

FtlConfig DftlFtl::DefaultConfig(uint32_t cache_capacity) {
  return BaselineConfig(cache_capacity, /*battery=*/true);
}

DftlFtl::DftlFtl(FlashDevice* device, const FtlConfig& config)
    : BaseFtl(device, config) {
  store_ = std::make_unique<RamPvb>(device->geometry());
}

void DftlFtl::OnStoreRecovered(RecoveryReport* report) {
  // The battery copied the RAM PVB to flash before power ran out
  // (Section 5.3); recovery reads it back: B*K/8 bytes = B*K/(8*P) pages.
  // This copy lives outside the simulated address space, so only the
  // report is charged. The in-memory bitmap is simply retained.
  const Geometry& g = device_->geometry();
  RecoveryStep& step = report->Add("PVB read-back (battery copy)");
  step.page_reads = (g.TotalPages() / 8 + g.page_bytes - 1) / g.page_bytes;
}

// ---------------------------------------------------------------------------
// LazyFTL: RAM PVB, dirty cap, sync-before-resume.
// ---------------------------------------------------------------------------

FtlConfig LazyFtl::DefaultConfig(uint32_t cache_capacity) {
  return BaselineConfig(cache_capacity, /*battery=*/false);
}

LazyFtl::LazyFtl(FlashDevice* device, const FtlConfig& config)
    : BaseFtl(device, config) {
  store_ = std::make_unique<RamPvb>(device->geometry());
}

void LazyFtl::OnRecoveryComplete(RecoveryReport* report) {
  // Runs after the recovered dirty entries are synchronized, so the
  // translation table is current. Scans all translation pages (TT/P page
  // reads, the paper's LazyFTL recovery bottleneck): pages referenced by
  // the table are live, every other written user page is invalid.
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
  return BaselineConfig(cache_capacity, /*battery=*/true);
}

MuFtl::MuFtl(FlashDevice* device, const FtlConfig& config)
    : BaseFtl(device, config) {
  store_ = std::make_unique<FlashPvb>(device->geometry(), device, &blocks_);
}

uint64_t MuFtl::PvmRamBytes() const {
  // µ-FTL's translation table is a B-tree whose root alone stays resident,
  // so its RAM model drops the GMD term BaseFtl::RamBytes adds; cancel it
  // here (DESIGN.md §3). The PVB chunk directory remains.
  uint64_t gmd = translation_.GmdRamBytes();
  uint64_t store = store_->RamBytes();
  return store > gmd ? store - gmd : 0;
}

// ---------------------------------------------------------------------------
// IB-FTL: page-validity log, dirty cap.
// ---------------------------------------------------------------------------

FtlConfig IbFtl::DefaultConfig(uint32_t cache_capacity) {
  FtlConfig c = BaselineConfig(cache_capacity, /*battery=*/false);
  // The log buffer can lose records across power failure, so GC validates
  // uncached victim pages against the translation table (DESIGN.md §3).
  c.gc_validate_against_translation_table = true;
  return c;
}

IbFtl::IbFtl(FlashDevice* device, const FtlConfig& config)
    : BaseFtl(device, config) {
  store_ =
      std::make_unique<PageValidityLog>(device->geometry(), device, &blocks_);
}

}  // namespace gecko
