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
    : BaseFtl(device, config, [device](BlockManager*) {
        return std::make_unique<RamPvb>(device->geometry());
      }) {}

void DftlFtl::OnStoreRecovered(const FlashMetadataScan&,
                               RecoveryReport* report) {
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
    : BaseFtl(device, config, [device](BlockManager*) {
        return std::make_unique<RamPvb>(device->geometry());
      }) {}

void LazyFtl::OnRecoveryComplete(RecoveryReport* report) {
  // Runs after the recovered dirty entries are synchronized, so the
  // translation table is current. Scans all translation pages (TT/P page
  // reads, the paper's LazyFTL recovery bottleneck): pages referenced by
  // the table are live, every other written user page is invalid. The
  // BVC starts from zero here, so reporting them rebuilds it exactly.
  const Geometry& g = device_->geometry();
  RecoveryStep& step = report->Add("PVB rebuild (translation-table scan)");
  std::vector<Bitmap> live(g.num_blocks, Bitmap(g.pages_per_block));
  for (TPageId t = 0; t < translation_.table().num_tpages(); ++t) {
    if (!translation_.table().Exists(t)) continue;
    std::vector<PhysicalAddress> mappings =
        translation_.table().ReadTPage(t, IoPurpose::kRecovery);
    ++step.page_reads;
    for (const PhysicalAddress& ppa : mappings) {
      if (ppa.IsValid()) live[ppa.block].Set(ppa.page);
    }
  }
  for (BlockId b = 0; b < g.num_blocks; ++b) {
    if (blocks_.BlockType(b) != PageType::kUser) continue;
    for (uint32_t p = 0; p < device_->PagesWritten(b); ++p) {
      if (!live[b].Test(p)) gc_.ReportInvalid(PhysicalAddress{b, p});
    }
  }
}

// ---------------------------------------------------------------------------
// µ-FTL: flash PVB + battery.
// ---------------------------------------------------------------------------

FtlConfig MuFtl::DefaultConfig(uint32_t cache_capacity) {
  return BaselineConfig(cache_capacity, /*battery=*/true);
}

MuFtl::MuFtl(FlashDevice* device, const FtlConfig& config)
    : BaseFtl(device, config, [device](BlockManager* blocks) {
        return std::make_unique<FlashPvb>(device->geometry(), device, blocks);
      }) {}

uint64_t MuFtl::RamBytes() const {
  return BaseFtl::RamBytes() - translation_.table().GmdRamBytes();
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
    : BaseFtl(device, config, [device](BlockManager* blocks) {
        return std::make_unique<PageValidityLog>(device->geometry(), device,
                                                 blocks);
      }) {}

}  // namespace gecko
