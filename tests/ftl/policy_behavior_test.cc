// Behavioural checks of the per-FTL policies: dirty-entry caps
// (LazyFTL/IB-FTL), battery shutdown sync (DFTL/µ-FTL), immediate vs lazy
// invalidation modes, and the GeckoFTL pin bound.

#include <gtest/gtest.h>

#include <algorithm>

#include "ftl/gc_victim_policy.h"
#include "tests/ftl/ftl_test_util.h"
#include "workload/workload.h"

namespace gecko {
namespace {

TEST(PolicyTest, DirtyCapBoundsDirtyEntries) {
  FlashDevice device(FtlTestGeometry());
  FtlConfig config = LazyFtl::DefaultConfig(128);  // cap = 10% of C
  LazyFtl ftl(&device, config);
  FtlExperiment::Fill(ftl, device.geometry().NumLogicalPages());
  UniformWorkload workload(device.geometry().NumLogicalPages(), 61);
  uint32_t cap = config.DirtyCap();
  ASSERT_GT(cap, 0u);
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(ftl.Write(workload.NextLpn(), i).ok());
    ASSERT_LE(ftl.cache().dirty_count(), cap) << "at op " << i;
  }
}

TEST(PolicyTest, UncappedGeckoFtlAccumulatesDirtyEntries) {
  FlashDevice device(FtlTestGeometry());
  GeckoFtl ftl(&device, GeckoFtl::DefaultConfig(128));
  FtlExperiment::Fill(ftl, device.geometry().NumLogicalPages());
  UniformWorkload workload(device.geometry().NumLogicalPages(), 61);
  uint32_t max_dirty = 0;
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(ftl.Write(workload.NextLpn(), i).ok());
    max_dirty = std::max(max_dirty, ftl.cache().dirty_count());
  }
  // No cap: far more dirty entries than LazyFTL's 10% bound, which is
  // precisely how GeckoFTL amortizes translation updates better.
  EXPECT_GT(max_dirty, 12u);
}

TEST(PolicyTest, BatterySyncsEverythingBeforePowerLoss) {
  FlashDevice device(FtlTestGeometry());
  DftlFtl ftl(&device, DftlFtl::DefaultConfig(128));
  FtlExperiment::Fill(ftl, device.geometry().NumLogicalPages());
  UniformWorkload workload(device.geometry().NumLogicalPages(), 67);
  for (int i = 0; i < 1000; ++i) ftl.Write(workload.NextLpn(), i);
  RecoveryReport report = ftl.CrashAndRecover();
  // Battery: no dirty entries to recover, so the report carries no
  // backward scan and the cache starts empty but the table is current.
  EXPECT_EQ(ftl.cache().size(), 0u);
  bool battery_step = false;
  for (const RecoveryStep& s : report.steps) {
    battery_step = battery_step || s.name.find("battery") != std::string::npos;
  }
  EXPECT_TRUE(battery_step);
}

TEST(PolicyTest, ImmediateModeReadsTranslationOnWriteMiss) {
  // Baselines pay a translation read per write miss; GeckoFTL does not.
  auto miss_reads = [](const std::string& name) {
    FlashDevice device(FtlTestGeometry());
    auto ftl = MakeFtl(name, &device, 16);  // tiny cache: every write misses
    FtlExperiment::Fill(*ftl, 400);
    IoCounters before = device.stats().Snapshot();
    for (Lpn lpn = 0; lpn < 200; ++lpn) ftl->Write(lpn, 1).ok();
    IoCounters delta = device.stats().Snapshot() - before;
    return delta.ReadsFor(IoPurpose::kTranslation);
  };
  uint64_t dftl = miss_reads("DFTL");
  uint64_t gecko = miss_reads("GeckoFTL");
  EXPECT_GT(dftl, 150u);  // ~1 read per write (plus sync reads)
  EXPECT_LT(gecko, dftl / 2);
}

TEST(PolicyTest, PinnedBlocksStayBounded) {
  FlashDevice device(FtlTestGeometry());
  FtlConfig config = GeckoFtl::DefaultConfig(64);
  config.max_pinned_metadata_blocks = 3;
  GeckoFtl ftl(&device, config);
  FtlExperiment::Fill(ftl, device.geometry().NumLogicalPages());
  UniformWorkload workload(device.geometry().NumLogicalPages(), 71);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(ftl.Write(workload.NextLpn(), i).ok());
    ASSERT_LE(ftl.block_manager().NumPinned(),
              config.max_pinned_metadata_blocks + 1)
        << "at op " << i;
  }
}

TEST(PolicyTest, CostBenefitAgeComparableAcrossChannels) {
  // Satellite audit of the cost-benefit age term (gc_victim_policy.h):
  // the device sequence feeding LastProgramSeq is one GLOBAL monotone
  // counter, not a per-channel clock, so block ages compare directly
  // across channels and need no normalization.
  FlashDevice device(FtlTestGeometry(/*channels=*/4));
  const Geometry& g = device.geometry();

  // Fill one block per channel, interleaved round-robin the way striped
  // actives fill. Blocks 0..3 land on channels 0..3.
  for (uint32_t p = 0; p < g.pages_per_block; ++p) {
    for (BlockId b = 0; b < 4; ++b) {
      SpareArea spare;
      spare.type = PageType::kUser;
      spare.key = b * g.pages_per_block + p;
      device.ProgramPage(PhysicalAddress{b, p}, spare, 1, IoPurpose::kOther);
    }
  }
  // Concurrently-filling striped blocks: their last-program seqs differ
  // by at most the stripe width (they interleave one program apart).
  uint64_t lo = device.LastProgramSeq(0), hi = lo;
  for (BlockId b = 1; b < 4; ++b) {
    lo = std::min(lo, device.LastProgramSeq(b));
    hi = std::max(hi, device.LastProgramSeq(b));
  }
  EXPECT_LE(hi - lo, 4u);

  // A block written a full generation later — on a DIFFERENT channel than
  // block 0 — has a strictly larger seq: global order holds across
  // channels.
  BlockId late = 5;  // channel 1
  ASSERT_NE(device.ChannelOf(late), device.ChannelOf(0));
  for (uint32_t p = 0; p < g.pages_per_block; ++p) {
    SpareArea spare;
    spare.type = PageType::kUser;
    spare.key = late * g.pages_per_block + p;
    device.ProgramPage(PhysicalAddress{late, p}, spare, 1, IoPurpose::kOther);
  }
  EXPECT_GT(device.LastProgramSeq(late), device.LastProgramSeq(0));

  // And cost-benefit prefers the globally older block at equal
  // utilization, whatever channel each lives on.
  CostBenefitVictimPolicy policy;
  const uint64_t now = device.CurrentSeq();
  GcVictimCandidate old_block, young_block;
  old_block.valid = young_block.valid = g.pages_per_block / 2;
  old_block.pages_per_block = young_block.pages_per_block =
      g.pages_per_block;
  old_block.age = now - device.LastProgramSeq(0);
  young_block.age = now - device.LastProgramSeq(late);
  EXPECT_LT(policy.Score(old_block), policy.Score(young_block));
}

// µ-FTL keeps only its B-tree root resident, so its RAM is the cache, the
// BVC and the flash PVB's chunk directory, with no GMD term.
TEST(PolicyTest, MuFtlRamLeavesOutTheGmd) {
  Geometry g;
  g.num_blocks = 4096;
  g.pages_per_block = 64;
  g.page_bytes = 2048;
  FlashDevice device(g);
  MuFtl ftl(&device, MuFtl::DefaultConfig(1024));
  // Cache 1,024 x 8 B + BVC 4,096 x 2 B + 16 chunks x 8 B.
  EXPECT_EQ(ftl.RamBytes(), 8192u + 8192u + 128u);
}

TEST(PolicyTest, WearLevelingOffByDefaultCostsNothing) {
  FlashDevice device(FtlTestGeometry());
  GeckoFtl ftl(&device, GeckoFtl::DefaultConfig(128));
  FtlExperiment::Fill(ftl, 500);
  EXPECT_EQ(device.stats().counters().spare_reads[static_cast<int>(
                IoPurpose::kWearLeveling)],
            0u);
}

}  // namespace
}  // namespace gecko
