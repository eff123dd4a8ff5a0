#include "pvm/pvl.h"

#include <gtest/gtest.h>

#include "flash/simple_allocator.h"
#include "util/random.h"

namespace gecko {
namespace {

Geometry SmallGeometry() {
  Geometry g;
  g.num_blocks = 48;
  g.pages_per_block = 16;
  g.page_bytes = 256;  // 16 records per log page
  g.logical_ratio = 0.7;
  return g;
}

class PvlTest : public ::testing::Test {
 protected:
  PvlTest()
      : device_(SmallGeometry()),
        allocator_(&device_, 24, 24),
        pvl_(SmallGeometry(), &device_, &allocator_) {}

  FlashDevice device_;
  SimpleAllocator allocator_;
  PageValidityLog pvl_;
};

TEST_F(PvlTest, BufferedRecordsVisibleWithoutIo) {
  pvl_.RecordInvalidPage({3, 7});
  EXPECT_EQ(device_.stats().counters().TotalWrites(), 0u);
  EXPECT_TRUE(pvl_.QueryInvalidPages(3).Test(7));
}

TEST_F(PvlTest, ChainWalkFindsFlushedRecords) {
  // 16 records fill the buffer and flush one log page.
  for (uint32_t i = 0; i < 16; ++i) {
    pvl_.RecordInvalidPage({3, i % 16});
  }
  EXPECT_EQ(pvl_.LogPages(), 1u);
  Bitmap b = pvl_.QueryInvalidPages(3);
  EXPECT_EQ(b.Count(), 16u);
}

TEST_F(PvlTest, ChainAcrossMultiplePages) {
  // Interleave two blocks so their chains span several log pages.
  for (uint32_t i = 0; i < 48; ++i) {
    pvl_.RecordInvalidPage({i % 2 == 0 ? 4u : 5u,
                            static_cast<uint32_t>((i / 2) % 16)});
  }
  EXPECT_GE(pvl_.LogPages(), 2u);
  EXPECT_GE(pvl_.QueryInvalidPages(4).Count(), 8u);
  EXPECT_GE(pvl_.QueryInvalidPages(5).Count(), 8u);
}

TEST_F(PvlTest, EraseCutsChainViaTimestamp) {
  for (uint32_t i = 0; i < 16; ++i) {
    pvl_.RecordInvalidPage({6, i});
  }
  pvl_.RecordErase(6);
  EXPECT_EQ(pvl_.QueryInvalidPages(6).Count(), 0u);
  pvl_.RecordInvalidPage({6, 2});
  EXPECT_EQ(pvl_.QueryInvalidPages(6).Count(), 1u);
}

TEST_F(PvlTest, CleaningBoundsLogSize) {
  // X = 2*D records (Appendix E). Keep erasing and re-invalidating: the
  // log must stay bounded instead of growing indefinitely.
  Rng rng(5);
  for (int round = 0; round < 200; ++round) {
    BlockId b = static_cast<BlockId>(rng.Uniform(24));
    for (uint32_t p = 0; p < 16; ++p) {
      pvl_.RecordInvalidPage({b, p});
    }
    pvl_.RecordErase(b);
  }
  EXPECT_LE(pvl_.LogRecords(), pvl_.MaxRecords() + 16);
}

TEST_F(PvlTest, CleaningPreservesLiveRecords) {
  // Invalidate pages of block 0, then churn other blocks until cleaning
  // has recycled the oldest pages several times; block 0's records must
  // be re-inserted, not lost.
  pvl_.RecordInvalidPage({0, 3});
  pvl_.RecordInvalidPage({0, 9});
  Rng rng(6);
  for (int round = 0; round < 400; ++round) {
    BlockId b = static_cast<BlockId>(1 + rng.Uniform(23));
    for (uint32_t p = 0; p < 16; ++p) pvl_.RecordInvalidPage({b, p});
    pvl_.RecordErase(b);
  }
  Bitmap b0 = pvl_.QueryInvalidPages(0);
  EXPECT_TRUE(b0.Test(3));
  EXPECT_TRUE(b0.Test(9));
  EXPECT_EQ(b0.Count(), 2u);
}

TEST_F(PvlTest, RecoverRebuildsChainHeads) {
  for (uint32_t i = 0; i < 40; ++i) {
    pvl_.RecordInvalidPage({static_cast<BlockId>(i % 8), (i / 8) % 16});
  }
  // Only flushed records survive a crash; flush by filling the buffer.
  while (pvl_.LogRecords() < 32) pvl_.RecordInvalidPage({9, 0});
  std::vector<Bitmap> expect;
  pvl_.ResetRamState();
  RecoveryReport report;
  StoreRecovery info = pvl_.Recover(allocator_.NonFreeBlocks(), &report);
  EXPECT_GT(info.page_reads, 0u);  // the whole log is scanned
  ASSERT_EQ(report.steps.size(), 1u);
  EXPECT_EQ(report.steps[0].page_reads, info.page_reads);
  // Flushed records are visible again.
  uint32_t total = 0;
  for (BlockId b = 0; b < 10; ++b) {
    total += static_cast<uint32_t>(pvl_.QueryInvalidPages(b).Count());
  }
  EXPECT_GE(total, 32u);
}

// GC records an erase and erases the block in one step, so records made
// just before it share the erase's device-sequence window. Recovery must
// place the erase at the end of that window, or those records come back
// as current and mark the reused block's pages invalid.
TEST_F(PvlTest, RecoveredEraseObsoletesRecordsOfItsWindow) {
  for (uint32_t i = 0; i < 4; ++i) pvl_.RecordInvalidPage({6, i});
  pvl_.RecordErase(6);
  device_.EraseBlock(6, IoPurpose::kGcMigration);
  // Flush them to a log page, which survives the crash.
  while (pvl_.LogPages() == 0) pvl_.RecordInvalidPage({9, 0});
  pvl_.ResetRamState();
  RecoveryReport report;
  pvl_.Recover(allocator_.NonFreeBlocks(), &report);
  EXPECT_EQ(pvl_.QueryInvalidPages(6).Count(), 0u);
  EXPECT_EQ(pvl_.QueryInvalidPages(9).Count(), 1u);
}

TEST_F(PvlTest, RelocatePageMovesLiveLogPage) {
  for (uint32_t i = 0; i < 16; ++i) pvl_.RecordInvalidPage({3, i});
  ASSERT_EQ(pvl_.LogPages(), 1u);
  pvl_.ResetRamState();
  RecoveryReport report;
  StoreRecovery info = pvl_.Recover(allocator_.NonFreeBlocks(), &report);
  ASSERT_EQ(info.live_pages.size(), 1u);
  PhysicalAddress old = info.live_pages[0];
  EXPECT_TRUE(pvl_.RelocatePage(old));
  EXPECT_FALSE(pvl_.RelocatePage(old));
  // Chain ids survive relocation.
  EXPECT_EQ(pvl_.QueryInvalidPages(3).Count(), 16u);
}

TEST_F(PvlTest, InvalidCountsMatchQueries) {
  for (uint32_t i = 0; i < 32; ++i) {
    pvl_.RecordInvalidPage({static_cast<BlockId>(i % 4), (i / 4) % 16});
  }
  // Flush everything so the counts (derived from flash) are complete.
  while (pvl_.LogRecords() < 32) pvl_.RecordInvalidPage({9, 1});
  RecoveryReport report;
  std::vector<uint32_t> counts = pvl_.InvalidCounts(&report);
  EXPECT_EQ(report.TotalPageReads(), 0u);  // derived from the scan: no IO
  for (BlockId b = 0; b < 4; ++b) {
    EXPECT_EQ(counts[b], pvl_.QueryInvalidPages(b).Count()) << "block " << b;
  }
}

TEST_F(PvlTest, RamFootprintIncludesHeadsAndTimestamps) {
  // 48 blocks * (6 + 4) bytes + one page buffer.
  EXPECT_EQ(pvl_.RamBytes(), 48u * 10 + 256u);
}

}  // namespace
}  // namespace gecko
