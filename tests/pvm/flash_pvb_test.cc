#include "pvm/flash_pvb.h"

#include <gtest/gtest.h>

#include "flash/simple_allocator.h"

namespace gecko {
namespace {

Geometry SmallGeometry() {
  Geometry g;
  g.num_blocks = 48;
  g.pages_per_block = 16;
  g.page_bytes = 256;  // 2048 bits per chunk page -> 128 blocks per chunk
  g.logical_ratio = 0.7;
  return g;
}

class FlashPvbTest : public ::testing::Test {
 protected:
  FlashPvbTest()
      : device_(SmallGeometry()),
        allocator_(&device_, 24, 24),
        pvb_(SmallGeometry(), &device_, &allocator_) {}

  FlashDevice device_;
  SimpleAllocator allocator_;
  FlashPvb pvb_;
};

TEST_F(FlashPvbTest, UpdateCostsOneReadOneWriteAfterFirst) {
  pvb_.RecordInvalidPage({0, 1});
  // First write of a chunk needs no prior read.
  EXPECT_EQ(device_.stats().counters().WritesFor(IoPurpose::kPvm), 1u);
  uint64_t reads0 = device_.stats().counters().ReadsFor(IoPurpose::kPvm);
  pvb_.RecordInvalidPage({0, 2});
  EXPECT_EQ(device_.stats().counters().WritesFor(IoPurpose::kPvm), 2u);
  EXPECT_EQ(device_.stats().counters().ReadsFor(IoPurpose::kPvm), reads0 + 1);
}

TEST_F(FlashPvbTest, QueryCostsOneRead) {
  pvb_.RecordInvalidPage({0, 1});
  uint64_t reads = device_.stats().counters().ReadsFor(IoPurpose::kPvm);
  Bitmap b = pvb_.QueryInvalidPages(0);
  EXPECT_TRUE(b.Test(1));
  EXPECT_EQ(device_.stats().counters().ReadsFor(IoPurpose::kPvm), reads + 1);
}

TEST_F(FlashPvbTest, QueryOfUntouchedChunkIsFree) {
  uint64_t reads = device_.stats().counters().TotalReads();
  EXPECT_EQ(pvb_.QueryInvalidPages(5).Count(), 0u);
  EXPECT_EQ(device_.stats().counters().TotalReads(), reads);
}

TEST_F(FlashPvbTest, EraseClearsOnlyThatBlock) {
  pvb_.RecordInvalidPage({0, 1});
  pvb_.RecordInvalidPage({1, 2});  // same chunk (128 blocks per chunk)
  pvb_.RecordErase(0);
  EXPECT_EQ(pvb_.QueryInvalidPages(0).Count(), 0u);
  EXPECT_TRUE(pvb_.QueryInvalidPages(1).Test(2));
}

TEST_F(FlashPvbTest, OldChunkVersionsAreRetired) {
  for (int i = 0; i < 40; ++i) {
    pvb_.RecordInvalidPage({0, static_cast<uint32_t>(i % 16)});
    pvb_.RecordErase(0);
  }
  // Old versions are invalidated as they are superseded, so the allocator
  // reclaims fully-dead blocks; the structure does not leak flash.
  EXPECT_GT(allocator_.blocks_erased(), 0u);
}

TEST_F(FlashPvbTest, RecoverRebuildsDirectory) {
  pvb_.RecordInvalidPage({0, 3});
  pvb_.RecordInvalidPage({7, 9});
  pvb_.ResetRamState();
  // Before recovery the directory is gone; queries would see nothing.
  RecoveryReport report;
  StoreRecovery info = pvb_.Recover(allocator_.NonFreeBlocks(), &report);
  EXPECT_GT(info.spare_reads, 0u);
  EXPECT_FALSE(info.live_pages.empty());
  ASSERT_EQ(report.steps.size(), 1u);
  EXPECT_EQ(report.steps[0].name, "PVB chunk directory (spare scan)");
  EXPECT_EQ(report.steps[0].spare_reads, info.spare_reads);
  EXPECT_TRUE(pvb_.QueryInvalidPages(0).Test(3));
  EXPECT_TRUE(pvb_.QueryInvalidPages(7).Test(9));
}

TEST_F(FlashPvbTest, RecoverFindsNewestVersion) {
  pvb_.RecordInvalidPage({0, 1});
  pvb_.RecordInvalidPage({0, 2});
  pvb_.RecordInvalidPage({0, 3});
  pvb_.ResetRamState();
  RecoveryReport report;
  pvb_.Recover(allocator_.NonFreeBlocks(), &report);
  Bitmap b = pvb_.QueryInvalidPages(0);
  EXPECT_EQ(b.Count(), 3u);  // the newest version has all three bits
}

TEST_F(FlashPvbTest, RelocatePageMovesCurrentChunk) {
  pvb_.RecordInvalidPage({0, 1});
  // Find the chunk's current location via recovery info.
  pvb_.ResetRamState();
  RecoveryReport report;
  StoreRecovery info = pvb_.Recover(allocator_.NonFreeBlocks(), &report);
  ASSERT_EQ(info.live_pages.size(), 1u);
  PhysicalAddress old = info.live_pages[0];
  EXPECT_TRUE(pvb_.RelocatePage(old));
  EXPECT_FALSE(pvb_.RelocatePage(old));  // no longer current
  EXPECT_TRUE(pvb_.QueryInvalidPages(0).Test(1));
}

TEST_F(FlashPvbTest, InvalidCountsMatchQueries) {
  pvb_.RecordInvalidPage({0, 1});
  pvb_.RecordInvalidPage({0, 5});
  pvb_.RecordInvalidPage({9, 2});
  RecoveryReport report;
  std::vector<uint32_t> counts = pvb_.InvalidCounts(&report);
  // One chunk page holds all 48 blocks: one charged read.
  ASSERT_EQ(report.steps.size(), 1u);
  EXPECT_EQ(report.steps[0].page_reads, 1u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[9], 1u);
  EXPECT_EQ(counts[3], 0u);
}

TEST_F(FlashPvbTest, RamFootprintIsDirectoryOnly) {
  // 48 blocks * 16 pages = 768 bits; one chunk page covers 2048 bits.
  EXPECT_EQ(pvb_.NumChunks(), 1u);
  EXPECT_EQ(pvb_.RamBytes(), 8u);
}

}  // namespace
}  // namespace gecko
