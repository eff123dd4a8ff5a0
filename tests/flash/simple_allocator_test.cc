#include "flash/simple_allocator.h"

#include <gtest/gtest.h>

namespace gecko {
namespace {

Geometry SmallGeometry() {
  Geometry g;
  g.num_blocks = 8;
  g.pages_per_block = 4;
  g.page_bytes = 512;
  g.logical_ratio = 0.7;
  return g;
}

SpareArea PvmSpare() {
  SpareArea s;
  s.type = PageType::kPvm;
  s.key = 0;
  return s;
}

TEST(SimpleAllocatorTest, AllocatesSequentiallyWithinRegion) {
  FlashDevice dev(SmallGeometry());
  SimpleAllocator alloc(&dev, 4, 4);
  PhysicalAddress a = alloc.AllocatePage(PageType::kPvm);
  PhysicalAddress b = alloc.AllocatePage(PageType::kPvm);
  EXPECT_GE(a.block, 4u);
  EXPECT_EQ(a.block, b.block);
  EXPECT_EQ(a.page + 1, b.page);
}

TEST(SimpleAllocatorTest, MovesToNextBlockWhenFull) {
  FlashDevice dev(SmallGeometry());
  SimpleAllocator alloc(&dev, 4, 4);
  PhysicalAddress first = alloc.AllocatePage(PageType::kPvm);
  for (int i = 0; i < 3; ++i) alloc.AllocatePage(PageType::kPvm);
  PhysicalAddress next = alloc.AllocatePage(PageType::kPvm);
  EXPECT_NE(first.block, next.block);
  EXPECT_EQ(next.page, 0u);
}

TEST(SimpleAllocatorTest, ErasesFullyInvalidBlocks) {
  FlashDevice dev(SmallGeometry());
  SimpleAllocator alloc(&dev, 4, 4);
  // Fill one block with written pages.
  std::vector<PhysicalAddress> pages;
  for (int i = 0; i < 4; ++i) {
    PhysicalAddress p = alloc.AllocatePage(PageType::kPvm);
    dev.WritePage(p, PvmSpare(), 0, IoPurpose::kPvm);
    pages.push_back(p);
  }
  // Move the allocator to a new active block so the old one can be erased.
  PhysicalAddress p = alloc.AllocatePage(PageType::kPvm);
  dev.WritePage(p, PvmSpare(), 0, IoPurpose::kPvm);

  uint32_t free_before = alloc.num_free_blocks();
  for (const PhysicalAddress& page : pages) {
    alloc.OnMetadataPageInvalidated(page);
  }
  EXPECT_EQ(alloc.num_free_blocks(), free_before + 1);
  EXPECT_EQ(alloc.blocks_erased(), 1u);
  EXPECT_EQ(dev.PagesWritten(pages[0].block), 0u);
}

TEST(SimpleAllocatorTest, ActiveBlockNotErasedEvenWhenFullyInvalid) {
  FlashDevice dev(SmallGeometry());
  SimpleAllocator alloc(&dev, 4, 4);
  PhysicalAddress p = alloc.AllocatePage(PageType::kPvm);
  dev.WritePage(p, PvmSpare(), 0, IoPurpose::kPvm);
  alloc.OnMetadataPageInvalidated(p);
  // The active block keeps its free tail; nothing is erased.
  EXPECT_EQ(alloc.blocks_erased(), 0u);
}

TEST(SimpleAllocatorTest, RecoverRebuildsLiveCounts) {
  FlashDevice dev(SmallGeometry());
  SimpleAllocator alloc(&dev, 4, 4);
  std::vector<PhysicalAddress> pages;
  for (int i = 0; i < 6; ++i) {
    PhysicalAddress p = alloc.AllocatePage(PageType::kPvm);
    dev.WritePage(p, PvmSpare(), 0, IoPurpose::kPvm);
    pages.push_back(p);
  }
  // Crash: keep only pages[4] and pages[5] live (the second block).
  std::vector<PhysicalAddress> live = {pages[4], pages[5]};
  alloc.RecoverRamState(live);
  // The first block held only dead pages and is reclaimed immediately.
  EXPECT_EQ(dev.PagesWritten(pages[0].block), 0u);
  // Invalidation of the survivors eventually frees the second block too.
  alloc.OnMetadataPageInvalidated(pages[4]);
  alloc.OnMetadataPageInvalidated(pages[5]);
  // New allocations still work after recovery.
  PhysicalAddress p = alloc.AllocatePage(PageType::kPvm);
  dev.WritePage(p, PvmSpare(), 0, IoPurpose::kPvm);
  EXPECT_GE(p.block, 4u);
}

TEST(SimpleAllocatorTest, NonFreeBlocksListsWrittenOnly) {
  FlashDevice dev(SmallGeometry());
  SimpleAllocator alloc(&dev, 4, 4);
  EXPECT_TRUE(alloc.NonFreeBlocks().empty());
  PhysicalAddress p = alloc.AllocatePage(PageType::kPvm);
  dev.WritePage(p, PvmSpare(), 0, IoPurpose::kPvm);
  std::vector<BlockId> nonfree = alloc.NonFreeBlocks();
  ASSERT_EQ(nonfree.size(), 1u);
  EXPECT_EQ(nonfree[0], p.block);
}

}  // namespace
}  // namespace gecko
