#include "ftl/block_manager.h"

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

SpareArea Spare(PageType type, uint32_t key = 0) {
  SpareArea s;
  s.type = type;
  s.key = key;
  return s;
}

TEST(BlockManagerTest, SeparatesBlockGroups) {
  FlashDevice dev(SmallGeometry());
  BlockManager bm(&dev, /*auto_erase_metadata=*/true);
  PhysicalAddress u = bm.AllocatePage(PageType::kUser);
  PhysicalAddress t = bm.AllocatePage(PageType::kTranslation);
  PhysicalAddress p = bm.AllocatePage(PageType::kPvm);
  // One active block per group (Figure 8).
  EXPECT_NE(u.block, t.block);
  EXPECT_NE(u.block, p.block);
  EXPECT_NE(t.block, p.block);
  EXPECT_EQ(bm.BlockType(u.block), PageType::kUser);
  EXPECT_EQ(bm.BlockType(t.block), PageType::kTranslation);
  EXPECT_EQ(bm.BlockType(p.block), PageType::kPvm);
}

TEST(BlockManagerTest, AppendsWithinActiveBlock) {
  FlashDevice dev(SmallGeometry());
  BlockManager bm(&dev, true);
  PhysicalAddress a = bm.AllocatePage(PageType::kUser);
  PhysicalAddress b = bm.AllocatePage(PageType::kUser);
  EXPECT_EQ(a.block, b.block);
  EXPECT_EQ(a.page + 1, b.page);
}

TEST(BlockManagerTest, RotatesToFreshBlockWhenFull) {
  FlashDevice dev(SmallGeometry());
  BlockManager bm(&dev, true);
  PhysicalAddress first = bm.AllocatePage(PageType::kUser);
  for (int i = 0; i < 3; ++i) bm.AllocatePage(PageType::kUser);
  PhysicalAddress next = bm.AllocatePage(PageType::kUser);
  EXPECT_NE(first.block, next.block);
  EXPECT_TRUE(bm.IsActive(next.block));
  EXPECT_FALSE(bm.IsActive(first.block));
}

TEST(BlockManagerTest, AutoErasesFullyInvalidMetadataBlock) {
  FlashDevice dev(SmallGeometry());
  BlockManager bm(&dev, true);
  std::vector<PhysicalAddress> pages;
  for (int i = 0; i < 4; ++i) {
    PhysicalAddress p = bm.AllocatePage(PageType::kPvm);
    dev.WritePage(p, Spare(PageType::kPvm), 0, IoPurpose::kPvm);
    pages.push_back(p);
  }
  // Retire the active by allocating into a fresh block.
  PhysicalAddress p = bm.AllocatePage(PageType::kPvm);
  dev.WritePage(p, Spare(PageType::kPvm), 0, IoPurpose::kPvm);

  uint32_t free_before = bm.NumFreeBlocks();
  for (const PhysicalAddress& addr : pages) {
    bm.OnMetadataPageInvalidated(addr);
  }
  // Section 4.2: the fully-invalid metadata block is erased for free.
  EXPECT_EQ(bm.NumFreeBlocks(), free_before + 1);
  EXPECT_EQ(bm.metadata_blocks_erased(), 1u);
  EXPECT_EQ(bm.BlockType(pages[0].block), PageType::kFree);
}

TEST(BlockManagerTest, GreedyModeLeavesDeadMetadataToGc) {
  FlashDevice dev(SmallGeometry());
  BlockManager bm(&dev, /*auto_erase_metadata=*/false);
  std::vector<PhysicalAddress> pages;
  for (int i = 0; i < 4; ++i) {
    PhysicalAddress p = bm.AllocatePage(PageType::kPvm);
    dev.WritePage(p, Spare(PageType::kPvm), 0, IoPurpose::kPvm);
    pages.push_back(p);
  }
  PhysicalAddress p = bm.AllocatePage(PageType::kPvm);
  dev.WritePage(p, Spare(PageType::kPvm), 0, IoPurpose::kPvm);
  for (const PhysicalAddress& addr : pages) {
    bm.OnMetadataPageInvalidated(addr);
  }
  EXPECT_EQ(bm.metadata_blocks_erased(), 0u);
  EXPECT_EQ(bm.BlockType(pages[0].block), PageType::kPvm);
}

TEST(BlockManagerTest, PinDefersEraseUntilUnpin) {
  FlashDevice dev(SmallGeometry());
  BlockManager bm(&dev, true);
  std::vector<PhysicalAddress> pages;
  for (int i = 0; i < 4; ++i) {
    PhysicalAddress p = bm.AllocatePage(PageType::kTranslation);
    dev.WritePage(p, Spare(PageType::kTranslation), 0,
                  IoPurpose::kTranslation);
    pages.push_back(p);
  }
  PhysicalAddress p2 = bm.AllocatePage(PageType::kTranslation);
  dev.WritePage(p2, Spare(PageType::kTranslation), 0, IoPurpose::kTranslation);

  bm.Pin(pages[0].block, /*seq=*/100);
  for (const PhysicalAddress& addr : pages) {
    bm.OnMetadataPageInvalidated(addr);
  }
  EXPECT_EQ(bm.metadata_blocks_erased(), 0u);  // pinned: not erased
  bm.UnpinThrough(99);
  EXPECT_EQ(bm.metadata_blocks_erased(), 0u);  // pin is newer than horizon
  bm.UnpinThrough(100);
  EXPECT_EQ(bm.metadata_blocks_erased(), 1u);  // released and erased
}

TEST(BlockManagerTest, BlocksOfTypeListsAssignments) {
  FlashDevice dev(SmallGeometry());
  BlockManager bm(&dev, true);
  PhysicalAddress u = bm.AllocatePage(PageType::kUser);
  bm.AllocatePage(PageType::kPvm);
  std::vector<BlockId> users = bm.BlocksOfType(PageType::kUser);
  ASSERT_EQ(users.size(), 1u);
  EXPECT_EQ(users[0], u.block);
  EXPECT_EQ(bm.BlocksOfType(PageType::kFree).size(), 6u);
}

TEST(BlockManagerTest, RecoverFromBidRestoresTypesAndActives) {
  FlashDevice dev(SmallGeometry());
  BlockManager bm(&dev, true);
  // Write two full user blocks and one partial (the crash-time active).
  for (int i = 0; i < 9; ++i) {
    PhysicalAddress p = bm.AllocatePage(PageType::kUser);
    dev.WritePage(p, Spare(PageType::kUser, i), i, IoPurpose::kUserWrite);
  }
  PhysicalAddress t = bm.AllocatePage(PageType::kTranslation);
  dev.WritePage(t, Spare(PageType::kTranslation), 0, IoPurpose::kTranslation);

  // Crash: rebuild from a BID assembled the way BaseFtl does.
  std::vector<BlockManager::BidEntry> bid(8);
  for (BlockId b = 0; b < 8; ++b) {
    PageReadResult r = dev.ReadSpare({b, 0}, IoPurpose::kRecovery);
    if (!r.written) continue;
    bid[b].type = r.spare.type;
    bid[b].first_seq = r.spare.seq;
    bid[b].pages_written = dev.PagesWritten(b);
  }
  bm.ResetRamState();
  bm.RecoverFromBid(bid);

  EXPECT_EQ(bm.BlocksOfType(PageType::kUser).size(), 3u);
  EXPECT_EQ(bm.BlocksOfType(PageType::kTranslation).size(), 1u);
  // The partial user block resumes as active: the next allocation continues
  // at its write pointer.
  PhysicalAddress next = bm.AllocatePage(PageType::kUser);
  EXPECT_EQ(dev.PagesWritten(next.block), next.page);
  dev.WritePage(next, Spare(PageType::kUser, 99), 99, IoPurpose::kUserWrite);
}

// IsActive after every kind of active-slot change. GC victim scans trust
// it to skip the blocks still being appended to.

TEST(BlockManagerTest, ProgramFailRetirementDeactivatesBlock) {
  FlashDevice dev(SmallGeometry());
  BlockManager bm(&dev, true);
  PhysicalAddress a = bm.AllocatePage(PageType::kUser);
  ASSERT_TRUE(bm.IsActive(a.block));
  // Below the fail budget (3) the block keeps taking appends.
  bm.OnProgramFailed(a);
  bm.OnProgramFailed(a);
  EXPECT_TRUE(bm.IsActive(a.block));
  bm.OnProgramFailed(a);
  EXPECT_TRUE(bm.bad_blocks().ShouldRetire(a.block));
  EXPECT_FALSE(bm.IsActive(a.block));
  PhysicalAddress next = bm.AllocatePage(PageType::kUser);
  EXPECT_NE(next.block, a.block);
  EXPECT_TRUE(bm.IsActive(next.block));
}

TEST(BlockManagerTest, NoBlockIsActiveAfterResetRamState) {
  FlashDevice dev(SmallGeometry());
  BlockManager bm(&dev, true);
  const BlockId u = bm.AllocatePage(PageType::kUser).block;
  const BlockId t = bm.AllocatePage(PageType::kTranslation).block;
  const BlockId p = bm.AllocatePage(PageType::kPvm).block;
  EXPECT_TRUE(bm.IsActive(u) && bm.IsActive(t) && bm.IsActive(p));
  bm.ResetRamState();
  for (BlockId b = 0; b < dev.geometry().num_blocks; ++b) {
    EXPECT_FALSE(bm.IsActive(b)) << "block " << b;
  }
}

TEST(BlockManagerTest, RecoverFromBidActivatesExactlyThePartialBlocks) {
  FlashDevice dev(SmallGeometry());
  BlockManager bm(&dev, true);
  auto write = [&](PageType type, IoPurpose purpose) {
    PhysicalAddress p = bm.AllocatePage(type);
    dev.WritePage(p, Spare(type), 0, purpose);
    return p.block;
  };
  // User: one full block and one partial. Translation: one partial.
  // PVM: one full block that is still the active at the crash.
  BlockId user_full = write(PageType::kUser, IoPurpose::kUserWrite);
  for (int i = 0; i < 3; ++i) write(PageType::kUser, IoPurpose::kUserWrite);
  BlockId user_partial = write(PageType::kUser, IoPurpose::kUserWrite);
  write(PageType::kUser, IoPurpose::kUserWrite);
  BlockId tpage_partial =
      write(PageType::kTranslation, IoPurpose::kTranslation);
  BlockId pvm_full = write(PageType::kPvm, IoPurpose::kPvm);
  for (int i = 0; i < 3; ++i) write(PageType::kPvm, IoPurpose::kPvm);
  ASSERT_NE(user_full, user_partial);
  ASSERT_TRUE(bm.IsActive(pvm_full));

  std::vector<BlockManager::BidEntry> bid(dev.geometry().num_blocks);
  for (BlockId b = 0; b < bid.size(); ++b) {
    PageReadResult r = dev.ReadSpare({b, 0}, IoPurpose::kRecovery);
    if (!r.written) continue;
    bid[b].type = r.spare.type;
    bid[b].first_seq = r.spare.seq;
    bid[b].pages_written = dev.PagesWritten(b);
  }
  bm.ResetRamState();
  bm.RecoverFromBid(bid);
  for (BlockId b = 0; b < bid.size(); ++b) {
    EXPECT_EQ(bm.IsActive(b), b == user_partial || b == tpage_partial)
        << "block " << b;
  }
}

TEST(BlockManagerTest, EachTemperatureClassKeepsItsOwnActiveBlock) {
  FlashDevice dev(SmallGeometry());
  BlockManager bm(&dev, true);
  bm.ConfigureTempClasses(2);
  const BlockId hot = bm.AllocatePage(PageType::kUser, kNoStream, 0).block;
  const BlockId cold = bm.AllocatePage(PageType::kUser, kNoStream, 1).block;
  EXPECT_NE(hot, cold);
  EXPECT_TRUE(bm.IsActive(hot));
  EXPECT_TRUE(bm.IsActive(cold));
  // Filling the hot class's block rolls only that class over.
  for (int i = 0; i < 4; ++i) bm.AllocatePage(PageType::kUser, kNoStream, 0);
  const BlockId hot_next = bm.AllocatePage(PageType::kUser, kNoStream, 0).block;
  EXPECT_NE(hot_next, hot);
  EXPECT_FALSE(bm.IsActive(hot));
  EXPECT_TRUE(bm.IsActive(hot_next));
  EXPECT_TRUE(bm.IsActive(cold));
}

TEST(BlockManagerDeathTest, ExhaustionAborts) {
  FlashDevice dev(SmallGeometry());
  BlockManager bm(&dev, true);
  EXPECT_DEATH(
      {
        for (int i = 0; i < 100; ++i) bm.AllocatePage(PageType::kUser);
      },
      "out of free blocks");
}

}  // namespace
}  // namespace gecko
