#include "ftl/translation_table.h"

#include <gtest/gtest.h>

#include "ftl/block_manager.h"

namespace gecko {
namespace {

Geometry SmallGeometry() {
  Geometry g;
  g.num_blocks = 16;
  g.pages_per_block = 8;
  g.page_bytes = 512;  // 128 mapping entries per translation page
  g.logical_ratio = 0.7;
  return g;
}

class TranslationTableTest : public ::testing::Test {
 protected:
  TranslationTableTest()
      : device_(SmallGeometry()),
        blocks_(&device_, true),
        table_(SmallGeometry(), &device_, &blocks_) {}

  std::vector<PhysicalAddress> FreshMappings() {
    return std::vector<PhysicalAddress>(table_.entries_per_page(),
                                        kNullAddress);
  }

  FlashDevice device_;
  BlockManager blocks_;
  TranslationTable table_;
};

TEST_F(TranslationTableTest, GeometryDerivation) {
  EXPECT_EQ(table_.entries_per_page(), 128u);
  // 16*8*0.7 = 89 logical pages -> 1 translation page.
  EXPECT_EQ(table_.num_tpages(), 1u);
  EXPECT_EQ(table_.TPageOf(0), 0u);
  EXPECT_EQ(table_.TPageOf(88), 0u);
  EXPECT_EQ(table_.TPageOf(128), 1u);
}

TEST_F(TranslationTableTest, LookupOnMissingTPageIsFreeAndNull) {
  uint64_t reads = device_.stats().counters().TotalReads();
  EXPECT_FALSE(table_.Lookup(5, IoPurpose::kTranslation).IsValid());
  EXPECT_EQ(device_.stats().counters().TotalReads(), reads);
}

TEST_F(TranslationTableTest, CommitThenLookup) {
  std::vector<PhysicalAddress> m = FreshMappings();
  m[5] = PhysicalAddress{3, 1};
  PhysicalAddress old = table_.CommitTPage(0, m, IoPurpose::kTranslation);
  EXPECT_FALSE(old.IsValid());  // first version
  EXPECT_TRUE(table_.Exists(0));
  PhysicalAddress got = table_.Lookup(5, IoPurpose::kTranslation);
  EXPECT_EQ(got, (PhysicalAddress{3, 1}));
  // The lookup charged one read.
  EXPECT_EQ(device_.stats().counters().ReadsFor(IoPurpose::kTranslation), 1u);
}

TEST_F(TranslationTableTest, CommitRetiresOldVersion) {
  std::vector<PhysicalAddress> m = FreshMappings();
  table_.CommitTPage(0, m, IoPurpose::kTranslation);
  PhysicalAddress first = table_.Location(0);
  m[7] = PhysicalAddress{4, 2};
  PhysicalAddress old = table_.CommitTPage(0, m, IoPurpose::kTranslation);
  EXPECT_EQ(old, first);
  EXPECT_NE(table_.Location(0), first);
  // Old version still readable (needed by recovery diffing) until erased.
  const auto& prev = table_.ReadVersion(first, IoPurpose::kRecovery);
  EXPECT_FALSE(prev[7].IsValid());
}

TEST_F(TranslationTableTest, MigrateKeepsContent) {
  std::vector<PhysicalAddress> m = FreshMappings();
  m[9] = PhysicalAddress{5, 5};
  table_.CommitTPage(0, m, IoPurpose::kTranslation);
  PhysicalAddress before = table_.Location(0);
  table_.MigrateTPage(0, IoPurpose::kTranslation);
  EXPECT_NE(table_.Location(0), before);
  EXPECT_EQ(table_.Lookup(9, IoPurpose::kTranslation),
            (PhysicalAddress{5, 5}));
}

TEST_F(TranslationTableTest, OnBlockErasedDropsImages) {
  std::vector<PhysicalAddress> m = FreshMappings();
  table_.CommitTPage(0, m, IoPurpose::kTranslation);
  PhysicalAddress loc = table_.Location(0);
  // Erasing a block that holds no image (a user block) leaves it readable.
  const BlockId user = blocks_.AllocatePage(PageType::kUser, kNoStream).block;
  ASSERT_NE(user, loc.block);
  table_.OnBlockErased(user);
  EXPECT_EQ(table_.PeekMapping(0), kNullAddress);
  table_.ReadVersion(loc, IoPurpose::kOther);
  table_.OnBlockErased(loc.block);
  EXPECT_DEATH(table_.ReadVersion(loc, IoPurpose::kOther),
               "no translation page");
}

TEST_F(TranslationTableTest, RecoverGmdFindsAllVersionsInOrder) {
  std::vector<PhysicalAddress> m = FreshMappings();
  table_.CommitTPage(0, m, IoPurpose::kTranslation);
  m[1] = PhysicalAddress{6, 0};
  table_.CommitTPage(0, m, IoPurpose::kTranslation);
  m[2] = PhysicalAddress{6, 1};
  table_.CommitTPage(0, m, IoPurpose::kTranslation);
  PhysicalAddress newest = table_.Location(0);

  table_.ResetRamState();
  std::vector<TranslationTable::TPageVersions> versions;
  uint64_t spare_reads = table_.RecoverGmd(
      blocks_.BlocksOfType(PageType::kTranslation), &versions);
  EXPECT_GT(spare_reads, 0u);
  EXPECT_EQ(table_.Location(0), newest);
  ASSERT_EQ(versions[0].versions.size(), 3u);
  EXPECT_EQ(versions[0].current, newest);
  // Versions are ordered oldest to newest.
  EXPECT_LT(versions[0].versions[0].seq, versions[0].versions[1].seq);
  EXPECT_LT(versions[0].versions[1].seq, versions[0].versions[2].seq);
}

TEST_F(TranslationTableTest, GmdRamBytesMatchesFormula) {
  EXPECT_EQ(table_.GmdRamBytes(), table_.num_tpages() * 8u);
}

}  // namespace
}  // namespace gecko
