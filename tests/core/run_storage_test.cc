#include "core/run_storage.h"

#include <gtest/gtest.h>

#include "flash/simple_allocator.h"

namespace gecko {
namespace {

Geometry SmallGeometry() {
  Geometry g;
  g.num_blocks = 16;
  g.pages_per_block = 8;
  g.page_bytes = 512;
  g.logical_ratio = 0.7;
  return g;
}

std::vector<GeckoEntry> MakeEntries(std::initializer_list<GeckoKey> keys,
                                    uint32_t chunk_bits = 8) {
  std::vector<GeckoEntry> out;
  for (GeckoKey k : keys) {
    GeckoEntry e(k, chunk_bits);
    e.bits.Set(k % chunk_bits);
    out.push_back(std::move(e));
  }
  return out;
}

class RunStorageTest : public ::testing::Test {
 protected:
  RunStorageTest()
      : device_(SmallGeometry()),
        allocator_(&device_, 0, 16),
        storage_(&device_, &allocator_, /*entries_per_page=*/4) {}

  FlashDevice device_;
  SimpleAllocator allocator_;
  RunStorage storage_;
};

TEST_F(RunStorageTest, WriteRunLaysOutPreambleDataPostamble) {
  const RunImage& run = storage_.WriteRun(0, MakeEntries({1, 2, 3, 4, 5}), {});
  // 5 entries at 4/page -> 2 data pages + preamble + postamble.
  EXPECT_EQ(run.NumDataPages(), 2u);
  EXPECT_EQ(run.NumFlashPages(), 4u);
  EXPECT_EQ(device_.stats().counters().TotalWrites(), 4u);

  // Spare areas carry the run id and page roles for recovery scans.
  PageReadResult pre = device_.ReadSpare(run.preamble, IoPurpose::kOther);
  EXPECT_EQ(pre.spare.aux, kRunPreambleAux);
  EXPECT_EQ(pre.spare.key, run.id);
  PageReadResult post = device_.ReadSpare(run.postamble, IoPurpose::kOther);
  EXPECT_EQ(post.spare.aux, kRunPostambleAux);
  PageReadResult data =
      device_.ReadSpare(run.directory.pages[1], IoPurpose::kOther);
  EXPECT_EQ(data.spare.aux, 1u);
}

TEST_F(RunStorageTest, DirectoryFirstKeysMatchLayout) {
  const RunImage& run =
      storage_.WriteRun(0, MakeEntries({10, 20, 30, 40, 50, 60}), {});
  ASSERT_EQ(run.directory.first_keys.size(), 2u);
  EXPECT_EQ(run.directory.first_keys[0], 10u);
  EXPECT_EQ(run.directory.first_keys[1], 50u);
  EXPECT_EQ(run.directory.LowerBoundPage(10), 0u);
  EXPECT_EQ(run.directory.LowerBoundPage(49), 0u);
  EXPECT_EQ(run.directory.LowerBoundPage(50), 1u);
  EXPECT_EQ(run.directory.LowerBoundPage(999), 1u);
  EXPECT_EQ(run.directory.LowerBoundPage(5), 0u);
}

TEST_F(RunStorageTest, ReadPageEntriesFiltersByRange) {
  const RunImage& run =
      storage_.WriteRun(0, MakeEntries({10, 20, 30, 40, 50, 60}), {});
  std::vector<GeckoEntry> out;
  storage_.ReadPageEntries(run, 0, 20, 30, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].key, 20u);
  EXPECT_EQ(out[1].key, 30u);
  // The read is charged.
  EXPECT_EQ(device_.stats().counters().ReadsFor(IoPurpose::kPvm), 1u);
}

TEST_F(RunStorageTest, ReadAllEntriesChargesPerPage) {
  const RunImage& run =
      storage_.WriteRun(0, MakeEntries({1, 2, 3, 4, 5, 6, 7, 8, 9}), {});
  uint64_t reads_before = device_.stats().counters().TotalReads();
  const std::vector<GeckoEntry>& all = storage_.ReadAllEntries(run);
  EXPECT_EQ(all.size(), 9u);
  EXPECT_EQ(&all, &run.entries);  // handed out in place, not copied
  EXPECT_EQ(device_.stats().counters().TotalReads() - reads_before,
            run.NumDataPages());
}

TEST_F(RunStorageTest, LiveSnapshotIncludesSelf) {
  const RunImage& a = storage_.WriteRun(0, MakeEntries({1}), {});
  ASSERT_EQ(a.live_snapshot.size(), 1u);
  EXPECT_EQ(a.live_snapshot[0], a.id);
  const RunImage& b = storage_.WriteRun(0, MakeEntries({2}), {a.id});
  ASSERT_EQ(b.live_snapshot.size(), 2u);
  EXPECT_EQ(b.live_snapshot.back(), b.id);
}

TEST_F(RunStorageTest, FlushCoverDefaultsToCreationSeq) {
  const RunImage& flush = storage_.WriteRun(0, MakeEntries({1}), {});
  EXPECT_EQ(flush.flush_cover_seq, flush.creation_seq);
  const RunImage& merge =
      storage_.WriteRun(1, MakeEntries({2}), {}, flush.flush_cover_seq);
  EXPECT_EQ(merge.flush_cover_seq, flush.creation_seq);
  EXPECT_GT(merge.creation_seq, merge.flush_cover_seq);
}

TEST_F(RunStorageTest, DiscardReleasesPagesToAllocator) {
  const RunImage& a = storage_.WriteRun(0, MakeEntries({1, 2, 3, 4, 5}), {});
  RunId id = a.id;
  uint64_t pages = a.NumFlashPages();
  EXPECT_EQ(storage_.TotalFlashPages(), pages);
  storage_.DiscardRun(id);
  EXPECT_EQ(storage_.TotalFlashPages(), 0u);
  EXPECT_EQ(storage_.Find(id), nullptr);
}

TEST_F(RunStorageTest, DiscardedBlocksEventuallyErased) {
  // Fill a full block's worth of runs, then discard them; the allocator
  // must erase the fully-invalid blocks (Section 4.2's metadata policy).
  std::vector<RunId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(storage_.WriteRun(0, MakeEntries({1, 2, 3, 4}), {}).id);
  }
  uint64_t erased_before = allocator_.blocks_erased();
  for (RunId id : ids) storage_.DiscardRun(id);
  EXPECT_GT(allocator_.blocks_erased(), erased_before);
}

TEST_F(RunStorageTest, ReadPreambleChargesOneRead) {
  const RunImage& a = storage_.WriteRun(2, MakeEntries({7}), {});
  uint64_t reads = device_.stats().counters().TotalReads();
  const RunImage* found = storage_.ReadPreamble(a.id, IoPurpose::kRecovery);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->level, 2u);
  EXPECT_EQ(device_.stats().counters().TotalReads(), reads + 1);
  EXPECT_EQ(storage_.ReadPreamble(9999, IoPurpose::kRecovery), nullptr);
}

TEST_F(RunStorageTest, RunIdsAreUnique) {
  RunId a = storage_.WriteRun(0, MakeEntries({1}), {}).id;
  RunId b = storage_.WriteRun(0, MakeEntries({1}), {}).id;
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace gecko
