// Crash-recovery tests for Logarithmic Gecko in isolation (Appendix C.1),
// driven through the page-validity store's recovery operations as an FTL
// drives them. Buffer recovery (Appendix C.2) is FTL-level and is tested
// with GeckoFTL; here the harness replays non-durable operations itself,
// as the FTL would.

#include <gtest/gtest.h>

#include "core/log_gecko.h"
#include "flash/simple_allocator.h"
#include "pvm/gecko_store.h"
#include "util/random.h"

namespace gecko {
namespace {

Geometry SmallGeometry() {
  Geometry g;
  g.num_blocks = 48;
  g.pages_per_block = 16;
  g.page_bytes = 256;
  g.logical_ratio = 0.7;
  return g;
}

constexpr uint32_t kUserBlocks = 24;

struct Harness {
  Harness() : device(SmallGeometry()) {
    allocator = std::make_unique<SimpleAllocator>(
        &device, kUserBlocks, SmallGeometry().num_blocks - kUserBlocks);
    store = std::make_unique<GeckoStore>(SmallGeometry(), LogGeckoConfig{},
                                         &device, allocator.get());
    gecko = &store->gecko();
  }

  std::vector<BlockId> PvmBlocks() { return allocator->NonFreeBlocks(); }

  void Crash() {
    // Power failure: volatile halves reset; flash (device + run storage)
    // persists. The allocator's RAM bookkeeping is rebuilt from the live
    // pages the Gecko recovery reports.
    store->ResetRamState();
    RecoveryReport report;
    last_info = store->Recover(PvmBlocks(), &report);
    allocator->RecoverRamState(last_info.live_pages);
  }

  FlashDevice device;
  std::unique_ptr<SimpleAllocator> allocator;
  std::unique_ptr<GeckoStore> store;
  LogGecko* gecko = nullptr;
  StoreRecovery last_info;
};

TEST(LogGeckoRecoveryTest, EmptyStructureRecoversToEmpty) {
  Harness h;
  h.Crash();
  EXPECT_EQ(h.gecko->NumLiveRuns(), 0u);
  EXPECT_EQ(h.gecko->QueryInvalidPages(3).Count(), 0u);
}

TEST(LogGeckoRecoveryTest, FlushedContentSurvivesCrash) {
  Harness h;
  h.gecko->RecordInvalidPage({3, 5});
  h.gecko->RecordInvalidPage({7, 1});
  h.gecko->Flush();
  h.Crash();
  EXPECT_GE(h.gecko->NumLiveRuns(), 1u);
  EXPECT_TRUE(h.gecko->QueryInvalidPages(3).Test(5));
  EXPECT_TRUE(h.gecko->QueryInvalidPages(7).Test(1));
}

TEST(LogGeckoRecoveryTest, UnflushedBufferIsLostButDurableSeqSaysSo) {
  Harness h;
  h.gecko->RecordInvalidPage({3, 5});
  h.gecko->Flush();
  uint64_t durable = h.device.CurrentSeq();
  h.gecko->RecordInvalidPage({9, 9});  // never flushed
  h.Crash();
  EXPECT_TRUE(h.gecko->QueryInvalidPages(3).Test(5));
  EXPECT_FALSE(h.gecko->QueryInvalidPages(9).Test(9));
  // The durable horizon tells the FTL everything after it must be
  // re-derived (Appendix C.2).
  EXPECT_LE(h.gecko->DurableSeq(), durable);
  EXPECT_GT(h.gecko->DurableSeq(), 0u);
}

TEST(LogGeckoRecoveryTest, MergedStructureSurvivesCrash) {
  Harness h;
  Rng rng(11);
  std::vector<Bitmap> oracle;
  for (uint32_t b = 0; b < kUserBlocks; ++b) {
    oracle.emplace_back(SmallGeometry().pages_per_block);
  }
  for (int i = 0; i < 5000; ++i) {
    BlockId block = static_cast<BlockId>(rng.Uniform(kUserBlocks));
    uint32_t page = static_cast<uint32_t>(rng.Uniform(16));
    if (rng.Uniform(100) < 6) {
      h.gecko->RecordErase(block);
      oracle[block].Reset();
    } else if (!oracle[block].Test(page)) {
      oracle[block].Set(page);
      h.gecko->RecordInvalidPage({block, page});
    }
  }
  h.gecko->Flush();
  uint32_t runs_before = h.gecko->NumLiveRuns();
  uint64_t pages_before = h.gecko->FlashPages();
  h.Crash();
  EXPECT_EQ(h.gecko->NumLiveRuns(), runs_before);
  EXPECT_EQ(h.gecko->FlashPages(), pages_before);
  for (BlockId b = 0; b < kUserBlocks; ++b) {
    EXPECT_TRUE(h.gecko->QueryInvalidPages(b) == oracle[b]) << "block " << b;
  }
}

TEST(LogGeckoRecoveryTest, FlushCoverSurvivesMerges) {
  Harness h;
  // Two flushes that merge into one run: the merge output must cover the
  // second flush's horizon, not reset it.
  h.gecko->RecordInvalidPage({1, 1});
  h.gecko->Flush();
  h.gecko->RecordInvalidPage({2, 2});
  h.gecko->Flush();  // likely merges with the first run
  uint64_t durable_before = h.gecko->DurableSeq();
  h.Crash();
  EXPECT_EQ(h.gecko->DurableSeq(), durable_before);
}

TEST(LogGeckoRecoveryTest, RepeatedCrashesAreIdempotent) {
  Harness h;
  for (int i = 0; i < 200; ++i) {
    h.gecko->RecordInvalidPage(
        {static_cast<BlockId>(i % kUserBlocks), static_cast<uint32_t>(i % 16)});
  }
  h.gecko->Flush();
  Bitmap before = h.gecko->QueryInvalidPages(5);
  for (int round = 0; round < 3; ++round) {
    h.Crash();
    EXPECT_TRUE(h.gecko->QueryInvalidPages(5) == before) << "round " << round;
  }
}

TEST(LogGeckoRecoveryTest, OperationContinuesAfterRecovery) {
  Harness h;
  h.gecko->RecordInvalidPage({4, 4});
  h.gecko->Flush();
  h.Crash();
  // The structure must keep absorbing updates, flushing and merging.
  for (int i = 0; i < 1000; ++i) {
    h.gecko->RecordInvalidPage(
        {static_cast<BlockId>(i % kUserBlocks), static_cast<uint32_t>(i % 16)});
  }
  EXPECT_TRUE(h.gecko->QueryInvalidPages(4).Test(4));
  EXPECT_GT(h.gecko->NumLiveRuns(), 0u);
}

TEST(LogGeckoRecoveryTest, RecoveryCostsAreReported) {
  Harness h;
  for (int i = 0; i < 500; ++i) {
    h.gecko->RecordInvalidPage(
        {static_cast<BlockId>(i % kUserBlocks), static_cast<uint32_t>(i % 16)});
  }
  h.gecko->Flush();
  h.Crash();
  EXPECT_GT(h.last_info.spare_reads, 0u);
  // One preamble per complete run candidate (ordering check) plus one
  // postamble per live run; with no lingering dead runs the candidates
  // are exactly the live runs.
  EXPECT_EQ(h.last_info.page_reads, 2u * h.gecko->NumLiveRuns());
}

}  // namespace
}  // namespace gecko
