// GcEngine on its own: a device, a block manager, a RAM PVB and a
// translation layer, with no FTL around them. The fixture writes user pages
// the way the FTL's write path does (program, then remap the cached entry,
// which reports the before-image) and drives the engine directly.

#include "ftl/gc_engine.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "pvm/ram_pvb.h"

namespace gecko {
namespace {

Geometry SmallGeometry(uint32_t channels) {
  Geometry g;
  g.num_blocks = 32;
  g.pages_per_block = 8;
  g.page_bytes = 512;
  g.num_channels = channels;
  return g;
}

FtlConfig EngineConfig() {
  FtlConfig c;
  c.cache_capacity = 1024;  // every lpn stays cached: no syncs
  c.checkpoint_period = 0;
  c.gc_policy = GcPolicy::kGreedyAll;
  return c;
}

class GcEngineTest : public ::testing::Test {
 protected:
  explicit GcEngineTest(uint32_t channels = 1,
                        const FtlConfig& config = EngineConfig(),
                        FaultConfig faults = FaultConfig())
      : device_(SmallGeometry(channels), LatencyModel(), faults),
        blocks_(&device_, /*auto_erase_metadata=*/false),
        store_(device_.geometry()),
        hotness_(1, 12, 4096),
        translation_(
            &device_, &blocks_, config, &hotness_, &counters_,
            [this](PhysicalAddress addr) { gc_.ReportInvalid(addr); },
            nullptr),
        gc_(&device_, &blocks_, &store_, &translation_, config, &counters_) {}

  /// Programs a new copy of `lpn` and points its cached entry at it.
  PhysicalAddress Write(Lpn lpn) {
    SpareArea spare;
    spare.type = PageType::kUser;
    spare.key = lpn;
    payload_[lpn] = ++version_;
    PhysicalAddress ppa =
        AllocateAndProgram(&device_, &blocks_, PageType::kUser, kNoStream,
                           spare, version_, IoPurpose::kUserWrite)
            .addr;
    translation_.Remap(lpn, ppa, /*uip=*/false, /*report_before_image=*/true);
    return ppa;
  }

  /// Every written lpn's cached entry points at a page holding its latest
  /// payload.
  void ExpectAllLive() {
    for (const auto& [lpn, payload] : payload_) {
      const MappingEntry* e = translation_.cache().Peek(lpn);
      ASSERT_NE(e, nullptr) << "lpn " << lpn;
      PageReadResult r = device_.ReadPage(e->ppa, IoPurpose::kUserRead);
      ASSERT_TRUE(r.written) << "lpn " << lpn;
      EXPECT_EQ(r.spare.key, lpn);
      EXPECT_EQ(r.payload, payload) << "lpn " << lpn;
    }
  }

  /// The victim index's choice, checked against the scan's.
  BlockId Victim() {
    const BlockId victim = gc_.SelectVictim();
    EXPECT_EQ(victim, gc_.ScanVictim());
    return victim;
  }

  /// Full, inactive user blocks and the lpns each one holds.
  std::map<BlockId, std::vector<Lpn>> FullUserBlocks() {
    std::map<BlockId, std::vector<Lpn>> out;
    for (BlockId b : blocks_.BlocksOfType(PageType::kUser)) {
      if (blocks_.IsActive(b)) continue;
      for (uint32_t p = 0; p < device_.PagesWritten(b); ++p) {
        out[b].push_back(device_.PeekSpare({b, p}).spare.key);
      }
    }
    return out;
  }

  FlashDevice device_;
  BlockManager blocks_;
  RamPvb store_;
  HotnessEstimator hotness_;
  FtlCounters counters_;
  TranslationLayer translation_;
  GcEngine gc_;
  std::map<Lpn, uint64_t> payload_;
  uint64_t version_ = 0;
};

// --- Victim selection ------------------------------------------------------

class GcEngineTwoChannelTest : public GcEngineTest {
 protected:
  GcEngineTwoChannelTest() : GcEngineTest(2) {}

  /// Makes the block's channel the busier one by reading from it.
  void Busy(BlockId block) {
    double other = device_.ChannelBusyUntilUs(1 - device_.ChannelOf(block));
    while (device_.ChannelBusyUntilUs(device_.ChannelOf(block)) <= other) {
      device_.ReadPage({block, 0}, IoPurpose::kOther);
    }
  }

  /// Leaves both channel clocks equal: one read on each in one batch
  /// window, started when both channels are idle.
  void EvenClocks(BlockId ch0_block, BlockId ch1_block) {
    device_.BeginBatch();
    device_.ReadPage({ch0_block, 0}, IoPurpose::kOther);
    device_.ReadPage({ch1_block, 0}, IoPurpose::kOther);
    device_.EndBatch();
    ASSERT_EQ(device_.ChannelBusyUntilUs(0), device_.ChannelBusyUntilUs(1));
  }
};

TEST_F(GcEngineTwoChannelTest, GreedyOrderIsValidPagesThenIdleChannelThenId) {
  for (Lpn lpn = 0; lpn < 80; ++lpn) Write(lpn);
  std::map<BlockId, std::vector<Lpn>> full = FullUserBlocks();
  // Two full blocks per channel, lowest ids first.
  std::vector<BlockId> ch0, ch1;
  for (const auto& [b, lpns] : full) {
    (device_.ChannelOf(b) == 0 ? ch0 : ch1).push_back(b);
  }
  ASSERT_GE(ch0.size(), 2u);
  ASSERT_GE(ch1.size(), 2u);
  auto invalidate = [&](BlockId b, int n) {
    for (int i = 0; i < n; ++i) Write(full[b][i]);
  };

  // Fewest valid pages first, whatever the channel or id.
  invalidate(ch1[1], 5);
  invalidate(ch0[0], 3);
  EXPECT_EQ(Victim(), ch1[1]);

  // Equal valid pages on two channels: the idler channel's block.
  invalidate(ch0[0], 5);
  Busy(ch1[1]);
  EXPECT_EQ(Victim(), ch0[0]);
  Busy(ch0[0]);
  EXPECT_EQ(Victim(), ch1[1]);

  // Equal valid pages on one channel, the other one busier: the lower
  // block id.
  invalidate(ch1[0], 5);
  Busy(ch0[0]);
  ASSERT_LT(ch1[0], ch1[1]);
  EXPECT_EQ(Victim(), ch1[0]);
}

TEST_F(GcEngineTwoChannelTest, EqualValidPagesAndClocksPickTheLowestId) {
  for (Lpn lpn = 0; lpn < 80; ++lpn) Write(lpn);
  std::map<BlockId, std::vector<Lpn>> full = FullUserBlocks();
  std::vector<BlockId> ch0, ch1;
  for (const auto& [b, lpns] : full) {
    (device_.ChannelOf(b) == 0 ? ch0 : ch1).push_back(b);
  }
  ASSERT_GE(ch0.size(), 2u);
  ASSERT_GE(ch1.size(), 1u);
  auto invalidate = [&](BlockId b, int n) {
    for (int i = 0; i < n; ++i) Write(full[b][i]);
  };
  // The channel-1 block has the lower id of the two.
  ASSERT_LT(ch1[0], ch0[1]);
  invalidate(ch0[1], 5);
  invalidate(ch1[0], 5);
  EvenClocks(ch0[1], ch1[0]);
  EXPECT_EQ(Victim(), ch1[0]);
  // Now a channel-0 block has the lowest id.
  ASSERT_LT(ch0[0], ch1[0]);
  invalidate(ch0[0], 5);
  EvenClocks(ch0[0], ch1[0]);
  EXPECT_EQ(Victim(), ch0[0]);
}

// --- One collection --------------------------------------------------------

TEST_F(GcEngineTest, CollectionMigratesExactlyTheLivePagesAndErasesVictim) {
  for (Lpn lpn = 0; lpn < 40; ++lpn) Write(lpn);
  std::map<BlockId, std::vector<Lpn>> full = FullUserBlocks();
  ASSERT_FALSE(full.empty());
  const BlockId victim = full.begin()->first;
  const std::vector<Lpn> lpns = full.begin()->second;
  for (int i = 0; i < 3; ++i) Write(lpns[i]);  // 3 of 8 pages now stale
  EXPECT_EQ(gc_.InvalidCount(victim), 3u);
  ASSERT_EQ(gc_.SelectVictim(), victim);

  const uint64_t erases = device_.stats().counters().TotalErases();
  ASSERT_TRUE(gc_.Collect());
  EXPECT_EQ(counters_.gc_collections, 1u);
  EXPECT_EQ(counters_.gc_migrations, lpns.size() - 3);
  EXPECT_EQ(device_.stats().counters().TotalErases(), erases + 1);
  EXPECT_EQ(device_.PagesWritten(victim), 0u);
  EXPECT_EQ(blocks_.BlockType(victim), PageType::kFree);
  EXPECT_EQ(gc_.InvalidCount(victim), 0u);
  EXPECT_EQ(gc_.phase(), GcPhase::kIdle);
  for (Lpn lpn : lpns) {
    EXPECT_NE(translation_.cache().Peek(lpn)->ppa.block, victim);
  }
  ExpectAllLive();
}

TEST_F(GcEngineTest, StepsWalkThePhasesOfOneCollection) {
  for (Lpn lpn = 0; lpn < 40; ++lpn) Write(lpn);
  for (Lpn lpn = 0; lpn < 4; ++lpn) Write(lpn);
  EXPECT_TRUE(gc_.Step(2).advanced);
  EXPECT_EQ(gc_.phase(), GcPhase::kMigrate);
  while (gc_.phase() == GcPhase::kMigrate) ASSERT_TRUE(gc_.Step(2).advanced);
  EXPECT_EQ(gc_.phase(), GcPhase::kFlush);
  EXPECT_FALSE(gc_.Step(2).erased);
  EXPECT_EQ(gc_.phase(), GcPhase::kErase);
  EXPECT_TRUE(gc_.Step(2).erased);
  EXPECT_EQ(gc_.phase(), GcPhase::kIdle);
  ExpectAllLive();
}

// Reports deferred by a request in flight must reach the store before the
// erase record obsoletes them; one that lands after it would mark a page
// of the erased block invalid.
TEST_F(GcEngineTest, DeferredReportsLandBeforeTheEraseRecord) {
  for (Lpn lpn = 0; lpn < 40; ++lpn) Write(lpn);
  for (Lpn lpn = 0; lpn < 4; ++lpn) Write(lpn);
  const BlockId victim = gc_.SelectVictim();
  ASSERT_NE(victim, kInvalidU32);
  while (gc_.phase() != GcPhase::kErase) ASSERT_TRUE(gc_.Step(8).advanced);
  gc_.BeginRequest(/*defer=*/true);
  gc_.ReportInvalid({victim, 7});
  ASSERT_TRUE(gc_.Step(8).erased);
  gc_.EndRequest();
  EXPECT_EQ(store_.QueryInvalidPages(victim).Count(), 0u);
}

// The recovery fence is the first sequence number after recovery, so the
// first page programmed after it is exactly tracked: a stale copy there
// with an unidentified before-image is a UIP detection, not an uncertain
// entry.
FtlConfig SmallCacheConfig() {
  FtlConfig c = EngineConfig();
  c.cache_capacity = 8;
  return c;
}

class GcEngineSmallCacheTest : public GcEngineTest {
 protected:
  GcEngineSmallCacheTest() : GcEngineTest(1, SmallCacheConfig()) {}
};

TEST_F(GcEngineSmallCacheTest, FirstPageAfterTheRecoveryFenceIsExactlyTracked) {
  gc_.set_recovery_fence(device_.CurrentSeq());
  const PhysicalAddress first = Write(0);
  // Lpn 0 is synchronized and evicted; rewriting it misses the cache and
  // leaves `first` as its unidentified before-image.
  for (Lpn lpn = 1; lpn < 16; ++lpn) Write(lpn);
  ASSERT_FALSE(translation_.cache().Contains(0));
  SpareArea spare;
  spare.type = PageType::kUser;
  spare.key = 0;
  PhysicalAddress fresh =
      AllocateAndProgram(&device_, &blocks_, PageType::kUser, kNoStream, spare,
                         ++version_, IoPurpose::kUserWrite)
          .addr;
  translation_.Remap(0, fresh, /*uip=*/true, /*report_before_image=*/true);
  ASSERT_TRUE(gc_.Collect(first.block));
  EXPECT_EQ(counters_.uip_detections, 1u);
  const MappingEntry* entry = translation_.cache().Peek(0);
  ASSERT_NE(entry, nullptr);
  EXPECT_FALSE(entry->uip);
  EXPECT_FALSE(entry->uncertain);
}

// --- Pacing ------------------------------------------------------------------

TEST_F(GcEngineTest, ThrottleBandRunsStepsBeforeTheFloor) {
  ASSERT_GT(gc_.soft_watermark(), kGcFreeBlockFloor);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(gc_.BeforeUserWrite()) << "write " << i;
    Write(static_cast<Lpn>(i % 64));
  }
  EXPECT_GT(gc_.stats().throttle_engagements, 0u);
  EXPECT_GT(gc_.stats().throttled_steps, 0u);
  EXPECT_EQ(gc_.stats().emergency_stalls, 0u);
  EXPECT_GE(blocks_.FreePoolLowWatermark(), kGcFreeBlockFloor - 1);
  ExpectAllLive();
}

FtlConfig NoBandConfig() {
  FtlConfig c = EngineConfig();
  c.maintenance.hard_watermark = kGcFreeBlockFloor;  // empty throttle band
  return c;
}

class GcEngineNoBandTest : public GcEngineTest {
 protected:
  GcEngineNoBandTest() : GcEngineTest(1, NoBandConfig()) {}
};

TEST_F(GcEngineNoBandTest, EmergencyFloorCollectsBackToTheFloor) {
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(gc_.BeforeUserWrite()) << "write " << i;
    ASSERT_GE(blocks_.NumFreeBlocks(), kGcFreeBlockFloor);
    Write(static_cast<Lpn>(i % 64));
  }
  EXPECT_EQ(gc_.stats().throttled_steps, 0u);
  EXPECT_GT(gc_.stats().emergency_stalls, 0u);
  EXPECT_GT(counters_.gc_collections, 0u);
  ExpectAllLive();
}

// A retired block means erases can fail and net nothing, so below the
// migration reserve only fully-invalid victims are safe. With every user
// page live there is none: admission reports space exhausted, which the
// FTL turns into degraded mode.
FaultConfig OneFactoryBadBlock() {
  FaultConfig f;
  f.factory_bad = {31};
  return f;
}

class GcEngineRetiredBlockTest : public GcEngineTest {
 protected:
  GcEngineRetiredBlockTest()
      : GcEngineTest(1, EngineConfig(), OneFactoryBadBlock()) {}
};

TEST_F(GcEngineRetiredBlockTest, NoVictimMeansSpaceIsExhausted) {
  Lpn lpn = 0;
  while (blocks_.NumFreeBlocks() > 2) Write(lpn++);  // every page live
  EXPECT_EQ(Victim(), kInvalidU32);
  EXPECT_FALSE(gc_.Step(8).advanced);
  EXPECT_FALSE(gc_.BeforeUserWrite());
  EXPECT_EQ(gc_.stats().emergency_stalls, 1u);
  EXPECT_EQ(counters_.gc_collections, 0u);
  ExpectAllLive();
}

// The migration reserve: with a retired block and fewer free blocks than
// the reserve, a victim with live pages is passed over, however few.
TEST_F(GcEngineRetiredBlockTest, BelowTheReserveOnlyFullyInvalidVictims) {
  Lpn lpn = 0;
  while (blocks_.NumFreeBlocks() > 3) Write(lpn++);
  std::map<BlockId, std::vector<Lpn>> full = FullUserBlocks();
  ASSERT_FALSE(full.empty());
  const BlockId block = full.begin()->first;
  const std::vector<Lpn> lpns = full.begin()->second;
  for (size_t i = 0; i + 1 < lpns.size(); ++i) Write(lpns[i]);
  ASSERT_GT(device_.NumBadBlocks(), 0u);
  ASSERT_LT(blocks_.NumFreeBlocks(), 4u);
  EXPECT_EQ(Victim(), kInvalidU32);  // one live page left
  Write(lpns.back());
  ASSERT_LT(blocks_.NumFreeBlocks(), 4u);
  EXPECT_EQ(Victim(), block);
}

}  // namespace
}  // namespace gecko
