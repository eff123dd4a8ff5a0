// The maintenance plane: resumable GC state machine, watermark ladder,
// write-credit throttling, pluggable victim policies, and — the crash-
// safety invariant of the refactor — recovery from a power failure
// injected at every step boundary of an in-flight collection.

#include <gtest/gtest.h>

#include <set>

#include "ftl/gc_victim_policy.h"
#include "ftl/gc_engine.h"
#include "tests/ftl/ftl_test_util.h"
#include "util/random.h"
#include "workload/workload.h"

namespace gecko {
namespace {

/// The default ladder (a real throttle band) with small step budgets so
/// collections stay observable mid-flight across many IdleTick calls.
void IncrementalTweak(FtlConfig& c) {
  c.maintenance.migrations_per_step = 2;
  c.maintenance.steps_per_tick = 1;
}

BaseFtl* AsBase(Ftl* ftl) {
  BaseFtl* base = dynamic_cast<BaseFtl*>(ftl);
  EXPECT_NE(base, nullptr);
  return base;
}

class MaintenanceTest : public ChannelFtlTest {};

// --- Victim policy unit behaviour ------------------------------------------

TEST(GcVictimPolicyTest, GreedyPrefersFewestValidPages) {
  GreedyVictimPolicy greedy;
  GcVictimCandidate a;
  a.valid = 3;
  GcVictimCandidate b;
  b.valid = 9;
  EXPECT_LT(greedy.Score(a), greedy.Score(b));
}

TEST(GcVictimPolicyTest, CostBenefitPrefersColdBlocksAtEqualUtilization) {
  CostBenefitVictimPolicy cb;
  GcVictimCandidate cold;
  cold.valid = 8;
  cold.written = 16;
  cold.pages_per_block = 16;
  cold.age = 10000;
  GcVictimCandidate hot = cold;
  hot.age = 10;
  EXPECT_LT(cb.Score(cold), cb.Score(hot));
}

TEST(GcVictimPolicyTest, SelectGcVictimBreaksTiesTowardIdleChannels) {
  GreedyVictimPolicy greedy;
  BlockId victim = SelectGcVictim(4, greedy, [](BlockId b,
                                                GcVictimCandidate* c) {
    c->valid = 5;  // all tied
    c->channel_busy_until_us = b == 2 ? 10.0 : 100.0;
    return true;
  });
  EXPECT_EQ(victim, 2u);
}

TEST(GcVictimPolicyTest, FactoryMapsEveryEnumValue) {
  EXPECT_STREQ(MakeGcVictimPolicy(GcPolicy::kGreedyAll)->Name(), "greedy");
  EXPECT_STREQ(MakeGcVictimPolicy(GcPolicy::kNeverCollectMetadata)->Name(),
               "greedy");
  EXPECT_STREQ(MakeGcVictimPolicy(GcPolicy::kCostBenefit)->Name(),
               "cost-benefit");
  EXPECT_TRUE(GcPolicyCollectsMetadata(GcPolicy::kGreedyAll));
  EXPECT_FALSE(GcPolicyCollectsMetadata(GcPolicy::kNeverCollectMetadata));
  EXPECT_FALSE(GcPolicyCollectsMetadata(GcPolicy::kCostBenefit));
}

// --- State machine behaviour ----------------------------------------------

TEST_P(MaintenanceTest, IdleTicksDriveCollectionsThroughEveryPhase) {
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, 96, IncrementalTweak);
  BaseFtl* base = AsBase(ftl.get());
  ShadowHarness shadow(ftl.get(), device.geometry().NumLogicalPages());
  for (Lpn lpn = 0; lpn < shadow.num_lpns(); ++lpn) shadow.Write(lpn);
  UniformWorkload workload(shadow.num_lpns(), 7);
  for (int i = 0; i < 1500; ++i) shadow.Write(workload.NextLpn());

  // With 1 step per tick and 2 migrations per step, ticking must walk the
  // cursor through every phase of at least one collection.
  std::set<GcPhase> seen;
  for (int tick = 0; tick < 200; ++tick) {
    seen.insert(base->maintenance().phase());
    ftl->IdleTick();
  }
  seen.insert(base->maintenance().phase());
  EXPECT_TRUE(seen.count(GcPhase::kIdle));
  if (base->maintenance().stats().background_steps > 0) {
    EXPECT_TRUE(seen.count(GcPhase::kMigrate));
  }
  shadow.VerifyAll();
}

TEST_P(MaintenanceTest, BackgroundTicksRefillThePoolToTheSoftWatermark) {
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, 96, IncrementalTweak);
  BaseFtl* base = AsBase(ftl.get());
  ShadowHarness shadow(ftl.get(), device.geometry().NumLogicalPages());
  for (Lpn lpn = 0; lpn < shadow.num_lpns(); ++lpn) shadow.Write(lpn);
  UniformWorkload workload(shadow.num_lpns(), 11);
  for (int i = 0; i < 2000; ++i) shadow.Write(workload.NextLpn());

  for (int tick = 0; tick < 2000; ++tick) {
    if (base->block_manager().NumFreeBlocks() >=
            base->maintenance().soft_watermark() &&
        base->maintenance().phase() == GcPhase::kIdle) {
      break;
    }
    ftl->IdleTick();
  }
  EXPECT_GE(base->block_manager().NumFreeBlocks(),
            base->maintenance().soft_watermark());
  EXPECT_GT(base->maintenance().stats().background_steps, 0u);
  shadow.VerifyAll();
}

TEST_P(MaintenanceTest, ForceGcReportsSkipWhenReentrant) {
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, 96, IncrementalTweak);
  ShadowHarness shadow(ftl.get(), device.geometry().NumLogicalPages());
  for (Lpn lpn = 0; lpn < shadow.num_lpns(); ++lpn) shadow.Write(lpn);
  // Normal call: a full cycle runs and reports success.
  EXPECT_TRUE(ftl->ForceGc());
  EXPECT_EQ(ftl->counters().gc_force_skips, 0u);
  EXPECT_GT(ftl->counters().gc_collections, 0u);
  shadow.VerifyAll();
}

// --- Crash injection at step boundaries ------------------------------------

TEST_P(MaintenanceTest, CrashAtEveryGcStepBoundaryRecovers) {
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, 96, IncrementalTweak);
  BaseFtl* base = AsBase(ftl.get());
  ShadowHarness shadow(ftl.get(), device.geometry().NumLogicalPages());
  for (Lpn lpn = 0; lpn < shadow.num_lpns(); ++lpn) shadow.Write(lpn);

  UniformWorkload workload(shadow.num_lpns(), 13);
  // For each phase of the state machine: drive load, tick until the
  // cursor rests exactly at that phase boundary, crash, verify, resume.
  for (GcPhase target :
       {GcPhase::kMigrate, GcPhase::kFlush, GcPhase::kErase}) {
    for (int i = 0; i < 600; ++i) shadow.Write(workload.NextLpn());
    bool reached = false;
    for (int tick = 0; tick < 3000 && !reached; ++tick) {
      ftl->IdleTick();
      reached = base->maintenance().phase() == target;
    }
    // Under light GC demand a phase may not be reachable this round; the
    // crash must be sound either way.
    ftl->CrashAndRecover();
    EXPECT_EQ(base->maintenance().phase(), GcPhase::kIdle);
    shadow.VerifyAll();
    // Operation resumes correctly after abandoning the collection.
    for (int i = 0; i < 400; ++i) shadow.Write(workload.NextLpn());
    shadow.VerifyAll();
  }
}

TEST_P(MaintenanceTest, RandomCrashChurnAcrossIncrementalCollections) {
  const uint64_t seed = FuzzSeed(17);
  GECKO_TRACE_FUZZ_SEED(seed);
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, 96, IncrementalTweak);
  BaseFtl* base = AsBase(ftl.get());
  ShadowHarness shadow(ftl.get(), device.geometry().NumLogicalPages());
  Rng rng(seed);
  for (Lpn lpn = 0; lpn < shadow.num_lpns(); ++lpn) {
    if (rng.Uniform(10) < 9) shadow.Write(lpn);
  }
  ZipfWorkload zipf(shadow.num_lpns(), 0.8, seed + 2);
  uint64_t mid_flight_crashes = 0;
  for (int round = 0; round < 25; ++round) {
    uint64_t burst = 100 + rng.Uniform(400);
    for (uint64_t i = 0; i < burst; ++i) shadow.Write(zipf.NextLpn());
    uint64_t ticks = rng.Uniform(12);
    for (uint64_t t = 0; t < ticks; ++t) ftl->IdleTick();
    if (base->maintenance().phase() != GcPhase::kIdle) ++mid_flight_crashes;
    ftl->CrashAndRecover();
    shadow.VerifySample(rng, 32);
  }
  shadow.VerifyAll();
  // The churn must actually have exercised mid-flight abandonment; the
  // small step budgets make in-flight cursors common.
  EXPECT_GT(mid_flight_crashes, 0u) << "tune budgets: no mid-flight crash";
}

// --- Watermarks and throttling under saturation -----------------------------

TEST_P(MaintenanceTest, SaturatedWritesEngageThrottlingBeforeTheFloor) {
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, 96, IncrementalTweak);
  BaseFtl* base = AsBase(ftl.get());
  ShadowHarness shadow(ftl.get(), device.geometry().NumLogicalPages());
  for (Lpn lpn = 0; lpn < shadow.num_lpns(); ++lpn) shadow.Write(lpn);
  UniformWorkload workload(shadow.num_lpns(), 23);
  // Saturated host: no idle ticks at all. The write path alone must keep
  // the device alive, with throttled steps engaging inside the band.
  for (int i = 0; i < 4000; ++i) shadow.Write(workload.NextLpn());
  const MaintenanceStats& stats = base->maintenance().stats();
  EXPECT_GT(stats.throttle_engagements, 0u);
  EXPECT_GT(stats.throttled_steps, 0u);
  // The pool never ran dry — there was always a block left after every
  // allocation.
  EXPECT_GE(base->block_manager().FreePoolLowWatermark(), 1u);
  shadow.VerifyAll();
}

// --- Cost-benefit policy end-to-end ----------------------------------------

TEST_P(MaintenanceTest, CostBenefitPolicyRunsCorrectly) {
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, 96, [](FtlConfig& c) {
    IncrementalTweak(c);
    c.gc_policy = GcPolicy::kCostBenefit;
  });
  BaseFtl* base = AsBase(ftl.get());
  EXPECT_STREQ(base->maintenance().victim_policy().Name(), "cost-benefit");
  ShadowHarness shadow(ftl.get(), device.geometry().NumLogicalPages());
  for (Lpn lpn = 0; lpn < shadow.num_lpns(); ++lpn) shadow.Write(lpn);
  HotColdWorkload workload(shadow.num_lpns(), 0.2, 0.8, 29);
  for (int i = 0; i < 3000; ++i) shadow.Write(workload.NextLpn());
  for (int t = 0; t < 50; ++t) ftl->IdleTick();
  ftl->CrashAndRecover();
  shadow.VerifyAll();
  EXPECT_GT(ftl->counters().gc_collections, 0u);
}

GECKO_INSTANTIATE_CHANNEL_FTL_SUITE(MaintenanceTest);

}  // namespace
}  // namespace gecko
