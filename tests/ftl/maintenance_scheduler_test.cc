// The maintenance plane: resumable GC state machine, watermark ladder,
// write-credit throttling, pluggable victim policies, and — the crash-
// safety invariant of the refactor — recovery from a power failure
// injected at every step boundary of an in-flight collection.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

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

TEST_P(MaintenanceTest, ForceGcRunsOneWholeCollection) {
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, 96, IncrementalTweak);
  auto* base = dynamic_cast<BaseFtl*>(ftl.get());
  ASSERT_NE(base, nullptr);
  ShadowHarness shadow(ftl.get(), device.geometry().NumLogicalPages());
  for (Lpn lpn = 0; lpn < shadow.num_lpns(); ++lpn) shadow.Write(lpn);
  // A collection already in flight is finished, not started afresh.
  const bool in_flight = base->maintenance().phase() != GcPhase::kIdle;
  const uint64_t collections = ftl->counters().gc_collections;
  EXPECT_TRUE(ftl->ForceGc());
  EXPECT_EQ(ftl->counters().gc_collections, collections + (in_flight ? 0 : 1));
  EXPECT_EQ(base->maintenance().phase(), GcPhase::kIdle);
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

// --- The greedy victim index against the scan -------------------------------

/// (FTL name, channel count, temperature classes).
using VictimIndexParam = std::tuple<std::string, uint32_t, uint32_t>;

class VictimIndexTest : public ::testing::TestWithParam<VictimIndexParam> {};

// The index must name the victim the SelectGcVictim scan names after every
// request of a churn that moves every input of the choice: BVC reports,
// active slots opening and closing, pins (GeckoFTL), metadata live counts
// and metadata victims (the kGreedyAll baselines), trims, collections, a
// grown bad block (which arms the migration reserve) and crash recovery.
// After the grown bad block some FTLs degrade to read-only mode and refuse
// writes (the migration reserve admits fully-invalid victims only); the
// index must match the scan in that state too.
TEST_P(VictimIndexTest, MatchesTheScanAfterEveryRequest) {
  const auto [name, channels, classes] = GetParam();
  const uint64_t seed = FuzzSeed(27);
  GECKO_TRACE_FUZZ_SEED(seed);
  FlashDevice device(FtlTestGeometry(channels));
  auto ftl = MakeFtl(name, &device, 96, [classes = classes](FtlConfig& c) {
    IncrementalTweak(c);
    c.num_temp_classes = classes;
  });
  BaseFtl* base = AsBase(ftl.get());
  const GcEngine& gc = base->maintenance();
  const BlockManager& blocks = base->block_manager();
  const Lpn num_lpns = static_cast<Lpn>(device.geometry().NumLogicalPages());
  Rng rng(seed);

  uint64_t checks = 0;
  uint64_t metadata_victims = 0;
  uint32_t most_pinned = 0;
  auto check = [&] {
    const BlockId victim = gc.SelectVictim();
    ASSERT_EQ(victim, gc.ScanVictim()) << "after check " << checks;
    ++checks;
    if (victim != kInvalidU32 && blocks.BlockType(victim) != PageType::kUser) {
      ++metadata_victims;
    }
    most_pinned = std::max(most_pinned, blocks.NumPinned());
  };

  // What every accepted write or trim left; only degraded mode refuses.
  std::unordered_map<Lpn, uint64_t> shadow;
  uint64_t version = 0;
  auto submit = [&](IoOp op, const std::vector<Lpn>& lpns) {
    IoRequest request(op);
    for (Lpn lpn : lpns) request.Add(lpn, FtlExperiment::Token(lpn, ++version));
    IoResult result;
    const Status s = ftl->Submit(request, &result);
    for (size_t e = 0; e < request.extents.size(); ++e) {
      const Status& status = s.ok() ? result.extent_status[e] : s;
      if (!status.ok()) {
        ASSERT_EQ(status.code(), StatusCode::kOutOfSpace) << status.ToString();
        ASSERT_TRUE(ftl->IsDegraded());
        continue;
      }
      const IoExtent& x = request.extents[e];
      if (op == IoOp::kTrim) {
        shadow.erase(x.lpn);
      } else {
        shadow[x.lpn] = x.payload;
      }
    }
  };
  auto verify = [&] {
    for (const auto& [lpn, token] : shadow) {
      uint64_t got = 0;
      ASSERT_TRUE(ftl->Read(lpn, &got).ok()) << "lpn " << lpn;
      ASSERT_EQ(got, token) << "lpn " << lpn;
    }
  };

  for (Lpn lpn = 0; lpn < num_lpns; ++lpn) {
    if (rng.Uniform(10) < 9) submit(IoOp::kWrite, {lpn});
  }
  ASSERT_FALSE(HasFatalFailure());
  check();
  ZipfWorkload zipf(num_lpns, 0.8, seed + 1);
  bool grown_bad = false;
  for (int round = 0; round < 12; ++round) {
    for (int i = 0; i < 300; ++i) {
      const uint64_t kind = rng.Uniform(20);
      if (kind == 0) {
        submit(IoOp::kTrim, {zipf.NextLpn()});
      } else if (kind == 1) {
        std::vector<Lpn> lpns;
        for (int e = 0; e < 6; ++e) lpns.push_back(zipf.NextLpn());
        submit(IoOp::kWrite, lpns);
      } else {
        submit(IoOp::kWrite, {zipf.NextLpn()});
      }
      if (HasFatalFailure()) return;
      check();
      if (HasFatalFailure()) return;
    }
    for (uint64_t t = rng.Uniform(8); t > 0; --t) {
      ftl->IdleTick();
      check();
      if (HasFatalFailure()) return;
    }
    if (round == 3) {
      // The next victim's erase fails: a grown bad block. A collection in
      // flight finishes first.
      if (gc.phase() != GcPhase::kIdle) {
        ASSERT_TRUE(ftl->ForceGc());
      }
      const BlockId victim = gc.SelectVictim();
      ASSERT_NE(victim, kInvalidU32);
      device.fault_model().ArmEraseFault(victim);
      ASSERT_TRUE(ftl->ForceGc());
      grown_bad = device.NumBadBlocks() > 0;
      check();
    }
    if (round % 4 == 2) {
      ftl->CrashAndRecover();
      check();
      verify();
    }
    if (HasFatalFailure()) return;
  }
  verify();
  EXPECT_TRUE(grown_bad);
  EXPECT_GT(checks, 3000u);
  if (base->config().gc_policy == GcPolicy::kGreedyAll) {
    EXPECT_GT(metadata_victims, 0u) << "no metadata block was ever chosen";
  }
  if (name == "GeckoFTL") {
    EXPECT_GT(most_pinned, 0u) << "nothing was pinned";
  }
}

std::string VictimIndexParamName(
    const ::testing::TestParamInfo<VictimIndexParam>& info) {
  std::string name = std::get<0>(info.param);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_ch" + std::to_string(std::get<1>(info.param)) + "_t" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllFtls, VictimIndexTest,
    ::testing::Combine(::testing::Values("GeckoFTL", "DFTL", "LazyFTL",
                                         "uFTL", "IB-FTL"),
                       ::testing::Values(1u, 4u), ::testing::Values(1u, 2u)),
    VictimIndexParamName);

}  // namespace
}  // namespace gecko
