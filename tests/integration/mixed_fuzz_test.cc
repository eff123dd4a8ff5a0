// Integration fuzz: interleave writes, reads, forced GC, and power
// failures under several seeds and workload skews, across all five FTLs.
// The shadow harness guarantees no acknowledged write is ever lost and no
// read ever returns stale data.

#include <gtest/gtest.h>

#include <tuple>

#include "tests/ftl/ftl_test_util.h"
#include "util/random.h"
#include "workload/workload.h"

namespace gecko {
namespace {

using FuzzParam = std::tuple<std::string, uint64_t>;  // (ftl, seed)

class MixedFuzzTest : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(MixedFuzzTest, NoOperationSequenceLosesData) {
  const auto& [name, base_seed] = GetParam();
  const uint64_t seed = FuzzSeed(base_seed);
  GECKO_TRACE_FUZZ_SEED(seed);
  FlashDevice device(FtlTestGeometry());
  auto ftl = MakeFtl(name, &device, 96);
  ShadowHarness shadow(ftl.get(), device.geometry().NumLogicalPages());

  Rng rng(seed);
  // Partial fill: some lpns never written (NotFound paths stay live).
  for (Lpn lpn = 0; lpn < shadow.num_lpns(); ++lpn) {
    if (rng.Uniform(10) < 9) shadow.Write(lpn);
  }

  ZipfWorkload zipf(shadow.num_lpns(), 0.8, seed + 1);
  for (int op = 0; op < 6000; ++op) {
    uint32_t dice = static_cast<uint32_t>(rng.Uniform(1000));
    if (dice < 700) {
      shadow.Write(zipf.NextLpn());
    } else if (dice < 990) {
      shadow.VerifySample(rng, 1);
    } else if (dice < 997) {
      ftl->ForceGc();
    } else {
      ftl->CrashAndRecover();
    }
  }
  shadow.VerifyAll();
}

// Cache-starved mode: a mapping cache of 8 entries against a ~1000-page
// working set forces nearly every read through the translation-miss
// pipeline (park / coalesce / replay) while writes, forced GC, and power
// failures churn underneath it. The shadow harness proves the replayed
// reads never observe stale or lost data; the conservation check proves
// the waiting lists leak nothing across crashes.
TEST_P(MixedFuzzTest, CacheStarvedMissPipelineLosesNoData) {
  const auto& [name, base_seed] = GetParam();
  const uint64_t seed = FuzzSeed(base_seed);
  GECKO_TRACE_FUZZ_SEED(seed);
  FlashDevice device(FtlTestGeometry());
  auto ftl = MakeFtl(name, &device, 8);
  ShadowHarness shadow(ftl.get(), device.geometry().NumLogicalPages());

  Rng rng(seed + 7);
  for (Lpn lpn = 0; lpn < shadow.num_lpns(); ++lpn) {
    if (rng.Uniform(10) < 9) shadow.Write(lpn);
  }

  ZipfWorkload zipf(shadow.num_lpns(), 0.8, seed + 8);
  for (int op = 0; op < 4000; ++op) {
    uint32_t dice = static_cast<uint32_t>(rng.Uniform(1000));
    if (dice < 550) {
      shadow.Write(zipf.NextLpn());
    } else if (dice < 980) {
      shadow.VerifySample(rng, 1);
    } else if (dice < 995) {
      ftl->ForceGc();
    } else {
      ftl->CrashAndRecover();
    }
  }
  shadow.VerifyAll();
  shadow.VerifyAbsent(shadow.num_lpns());

  auto* base = dynamic_cast<BaseFtl*>(ftl.get());
  ASSERT_NE(base, nullptr);
  const AsyncEngineStats& es = base->async_engine().stats();
  EXPECT_EQ(es.parked_extents,
            es.replayed_extents + es.aborted_parked_extents);
  EXPECT_EQ(base->async_engine().ongoing_fetch_count(), 0u);
  EXPECT_EQ(device.stats().miss_fetch_inflight(), 0u);
  // The starved cache really drove the pipeline.
  EXPECT_GT(ftl->counters().miss_fetches, 0u);
  EXPECT_GE(ftl->counters().cache_misses,
            ftl->counters().miss_fetches + ftl->counters().miss_joins);
}

// Free-pool watermark invariant: under a mixed load with background ticks
// and throttled foreground GC, the pool must never hit zero — throttling
// has to engage (and, under pressure, the emergency backstop) strictly
// before exhaustion. Runs on 1- and 4-channel geometries: striping opens
// one active block per channel per group, the worst case for transient
// pool demand.
class WatermarkFuzzTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(WatermarkFuzzTest, FreePoolNeverExhaustsAndThrottlingEngagesFirst) {
  const uint64_t seed = FuzzSeed(303);
  GECKO_TRACE_FUZZ_SEED(seed);
  FlashDevice device(FtlTestGeometry(GetParam()));
  // The default watermark ladder: floor + 3 (throttle), floor + 7.
  auto ftl = MakeFtl("GeckoFTL", &device, 96, [](FtlConfig& c) {
    c.maintenance.migrations_per_step = 4;
  });
  auto* base = dynamic_cast<BaseFtl*>(ftl.get());
  ASSERT_NE(base, nullptr);
  ShadowHarness shadow(ftl.get(), device.geometry().NumLogicalPages());
  for (Lpn lpn = 0; lpn < shadow.num_lpns(); ++lpn) shadow.Write(lpn);
  base->block_manager().ResetFreePoolLowWatermark();

  Rng rng(seed);
  ZipfWorkload zipf(shadow.num_lpns(), 0.8, seed + 1);
  for (int op = 0; op < 8000; ++op) {
    uint32_t dice = static_cast<uint32_t>(rng.Uniform(1000));
    if (dice < 750) {
      shadow.Write(zipf.NextLpn());
    } else if (dice < 900) {
      ftl->IdleTick();
    } else if (dice < 990) {
      shadow.VerifySample(rng, 1);
    } else {
      ftl->CrashAndRecover();
      base->block_manager().ResetFreePoolLowWatermark();
    }
    // The pool is never exhausted: every allocation left at least one
    // free block behind it.
    ASSERT_GE(base->block_manager().NumFreeBlocks(), 1u) << "at op " << op;
  }
  EXPECT_GE(base->block_manager().FreePoolLowWatermark(), 1u);
  // Throttled foreground steps engaged inside the band — i.e. strictly
  // before the pool could approach exhaustion.
  const MaintenanceStats& stats = base->maintenance().stats();
  EXPECT_GT(stats.throttle_engagements, 0u);
  EXPECT_GT(stats.background_steps + stats.throttled_steps, 0u);
  shadow.VerifyAll();
}

INSTANTIATE_TEST_SUITE_P(Channels, WatermarkFuzzTest,
                         ::testing::Values(1u, 4u),
                         [](const ::testing::TestParamInfo<uint32_t>& info) {
                           return "ch" + std::to_string(info.param);
                         });

std::vector<FuzzParam> AllParams() {
  std::vector<FuzzParam> out;
  for (const char* name : {"GeckoFTL", "DFTL", "LazyFTL", "uFTL", "IB-FTL"}) {
    for (uint64_t seed : {101u, 202u}) {
      out.emplace_back(name, seed);
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Fuzz, MixedFuzzTest, ::testing::ValuesIn(AllParams()),
    [](const ::testing::TestParamInfo<FuzzParam>& info) {
      std::string name = std::get<0>(info.param) + "_seed" +
                         std::to_string(std::get<1>(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace gecko
