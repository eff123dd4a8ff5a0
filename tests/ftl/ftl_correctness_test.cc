// End-to-end correctness of all five FTLs: under random update/read
// workloads with heavy garbage collection, every logical page must always
// read back the token of its most recent write. This exercises the whole
// stack — mapping cache, synchronization, UIP identification, GC victim
// selection, page-validity stores, and metadata block lifecycles.

#include <gtest/gtest.h>

#include "tests/ftl/ftl_test_util.h"
#include "util/random.h"
#include "workload/workload.h"

namespace gecko {
namespace {

class FtlCorrectnessTest : public ChannelFtlTest {};

TEST_P(FtlCorrectnessTest, FillThenReadAll) {
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, /*cache_capacity=*/128);
  ShadowHarness shadow(ftl.get(), device.geometry().NumLogicalPages());
  for (Lpn lpn = 0; lpn < shadow.num_lpns(); ++lpn) shadow.Write(lpn);
  shadow.VerifyAll();
}

TEST_P(FtlCorrectnessTest, RandomUpdatesUnderGcPressure) {
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, 128);
  ShadowHarness shadow(ftl.get(), device.geometry().NumLogicalPages());
  for (Lpn lpn = 0; lpn < shadow.num_lpns(); ++lpn) shadow.Write(lpn);

  Rng rng(99);
  UniformWorkload workload(shadow.num_lpns(), 7);
  for (int i = 0; i < 8000; ++i) {
    shadow.Write(workload.NextLpn());
    if (i % 500 == 0) shadow.VerifySample(rng, 20);
  }
  shadow.VerifyAll();
  // GC must actually have run for this test to mean anything.
  EXPECT_GT(ftl->counters().gc_collections, 0u);
}

TEST_P(FtlCorrectnessTest, SkewedUpdatesKeepColdDataIntact) {
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, 128);
  ShadowHarness shadow(ftl.get(), device.geometry().NumLogicalPages());
  for (Lpn lpn = 0; lpn < shadow.num_lpns(); ++lpn) shadow.Write(lpn);

  // 10% of pages take 90% of updates; cold pages must survive the GC churn
  // that hot pages cause.
  HotColdWorkload workload(shadow.num_lpns(), 0.1, 0.9, 13);
  for (int i = 0; i < 6000; ++i) shadow.Write(workload.NextLpn());
  shadow.VerifyAll();
}

// The dirty cap bounds the cache after every request, not only after lone
// writes: one batch can dirty several entries, and the batched path
// enforces the cap once, when the request ends.
TEST_P(FtlCorrectnessTest, DirtyCapHoldsAfterEveryBatchedWrite) {
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, 64);
  const BaseFtl* base = dynamic_cast<const BaseFtl*>(ftl.get());
  ASSERT_NE(base, nullptr);
  const uint32_t cap = base->config().DirtyCap();
  if (cap == 0) GTEST_SKIP() << FtlName() << " has no dirty cap";
  ShadowHarness shadow(ftl.get(), device.geometry().NumLogicalPages());
  for (Lpn lpn = 0; lpn < shadow.num_lpns(); ++lpn) shadow.Write(lpn);
  UniformWorkload workload(shadow.num_lpns(), 71);
  for (int i = 0; i < 3000; ++i) {
    std::vector<Lpn> lpns;
    for (int e = 0; e < 8; ++e) lpns.push_back(workload.NextLpn());
    shadow.WriteBatch(lpns);
    ASSERT_LE(base->cache().dirty_count(), cap) << "after request " << i;
  }
  shadow.VerifyAll();
}

TEST_P(FtlCorrectnessTest, ReadMissesFetchFromFlash) {
  FlashDevice device(Geo());
  // A tiny cache forces evictions and synchronizations constantly.
  auto ftl = MakeFtl(FtlName(), &device, 16);
  ShadowHarness shadow(ftl.get(), device.geometry().NumLogicalPages());
  for (Lpn lpn = 0; lpn < 200; ++lpn) shadow.Write(lpn);
  // Reading far more lpns than fit in the cache exercises miss handling.
  shadow.VerifyAll();
  EXPECT_GT(ftl->counters().cache_misses, 0u);
}

TEST_P(FtlCorrectnessTest, ReadOfNeverWrittenPageIsNotFound) {
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, 64);
  uint64_t payload;
  Status s = ftl->Read(5, &payload);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST_P(FtlCorrectnessTest, OutOfRangeAccessRejected) {
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, 64);
  Lpn beyond = static_cast<Lpn>(device.geometry().NumLogicalPages());
  EXPECT_EQ(ftl->Write(beyond, 1).code(), StatusCode::kInvalidArgument);
  uint64_t payload;
  EXPECT_EQ(ftl->Read(beyond, &payload).code(), StatusCode::kInvalidArgument);
}

TEST_P(FtlCorrectnessTest, RamBytesReportedAndBounded) {
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, 128);
  ShadowHarness shadow(ftl.get(), device.geometry().NumLogicalPages());
  for (Lpn lpn = 0; lpn < shadow.num_lpns(); ++lpn) shadow.Write(lpn);
  EXPECT_GT(ftl->RamBytes(), 0u);
}

GECKO_INSTANTIATE_CHANNEL_FTL_SUITE(FtlCorrectnessTest);

}  // namespace
}  // namespace gecko
