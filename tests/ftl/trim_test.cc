// Trim semantics across GeckoFTL and all four baselines: trimmed pages
// read back NotFound, their stale data is skipped by GC migration, the
// discard survives power failure, and rewrites after a trim behave like
// first writes.

#include <gtest/gtest.h>

#include "ftl/base_ftl.h"
#include "tests/ftl/ftl_test_util.h"

namespace gecko {
namespace {

class TrimTest : public ChannelFtlTest {};

TEST_P(TrimTest, TrimmedPageReadsNotFound) {
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, 64);
  ASSERT_NE(ftl, nullptr);

  ASSERT_TRUE(ftl->Write(7, 0xAB).ok());
  ASSERT_TRUE(ftl->Write(8, 0xCD).ok());
  ASSERT_TRUE(ftl->Trim(7).ok());

  uint64_t payload = 0;
  Status s = ftl->Read(7, &payload);
  EXPECT_EQ(s.code(), StatusCode::kNotFound) << ftl->Name();
  // The neighbour is untouched.
  ASSERT_TRUE(ftl->Read(8, &payload).ok());
  EXPECT_EQ(payload, 0xCDu);
  EXPECT_EQ(ftl->counters().trims, 1u);
}

TEST_P(TrimTest, TrimOfNeverWrittenPageIsIdempotentNoOp) {
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, 64);

  IoCounters before = device.stats().Snapshot();
  EXPECT_TRUE(ftl->Trim(123).ok());
  EXPECT_TRUE(ftl->Trim(123).ok());
  // No data was there, so no flash page is spent on a tombstone.
  IoCounters delta = device.stats().Snapshot() - before;
  EXPECT_EQ(delta.TotalWrites(), 0u) << ftl->Name();

  uint64_t payload = 0;
  EXPECT_EQ(ftl->Read(123, &payload).code(), StatusCode::kNotFound);
}

TEST_P(TrimTest, BatchTrimInvalidatesEveryExtent) {
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, 64);

  for (Lpn lpn = 0; lpn < 40; ++lpn) {
    ASSERT_TRUE(ftl->Write(lpn, 0x9000 + lpn).ok());
  }
  IoRequest trim = IoRequest::Trim({3, 11, 19, 27, 35});
  IoResult result;
  ASSERT_TRUE(ftl->Submit(trim, &result).ok());
  EXPECT_TRUE(result.AllOk());

  for (Lpn lpn = 0; lpn < 40; ++lpn) {
    uint64_t payload = 0;
    Status s = ftl->Read(lpn, &payload);
    if (lpn % 8 == 3) {
      EXPECT_EQ(s.code(), StatusCode::kNotFound) << ftl->Name() << " lpn "
                                                 << lpn;
    } else {
      ASSERT_TRUE(s.ok()) << ftl->Name() << " lpn " << lpn;
      EXPECT_EQ(payload, 0x9000u + lpn);
    }
  }
  EXPECT_EQ(ftl->counters().trims, 5u);
}

TEST_P(TrimTest, RewriteAfterTrimBehavesLikeFirstWrite) {
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, 64);

  ASSERT_TRUE(ftl->Write(5, 0x111).ok());
  ASSERT_TRUE(ftl->Trim(5).ok());
  ASSERT_TRUE(ftl->Write(5, 0x222).ok());
  uint64_t payload = 0;
  ASSERT_TRUE(ftl->Read(5, &payload).ok());
  EXPECT_EQ(payload, 0x222u);
}

TEST_P(TrimTest, TrimmedDataIsSkippedByGcAndSpaceReclaimed) {
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, 64);
  const uint64_t num_lpns = Geo().NumLogicalPages();

  ShadowHarness shadow(ftl.get(), num_lpns);
  for (Lpn lpn = 0; lpn < num_lpns; ++lpn) shadow.Write(lpn);

  // Trim a contiguous range, then churn the rest until GC has cycled the
  // device several times: the trimmed pages' stale data must never be
  // resurrected by a migration.
  std::vector<Lpn> trimmed;
  for (Lpn lpn = 100; lpn < 200; ++lpn) trimmed.push_back(lpn);
  shadow.TrimBatch(trimmed);

  Rng rng(7);
  for (int i = 0; i < 4000; ++i) {
    Lpn lpn = static_cast<Lpn>(rng.Uniform(num_lpns));
    if (lpn >= 100 && lpn < 200) continue;
    shadow.Write(lpn);
  }
  EXPECT_GT(ftl->counters().gc_collections, 0u) << ftl->Name();

  for (Lpn lpn : trimmed) {
    uint64_t payload = 0;
    EXPECT_EQ(ftl->Read(lpn, &payload).code(), StatusCode::kNotFound)
        << ftl->Name() << " resurrected trimmed lpn " << lpn;
  }
  shadow.VerifyAll();
}

TEST_P(TrimTest, TrimFeedsGcVictimSelection) {
  FlashDevice device(Geo());
  // Cache of 16: the trim batch below is >= 2C, so its before-images are
  // identified eagerly, within the Submit call.
  auto ftl = MakeFtl(FtlName(), &device, 16);
  auto* base = dynamic_cast<BaseFtl*>(ftl.get());
  ASSERT_NE(base, nullptr);
  const Geometry& g = device.geometry();

  // Sequential fill round-robins lpns across one active block per
  // channel, so consecutive lpns stripe over `num_channels` blocks; a
  // "stride" of num_channels * B consecutive lpns fills one block per
  // channel. Trimming two strides' worth must make some block almost
  // fully invalid in the BVC — the signal greedy victim selection uses.
  const Lpn stride = g.num_channels * g.pages_per_block;
  for (Lpn lpn = 0; lpn < 10 * stride; ++lpn) {
    ASSERT_TRUE(ftl->Write(lpn, lpn).ok());
  }
  std::vector<Lpn> range;
  for (Lpn lpn = 2 * stride; lpn < 4 * stride; ++lpn) {
    range.push_back(lpn);
  }
  IoRequest trim = IoRequest::Trim(range);
  ASSERT_TRUE(ftl->Submit(trim, nullptr).ok());

  uint32_t best = 0;
  for (BlockId b = 0; b < g.num_blocks; ++b) {
    best = std::max(best, base->maintenance().InvalidCount(b));
  }
  EXPECT_GE(best, g.pages_per_block - 2) << ftl->Name();
}

TEST_P(TrimTest, TrimSurvivesCrashAndRecover) {
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, 64);
  const uint64_t num_lpns = Geo().NumLogicalPages();

  ShadowHarness shadow(ftl.get(), num_lpns);
  for (Lpn lpn = 0; lpn < 300; ++lpn) shadow.Write(lpn);

  // Three discard timings: long before the crash (mapping synced by
  // later traffic), right before it (tombstone still only in the user
  // log), and after an explicit flush.
  IoRequest early = IoRequest::Trim({10, 11, 12});
  ASSERT_TRUE(ftl->Submit(early, nullptr).ok());
  for (Lpn lpn = 300; lpn < 420; ++lpn) shadow.Write(lpn);

  ASSERT_TRUE(ftl->Trim(20).ok());
  ASSERT_TRUE(ftl->Flush().ok());
  ASSERT_TRUE(ftl->Trim(30).ok());

  ftl->CrashAndRecover();

  for (Lpn lpn : {10u, 11u, 12u, 20u, 30u}) {
    uint64_t payload = 0;
    EXPECT_EQ(ftl->Read(lpn, &payload).code(), StatusCode::kNotFound)
        << ftl->Name() << " lost trim of lpn " << lpn << " across crash";
  }
  // Un-trimmed data is intact.
  for (Lpn lpn : {0u, 9u, 13u, 19u, 21u, 29u, 31u, 299u, 419u}) {
    uint64_t payload = 0;
    ASSERT_TRUE(ftl->Read(lpn, &payload).ok())
        << ftl->Name() << " lpn " << lpn;
  }

  // And the trim is still in force after a second crash plus traffic.
  for (Lpn lpn = 420; lpn < 500; ++lpn) shadow.Write(lpn);
  ftl->CrashAndRecover();
  for (Lpn lpn : {10u, 20u, 30u}) {
    uint64_t payload = 0;
    EXPECT_EQ(ftl->Read(lpn, &payload).code(), StatusCode::kNotFound)
        << ftl->Name() << " trim of lpn " << lpn << " undone by 2nd crash";
  }
  // Rewrites after recovery win over the tombstone.
  ASSERT_TRUE(ftl->Write(20, 0x5eed).ok());
  uint64_t payload = 0;
  ASSERT_TRUE(ftl->Read(20, &payload).ok());
  EXPECT_EQ(payload, 0x5eedu);
}

GECKO_INSTANTIATE_CHANNEL_FTL_SUITE(TrimTest);

}  // namespace
}  // namespace gecko
