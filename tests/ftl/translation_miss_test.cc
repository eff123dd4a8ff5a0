// The non-blocking translation-miss pipeline, on all five FTLs at 1 and 4
// channels: concurrent misses on one translation page coalesce into
// exactly one in-flight fetch (the `ongoing_mapping_operations` structure
// of the EagleTree DFTL scheduler), hits and independent requests keep
// flowing while fetches are outstanding, never-written translation pages
// resolve NotFound without fetching, parked results match the synchronous
// shadow model bit for bit, and the synchronous-miss baseline demonstrates
// the duplicate fetches the pipeline removes.

#include <vector>

#include <gtest/gtest.h>

#include "ftl/base_ftl.h"
#include "tests/ftl/ftl_test_util.h"
#include "util/random.h"

namespace gecko {
namespace {

// 512-byte pages hold 128 mapping entries, so lpns [128t, 128t+127] share
// translation page t.
constexpr Lpn kTPageSpan = 128;

constexpr uint64_t Token(Lpn lpn) { return 5000 + lpn; }

class TranslationMissTest : public ChannelFtlTest {};

const AsyncEngine& EngineOf(Ftl* ftl) {
  auto* base = dynamic_cast<BaseFtl*>(ftl);
  EXPECT_NE(base, nullptr);
  return base->async_engine();
}

/// One observed completion, in callback-fire order.
struct Fired {
  int tag = 0;
  Status status;
  double complete_us = 0;
  std::vector<uint64_t> payloads;
};

CompletionCb Recorder(std::vector<Fired>* fired, int tag) {
  return [fired, tag](const IoResult& result, const AsyncCompletion& done) {
    Fired f;
    f.tag = tag;
    f.status = result.status;
    f.complete_us = done.complete_us;
    f.payloads = result.payloads;
    fired->push_back(std::move(f));
  };
}

/// Writes Token(lpn) to the first `count` lpns of each translation page in
/// `tpages`, flushes, then fills the (small) cache with the mappings of
/// the *last* group, so every other group's lpns miss on their next read.
void PopulateAndStarve(Ftl* ftl, const std::vector<TPageId>& tpages,
                       Lpn count) {
  for (TPageId t : tpages) {
    for (Lpn l = t * kTPageSpan; l < t * kTPageSpan + count; ++l) {
      ASSERT_TRUE(ftl->Write(l, Token(l)).ok());
    }
  }
  ASSERT_TRUE(ftl->Flush().ok());
  TPageId parking = tpages.back();
  for (Lpn l = parking * kTPageSpan; l < parking * kTPageSpan + count; ++l) {
    uint64_t got = 0;
    ASSERT_TRUE(ftl->Read(l, &got).ok());
    ASSERT_EQ(got, Token(l));
  }
}

TEST_P(TranslationMissTest, ConcurrentMissesOnOneTpageCoalesceIntoOneFetch) {
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, 4,
                     [](FtlConfig& c) { c.async_queue_depth = 16; });
  PopulateAndStarve(ftl.get(), {0, 1}, 8);

  const uint64_t treads0 =
      device.stats().counters().ReadsFor(IoPurpose::kTranslation);
  const AsyncEngineStats es0 = EngineOf(ftl.get()).stats();
  const FtlCounters fc0 = ftl->counters();
  const uint64_t fetches0 = device.stats().miss_fetches_issued();
  const uint64_t joins0 = device.stats().coalesced_misses();
  const uint64_t stalls0 = device.stats().MissStall().count();

  // Six concurrent single-extent reads, all missing on translation page 0:
  // the first issues the one fetch, the other five join it.
  std::vector<Fired> fired;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(ftl->SubmitAsync(IoRequest::Read({static_cast<Lpn>(i)}),
                                 Recorder(&fired, i))
                    .ok());
  }
  EXPECT_EQ(ftl->InFlightRequests(), 6u);
  EXPECT_EQ(EngineOf(ftl.get()).ongoing_fetch_count(), 1u);
  EXPECT_EQ(device.stats().miss_fetch_inflight(), 1u);
  EXPECT_TRUE(fired.empty());

  EXPECT_EQ(ftl->DrainAsync(), 6u);
  ASSERT_EQ(fired.size(), 6u);
  for (const Fired& f : fired) {
    EXPECT_TRUE(f.status.ok());
    ASSERT_EQ(f.payloads.size(), 1u);
    EXPECT_EQ(f.payloads[0], Token(static_cast<Lpn>(f.tag)));
  }

  // Exactly one translation read serviced all six misses — the coalesced
  // minimum — and every layer of accounting agrees on the 1 + 5 split.
  EXPECT_EQ(device.stats().counters().ReadsFor(IoPurpose::kTranslation),
            treads0 + 1);
  EXPECT_EQ(device.stats().miss_fetches_issued(), fetches0 + 1);
  EXPECT_EQ(device.stats().coalesced_misses(), joins0 + 5);
  EXPECT_EQ(device.stats().MissStall().count(), stalls0 + 6);
  const AsyncEngineStats& es = EngineOf(ftl.get()).stats();
  EXPECT_EQ(es.parked_extents, es0.parked_extents + 6);
  EXPECT_EQ(es.replayed_extents, es0.replayed_extents + 6);
  const FtlCounters& fc = ftl->counters();
  EXPECT_EQ(fc.miss_fetches, fc0.miss_fetches + 1);
  EXPECT_EQ(fc.miss_joins, fc0.miss_joins + 5);
  EXPECT_EQ(fc.cache_misses, fc0.cache_misses + 6);
  // No leaked waiting-list entries, and the in-flight gauge is balanced.
  EXPECT_EQ(EngineOf(ftl.get()).ongoing_fetch_count(), 0u);
  EXPECT_EQ(device.stats().miss_fetch_inflight(), 0u);
  EXPECT_GE(device.stats().miss_fetch_inflight_watermark(), 1u);
}

TEST_P(TranslationMissTest, FetchesEqualDistinctTpagesAcrossInterleavedRequests) {
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, 4,
                     [](FtlConfig& c) { c.async_queue_depth = 16; });
  PopulateAndStarve(ftl.get(), {0, 1, 2, 3}, 4);

  const uint64_t treads0 =
      device.stats().counters().ReadsFor(IoPurpose::kTranslation);
  const uint64_t fetches0 = device.stats().miss_fetches_issued();
  const uint64_t joins0 = device.stats().coalesced_misses();
  const AsyncEngineStats es0 = EngineOf(ftl.get()).stats();
  const FtlCounters fc0 = ftl->counters();

  // Twelve misses over three translation pages, interleaved round-robin
  // across six single-extent requests plus one six-extent scatter-gather
  // request; every extent of the latter joins an already-in-flight fetch.
  std::vector<Fired> fired;
  const Lpn singles[] = {0, 128, 256, 1, 129, 257};
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        ftl->SubmitAsync(IoRequest::Read({singles[i]}), Recorder(&fired, i))
            .ok());
  }
  IoRequest batch = IoRequest::Read({2, 130, 258, 3, 131, 259});
  std::vector<Fired> batch_fired;
  ASSERT_TRUE(ftl->SubmitAsync(std::move(batch), Recorder(&batch_fired, 6)).ok());
  EXPECT_EQ(EngineOf(ftl.get()).ongoing_fetch_count(), 3u);
  EXPECT_EQ(device.stats().miss_fetch_inflight(), 3u);

  EXPECT_EQ(ftl->DrainAsync(), 7u);
  ASSERT_EQ(fired.size(), 6u);
  for (const Fired& f : fired) {
    EXPECT_TRUE(f.status.ok());
    ASSERT_EQ(f.payloads.size(), 1u);
    EXPECT_EQ(f.payloads[0], Token(singles[f.tag]));
  }
  ASSERT_EQ(batch_fired.size(), 1u);
  ASSERT_EQ(batch_fired[0].payloads.size(), 6u);
  const Lpn batched[] = {2, 130, 258, 3, 131, 259};
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(batch_fired[0].payloads[i], Token(batched[i]));
  }

  // One fetch per distinct translation page — the coalesced minimum.
  EXPECT_EQ(device.stats().counters().ReadsFor(IoPurpose::kTranslation),
            treads0 + 3);
  EXPECT_EQ(device.stats().miss_fetches_issued(), fetches0 + 3);
  EXPECT_EQ(device.stats().coalesced_misses(), joins0 + 9);
  const AsyncEngineStats& es = EngineOf(ftl.get()).stats();
  EXPECT_EQ(es.parked_extents, es0.parked_extents + 12);
  EXPECT_EQ(es.replayed_extents, es0.replayed_extents + 12);
  const FtlCounters& fc = ftl->counters();
  EXPECT_EQ(fc.miss_fetches, fc0.miss_fetches + 3);
  EXPECT_EQ(fc.miss_joins, fc0.miss_joins + 9);
  EXPECT_EQ(fc.cache_misses, fc0.cache_misses + 12);
  EXPECT_EQ(EngineOf(ftl.get()).ongoing_fetch_count(), 0u);
}

TEST_P(TranslationMissTest, HitsKeepFlowingWhileMissFetchIsInFlight) {
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, 4,
                     [](FtlConfig& c) { c.async_queue_depth = 16; });
  PopulateAndStarve(ftl.get(), {0, 1}, 4);

  // A missing read parks on its fetch; a cache-hit read admitted *after*
  // it neither parks nor waits for the fetch.
  std::vector<Fired> fired;
  ASSERT_TRUE(
      ftl->SubmitAsync(IoRequest::Read({0}), Recorder(&fired, 0)).ok());
  EXPECT_EQ(EngineOf(ftl.get()).ongoing_fetch_count(), 1u);
  const uint64_t parked_before = EngineOf(ftl.get()).stats().parked_extents;
  ASSERT_TRUE(
      ftl->SubmitAsync(IoRequest::Read({128}), Recorder(&fired, 1)).ok());
  // The hit dispatched past the in-flight fetch without parking anything.
  EXPECT_EQ(EngineOf(ftl.get()).stats().parked_extents, parked_before);
  EXPECT_EQ(ftl->InFlightRequests(), 2u);

  EXPECT_EQ(ftl->DrainAsync(), 2u);
  ASSERT_EQ(fired.size(), 2u);
  const Fired& hit = fired[0].tag == 1 ? fired[0] : fired[1];
  const Fired& miss = fired[0].tag == 1 ? fired[1] : fired[0];
  // The hit never waits on the fetch: its data read was stamped at
  // submission, so it completes no later than the parked miss, whose data
  // read could only start after the fetch's device time. (They can tie
  // when the hit queues behind the fetch on one channel while the replay
  // lands on a free one.)
  EXPECT_LE(hit.complete_us, miss.complete_us);
  EXPECT_EQ(hit.payloads[0], Token(128));
  EXPECT_EQ(miss.payloads[0], Token(0));
}

TEST_P(TranslationMissTest, NeverWrittenTpageResolvesNotFoundWithoutFetch) {
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, 4,
                     [](FtlConfig& c) { c.async_queue_depth = 16; });
  PopulateAndStarve(ftl.get(), {0, 1}, 4);

  // Translation page 5 was never written: the read resolves NotFound
  // immediately, with no fetch issued and nothing parked.
  const uint64_t treads0 =
      device.stats().counters().ReadsFor(IoPurpose::kTranslation);
  const AsyncEngineStats es0 = EngineOf(ftl.get()).stats();
  std::vector<Fired> fired;
  ASSERT_TRUE(
      ftl->SubmitAsync(IoRequest::Read({701}), Recorder(&fired, 0)).ok());
  EXPECT_EQ(EngineOf(ftl.get()).ongoing_fetch_count(), 0u);
  EXPECT_EQ(ftl->DrainAsync(), 1u);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(device.stats().counters().ReadsFor(IoPurpose::kTranslation),
            treads0);
  EXPECT_EQ(EngineOf(ftl.get()).stats().parked_extents, es0.parked_extents);

  // Mixed request: one extent parks on a real fetch, the other resolves
  // NotFound without one; the parked extent still replays correctly.
  bool mixed_fired = false;
  ASSERT_TRUE(ftl->SubmitAsync(
                     IoRequest::Read({0, 700}),
                     [&mixed_fired](const IoResult& result,
                                    const AsyncCompletion&) {
                       mixed_fired = true;
                       ASSERT_EQ(result.extent_status.size(), 2u);
                       EXPECT_TRUE(result.extent_status[0].ok());
                       EXPECT_EQ(result.extent_status[1].code(),
                                 StatusCode::kNotFound);
                       EXPECT_EQ(result.payloads[0], Token(0));
                     })
                  .ok());
  EXPECT_EQ(EngineOf(ftl.get()).ongoing_fetch_count(), 1u);
  EXPECT_EQ(ftl->DrainAsync(), 1u);
  EXPECT_TRUE(mixed_fired);
  EXPECT_EQ(device.stats().counters().ReadsFor(IoPurpose::kTranslation),
            treads0 + 1);
}

TEST_P(TranslationMissTest, SynchronousMissBaselineRefetchesPerRequest) {
  // With async_miss_fetch off, the engine path stalls each request on its
  // own inline fetch: six concurrent misses of one translation page cost
  // six translation reads instead of the pipeline's one. This is the
  // duplicate-fetch behavior bench_miss_overlap quantifies.
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, 4, [](FtlConfig& c) {
    c.async_queue_depth = 16;
    c.async_miss_fetch = false;
  });
  PopulateAndStarve(ftl.get(), {0, 1}, 8);

  const uint64_t treads0 =
      device.stats().counters().ReadsFor(IoPurpose::kTranslation);
  const FtlCounters fc0 = ftl->counters();
  std::vector<Fired> fired;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(ftl->SubmitAsync(IoRequest::Read({static_cast<Lpn>(i)}),
                                 Recorder(&fired, i))
                    .ok());
  }
  // The synchronous baseline never populates the waiting lists.
  EXPECT_EQ(EngineOf(ftl.get()).ongoing_fetch_count(), 0u);
  EXPECT_EQ(device.stats().miss_fetch_inflight(), 0u);

  EXPECT_EQ(ftl->DrainAsync(), 6u);
  ASSERT_EQ(fired.size(), 6u);
  for (const Fired& f : fired) {
    EXPECT_TRUE(f.status.ok());
    ASSERT_EQ(f.payloads.size(), 1u);
    EXPECT_EQ(f.payloads[0], Token(static_cast<Lpn>(f.tag)));
  }
  // One duplicate fetch per request; every miss was a fetch, none joined.
  EXPECT_EQ(device.stats().counters().ReadsFor(IoPurpose::kTranslation),
            treads0 + 6);
  EXPECT_EQ(device.stats().miss_fetches_issued(), 0u);
  EXPECT_EQ(device.stats().coalesced_misses(), 0u);
  const FtlCounters& fc = ftl->counters();
  EXPECT_EQ(fc.miss_fetches, fc0.miss_fetches + 6);
  EXPECT_EQ(fc.miss_joins, fc0.miss_joins);
}

TEST_P(TranslationMissTest, ParkedResultsMatchSynchronousShadowModel) {
  // Twin FTLs over identical data, one with the miss pipeline and one with
  // the synchronous-stall baseline, fed identical randomized read batches:
  // every request must return identical payloads and statuses, and both
  // must match the host shadow map.
  FlashDevice dev_async(Geo());
  FlashDevice dev_sync(Geo());
  auto ftl_async = MakeFtl(FtlName(), &dev_async, 6,
                           [](FtlConfig& c) { c.async_queue_depth = 16; });
  auto ftl_sync = MakeFtl(FtlName(), &dev_sync, 6, [](FtlConfig& c) {
    c.async_queue_depth = 16;
    c.async_miss_fetch = false;
  });

  const Lpn kSpan = 512;  // four translation pages, cache of six entries
  for (Lpn l = 0; l < kSpan; ++l) {
    ASSERT_TRUE(ftl_async->Write(l, Token(l)).ok());
    ASSERT_TRUE(ftl_sync->Write(l, Token(l)).ok());
  }
  ASSERT_TRUE(ftl_async->Flush().ok());
  ASSERT_TRUE(ftl_sync->Flush().ok());

  const FtlCounters fc0 = ftl_async->counters();
  Rng rng(77 + NumChannels());
  for (int wave = 0; wave < 8; ++wave) {
    std::vector<std::vector<Lpn>> requests;
    for (int i = 0; i < 10; ++i) {
      std::vector<Lpn> lpns;
      size_t n = 1 + rng.Uniform(3);
      for (size_t j = 0; j < n; ++j) {
        lpns.push_back(static_cast<Lpn>(rng.Uniform(kSpan)));
      }
      requests.push_back(std::move(lpns));
    }
    std::vector<Fired> fired_async;
    std::vector<Fired> fired_sync;
    for (size_t i = 0; i < requests.size(); ++i) {
      ASSERT_TRUE(ftl_async
                      ->SubmitAsync(IoRequest::Read(requests[i]),
                                    Recorder(&fired_async, static_cast<int>(i)))
                      .ok());
      ASSERT_TRUE(ftl_sync
                      ->SubmitAsync(IoRequest::Read(requests[i]),
                                    Recorder(&fired_sync, static_cast<int>(i)))
                      .ok());
    }
    EXPECT_EQ(ftl_async->DrainAsync(), requests.size());
    EXPECT_EQ(ftl_sync->DrainAsync(), requests.size());
    ASSERT_EQ(fired_async.size(), requests.size());
    ASSERT_EQ(fired_sync.size(), requests.size());

    // Match fired records by tag (completion order may differ between the
    // two pipelines) and check both against the shadow tokens.
    std::vector<const Fired*> by_tag_sync(requests.size(), nullptr);
    for (const Fired& f : fired_sync) by_tag_sync[f.tag] = &f;
    for (const Fired& f : fired_async) {
      const Fired* twin = by_tag_sync[f.tag];
      ASSERT_NE(twin, nullptr);
      EXPECT_EQ(f.status.code(), twin->status.code());
      ASSERT_EQ(f.payloads.size(), twin->payloads.size());
      for (size_t j = 0; j < f.payloads.size(); ++j) {
        EXPECT_EQ(f.payloads[j], twin->payloads[j]);
        EXPECT_EQ(f.payloads[j], Token(requests[f.tag][j]));
      }
    }
  }

  // Read-only phase on fully-written translation pages: the miss split is
  // exhaustive — every miss either fetched or joined.
  const FtlCounters& fc = ftl_async->counters();
  EXPECT_EQ(fc.cache_misses - fc0.cache_misses,
            (fc.miss_fetches - fc0.miss_fetches) +
                (fc.miss_joins - fc0.miss_joins));
  EXPECT_GT(fc.miss_fetches, fc0.miss_fetches);
  EXPECT_EQ(EngineOf(ftl_async.get()).ongoing_fetch_count(), 0u);
  EXPECT_EQ(dev_async.stats().miss_fetch_inflight(), 0u);
}

GECKO_INSTANTIATE_CHANNEL_FTL_SUITE(TranslationMissTest);

}  // namespace
}  // namespace gecko
