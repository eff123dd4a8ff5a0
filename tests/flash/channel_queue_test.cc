// The async submission/completion pipeline: per-channel serialization,
// cross-channel overlap, completion ordering, queue-depth accounting, and
// the batch-window timing of FlashDevice.

#include "flash/channel_queue.h"

#include <gtest/gtest.h>

#include "flash/flash_device.h"

namespace gecko {
namespace {

Geometry ChanneledGeometry(uint32_t channels) {
  Geometry g;
  g.num_blocks = 32;
  g.pages_per_block = 4;
  g.page_bytes = 512;
  g.logical_ratio = 0.7;
  g.num_channels = channels;
  return g;
}

SpareArea UserSpare(Lpn lpn) {
  SpareArea s;
  s.type = PageType::kUser;
  s.key = lpn;
  return s;
}

TEST(ChannelQueueTest, OpsOnOneChannelSerialize) {
  LatencyModel lat;
  ChannelArray channels(2, lat);
  const FlashSubmission& a = channels.Submit(
      0, FlashOpKind::kPageWrite, {0, 0}, IoPurpose::kUserWrite);
  EXPECT_DOUBLE_EQ(a.start_us, 0.0);
  EXPECT_DOUBLE_EQ(a.complete_us, lat.page_write_us);
  const FlashSubmission& b = channels.Submit(
      0, FlashOpKind::kPageRead, {0, 0}, IoPurpose::kUserRead);
  // Same channel: b queues behind a.
  EXPECT_DOUBLE_EQ(b.start_us, lat.page_write_us);
  EXPECT_DOUBLE_EQ(b.complete_us, lat.page_write_us + lat.page_read_us);
  EXPECT_DOUBLE_EQ(b.LatencyUs() - b.ServiceUs(), lat.page_write_us);
}

TEST(ChannelQueueTest, OpsOnDistinctChannelsOverlap) {
  LatencyModel lat;
  ChannelArray channels(4, lat);
  for (ChannelId c = 0; c < 4; ++c) {
    const FlashSubmission& s = channels.Submit(
        c, FlashOpKind::kPageWrite, {c, 0}, IoPurpose::kUserWrite);
    EXPECT_DOUBLE_EQ(s.start_us, 0.0);  // no queueing: private channel
  }
  ChannelArray::DrainResult r = channels.Drain();
  EXPECT_EQ(r.ops, 4u);
  // Makespan is one write, not four.
  EXPECT_DOUBLE_EQ(r.elapsed_us, lat.page_write_us);
  EXPECT_DOUBLE_EQ(channels.now_us(), lat.page_write_us);
}

TEST(ChannelQueueTest, CallbacksFireInCompletionOrder) {
  LatencyModel lat;
  ChannelArray channels(2, lat);
  // Channel 0: slow write (id 1). Channel 1: two fast reads (ids 2, 3).
  channels.Submit(0, FlashOpKind::kPageWrite, {0, 0}, IoPurpose::kUserWrite);
  channels.Submit(1, FlashOpKind::kPageRead, {1, 0}, IoPurpose::kUserRead);
  channels.Submit(1, FlashOpKind::kPageRead, {1, 0}, IoPurpose::kUserRead);
  std::vector<FlashSubmission> completed;
  channels.Drain(&completed);
  // Both reads (100 us, 200 us) complete before the write (1000 us).
  ASSERT_EQ(completed.size(), 3u);
  EXPECT_EQ(completed[0].id, 2u);
  EXPECT_EQ(completed[1].id, 3u);
  EXPECT_EQ(completed[2].id, 1u);
}

TEST(ChannelQueueTest, DrainIsIdempotentOnEmptyPipeline) {
  ChannelArray channels(2, LatencyModel());
  ChannelArray::DrainResult r = channels.Drain();
  EXPECT_EQ(r.ops, 0u);
  EXPECT_DOUBLE_EQ(r.elapsed_us, 0.0);
  EXPECT_DOUBLE_EQ(channels.now_us(), 0.0);
}

TEST(ChannelQueueTest, IdleChannelDoesNotStretchMakespan) {
  LatencyModel lat;
  ChannelArray channels(2, lat);
  channels.Submit(0, FlashOpKind::kPageWrite, {0, 0}, IoPurpose::kUserWrite);
  channels.Drain();  // now = 1000, channel 1 idle (busy_until 0)
  const FlashSubmission& s = channels.Submit(
      1, FlashOpKind::kPageRead, {1, 0}, IoPurpose::kUserRead);
  // The op starts at the current clock, not at the channel's stale
  // busy-until.
  EXPECT_DOUBLE_EQ(s.start_us, lat.page_write_us);
  ChannelArray::DrainResult r = channels.Drain();
  EXPECT_DOUBLE_EQ(r.elapsed_us, lat.page_read_us);
}

TEST(ChannelQueueTest, IdleAccountingAccumulatesInterOpGaps) {
  // Two ops on channel 0 separated by a long op on channel 1: when the
  // second ch0 op arrives after the drain, ch0 has sat idle since its
  // first op completed.
  FlashDevice device(ChanneledGeometry(2));
  const LatencyModel lat;
  device.WritePage(PhysicalAddress{0, 0}, UserSpare(1), 1,
                   IoPurpose::kUserWrite);
  device.EraseBlock(1, IoPurpose::kOther);  // channel 1: clock advances
  EXPECT_DOUBLE_EQ(device.ChannelIdleUs(0), 0.0);
  device.WritePage(PhysicalAddress{0, 1}, UserSpare(2), 2,
                   IoPurpose::kUserWrite);
  // ch0 was quiet from the end of its first write until now: the erase's
  // duration on ch1 (clock moved past ch0's busy-until by erase_us).
  EXPECT_NEAR(device.ChannelIdleUs(0), lat.erase_us, 1e-9);
  EXPECT_DOUBLE_EQ(device.ChannelIdleUs(1), lat.page_write_us);
}

TEST(ChannelQueueTest, QueueDepthWatermark) {
  ChannelArray channels(2, LatencyModel());
  channels.Submit(0, FlashOpKind::kPageRead, {0, 0}, IoPurpose::kUserRead);
  channels.Submit(0, FlashOpKind::kPageRead, {0, 0}, IoPurpose::kUserRead);
  channels.Submit(0, FlashOpKind::kPageRead, {0, 0}, IoPurpose::kUserRead);
  channels.Submit(1, FlashOpKind::kPageRead, {1, 0}, IoPurpose::kUserRead);
  EXPECT_EQ(channels.depth(0), 3u);
  EXPECT_EQ(channels.depth(1), 1u);
  ChannelArray::DrainResult r = channels.Drain();
  EXPECT_EQ(r.max_queue_depth, 3u);
  EXPECT_EQ(channels.depth(0), 0u);
}

// --- FlashDevice integration -------------------------------------------

TEST(DeviceBatchTest, SerialOpsMatchTheLatencySum) {
  LatencyModel lat;
  FlashDevice dev(ChanneledGeometry(4));
  // No batch window: each op drains immediately — the classic serial
  // model, even on a multi-channel device.
  dev.WritePage({0, 0}, UserSpare(1), 0, IoPurpose::kUserWrite);
  dev.WritePage({1, 0}, UserSpare(2), 0, IoPurpose::kUserWrite);
  EXPECT_DOUBLE_EQ(dev.stats().elapsed_us(), 2 * lat.page_write_us);
}

TEST(DeviceBatchTest, StripedBatchCompletesInMaxPerChannelTime) {
  LatencyModel lat;
  FlashDevice dev(ChanneledGeometry(4));
  double before = dev.stats().elapsed_us();
  dev.BeginBatch();
  for (BlockId b = 0; b < 4; ++b) {
    // Blocks 0..3 live on channels 0..3.
    dev.WritePage({b, 0}, UserSpare(b), 0, IoPurpose::kUserWrite);
  }
  FlashDevice::BatchResult r = dev.EndBatch();
  EXPECT_EQ(r.ops, 4u);
  EXPECT_DOUBLE_EQ(r.elapsed_us, lat.page_write_us);
  EXPECT_DOUBLE_EQ(dev.stats().elapsed_us() - before, lat.page_write_us);
}

TEST(DeviceBatchTest, SameChannelBatchStillSerializes) {
  LatencyModel lat;
  FlashDevice dev(ChanneledGeometry(4));
  dev.BeginBatch();
  // Blocks 0 and 4 both live on channel 0.
  dev.WritePage({0, 0}, UserSpare(1), 0, IoPurpose::kUserWrite);
  dev.WritePage({4, 0}, UserSpare(2), 0, IoPurpose::kUserWrite);
  FlashDevice::BatchResult r = dev.EndBatch();
  EXPECT_DOUBLE_EQ(r.elapsed_us, 2 * lat.page_write_us);
}

TEST(DeviceBatchTest, NestedWindowsDrainOnceAtOutermostEnd) {
  LatencyModel lat;
  FlashDevice dev(ChanneledGeometry(4));
  dev.BeginBatch();
  dev.WritePage({0, 0}, UserSpare(1), 0, IoPurpose::kUserWrite);
  dev.BeginBatch();  // e.g. GC forced inside a request
  dev.WritePage({1, 0}, UserSpare(2), 0, IoPurpose::kUserWrite);
  FlashDevice::BatchResult inner = dev.EndBatch();
  EXPECT_EQ(inner.ops, 0u);  // inner close does not drain
  EXPECT_TRUE(dev.in_batch());
  FlashDevice::BatchResult outer = dev.EndBatch();
  EXPECT_EQ(outer.ops, 2u);
  EXPECT_DOUBLE_EQ(outer.elapsed_us, lat.page_write_us);
  EXPECT_FALSE(dev.in_batch());
}

TEST(ChannelQueueTest, CompletionCallbackCarriesTimeline) {
  LatencyModel lat;
  ChannelArray channels(2, lat);
  channels.Submit(0, FlashOpKind::kPageWrite, {0, 0}, IoPurpose::kUserWrite);
  channels.Submit(0, FlashOpKind::kPageRead, {0, 0}, IoPurpose::kUserRead);
  std::vector<FlashSubmission> done;
  channels.DrainUntil(0.0, &done);
  EXPECT_TRUE(done.empty());  // nothing completes at submission time
  channels.Drain(&done);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].kind, FlashOpKind::kPageWrite);
  EXPECT_EQ(done[1].kind, FlashOpKind::kPageRead);
  // The read queued behind the write on channel 0.
  EXPECT_DOUBLE_EQ(done[1].start_us, done[0].complete_us);
  EXPECT_DOUBLE_EQ(done[1].ServiceUs(), lat.page_read_us);
}

TEST(DeviceBatchTest, PerChannelStatsAndUtilization) {
  LatencyModel lat;
  FlashDevice dev(ChanneledGeometry(2));
  dev.BeginBatch();
  dev.WritePage({0, 0}, UserSpare(1), 0, IoPurpose::kUserWrite);
  dev.WritePage({1, 0}, UserSpare(2), 0, IoPurpose::kUserWrite);
  dev.EndBatch();
  const IoStats& stats = dev.stats();
  ASSERT_EQ(stats.num_channels(), 2u);
  EXPECT_EQ(stats.ChannelOps(0), 1u);
  EXPECT_EQ(stats.ChannelOps(1), 1u);
  EXPECT_DOUBLE_EQ(stats.ChannelBusyUs(0), lat.page_write_us);
  // Both channels were busy the whole (overlapped) time.
  EXPECT_DOUBLE_EQ(stats.ChannelUtilization(0), 1.0);
  EXPECT_DOUBLE_EQ(stats.ChannelUtilization(1), 1.0);
  EXPECT_EQ(stats.max_queue_depth(), 1u);
  EXPECT_EQ(stats.total_submissions(), 2u);
}

TEST(ChannelQueueTest, DrainUntilRetiresOnlyTheDuePrefix) {
  LatencyModel lat;
  ChannelArray channels(2, lat);
  // ch0: write (done 1000) then read (done 1100). ch1: read (done 100).
  channels.Submit(0, FlashOpKind::kPageWrite, {0, 0}, IoPurpose::kUserWrite);
  channels.Submit(0, FlashOpKind::kPageRead, {0, 0}, IoPurpose::kUserRead);
  channels.Submit(1, FlashOpKind::kPageRead, {1, 0}, IoPurpose::kUserRead);

  std::vector<FlashSubmission> completed;
  ChannelArray::DrainResult r = channels.DrainUntil(500, &completed);
  EXPECT_EQ(r.ops, 1u);  // only the ch1 read is due
  ASSERT_EQ(completed.size(), 1u);
  EXPECT_EQ(completed[0].channel, 1u);
  EXPECT_DOUBLE_EQ(channels.now_us(), 500.0);  // clock to until, not beyond
  EXPECT_DOUBLE_EQ(r.elapsed_us, 500.0);
  EXPECT_EQ(channels.depth(0), 2u);

  completed.clear();
  r = channels.DrainUntil(1000, &completed);
  EXPECT_EQ(r.ops, 1u);  // the write is due, the trailing read is not
  EXPECT_DOUBLE_EQ(channels.now_us(), 1000.0);
  EXPECT_EQ(channels.depth(0), 1u);

  r = channels.Drain(&completed);
  EXPECT_EQ(r.ops, 1u);
  EXPECT_DOUBLE_EQ(channels.now_us(), 1000.0 + lat.page_read_us);
}

TEST(ChannelQueueTest, DrainUntilFiresDueCallbacksInCompletionOrder) {
  LatencyModel lat;
  ChannelArray channels(2, lat);
  channels.Submit(0, FlashOpKind::kPageWrite, {0, 0},
                  IoPurpose::kUserWrite);  // id 1, done 1000
  channels.Submit(1, FlashOpKind::kPageRead, {1, 0},
                  IoPurpose::kUserRead);  // id 2, done 100
  channels.Submit(1, FlashOpKind::kPageRead, {1, 0},
                  IoPurpose::kUserRead);  // id 3, done 200
  std::vector<FlashSubmission> completed;
  channels.DrainUntil(150, &completed);
  ASSERT_EQ(completed.size(), 1u);
  EXPECT_EQ(completed[0].id, 2u);
  channels.Drain(&completed);
  ASSERT_EQ(completed.size(), 3u);
  EXPECT_EQ(completed[1].id, 3u);
  EXPECT_EQ(completed[2].id, 1u);
}

TEST(ChannelQueueTest, CompletionTiesRetireInSubmissionOrder) {
  ChannelArray channels(4, LatencyModel());
  // Equal-latency ops started together on four channels finish together.
  for (ChannelId c : {2u, 0u, 3u, 1u}) {
    channels.Submit(c, FlashOpKind::kPageRead, {c, 0}, IoPurpose::kUserRead);
  }
  channels.Submit(0, FlashOpKind::kPageRead, {0, 1}, IoPurpose::kUserRead);
  std::vector<FlashSubmission> done;
  channels.DrainUntil(LatencyModel().page_read_us, &done);
  ASSERT_EQ(done.size(), 4u);
  for (uint64_t i = 0; i < 4; ++i) EXPECT_EQ(done[i].id, i + 1);
  EXPECT_EQ(channels.depth(0), 1u);
  done.clear();
  channels.Submit(1, FlashOpKind::kPageRead, {1, 1}, IoPurpose::kUserRead);
  channels.Drain(&done);  // ids 5 and 6, both done at two read latencies
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].id, 5u);
  EXPECT_EQ(done[1].id, 6u);
  EXPECT_EQ(done[0].complete_us, done[1].complete_us);
}

TEST(ChannelQueueTest, DrainUntilPastEverythingMovesClockToUntil) {
  ChannelArray channels(2, LatencyModel());
  channels.Submit(0, FlashOpKind::kPageRead, {0, 0}, IoPurpose::kUserRead);
  ChannelArray::DrainResult r = channels.DrainUntil(5000);
  EXPECT_EQ(r.ops, 1u);
  // An idle-time tick: the clock follows the caller's timeline.
  EXPECT_DOUBLE_EQ(channels.now_us(), 5000.0);
  r = channels.DrainUntil(100);  // never backwards
  EXPECT_EQ(r.ops, 0u);
  EXPECT_DOUBLE_EQ(channels.now_us(), 5000.0);
}

TEST(DeviceBatchTest, AdvanceToTicksInsideAnOpenWindow) {
  LatencyModel lat;
  FlashDevice dev(ChanneledGeometry(4));
  dev.BeginBatch();
  dev.WritePage({0, 0}, UserSpare(1), 0, IoPurpose::kUserWrite);  // done 1000
  dev.WritePage({1, 0}, UserSpare(2), 0, IoPurpose::kUserWrite);  // done 1000

  FlashDevice::BatchResult r = dev.AdvanceTo(500);
  EXPECT_EQ(r.ops, 0u);  // nothing due yet
  EXPECT_DOUBLE_EQ(r.elapsed_us, 500.0);
  EXPECT_TRUE(dev.in_batch());  // the window stays open across ticks

  r = dev.AdvanceTo(1500);
  EXPECT_EQ(r.ops, 2u);
  EXPECT_DOUBLE_EQ(dev.now_us(), 1500.0);

  FlashDevice::BatchResult end = dev.EndBatch();
  EXPECT_EQ(end.ops, 0u);  // everything already retired by the ticks
  EXPECT_FALSE(dev.in_batch());
  EXPECT_DOUBLE_EQ(dev.stats().elapsed_us(), 1500.0);
}

TEST(DeviceBatchTest, OpScopesAttributeOpsToRequests) {
  LatencyModel lat;
  FlashDevice dev(ChanneledGeometry(4));
  dev.BeginBatch();

  // Request A: two writes on distinct channels, both complete at 1000.
  dev.BeginOpScope();
  dev.WritePage({0, 0}, UserSpare(1), 0, IoPurpose::kUserWrite);
  dev.WritePage({1, 0}, UserSpare(2), 0, IoPurpose::kUserWrite);
  FlashDevice::OpScope a = dev.EndOpScope();
  EXPECT_EQ(a.ops, 2u);
  EXPECT_DOUBLE_EQ(a.last_complete_us, lat.page_write_us);

  // Request B: one write queued behind A's on channel 0 — its completion
  // reflects the queueing delay even though the window never closed.
  dev.BeginOpScope();
  dev.WritePage({0, 1}, UserSpare(3), 0, IoPurpose::kUserWrite);
  FlashDevice::OpScope b = dev.EndOpScope();
  EXPECT_EQ(b.ops, 1u);
  EXPECT_DOUBLE_EQ(b.last_complete_us, 2 * lat.page_write_us);

  // A zero-op scope (fully cache-hit request) reports no completion.
  dev.BeginOpScope();
  FlashDevice::OpScope c = dev.EndOpScope();
  EXPECT_EQ(c.ops, 0u);
  EXPECT_DOUBLE_EQ(c.last_complete_us, 0.0);

  dev.EndBatch();
}

TEST(DeviceBatchTest, DataEffectsAreVisibleInsideTheWindow) {
  FlashDevice dev(ChanneledGeometry(4));
  dev.BeginBatch();
  dev.WritePage({2, 0}, UserSpare(9), 0xFEED, IoPurpose::kUserWrite);
  // Functional state commits at submission: a read inside the same window
  // sees the data even though neither op has "completed" yet.
  PageReadResult r = dev.ReadPage({2, 0}, IoPurpose::kUserRead);
  EXPECT_TRUE(r.written);
  EXPECT_EQ(r.payload, 0xFEEDu);
  dev.EndBatch();
}

}  // namespace
}  // namespace gecko
