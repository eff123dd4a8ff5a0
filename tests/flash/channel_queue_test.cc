// The channel timing model: per-channel serialization, cross-channel
// overlap, due-prefix retirement, queue-depth accounting, the batch-window
// timing of FlashDevice, and a differential check against the reference
// model the channels replaced.

#include "flash/channel_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <limits>
#include <new>
#include <utility>
#include <vector>

#include "flash/flash_device.h"
#include "tests/ftl/ftl_test_util.h"
#include "util/random.h"

// Counts every heap allocation of this test binary, so a case can check
// that a warm device allocates nothing. Not inlined, so the compiler does
// not pair a new-expression with the free() inside.
namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Sanitizer runtimes replace the array forms separately.
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return operator new(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace gecko {
namespace {

constexpr double kForever = std::numeric_limits<double>::infinity();

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

/// One retired op as the callback saw it.
struct Retired {
  ChannelId channel;
  double service_us;
};

ChannelArray::RetireResult RetireInto(ChannelArray* channels, double until_us,
                                      std::vector<Retired>* out) {
  return channels->Retire(until_us, [out](ChannelId c, double service_us) {
    out->push_back(Retired{c, service_us});
  });
}

ChannelArray::RetireResult RetireAll(ChannelArray* channels) {
  return channels->Retire(kForever, [](ChannelId, double) {});
}

TEST(ChannelQueueTest, OpsOnOneChannelSerialize) {
  LatencyModel lat;
  ChannelArray channels(2, lat);
  EXPECT_DOUBLE_EQ(channels.Submit(0, FlashOpKind::kPageWrite),
                   lat.page_write_us);
  // Same channel: the read queues behind the write.
  EXPECT_DOUBLE_EQ(channels.Submit(0, FlashOpKind::kPageRead),
                   lat.page_write_us + lat.page_read_us);
  EXPECT_DOUBLE_EQ(channels.busy_until_us(0),
                   lat.page_write_us + lat.page_read_us);
  EXPECT_DOUBLE_EQ(channels.busy_until_us(1), 0.0);
}

TEST(ChannelQueueTest, OpsOnDistinctChannelsOverlap) {
  LatencyModel lat;
  ChannelArray channels(4, lat);
  for (ChannelId c = 0; c < 4; ++c) {
    // No queueing: each op has a private channel.
    EXPECT_DOUBLE_EQ(channels.Submit(c, FlashOpKind::kPageWrite),
                     lat.page_write_us);
  }
  ChannelArray::RetireResult r = RetireAll(&channels);
  EXPECT_EQ(r.ops, 4u);
  // Makespan is one write, not four.
  EXPECT_DOUBLE_EQ(r.elapsed_us, lat.page_write_us);
  EXPECT_DOUBLE_EQ(channels.now_us(), lat.page_write_us);
}

TEST(ChannelQueueTest, RetireIsIdempotentOnEmptyPipeline) {
  ChannelArray channels(2, LatencyModel());
  ChannelArray::RetireResult r = RetireAll(&channels);
  EXPECT_EQ(r.ops, 0u);
  EXPECT_DOUBLE_EQ(r.elapsed_us, 0.0);
  EXPECT_DOUBLE_EQ(channels.now_us(), 0.0);
}

TEST(ChannelQueueTest, IdleChannelDoesNotStretchMakespan) {
  LatencyModel lat;
  ChannelArray channels(2, lat);
  channels.Submit(0, FlashOpKind::kPageWrite);
  RetireAll(&channels);  // now = 1000, channel 1 idle (busy_until 0)
  // The op starts at the current clock, not at the channel's stale
  // busy-until.
  EXPECT_DOUBLE_EQ(channels.Submit(1, FlashOpKind::kPageRead),
                   lat.page_write_us + lat.page_read_us);
  ChannelArray::RetireResult r = RetireAll(&channels);
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

TEST(ChannelQueueTest, QueueDepthCountsParkedOps) {
  ChannelArray channels(2, LatencyModel());
  channels.Submit(0, FlashOpKind::kPageRead);
  channels.Submit(0, FlashOpKind::kPageRead);
  channels.Submit(0, FlashOpKind::kPageRead);
  channels.Submit(1, FlashOpKind::kPageRead);
  EXPECT_EQ(channels.depth(0), 3u);
  EXPECT_EQ(channels.depth(1), 1u);
  RetireAll(&channels);
  EXPECT_EQ(channels.depth(0), 0u);
  EXPECT_EQ(channels.depth(1), 0u);
}

TEST(ChannelQueueTest, RetireRetiresOnlyTheDuePrefix) {
  LatencyModel lat;
  ChannelArray channels(2, lat);
  // ch0: write (done 1000) then read (done 1100). ch1: read (done 100).
  channels.Submit(0, FlashOpKind::kPageWrite);
  channels.Submit(0, FlashOpKind::kPageRead);
  channels.Submit(1, FlashOpKind::kPageRead);

  std::vector<Retired> retired;
  ChannelArray::RetireResult r = RetireInto(&channels, 500, &retired);
  EXPECT_EQ(r.ops, 1u);  // only the ch1 read is due
  ASSERT_EQ(retired.size(), 1u);
  EXPECT_EQ(retired[0].channel, 1u);
  EXPECT_DOUBLE_EQ(channels.now_us(), 500.0);  // clock to until, not beyond
  EXPECT_DOUBLE_EQ(r.elapsed_us, 500.0);
  EXPECT_EQ(channels.depth(0), 2u);

  // The write completes exactly at `until`: it is due. The trailing read
  // is not.
  retired.clear();
  r = RetireInto(&channels, lat.page_write_us, &retired);
  EXPECT_EQ(r.ops, 1u);
  ASSERT_EQ(retired.size(), 1u);
  EXPECT_EQ(retired[0].channel, 0u);
  EXPECT_DOUBLE_EQ(channels.now_us(), lat.page_write_us);
  EXPECT_EQ(channels.depth(0), 1u);

  r = RetireAll(&channels);
  EXPECT_EQ(r.ops, 1u);
  EXPECT_DOUBLE_EQ(channels.now_us(), lat.page_write_us + lat.page_read_us);
}

TEST(ChannelQueueTest, NothingIsDueAtSubmissionTime) {
  LatencyModel lat;
  ChannelArray channels(2, lat);
  channels.Submit(0, FlashOpKind::kPageWrite);
  channels.Submit(1, FlashOpKind::kSpareRead);
  std::vector<Retired> retired;
  ChannelArray::RetireResult r = RetireInto(&channels, 0.0, &retired);
  EXPECT_EQ(r.ops, 0u);
  EXPECT_TRUE(retired.empty());
  EXPECT_EQ(channels.depth(0), 1u);
  EXPECT_EQ(channels.depth(1), 1u);
}

TEST(ChannelQueueTest, RetireHandsEachOpItsServiceTime) {
  LatencyModel lat;
  ChannelArray channels(2, lat);
  channels.Submit(0, FlashOpKind::kPageWrite);
  channels.Submit(0, FlashOpKind::kPageRead);
  channels.Submit(1, FlashOpKind::kErase);
  std::vector<Retired> retired;
  RetireInto(&channels, kForever, &retired);
  ASSERT_EQ(retired.size(), 3u);
  // Each channel retires in FIFO order; the read queued behind the write
  // is charged its own latency, not its queueing delay.
  EXPECT_EQ(retired[0].channel, 0u);
  EXPECT_DOUBLE_EQ(retired[0].service_us, lat.page_write_us);
  EXPECT_EQ(retired[1].channel, 0u);
  EXPECT_DOUBLE_EQ(retired[1].service_us, lat.page_read_us);
  EXPECT_EQ(retired[2].channel, 1u);
  EXPECT_DOUBLE_EQ(retired[2].service_us, lat.erase_us);
  EXPECT_DOUBLE_EQ(channels.now_us(), lat.erase_us);
}

TEST(ChannelQueueTest, RetirePastEverythingMovesClockToUntil) {
  ChannelArray channels(2, LatencyModel());
  channels.Submit(0, FlashOpKind::kPageRead);
  ChannelArray::RetireResult r =
      channels.Retire(5000, [](ChannelId, double) {});
  EXPECT_EQ(r.ops, 1u);
  // An idle-time tick: the clock follows the caller's timeline.
  EXPECT_DOUBLE_EQ(channels.now_us(), 5000.0);
  r = RetireAll(&channels);  // nothing parked: the clock stays
  EXPECT_DOUBLE_EQ(channels.now_us(), 5000.0);
  channels.Submit(1, FlashOpKind::kPageRead);  // done 5100
  r = channels.Retire(100, [](ChannelId, double) {});  // never backwards
  EXPECT_EQ(r.ops, 0u);
  EXPECT_DOUBLE_EQ(r.elapsed_us, 0.0);
  EXPECT_DOUBLE_EQ(channels.now_us(), 5000.0);
  EXPECT_EQ(channels.depth(1), 1u);
}

// --- FlashDevice integration -------------------------------------------

TEST(DeviceBatchTest, SerialOpsMatchTheLatencySum) {
  LatencyModel lat;
  FlashDevice dev(ChanneledGeometry(4));
  // No batch window: each op retires at once — the classic serial
  // model, even on a multi-channel device.
  dev.WritePage({0, 0}, UserSpare(1), 0, IoPurpose::kUserWrite);
  dev.WritePage({1, 0}, UserSpare(2), 0, IoPurpose::kUserWrite);
  dev.ReadSpare({2, 0}, IoPurpose::kRecovery);
  EXPECT_DOUBLE_EQ(dev.stats().elapsed_us(),
                   2 * lat.page_write_us + lat.spare_read_us);
  EXPECT_DOUBLE_EQ(dev.now_us(), dev.stats().elapsed_us());
  EXPECT_EQ(dev.stats().ChannelOps(0), 1u);
  EXPECT_EQ(dev.stats().ChannelOps(2), 1u);
  EXPECT_EQ(dev.stats().max_queue_depth(), 1u);
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

TEST(DeviceBatchTest, QueueDepthWatermarkIsTheDeepestChannel) {
  FlashDevice dev(ChanneledGeometry(2));
  dev.BeginBatch();
  // Blocks 0, 2 and 4 live on channel 0; block 1 on channel 1.
  for (BlockId b : {0u, 2u, 4u, 1u}) {
    dev.ReadPage({b, 0}, IoPurpose::kUserRead);
  }
  EXPECT_EQ(dev.stats().max_queue_depth(), 3u);
  dev.EndBatch();
  // A lifetime watermark: retiring the ops leaves it, a Reset clears it,
  // and later serial ops are one deep.
  EXPECT_EQ(dev.stats().max_queue_depth(), 3u);
  dev.stats().Reset();
  dev.ReadPage({0, 0}, IoPurpose::kUserRead);
  EXPECT_EQ(dev.stats().max_queue_depth(), 1u);
  EXPECT_EQ(dev.stats().total_submissions(), 1u);
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

  r = dev.AdvanceTo(700);  // in the past: the clock never moves back
  EXPECT_EQ(r.ops, 0u);
  EXPECT_DOUBLE_EQ(r.elapsed_us, 0.0);
  EXPECT_DOUBLE_EQ(dev.now_us(), 1500.0);

  FlashDevice::BatchResult end = dev.EndBatch();
  EXPECT_EQ(end.ops, 0u);  // everything already retired by the ticks
  EXPECT_FALSE(dev.in_batch());
  EXPECT_DOUBLE_EQ(dev.stats().elapsed_us(), 1500.0);
}

TEST(DeviceBatchTest, AdvanceToANextCompletionRetiresIt) {
  // The async engine moves the clock to its next completion time and must
  // find that op retired.
  LatencyModel lat;
  FlashDevice dev(ChanneledGeometry(4));
  dev.BeginBatch();
  dev.BeginOpScope();
  dev.ReadPage({0, 0}, IoPurpose::kUserRead);
  dev.ReadPage({0, 1}, IoPurpose::kUserRead);
  FlashDevice::OpScope scope = dev.EndOpScope();
  FlashDevice::BatchResult r = dev.AdvanceTo(scope.last_complete_us);
  EXPECT_EQ(r.ops, 2u);
  EXPECT_DOUBLE_EQ(dev.now_us(), 2 * lat.page_read_us);
  EXPECT_EQ(dev.stats().ChannelOps(0), 2u);
  dev.EndBatch();
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

TEST(DeviceAllocationTest, WarmDeviceAllocatesNothing) {
  // Two passes of one op mix, each inside a batch window: the first sizes
  // the channel FIFOs, the second must reuse them. Ticks every third block
  // retire part of the queue, so the FIFOs pop while they still hold ops.
  FlashDevice dev(ChanneledGeometry(4));
  const uint32_t pages = dev.geometry().pages_per_block;
  auto pass = [&dev, pages] {
    dev.BeginBatch();
    for (BlockId b = 0; b < 16; ++b) {
      dev.EraseBlock(b, IoPurpose::kGcMigration);
      for (uint32_t p = 0; p < pages; ++p) {
        dev.WritePage({b, p}, UserSpare(p), p, IoPurpose::kUserWrite);
        dev.ReadPage({b, p}, IoPurpose::kUserRead);
      }
      dev.ReadSpare({b, 0}, IoPurpose::kRecovery);
      if (b % 3 == 2) dev.AdvanceTo(dev.now_us() + 1500);
    }
    return dev.EndBatch();
  };
  const FlashDevice::BatchResult warm = pass();
  ASSERT_GT(dev.stats().max_queue_depth(), 8u);

  const uint64_t before = g_allocations.load();
  const FlashDevice::BatchResult again = pass();
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(again.ops, warm.ops);
}

// --- Differential check against the reference model ---------------------

// The channel model this file's ChannelArray replaced, kept as the
// reference: every op is a record with an id, each channel parks records
// in a deque, serial ops take a fast lane that never parks, and Retire
// merges the channel FIFOs into one global (completion time, id) order.
// The differential test below holds ChannelArray to its clock, its
// results and every per-channel number it fed IoStats.
class ReferenceChannels {
 public:
  struct Submission {
    uint64_t id = 0;
    ChannelId channel = 0;
    double start_us = 0;
    double complete_us = 0;
    double ServiceUs() const { return complete_us - start_us; }
  };

  struct Result {
    double elapsed_us = 0;
    uint64_t ops = 0;
  };

  ReferenceChannels(uint32_t num_channels, LatencyModel latency)
      : latency_(latency), channels_(num_channels) {}

  double now_us() const { return now_us_; }
  size_t depth(ChannelId c) const { return channels_[c].pending.size(); }
  double busy_until_us(ChannelId c) const {
    return channels_[c].busy_until_us;
  }
  double idle_us(ChannelId c) const { return channels_[c].idle_us; }

  /// Completion times of the ops parked on channel `c`, oldest first.
  std::vector<double> Parked(ChannelId c) const {
    std::vector<double> out;
    for (const Submission& sub : channels_[c].pending) {
      out.push_back(sub.complete_us);
    }
    return out;
  }

  const Submission& Submit(ChannelId c, FlashOpKind kind) {
    Channel& ch = channels_[c];
    ch.pending.push_back(Stamp(c, kind));
    return ch.pending.back();
  }

  /// The serial fast lane: stamps and completes one op without parking.
  Submission SubmitImmediate(ChannelId c, FlashOpKind kind) {
    Submission sub = Stamp(c, kind);
    now_us_ = std::max(now_us_, sub.complete_us);
    return sub;
  }

  template <typename OnRetire>
  Result Retire(double until_us, OnRetire&& on_retire) {
    const bool all = std::isinf(until_us);
    Result result;
    double last_us = now_us_;
    for (;;) {
      Channel* next = nullptr;
      double next_us = all ? std::numeric_limits<double>::max() : until_us;
      for (Channel& ch : channels_) {
        if (ch.pending.empty()) continue;
        const Submission& front = ch.pending.front();
        if (front.complete_us < next_us ||
            (front.complete_us == next_us &&
             (next == nullptr || front.id < next->pending.front().id))) {
          next = &ch;
          next_us = front.complete_us;
        }
      }
      if (next == nullptr) break;
      last_us = next_us;
      on_retire(next->pending.front());
      next->pending.pop_front();
      ++result.ops;
    }
    const double finish = std::max(now_us_, all ? last_us : until_us);
    result.elapsed_us = finish - now_us_;
    now_us_ = finish;
    return result;
  }

 private:
  struct Channel {
    std::deque<Submission> pending;
    double busy_until_us = 0;
    double idle_us = 0;
  };

  double LatencyFor(FlashOpKind kind) const {
    switch (kind) {
      case FlashOpKind::kPageWrite: return latency_.page_write_us;
      case FlashOpKind::kPageRead: return latency_.page_read_us;
      case FlashOpKind::kSpareRead: return latency_.spare_read_us;
      case FlashOpKind::kErase: return latency_.erase_us;
    }
    return 0;
  }

  Submission Stamp(ChannelId c, FlashOpKind kind) {
    Channel& ch = channels_[c];
    Submission sub;
    sub.id = next_id_++;
    sub.channel = c;
    sub.start_us = std::max(now_us_, ch.busy_until_us);
    if (sub.start_us > ch.busy_until_us) {
      ch.idle_us += sub.start_us - ch.busy_until_us;
    }
    sub.complete_us = sub.start_us + LatencyFor(kind);
    ch.busy_until_us = sub.complete_us;
    return sub;
  }

  LatencyModel latency_;
  std::vector<Channel> channels_;
  double now_us_ = 0;
  uint64_t next_id_ = 1;
};

/// What each side handed its stats: per channel, ops retired and the sum
/// of their service times, accumulated in retirement order.
struct ChannelTally {
  std::vector<uint64_t> ops;
  std::vector<double> busy_us;
  explicit ChannelTally(uint32_t n) : ops(n, 0), busy_us(n, 0.0) {}
  void Add(ChannelId c, double service_us) {
    ++ops[c];
    busy_us[c] += service_us;
  }
};

class ChannelDifferentialTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ChannelDifferentialTest, MatchesReferenceModel) {
  const uint32_t n = GetParam();
  const uint64_t seed = FuzzSeed(31);
  GECKO_TRACE_FUZZ_SEED(seed);
  Rng rng(seed + n);
  // Latencies that are not short binary fractions, so every clock sum
  // rounds and only the same arithmetic in the same order agrees.
  LatencyModel lat;
  lat.page_read_us = 97.3;
  lat.page_write_us = 1013.7;
  lat.spare_read_us = 2.9;
  lat.erase_us = 1999.1;
  ChannelArray channels(n, lat);
  ReferenceChannels ref(n, lat);
  ChannelTally got(n);
  ChannelTally want(n);
  constexpr FlashOpKind kKinds[] = {FlashOpKind::kPageWrite,
                                    FlashOpKind::kPageRead,
                                    FlashOpKind::kSpareRead,
                                    FlashOpKind::kErase};
  auto parked_anywhere = [&] {
    for (ChannelId c = 0; c < n; ++c) {
      if (ref.depth(c) > 0) return true;
    }
    return false;
  };
  // A completion time parked somewhere, or the clock when none is.
  auto some_completion = [&] {
    const ChannelId c = static_cast<ChannelId>(rng.Uniform(n));
    const std::vector<double> parked = ref.Parked(c);
    if (parked.empty()) return ref.now_us();
    return parked[rng.Uniform(parked.size())];
  };
  auto tally = [&got](ChannelId c, double service_us) {
    got.Add(c, service_us);
  };
  auto retire = [&](double until_us) {
    const ChannelArray::RetireResult r = channels.Retire(until_us, tally);
    const ReferenceChannels::Result w =
        ref.Retire(until_us, [&](const ReferenceChannels::Submission& sub) {
          want.Add(sub.channel, sub.ServiceUs());
        });
    EXPECT_EQ(r.elapsed_us, w.elapsed_us) << "until " << until_us;
    EXPECT_EQ(r.ops, w.ops) << "until " << until_us;
  };

  constexpr int kSteps = 20000;
  for (int step = 0; step < kSteps; ++step) {
    SCOPED_TRACE(::testing::Message() << "step " << step);
    const uint64_t action = rng.Uniform(100);
    const ChannelId c = static_cast<ChannelId>(rng.Uniform(n));
    const FlashOpKind kind = kKinds[rng.Uniform(4)];
    if (action < 45) {
      ASSERT_EQ(channels.Submit(c, kind), ref.Submit(c, kind).complete_us);
    } else if (action < 55) {
      // A serial op: the reference's fast lane against one submit and one
      // retire at +infinity, as FlashDevice runs an op outside a window.
      if (parked_anywhere()) retire(kForever);
      const double complete_us = channels.Submit(c, kind);
      const double ref_before = ref.now_us();
      const ReferenceChannels::Submission sub = ref.SubmitImmediate(c, kind);
      ASSERT_EQ(complete_us, sub.complete_us);
      want.Add(c, sub.ServiceUs());
      const ChannelArray::RetireResult r = channels.Retire(kForever, tally);
      EXPECT_EQ(r.ops, 1u);
      EXPECT_EQ(r.elapsed_us, ref.now_us() - ref_before);
    } else if (action < 63) {
      retire(kForever);
    } else if (action < 80) {
      retire(some_completion());  // due exactly at `until`
    } else if (action < 92) {
      // Between completion times, and at times past every parked op, where
      // the clock runs ahead of the channels and they sit idle.
      retire(some_completion() + lat.erase_us * (rng.UniformDouble() - 0.25));
    } else {
      retire(ref.now_us() - 1000 * rng.UniformDouble());  // in the past
    }
    ASSERT_EQ(channels.now_us(), ref.now_us());
    for (ChannelId ch = 0; ch < n; ++ch) {
      ASSERT_EQ(channels.busy_until_us(ch), ref.busy_until_us(ch))
          << "channel " << ch;
      ASSERT_EQ(channels.channel(ch).idle_us(), ref.idle_us(ch))
          << "channel " << ch;
      ASSERT_EQ(channels.depth(ch), ref.depth(ch)) << "channel " << ch;
      ASSERT_EQ(got.ops[ch], want.ops[ch]) << "channel " << ch;
      ASSERT_EQ(got.busy_us[ch], want.busy_us[ch]) << "channel " << ch;
    }
    if (HasFailure()) return;
  }
  retire(kForever);
  for (ChannelId ch = 0; ch < n; ++ch) EXPECT_EQ(channels.depth(ch), 0u);
}

INSTANTIATE_TEST_SUITE_P(Channels, ChannelDifferentialTest,
                         ::testing::Range(1u, 9u));

}  // namespace
}  // namespace gecko
