// Open-loop driver semantics on all five FTLs: every arrival completes,
// overflow beyond the queue depth defers FIFO instead of being dropped,
// latency includes overflow-queue wait, and offered load above capacity
// shows up as queueing delay rather than lost throughput.

#include "sim/open_loop_driver.h"

#include <cmath>

#include <gtest/gtest.h>

#include "tests/ftl/ftl_test_util.h"
#include "workload/workload.h"

namespace gecko {
namespace {

class OpenLoopDriverTest : public ChannelFtlTest {};

constexpr Lpn kSpan = 64;

LoadReport RunDriver(Ftl* ftl, FlashDevice* device, uint64_t requests,
                     double inter_arrival_us, double read_fraction) {
  FtlExperiment::Fill(*ftl, kSpan, /*batch_size=*/16);
  EXPECT_TRUE(ftl->Flush().ok());
  device->stats().Reset();

  UniformWorkload workload(kSpan, 42);
  RequestStream::Options sopt;
  sopt.batch_size = 1;
  sopt.read_fraction = read_fraction;
  sopt.seed = 7;
  RequestStream stream(&workload, sopt);

  OpenLoopOptions oopt;
  oopt.inter_arrival_us = inter_arrival_us;
  oopt.requests = requests;
  OpenLoopDriver driver(ftl, device, oopt);
  return driver.Run(stream);
}

TEST_P(OpenLoopDriverTest, EveryArrivalCompletesAndLatencyIsAccounted) {
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, 128,
                     [](FtlConfig& c) { c.async_queue_depth = 8; });
  LoadReport r = RunDriver(ftl.get(), &device, 128,
                           /*inter_arrival_us=*/50.0,
                           /*read_fraction=*/0.25);
  EXPECT_EQ(r.arrivals, 128u);
  EXPECT_EQ(r.completed, 128u);
  EXPECT_EQ(r.extents_completed, r.extents_offered);
  EXPECT_EQ(r.latency.count(), 128u);
  EXPECT_GT(r.achieved_kiops, 0.0);
  EXPECT_GE(r.p99_us, r.p50_us);
  EXPECT_GE(r.p999_us, r.p99_us);
  EXPECT_GE(r.max_us, r.p999_us);
  EXPECT_EQ(ftl->InFlightRequests(), 0u);
  EXPECT_EQ(device.stats().host_inflight(), 0u);
  EXPECT_LE(r.inflight_watermark, 8u);
}

TEST_P(OpenLoopDriverTest, SaturatingLoadDefersButLosesNothing) {
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, 128,
                     [](FtlConfig& c) { c.async_queue_depth = 2; });
  // One arrival per microsecond against millisecond-scale writes: almost
  // every arrival finds the 2-deep queue full and must wait its turn.
  LoadReport r = RunDriver(ftl.get(), &device, 64,
                           /*inter_arrival_us=*/1.0,
                           /*read_fraction=*/0.0);
  EXPECT_EQ(r.completed, 64u);
  EXPECT_GT(r.deferrals, 0u);
  EXPECT_EQ(r.inflight_watermark, 2u);
  // The run takes as long as the device needs, far beyond the arrival
  // window, and the tail reflects time spent in the overflow queue.
  EXPECT_GT(r.elapsed_us, 64 * 1.0);
  EXPECT_GT(r.p99_us, r.p50_us / 2);
}

TEST_P(OpenLoopDriverTest, BackToBackRunsMeasureIndependently) {
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, 128,
                     [](FtlConfig& c) { c.async_queue_depth = 4; });
  // The first run saturates the 4-deep queue.
  LoadReport first = RunDriver(ftl.get(), &device, 32, 1.0, 0.0);
  EXPECT_EQ(first.completed, 32u);
  EXPECT_EQ(first.inflight_watermark, 4u);

  UniformWorkload workload(kSpan, 43);
  RequestStream::Options sopt;
  sopt.batch_size = 1;
  sopt.seed = 8;
  RequestStream stream(&workload, sopt);
  // The second run's arrivals are further apart than any request takes,
  // so each completes before the next arrives: its own peak is 1, not the
  // first run's 4.
  OpenLoopOptions oopt;
  oopt.inter_arrival_us = 100000.0;
  oopt.requests = 32;
  OpenLoopDriver driver(ftl.get(), &device, oopt);
  LoadReport second = driver.Run(stream);
  EXPECT_EQ(second.arrivals, 32u);
  EXPECT_EQ(second.completed, 32u);
  EXPECT_EQ(second.latency.count(), 32u);
  EXPECT_EQ(second.deferrals, 0u);
  EXPECT_LT(second.max_us, oopt.inter_arrival_us);
  EXPECT_EQ(second.inflight_watermark, 1u);
}

GECKO_INSTANTIATE_CHANNEL_FTL_SUITE(OpenLoopDriverTest);

}  // namespace
}  // namespace gecko
