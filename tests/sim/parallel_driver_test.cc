// Parallel open-loop driver tests: every arrival completes, throughput
// is measured in simulated device time, and forked per-thread streams
// make runs deterministic.

#include "sim/parallel_driver.h"

#include <memory>

#include <gtest/gtest.h>

#include "ftl/gecko_ftl.h"
#include "workload/workload.h"

namespace gecko {
namespace {

ShardedFtlOptions SmallOptions(uint32_t num_shards) {
  ShardedFtlOptions options;
  Geometry g;
  g.num_blocks = 64;
  g.pages_per_block = 16;
  g.page_bytes = 512;
  g.logical_ratio = 0.7;
  g.num_channels = num_shards <= 4 ? num_shards : 4;
  options.geometry = g;
  options.num_shards = num_shards;
  options.config = GeckoFtl::DefaultConfig(64);
  return options;
}

FtlFactory GeckoFactory() {
  return [](FlashDevice* device, const FtlConfig& config) {
    return std::make_unique<GeckoFtl>(device, config);
  };
}

LoadReport RunOnce(uint32_t threads) {
  ShardedFtl sharded(SmallOptions(4), GeckoFactory());
  ParallelDriverOptions options;
  options.threads = threads;
  options.requests_per_thread = 64;
  options.inter_arrival_us = 500.0;
  options.max_outstanding_per_thread = 8;
  ParallelDriver driver(&sharded, options);

  RequestStream::Options stream;
  stream.batch_size = 4;
  stream.read_fraction = 0.25;
  stream.seed = 11;
  const uint64_t capacity = sharded.shard_map().TotalLpns();
  LoadReport report = driver.Run(stream, [capacity](uint32_t thread) {
    return std::make_unique<UniformWorkload>(capacity, 500 + thread);
  });
  EXPECT_EQ(sharded.InFlightRequests(), 0u);
  return report;
}

TEST(ParallelDriverTest, EveryArrivalCompletes) {
  LoadReport report = RunOnce(4);
  EXPECT_EQ(report.arrivals, 4u * 64u);
  EXPECT_EQ(report.completed + report.aborted, report.arrivals);
  EXPECT_EQ(report.aborted, 0u);
  EXPECT_GT(report.extents_completed, 0u);
  EXPECT_EQ(report.extents_completed, report.extents_offered);
  EXPECT_GT(report.elapsed_us, 0.0);
  EXPECT_GT(report.achieved_kiops, 0.0);
  EXPECT_EQ(report.latency.count(), static_cast<uint64_t>(report.completed));
  EXPECT_GE(report.p99_us, report.p50_us);
}

TEST(ParallelDriverTest, ForkedStreamsMakeRunsDeterministic) {
  // Same seeds, same thread count -> identical offered work. (Completion
  // interleaving varies with scheduling, but the workload must not.)
  LoadReport a = RunOnce(2);
  LoadReport b = RunOnce(2);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.extents_offered, b.extents_offered);
  EXPECT_EQ(a.extents_completed, b.extents_completed);
}

TEST(ParallelDriverTest, SingleThreadStillDrives) {
  LoadReport report = RunOnce(1);
  EXPECT_EQ(report.arrivals, 64u);
  EXPECT_EQ(report.completed, 64u);
}

}  // namespace
}  // namespace gecko
