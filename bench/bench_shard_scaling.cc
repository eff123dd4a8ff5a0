// Submitter-thread scaling on the sharded FTL front end.
//
// The claim under test: with the LPN space striped across 8 shared-nothing
// shards (private mapping cache, block-manager slice, channel, maintenance
// plane, worker thread each), aggregate throughput scales with the number
// of submitter threads because nothing serializes in the front end — the
// router splits batches without locks and each shard drains its own MPSC
// queue. A fixed total request budget is split across T open-loop
// submitters, so the offered rate (and hence achieved throughput in
// simulated device time) should rise ~linearly with T until the shards
// saturate: >= 5x at T=8 vs T=1 for every FTL.
//
// Flags: --tiny   CI smoke scale (the speedup gate is advisory;
//                 invariants are still CHECKed)
//        --json P write machine-readable results to path P

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "ftl/sharded_ftl.h"
#include "sim/ftl_experiment.h"
#include "sim/parallel_driver.h"
#include "util/table_printer.h"
#include "workload/request_stream.h"
#include "workload/workload.h"

using namespace gecko;
using namespace gecko::bench;

namespace {

constexpr uint32_t kShards = 8;
constexpr uint32_t kCachePerShard = 64;
constexpr uint32_t kBatch = 4;            // extents per request
constexpr double kReadFraction = 0.3;
constexpr double kInterArrivalUs = 12000;  // per-thread arrival period

Geometry BenchGeometry() {
  Geometry g;
  g.num_blocks = 512;   // 64 blocks per shard
  g.pages_per_block = 32;
  g.page_bytes = 512;   // 128 mapping entries per translation page
  g.logical_ratio = 0.5;
  g.num_channels = kShards;  // one channel per shard
  return g;
}

LoadReport RunOne(const std::string& name, uint32_t threads,
                  uint64_t total_requests) {
  ShardedFtlOptions options;
  options.geometry = BenchGeometry();
  options.num_shards = kShards;
  options.config = DefaultFtlConfig(name, kCachePerShard);
  ShardedFtl sharded(options, [name](FlashDevice* d, const FtlConfig& c) {
    return MakeFtl(name, d, c);
  });

  const uint64_t capacity = sharded.shard_map().TotalLpns();
  FtlExperiment::Fill(sharded, capacity, /*batch_size=*/64);
  GECKO_CHECK(sharded.Flush().ok());

  ParallelDriverOptions dopt;
  dopt.threads = threads;
  dopt.requests_per_thread = total_requests / threads;
  dopt.inter_arrival_us = kInterArrivalUs;
  dopt.max_outstanding_per_thread = 16;
  ParallelDriver driver(&sharded, dopt);

  RequestStream::Options sopt;
  sopt.batch_size = kBatch;
  sopt.read_fraction = kReadFraction;
  sopt.seed = 7;
  LoadReport r = driver.Run(sopt, [capacity](uint32_t thread) {
    return std::make_unique<UniformWorkload>(capacity, 100 + thread);
  });
  GECKO_CHECK_EQ(r.completed + r.aborted, r.arrivals);
  GECKO_CHECK_EQ(r.aborted, uint64_t{0});
  GECKO_CHECK_EQ(sharded.InFlightRequests(), 0u);
  return r;
}

struct SweepRow {
  std::string ftl;
  uint32_t threads = 0;
  LoadReport report;
  double speedup = 1.0;  // achieved_kiops vs the same FTL's T=1 run
};

const std::vector<Column<SweepRow>> kColumns = {
    {"FTL", "ftl", "%s", "\"%s\"", [](auto& r) { return r.ftl; }},
    {"T", "threads", "%llu", "%llu", [](auto& r) { return r.threads; }},
    {"offered kiops", "offered_kiops", "%.3f", "%.3f",
     [](auto& r) { return r.report.offered_kiops; }},
    {"kiops", "achieved_kiops", "%.3f", "%.3f",
     [](auto& r) { return r.report.achieved_kiops; }},
    {"speedup", "speedup_vs_1t", "%.2f", "%.3f",
     [](auto& r) { return r.speedup; }},
    {"p50 us", "p50_us", "%.0f", "%.1f",
     [](auto& r) { return r.report.p50_us; }},
    {"p99 us", "p99_us", "%.0f", "%.1f",
     [](auto& r) { return r.report.p99_us; }},
    {"qfull", "queue_full_retries", "%llu", "%llu",
     [](auto& r) { return r.report.queue_full_retries; }},
};

}  // namespace

int main(int argc, char** argv) {
  Harness h(argc, argv, Harness::kTiny | Harness::kJson);
  const uint64_t kTotalRequests = h.tiny() ? 256 : 2048;

  PrintHeader(
      "Shard scaling: mixed-workload throughput vs submitter threads",
      "shared-nothing shards with per-shard worker threads remove every "
      "front-end serialization point, so open-loop throughput scales with "
      "the submitter count: >= 5x at 8 threads vs 1 on 8 shards for every "
      "FTL");

  const uint32_t kThreads[] = {1, 2, 4, 8};

  std::printf(
      "\n%u-extent mixed batches (%.0f%% reads) over %u shards, "
      "%llu total requests split across T submitters, one per %.0fus "
      "per thread (open loop, simulated time):\n",
      kBatch, kReadFraction * 100, kShards,
      static_cast<unsigned long long>(kTotalRequests), kInterArrivalUs);

  std::vector<SweepRow> rows;
  std::vector<std::pair<std::string, double>> speedups8;
  for (const char* name : kFtlNames) {
    double base_kiops = 0;
    for (uint32_t threads : kThreads) {
      SweepRow row;
      row.ftl = name;
      row.threads = threads;
      row.report = RunOne(name, threads, kTotalRequests);
      if (threads == 1) base_kiops = row.report.achieved_kiops;
      row.speedup = base_kiops > 0 ? row.report.achieved_kiops / base_kiops : 0;
      if (threads == 8) speedups8.emplace_back(name, row.speedup);
      rows.push_back(std::move(row));
    }
  }
  PrintTable(kColumns, rows);

  std::vector<JsonObject> gates;
  for (const auto& [name, speedup8] : speedups8) {
    bool ok = speedup8 >= 5.0;
    h.Check(ok, name + ": " + TablePrinter::Fmt(speedup8, 2) +
                    "x mixed-workload throughput at 8 submitters vs 1");
    gates.push_back({{"ftl", Quote(name)},
                     {"speedup_8t", Printf("%.3f", speedup8)},
                     {"pass", ok ? "true" : "false"}});
  }

  JsonDoc doc("shard_scaling");
  doc.Add("shards", "%llu", kShards);
  doc.Add("total_requests", "%llu", kTotalRequests);
  doc.Add("batch", "%llu", kBatch);
  doc.Add("read_fraction", "%.2f", kReadFraction);
  doc.Add("inter_arrival_us", "%.0f", kInterArrivalUs);
  doc.AddArray("results", JsonRows(kColumns, rows));
  doc.AddArray("gates", std::move(gates));
  h.WriteJson(doc);
  return h.ExitCode();
}
