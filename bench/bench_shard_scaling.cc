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
// Flags: --tiny   CI smoke scale (exit 0 regardless of the speedup gate;
//                 invariants are still CHECKed)
//        --json P write machine-readable results to path P

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "ftl/baseline_ftls.h"
#include "ftl/gecko_ftl.h"
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

FtlConfig ConfigFor(const std::string& name) {
  if (name == "GeckoFTL") return GeckoFtl::DefaultConfig(kCachePerShard);
  if (name == "DFTL") return DftlFtl::DefaultConfig(kCachePerShard);
  if (name == "LazyFTL") return LazyFtl::DefaultConfig(kCachePerShard);
  if (name == "uFTL") return MuFtl::DefaultConfig(kCachePerShard);
  return IbFtl::DefaultConfig(kCachePerShard);
}

FtlFactory FactoryFor(const std::string& name) {
  if (name == "GeckoFTL") {
    return [](FlashDevice* d, const FtlConfig& c) -> std::unique_ptr<Ftl> {
      return std::make_unique<GeckoFtl>(d, c);
    };
  }
  if (name == "DFTL") {
    return [](FlashDevice* d, const FtlConfig& c) -> std::unique_ptr<Ftl> {
      return std::make_unique<DftlFtl>(d, c);
    };
  }
  if (name == "LazyFTL") {
    return [](FlashDevice* d, const FtlConfig& c) -> std::unique_ptr<Ftl> {
      return std::make_unique<LazyFtl>(d, c);
    };
  }
  if (name == "uFTL") {
    return [](FlashDevice* d, const FtlConfig& c) -> std::unique_ptr<Ftl> {
      return std::make_unique<MuFtl>(d, c);
    };
  }
  return [](FlashDevice* d, const FtlConfig& c) -> std::unique_ptr<Ftl> {
    return std::make_unique<IbFtl>(d, c);
  };
}

ParallelDriverReport RunOne(const std::string& name, uint32_t threads,
                            uint64_t total_requests) {
  ShardedFtlOptions options;
  options.geometry = BenchGeometry();
  options.num_shards = kShards;
  options.config = ConfigFor(name);
  ShardedFtl sharded(options, FactoryFor(name));

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
  ParallelDriverReport r =
      driver.Run(sopt, [capacity](uint32_t thread) {
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
  ParallelDriverReport report;
  double speedup = 1.0;  // achieved_kiops vs the same FTL's T=1 run
};

void WriteJson(const char* path, uint64_t total_requests,
               const std::vector<SweepRow>& rows,
               const std::vector<std::pair<std::string, double>>& gates) {
  std::FILE* f = std::fopen(path, "w");
  GECKO_CHECK(f != nullptr) << "cannot open " << path;
  std::fprintf(f, "{\n  \"bench\": \"shard_scaling\",\n");
  std::fprintf(f, "  \"shards\": %u,\n  \"total_requests\": %llu,\n", kShards,
               static_cast<unsigned long long>(total_requests));
  std::fprintf(f, "  \"batch\": %u,\n  \"read_fraction\": %.2f,\n", kBatch,
               kReadFraction);
  std::fprintf(f, "  \"inter_arrival_us\": %.0f,\n", kInterArrivalUs);
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    std::fprintf(
        f,
        "    {\"ftl\": \"%s\", \"threads\": %u, "
        "\"offered_kiops\": %.3f, \"achieved_kiops\": %.3f, "
        "\"speedup_vs_1t\": %.3f, \"p50_us\": %.1f, \"p99_us\": %.1f, "
        "\"queue_full_retries\": %llu}%s\n",
        r.ftl.c_str(), r.threads, r.report.offered_kiops, r.report.achieved_kiops, r.speedup,
        r.report.p50_us, r.report.p99_us,
        static_cast<unsigned long long>(r.report.queue_full_retries),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"gates\": [\n");
  for (size_t i = 0; i < gates.size(); ++i) {
    std::fprintf(f, "    {\"ftl\": \"%s\", \"speedup_8t\": %.3f, "
                    "\"pass\": %s}%s\n",
                 gates[i].first.c_str(), gates[i].second,
                 gates[i].second >= 5.0 ? "true" : "false",
                 i + 1 < gates.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  bool tiny = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) {
      tiny = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--tiny] [--json PATH]\n", argv[0]);
      return 2;
    }
  }
  const uint64_t kTotalRequests = tiny ? 256 : 2048;

  PrintHeader(
      "Shard scaling: mixed-workload throughput vs submitter threads",
      "shared-nothing shards with per-shard worker threads remove every "
      "front-end serialization point, so open-loop throughput scales with "
      "the submitter count: >= 5x at 8 threads vs 1 on 8 shards for every "
      "FTL");

  const uint32_t kThreads[] = {1, 2, 4, 8};
  const char* kFtls[] = {"GeckoFTL", "DFTL", "LazyFTL", "uFTL", "IB-FTL"};

  std::printf(
      "\n%u-extent mixed batches (%.0f%% reads) over %u shards, "
      "%llu total requests split across T submitters, one per %.0fus "
      "per thread (open loop, simulated time):\n",
      kBatch, kReadFraction * 100, kShards,
      static_cast<unsigned long long>(kTotalRequests), kInterArrivalUs);

  std::vector<SweepRow> rows;
  std::vector<std::pair<std::string, double>> gates;
  TablePrinter table({"FTL", "T", "offered kiops", "kiops", "speedup",
                      "p50 us", "p99 us", "qfull"});
  for (const char* name : kFtls) {
    double base_kiops = 0;
    double speedup8 = 0;
    for (uint32_t threads : kThreads) {
      SweepRow row;
      row.ftl = name;
      row.threads = threads;
      row.report = RunOne(name, threads, kTotalRequests);
      if (threads == 1) base_kiops = row.report.achieved_kiops;
      row.speedup = base_kiops > 0 ? row.report.achieved_kiops / base_kiops : 0;
      if (threads == 8) speedup8 = row.speedup;
      table.AddRow(
          {name, TablePrinter::Fmt(static_cast<int>(threads)),
           TablePrinter::Fmt(row.report.offered_kiops, 3),
           TablePrinter::Fmt(row.report.achieved_kiops, 3),
           TablePrinter::Fmt(row.speedup, 2),
           TablePrinter::Fmt(row.report.p50_us, 0),
           TablePrinter::Fmt(row.report.p99_us, 0),
           TablePrinter::Fmt(row.report.queue_full_retries)});
      rows.push_back(std::move(row));
    }
    gates.emplace_back(name, speedup8);
  }
  table.Print();

  bool all_pass = true;
  for (const auto& [name, speedup8] : gates) {
    bool ok = speedup8 >= 5.0;
    all_pass = all_pass && ok;
    PrintCheck(ok, name + ": " + TablePrinter::Fmt(speedup8, 2) +
                       "x mixed-workload throughput at 8 submitters vs 1");
  }
  if (json_path != nullptr) WriteJson(json_path, kTotalRequests, rows, gates);
  if (tiny) return 0;  // smoke scale: invariants checked, gate advisory
  return all_pass ? 0 : 1;
}
