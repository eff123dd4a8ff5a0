// Throughput vs channel count (1 -> 16) for all five FTLs on a batched
// write workload, on the channel-parallel flash backend.
//
// The claim under test: with channel-striped allocation and per-request
// batch windows, a scatter-gather write batch completes in
// max-per-channel time, so simulated throughput scales with the channel
// count — >= 3x at 8 channels vs 1 channel for every FTL (the LFTL/FMMU
// observation that FTL throughput should track hardware parallelism).
// Per-channel utilization and queue depth come from the IoStats channel
// accounting; speedups saturate when per-channel work (GC, metadata
// read-modify-writes serialized on one stream) starts to dominate.

//
// Flags: --json P write machine-readable results to path P

#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "sim/ftl_experiment.h"
#include "util/table_printer.h"
#include "workload/trace.h"

using namespace gecko;
using namespace gecko::bench;

namespace {

constexpr uint32_t kCache = 64;
constexpr Lpn kSpan = 4096;       // working set
constexpr uint32_t kBatch = 64;   // extents per write request
constexpr uint64_t kOps = 16384;  // update extents measured per run

Geometry BenchGeometry(uint32_t channels) {
  Geometry g;
  g.num_blocks = 1024;
  g.pages_per_block = 32;
  g.page_bytes = 512;  // 128 mapping entries per translation page
  g.logical_ratio = 0.5;
  g.num_channels = channels;
  return g;
}

struct RunResult {
  double elapsed_us = 0;     // simulated time for the measured updates
  double kpages_per_sec = 0; // simulated throughput (logical pages)
  ChannelReport channels;
};

RunResult RunOne(const std::string& name, const Trace& trace,
                 uint32_t num_channels) {
  FlashDevice device(BenchGeometry(num_channels));
  auto ftl = MakeFtl(name, &device, DefaultFtlConfig(name, kCache));
  FtlExperiment::Fill(*ftl, kSpan, /*batch_size=*/kBatch);
  GECKO_CHECK(ftl->Flush().ok());

  double before = device.stats().elapsed_us();
  for (uint64_t base = 0; base < kOps; base += kBatch) {
    IoRequest write(IoOp::kWrite);
    for (uint64_t i = base; i < base + kBatch && i < kOps; ++i) {
      Lpn lpn = trace.at(i);
      write.Add(lpn, FtlExperiment::Token(lpn, i));
    }
    IoResult result;
    Status s = ftl->Submit(write, &result);
    GECKO_CHECK(s.ok());
  }

  RunResult r;
  r.elapsed_us = device.stats().elapsed_us() - before;
  r.kpages_per_sec = kOps / r.elapsed_us * 1e6 / 1000.0;
  r.channels = FtlExperiment::Channels(device);
  return r;
}

struct SweepRow {
  std::string ftl;
  uint32_t channels = 0;
  RunResult result;
  double speedup = 1.0;  // elapsed vs the same FTL's 1-channel run
};

const std::vector<Column<SweepRow>> kColumns = {
    {"FTL", "ftl", "%s", "\"%s\"", [](auto& r) { return r.ftl; }},
    {"ch", "channels", "%llu", "%llu", [](auto& r) { return r.channels; }},
    {"elapsed ms", "elapsed_ms", "%.1f", "%.3f",
     [](auto& r) { return r.result.elapsed_us / 1000.0; }},
    {"kpages/s", "kpages_per_sec", "%.1f", "%.3f",
     [](auto& r) { return r.result.kpages_per_sec; }},
    {"speedup", "speedup_vs_1ch", "%.2f", "%.3f",
     [](auto& r) { return r.speedup; }},
    {"mean util", "mean_utilization", "%.2f", "%.3f",
     [](auto& r) { return r.result.channels.MeanUtilization(); }},
    {"max qdepth", "max_queue_depth", "%llu", "%llu",
     [](auto& r) { return r.result.channels.max_queue_depth; }},
};

}  // namespace

int main(int argc, char** argv) {
  Harness h(argc, argv, Harness::kJson);
  PrintHeader(
      "Channel scaling: simulated throughput vs channel count (1 -> 16)",
      "with channel-striped allocation and per-request batch windows, "
      "batched write throughput scales with the channel count: >= 3x at 8 "
      "channels vs 1 for every FTL");

  UniformWorkload uniform(kSpan, 42);
  Trace trace = Trace::Record(uniform, kOps);
  const uint32_t kChannelCounts[] = {1, 2, 4, 8, 16};

  std::printf(
      "\n%u-extent write batches over %u lpns, cache C=%u, simulated time:\n",
      kBatch, unsigned{kSpan}, kCache);
  std::vector<SweepRow> rows;
  std::vector<std::pair<std::string, double>> speedups8;
  for (const char* name : kFtlNames) {
    double base_elapsed = 0;
    for (uint32_t channels : kChannelCounts) {
      SweepRow row;
      row.ftl = name;
      row.channels = channels;
      row.result = RunOne(name, trace, channels);
      if (channels == 1) base_elapsed = row.result.elapsed_us;
      row.speedup = base_elapsed / row.result.elapsed_us;
      if (channels == 8) speedups8.emplace_back(name, row.speedup);
      rows.push_back(std::move(row));
    }
  }
  PrintTable(kColumns, rows);

  std::printf("\nPer-channel utilization, GeckoFTL at 8 channels:\n");
  RunResult gecko8 = RunOne("GeckoFTL", trace, 8);
  for (uint32_t c = 0; c < gecko8.channels.utilization.size(); ++c) {
    std::printf("  channel %u: %5.1f%%  (%llu ops)\n", c,
                100.0 * gecko8.channels.utilization[c],
                static_cast<unsigned long long>(gecko8.channels.ops[c]));
  }

  std::vector<JsonObject> gates;
  for (const auto& [name, speedup8] : speedups8) {
    bool ok = speedup8 >= 3.0;
    h.Check(ok, name + ": " + TablePrinter::Fmt(speedup8, 2) +
                    "x throughput at 8 channels vs 1");
    gates.push_back({{"ftl", Quote(name)},
                     {"speedup_8ch", Printf("%.3f", speedup8)},
                     {"pass", ok ? "true" : "false"}});
  }

  JsonDoc doc("channel_scaling");
  doc.Add("span_lpns", "%llu", kSpan);
  doc.Add("batch", "%llu", kBatch);
  doc.Add("update_extents", "%llu", kOps);
  doc.AddArray("results", JsonRows(kColumns, rows));
  doc.AddArray("gates", std::move(gates));
  h.WriteJson(doc);
  return h.ExitCode();
}
