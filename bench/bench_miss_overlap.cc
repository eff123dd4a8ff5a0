// Cache-starved random reads through the non-blocking translation-miss
// pipeline vs the synchronous-miss baseline.
//
// The claim under test: when nearly every read misses the mapping cache,
// stalling each request on its own inline translation fetch serializes
// the device behind the mapping store — the fetch and the data read of
// one request occupy the clock while admitted requests idle. Parking the
// missed extent on a per-translation-page waiting list instead (one
// in-flight fetch per tpage, concurrent misses coalesced, replay at the
// fetch's device time) lets hit extents and independent requests keep
// dispatching across channels, so open-loop throughput at QD=16 on an
// 8-channel device is >= 2x the synchronous-miss baseline for every FTL.
//
// Flags: --tiny   CI smoke scale (the speedup gate is advisory;
//                 invariants are still CHECKed)
//        --json P write machine-readable results to path P

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "ftl/base_ftl.h"
#include "sim/ftl_experiment.h"
#include "sim/open_loop_driver.h"
#include "util/table_printer.h"
#include "workload/request_stream.h"
#include "workload/workload.h"

using namespace gecko;
using namespace gecko::bench;

namespace {

constexpr uint32_t kCache = 64;      // 64 cached mappings over a ...
constexpr Lpn kSpan = 4096;          // ... 4096-lpn working set: ~98% misses
constexpr uint32_t kChannels = 8;
constexpr uint32_t kQd = 16;
constexpr double kInterArrivalUs = 20.0;  // ~50 reads/ms offered: saturating

Geometry BenchGeometry() {
  Geometry g;
  g.num_blocks = 1024;
  g.pages_per_block = 32;
  g.page_bytes = 512;  // 128 mapping entries per translation page
  g.logical_ratio = 0.5;
  g.num_channels = kChannels;
  return g;
}

struct MissRow {
  std::string ftl;
  std::string mode;  // "sync-miss" or "async-miss"
  uint32_t qd = 0;
  LoadReport report;
  uint64_t fetches = 0;        // translation fetches issued by the pipeline
  uint64_t coalesced = 0;      // extents that joined an in-flight fetch
  uint32_t fetch_watermark = 0;
  double stall_p50 = 0;        // park-to-replay stall of parked extents
  double stall_p99 = 0;
  double speedup = 1.0;        // vs the sync-miss baseline at the same QD
};

const std::vector<Column<MissRow>> kColumns = {
    {"FTL", "ftl", "%s", "\"%s\"", [](auto& r) { return r.ftl; }},
    {"miss path", "mode", "%s", "\"%s\"", [](auto& r) { return r.mode; }},
    {"qd", "qd", "%llu", "%llu", [](auto& r) { return r.qd; }},
    {"kiops", "achieved_kiops", "%.2f", "%.3f",
     [](auto& r) { return r.report.achieved_kiops; }},
    {"speedup", "speedup_vs_sync", "%.2f", "%.3f",
     [](auto& r) { return r.speedup; }},
    {"p50 us", "p50_us", "%.0f", "%.1f",
     [](auto& r) { return r.report.p50_us; }},
    {"p99 us", "p99_us", "%.0f", "%.1f",
     [](auto& r) { return r.report.p99_us; }},
    {"p999 us", "p999_us", "%.0f", "%.1f",
     [](auto& r) { return r.report.p999_us; }},
    {"fetches", "miss_fetches", "%llu", "%llu",
     [](auto& r) { return r.fetches; }},
    {"coalesced", "coalesced", "%llu", "%llu",
     [](auto& r) { return r.coalesced; }},
    {"fetch wm", "fetch_inflight_watermark", "%llu", "%llu",
     [](auto& r) { return r.fetch_watermark; }},
    {nullptr, "stall_p50_us", nullptr, "%.1f",
     [](auto& r) { return r.stall_p50; }},
    {"stall p99", "stall_p99_us", "%.0f", "%.1f",
     [](auto& r) { return r.stall_p99; }},
};

MissRow RunOne(const std::string& name, uint32_t qd, bool async_miss,
               uint64_t requests) {
  FlashDevice device(BenchGeometry());
  FtlConfig config = DefaultFtlConfig(name, kCache);
  config.async_queue_depth = qd;
  config.async_miss_fetch = async_miss;
  auto ftl = MakeFtl(name, &device, config);
  FtlExperiment::Fill(*ftl, kSpan, /*batch_size=*/64);
  GECKO_CHECK(ftl->Flush().ok());
  device.stats().Reset();  // measure only the open-loop phase

  UniformWorkload uniform(kSpan, 42);
  RequestStream::Options sopt;
  sopt.batch_size = 1;
  sopt.read_fraction = 1.0;  // pure cache-starved reads
  sopt.seed = 7;
  RequestStream stream(&uniform, sopt);

  OpenLoopOptions oopt;
  oopt.inter_arrival_us = kInterArrivalUs;
  oopt.requests = requests;
  OpenLoopDriver driver(ftl.get(), &device, oopt);

  MissRow row;
  row.ftl = name;
  row.mode = async_miss ? "async-miss" : "sync-miss";
  row.qd = qd;
  row.report = driver.Run(stream);
  GECKO_CHECK_EQ(row.report.completed, row.report.arrivals);
  GECKO_CHECK_EQ(ftl->InFlightRequests(), 0u);

  // Pipeline bookkeeping must balance: every parked extent was replayed,
  // no waiting-list entry or in-flight-fetch gauge tick leaked.
  auto* base = dynamic_cast<BaseFtl*>(ftl.get());
  GECKO_CHECK(base != nullptr);
  const AsyncEngineStats& es = base->async_engine().stats();
  GECKO_CHECK_EQ(es.parked_extents, es.replayed_extents);
  GECKO_CHECK_EQ(base->async_engine().ongoing_fetch_count(), 0u);
  GECKO_CHECK_EQ(device.stats().miss_fetch_inflight(), 0u);

  row.fetches = device.stats().miss_fetches_issued();
  row.coalesced = device.stats().coalesced_misses();
  row.fetch_watermark = device.stats().miss_fetch_inflight_watermark();
  row.stall_p50 = device.stats().MissStall().P50();
  row.stall_p99 = device.stats().MissStall().P99();
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  Harness h(argc, argv, Harness::kTiny | Harness::kJson);
  const uint64_t kRequests = h.tiny() ? 256 : 4096;

  PrintHeader(
      "Miss overlap: cache-starved reads, async vs synchronous miss path",
      "parking missed read extents on coalesced per-tpage fetches keeps "
      "channels busy while the mapping store is read: >= 2x open-loop "
      "throughput vs stalling each request on its own inline fetch, at "
      "QD=16 on 8 channels for every FTL");

  std::printf(
      "\nSingle-extent uniform reads over %u lpns, cache C=%u (~%.0f%% "
      "miss), %u channels, %llu requests at one per %.0fus (open loop):\n",
      unsigned{kSpan}, kCache, 100.0 * (1.0 - double{kCache} / double{kSpan}),
      kChannels, static_cast<unsigned long long>(kRequests), kInterArrivalUs);

  std::vector<MissRow> rows;
  std::vector<std::pair<std::string, double>> speedups;
  for (const char* name : kFtlNames) {
    MissRow sync_row = RunOne(name, kQd, /*async_miss=*/false, kRequests);
    MissRow async_qd1 = RunOne(name, 1, /*async_miss=*/true, kRequests);
    MissRow async_row = RunOne(name, kQd, /*async_miss=*/true, kRequests);
    double base_kiops = sync_row.report.achieved_kiops;
    async_row.speedup =
        base_kiops > 0 ? async_row.report.achieved_kiops / base_kiops : 0;
    speedups.emplace_back(name, async_row.speedup);
    rows.push_back(std::move(sync_row));
    rows.push_back(std::move(async_qd1));
    rows.push_back(std::move(async_row));
  }
  PrintTable(kColumns, rows);

  std::vector<JsonObject> gates;
  for (const auto& [name, speedup] : speedups) {
    bool ok = speedup >= 2.0;
    h.Check(ok, name + ": " + TablePrinter::Fmt(speedup, 2) +
                    "x open-loop throughput with the non-blocking miss "
                    "pipeline vs the synchronous-miss baseline at QD=16");
    gates.push_back({{"ftl", Quote(name)},
                     {"speedup_async_vs_sync", Printf("%.3f", speedup)},
                     {"pass", ok ? "true" : "false"}});
  }

  JsonDoc doc("miss_overlap");
  doc.Add("channels", "%llu", kChannels);
  doc.Add("qd", "%llu", kQd);
  doc.Add("cache", "%llu", kCache);
  doc.Add("span", "%llu", kSpan);
  doc.Add("requests", "%llu", kRequests);
  doc.Add("inter_arrival_us", "%.1f", kInterArrivalUs);
  doc.AddArray("results", JsonRows(kColumns, rows));
  doc.AddArray("gates", std::move(gates));
  h.WriteJson(doc);
  return h.ExitCode();
}
