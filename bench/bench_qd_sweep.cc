// Open-loop queue-depth sweep over the async submission interface.
//
// The claim under test: with the host-side submission queue admitting up
// to QD requests in flight, single-extent writes from *independent*
// requests stripe across channels exactly like the extents of one
// scatter-gather batch, so open-loop throughput scales with queue depth
// until the channels saturate — >= 3x at QD=16 vs QD=1 on an 8-channel
// device for every FTL. Because the driver is open-loop (fixed arrival
// clock, unbounded overflow queue), the p99/p999 columns show genuine
// queueing delay under saturation rather than the flat self-throttled
// tails a closed loop would report.
//
// Flags: --tiny   CI smoke scale (the speedup gate is advisory;
//                 invariants are still CHECKed)
//        --json P write machine-readable results to path P

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "sim/ftl_experiment.h"
#include "sim/open_loop_driver.h"
#include "util/table_printer.h"
#include "workload/request_stream.h"
#include "workload/workload.h"

using namespace gecko;
using namespace gecko::bench;

namespace {

constexpr uint32_t kCache = 64;
constexpr Lpn kSpan = 4096;         // working set
constexpr uint32_t kChannels = 8;   // fixed; QD is the parallelism lever
constexpr double kInterArrivalUs = 20.0;  // ~50 extents/ms offered: saturating

Geometry BenchGeometry() {
  Geometry g;
  g.num_blocks = 1024;
  g.pages_per_block = 32;
  g.page_bytes = 512;  // 128 mapping entries per translation page
  g.logical_ratio = 0.5;
  g.num_channels = kChannels;
  return g;
}

LoadReport RunOne(const std::string& name, uint32_t qd, uint64_t requests,
                  double read_fraction) {
  FlashDevice device(BenchGeometry());
  FtlConfig config = DefaultFtlConfig(name, kCache);
  config.async_queue_depth = qd;
  auto ftl = MakeFtl(name, &device, config);
  FtlExperiment::Fill(*ftl, kSpan, /*batch_size=*/64);
  GECKO_CHECK(ftl->Flush().ok());
  device.stats().Reset();  // measure only the open-loop phase

  UniformWorkload uniform(kSpan, 42);
  RequestStream::Options sopt;
  sopt.batch_size = 1;  // one extent per request: QD carries the parallelism
  sopt.read_fraction = read_fraction;
  sopt.seed = 7;
  RequestStream stream(&uniform, sopt);

  OpenLoopOptions oopt;
  oopt.inter_arrival_us = kInterArrivalUs;
  oopt.requests = requests;
  OpenLoopDriver driver(ftl.get(), &device, oopt);
  LoadReport r = driver.Run(stream);
  GECKO_CHECK_EQ(r.completed, r.arrivals);
  GECKO_CHECK_EQ(ftl->InFlightRequests(), 0u);
  return r;
}

struct SweepRow {
  std::string ftl;
  uint32_t qd = 0;
  double read_fraction = 0;
  LoadReport report;
  double speedup = 1.0;  // achieved_kiops vs the same FTL's QD=1 run
};

const std::vector<Column<SweepRow>> kColumns = {
    {"FTL", "ftl", "%s", "\"%s\"", [](auto& r) { return r.ftl; }},
    {"qd", "qd", "%llu", "%llu", [](auto& r) { return r.qd; }},
    {nullptr, "read_fraction", nullptr, "%.2f",
     [](auto& r) { return r.read_fraction; }},
    {"kiops", "achieved_kiops", "%.2f", "%.3f",
     [](auto& r) { return r.report.achieved_kiops; }},
    {"speedup", "speedup_vs_qd1", "%.2f", "%.3f",
     [](auto& r) { return r.speedup; }},
    {"p50 us", "p50_us", "%.0f", "%.1f",
     [](auto& r) { return r.report.p50_us; }},
    {"p99 us", "p99_us", "%.0f", "%.1f",
     [](auto& r) { return r.report.p99_us; }},
    {"p999 us", "p999_us", "%.0f", "%.1f",
     [](auto& r) { return r.report.p999_us; }},
    {"infl wm", "inflight_watermark", "%llu", "%llu",
     [](auto& r) { return r.report.inflight_watermark; }},
    {"defer", "deferrals", "%llu", "%llu",
     [](auto& r) { return r.report.deferrals; }},
};

}  // namespace

int main(int argc, char** argv) {
  Harness h(argc, argv, Harness::kTiny | Harness::kJson);
  const uint64_t kRequests = h.tiny() ? 256 : 4096;

  PrintHeader(
      "Queue-depth sweep: open-loop throughput and tail latency vs QD",
      "independent in-flight requests stripe across channels like the "
      "extents of one batch, so async throughput scales with queue depth: "
      ">= 3x at QD=16 vs QD=1 on 8 channels for every FTL");

  const uint32_t kQds[] = {1, 2, 4, 8, 16, 32};

  std::printf(
      "\nSingle-extent writes over %u lpns, cache C=%u, %u channels, "
      "%llu requests at one per %.0fus (open loop):\n",
      unsigned{kSpan}, kCache, kChannels,
      static_cast<unsigned long long>(kRequests), kInterArrivalUs);

  std::vector<SweepRow> sweep;
  std::vector<std::pair<std::string, double>> speedups16;
  for (const char* name : kFtlNames) {
    double base_kiops = 0;
    for (uint32_t qd : kQds) {
      SweepRow row;
      row.ftl = name;
      row.qd = qd;
      row.report = RunOne(name, qd, kRequests, /*read_fraction=*/0.0);
      if (qd == 1) base_kiops = row.report.achieved_kiops;
      row.speedup = base_kiops > 0 ? row.report.achieved_kiops / base_kiops : 0;
      if (qd == 16) speedups16.emplace_back(name, row.speedup);
      sweep.push_back(std::move(row));
    }
  }
  PrintTable(kColumns, sweep);

  // Secondary view: a 30% read mix at QD=16. Reads take shared claims on
  // their translation pages, so this exercises the dependency tracker's
  // reader/writer path under load; read service time (100us) vs program
  // time (1000us) also splits the latency distribution visibly.
  std::printf("\n30%% read mix at QD=16 (shared-claim path under load):\n");
  std::vector<SweepRow> mixed;
  for (const char* name : kFtlNames) {
    SweepRow row;
    row.ftl = name;
    row.qd = 16;
    row.read_fraction = 0.3;
    row.report = RunOne(name, 16, kRequests, row.read_fraction);
    mixed.push_back(std::move(row));
  }
  PrintTable(kColumns, mixed,
             {"FTL", "kiops", "p50 us", "p99 us", "p999 us", "infl wm"});

  std::vector<JsonObject> gates;
  for (const auto& [name, speedup16] : speedups16) {
    bool ok = speedup16 >= 3.0;
    h.Check(ok, name + ": " + TablePrinter::Fmt(speedup16, 2) +
                    "x open-loop throughput at QD=16 vs QD=1");
    gates.push_back({{"ftl", Quote(name)},
                     {"speedup_qd16", Printf("%.3f", speedup16)},
                     {"pass", ok ? "true" : "false"}});
  }

  JsonDoc doc("qd_sweep");
  doc.Add("channels", "%llu", kChannels);
  doc.Add("requests", "%llu", kRequests);
  doc.Add("inter_arrival_us", "%.1f", kInterArrivalUs);
  std::vector<JsonObject> results = JsonRows(kColumns, sweep);
  for (JsonObject& o : JsonRows(kColumns, mixed)) results.push_back(o);
  doc.AddArray("results", std::move(results));
  doc.AddArray("gates", std::move(gates));
  h.WriteJson(doc);
  return h.ExitCode();
}
