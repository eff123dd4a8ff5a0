// Write amplification under skewed workloads, with and without hot/cold
// stream separation.
//
// The claim: on a skewed update mix (10% of the address space takes 90%
// of the writes — the regime every real host lives in), segregating
// writes into per-temperature-class active blocks cuts GC page
// migrations by >= 30% versus the classic single-stream layout, and
// lowers the end-to-end write-amplification factor, for all five FTLs.
// Single-stream blocks interleave hot and cold pages, so every
// collection of a hot block drags its resident cold pages along; with
// separation, cold pages settle in cold blocks that GC rarely touches,
// and survivors demote one class colder per collection until they stop
// moving.
//
// Both arms run cost-benefit victim selection (the age-aware policy is
// the interesting one under skew; greedy hides part of the stream-
// separation benefit by never aging victims).
//
// Flags: --tiny   CI smoke scale (the perf gates are advisory;
//                 integrity CHECKs still hold)
//        --json P write machine-readable results to path P

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "sim/ftl_experiment.h"
#include "util/table_printer.h"
#include "workload/request_stream.h"
#include "workload/workload.h"

using namespace gecko;
using namespace gecko::bench;

namespace {

constexpr uint32_t kChannels = 4;
constexpr uint32_t kCache = 256;
constexpr uint32_t kTempClasses = 4;
constexpr double kHotFraction = 0.1;
constexpr double kHotAccessFraction = 0.9;
constexpr double kMigrationGate = 0.70;  // migrations(T=4) / migrations(T=1)

Geometry BenchGeometry(bool tiny) {
  Geometry g;
  g.num_blocks = tiny ? 256 : 512;
  g.pages_per_block = 32;
  g.page_bytes = 512;
  g.logical_ratio = 0.7;
  g.num_channels = kChannels;
  return g;
}

struct WafRow {
  std::string ftl;
  uint32_t temp_classes = 0;
  double waf = 0;          // end-to-end write amplification
  double user_gc_wa = 0;   // the user-data + GC share of it
  uint64_t migrations = 0;
  uint64_t demotions = 0;
  uint64_t collections = 0;
};

const std::vector<Column<WafRow>> kColumns = {
    {"FTL", "ftl", "%s", "\"%s\"", [](auto& r) { return r.ftl; }},
    {"classes", "temp_classes", "%llu", "%llu",
     [](auto& r) { return r.temp_classes; }},
    {"WAF", "waf", "%.3f", "%.4f", [](auto& r) { return r.waf; }},
    {"user+GC WA", "user_gc_wa", "%.3f", "%.4f",
     [](auto& r) { return r.user_gc_wa; }},
    {"migrations", "gc_migrations", "%llu", "%llu",
     [](auto& r) { return r.migrations; }},
    {"demotions", "gc_demotions", "%llu", "%llu",
     [](auto& r) { return r.demotions; }},
    {"collections", "gc_collections", "%llu", "%llu",
     [](auto& r) { return r.collections; }},
};

WafRow RunOne(const std::string& name, uint32_t temp_classes, bool tiny) {
  FlashDevice device(BenchGeometry(tiny));
  FtlConfig config = DefaultFtlConfig(name, kCache);
  config.gc_policy = GcPolicy::kCostBenefit;
  config.num_temp_classes = temp_classes;
  auto ftl = MakeFtl(name, &device, config);
  const uint64_t num_lpns = device.geometry().NumLogicalPages();
  FtlExperiment::Fill(*ftl, num_lpns, /*batch_size=*/32);
  GECKO_CHECK(ftl->Flush().ok());

  HotColdWorkload workload(num_lpns, kHotFraction, kHotAccessFraction, 29);
  RequestStream::Options sopt;
  sopt.batch_size = 8;
  sopt.trim_fraction = 0.02;
  sopt.seed = 31;
  const uint64_t warm = tiny ? 4000 : 40000;
  const uint64_t measure = tiny ? 8000 : 80000;
  // Warm to steady state in one call, then measure WA and the GC counter
  // deltas over the same window in a second call (the stream keeps its
  // position: each call emits the requested number of fresh extents).
  FtlExperiment::MeasureWa(*ftl, device, workload, 0, warm, sopt);
  const FtlCounters& live = ftl->counters();
  const uint64_t migrations_before = live.gc_migrations;
  const uint64_t demotions_before = live.gc_demotions;
  const uint64_t collections_before = live.gc_collections;
  WaBreakdown wa =
      FtlExperiment::MeasureWa(*ftl, device, workload, 0, measure, sopt);

  WafRow row;
  row.ftl = name;
  row.temp_classes = temp_classes;
  row.waf = wa.total;
  row.user_gc_wa = wa.user_and_gc;
  row.migrations = live.gc_migrations - migrations_before;
  row.demotions = live.gc_demotions - demotions_before;
  row.collections = live.gc_collections - collections_before;
  return row;
}

struct Gate {
  std::string ftl;
  double migration_ratio = 0;  // separated / single-stream
  double waf_single = 0;
  double waf_separated = 0;
  bool pass = false;
};

}  // namespace

int main(int argc, char** argv) {
  Harness h(argc, argv, Harness::kTiny | Harness::kJson);
  const bool tiny = h.tiny();

  PrintHeader(
      "Write amplification: hot/cold stream separation on a skewed mix",
      "per-temperature-class write streams cut GC page migrations by >= "
      "30% and lower end-to-end WAF versus single-stream placement, for "
      "all five FTLs, on a 10%-hot/90%-of-writes update mix");


  std::printf(
      "\nHot/cold updates (hot %.0f%% of lpns take %.0f%% of writes), "
      "batch 8, 2%% trim mix, cost-benefit GC, %u channels, "
      "1 vs %u temperature classes:\n",
      100.0 * kHotFraction, 100.0 * kHotAccessFraction, kChannels,
      kTempClasses);

  std::vector<WafRow> rows;
  std::vector<Gate> gates;
  for (const char* name : kFtlNames) {
    WafRow single = RunOne(name, 1, tiny);
    WafRow separated = RunOne(name, kTempClasses, tiny);
    GECKO_CHECK_EQ(single.demotions, 0u)
        << name << ": single-stream runs must never demote";
    Gate gate;
    gate.ftl = name;
    gate.migration_ratio =
        single.migrations > 0
            ? static_cast<double>(separated.migrations) /
                  static_cast<double>(single.migrations)
            : 1.0;
    gate.waf_single = single.waf;
    gate.waf_separated = separated.waf;
    gate.pass = gate.migration_ratio <= kMigrationGate &&
                separated.waf < single.waf;
    gates.push_back(gate);
    rows.push_back(std::move(single));
    rows.push_back(std::move(separated));
  }
  PrintTable(kColumns, rows);
  std::printf("\n");

  std::vector<JsonObject> gate_objects;
  for (const Gate& g : gates) {
    h.Check(g.pass, g.ftl + ": migrations x" +
                        TablePrinter::Fmt(g.migration_ratio, 3) +
                        " of single-stream (gate <= 0.70), WAF " +
                        TablePrinter::Fmt(g.waf_single, 3) + " -> " +
                        TablePrinter::Fmt(g.waf_separated, 3));
    gate_objects.push_back(
        {{"ftl", Quote(g.ftl)},
         {"migration_ratio", Printf("%.4f", g.migration_ratio)},
         {"waf_single_stream", Printf("%.4f", g.waf_single)},
         {"waf_separated", Printf("%.4f", g.waf_separated)},
         {"pass", g.pass ? "true" : "false"}});
  }

  JsonDoc doc("waf");
  doc.Add("channels", "%llu", kChannels);
  doc.Add("temp_classes", "%llu", kTempClasses);
  doc.Add("hot_fraction", "%.2f", kHotFraction);
  doc.Add("hot_access_fraction", "%.2f", kHotAccessFraction);
  doc.Add("tiny", "%s", tiny ? "true" : "false");
  doc.AddArray("rows", JsonRows(kColumns, rows));
  doc.AddArray("gates", std::move(gate_objects));
  h.WriteJson(doc);
  return h.ExitCode();
}
