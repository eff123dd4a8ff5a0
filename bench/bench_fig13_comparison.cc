// Figure 13: GeckoFTL vs DFTL, LazyFTL, µ-FTL and IB-FTL on three axes —
// integrated RAM (top), recovery time (middle), write-amplification
// (bottom).
//
// RAM and recovery breakdowns come from the analytic models evaluated at
// paper scale (2 TB), exactly as the paper does; write-amplification is
// measured by running all five complete FTLs in simulation under
// uniformly random updates.

#include <map>

#include "bench/bench_util.h"
#include "model/ram_model.h"
#include "model/recovery_model.h"
#include "sim/ftl_experiment.h"

using namespace gecko;
using namespace gecko::bench;

int main(int argc, char** argv) {
  Harness h(argc, argv);
  PrintHeader("Figure 13: five-FTL comparison (RAM / recovery / WA)",
              "GeckoFTL balances all three axes without a battery: RAM and "
              "recovery near the battery-backed FTLs, WA near the best");

  // ---- Top: integrated RAM at paper scale -------------------------------
  Geometry paper = Geometry::PaperScale();
  RamModelParams params;
  params.cache_entries = 1u << 19;
  params.gecko.partition_factor =
      LogGeckoConfig::RecommendedPartitionFactor(paper);

  std::printf("\n-- Integrated RAM breakdown (2 TB device, model) --\n");
  TablePrinter ram({"FTL", "total", "largest component", "notes"});
  std::map<std::string, double> ram_totals;
  for (const RamBreakdown& b : AllFtlRam(paper, params)) {
    const RamComponent* biggest = &b.components[0];
    for (const RamComponent& c : b.components) {
      if (c.bytes > biggest->bytes) biggest = &c;
    }
    ram.AddRow({b.ftl, TablePrinter::FmtBytes(b.TotalBytes()),
                biggest->name + " (" + TablePrinter::FmtBytes(biggest->bytes) +
                    ")",
                b.ftl == "DFTL" || b.ftl == "LazyFTL" ? "RAM PVB dominates"
                                                      : "PVB-free"});
    ram_totals[b.ftl] = b.TotalBytes();
  }
  ram.Print();

  // ---- Middle: recovery time at paper scale -----------------------------
  std::printf("\n-- Recovery-time breakdown (2 TB device, model) --\n");
  LatencyModel lat;
  TablePrinter rec({"FTL", "total", "battery?", "dominant step"});
  std::map<std::string, double> rec_totals;
  for (const RecoveryBreakdown& b : AllFtlRecovery(paper, params)) {
    bool battery = false;
    const RecoveryModelStep* biggest = &b.steps[0];
    for (const RecoveryModelStep& s : b.steps) {
      battery = battery || s.battery;
      if (s.cost.Micros(lat) > biggest->cost.Micros(lat)) biggest = &s;
    }
    rec.AddRow({b.ftl, TablePrinter::FmtMicros(b.TotalMicros(lat)),
                battery ? "yes" : "no", biggest->name});
    rec_totals[b.ftl] = b.TotalMicros(lat) / 1e6;
  }
  rec.Print();

  // ---- Bottom: write-amplification (simulation) -------------------------
  std::printf("\n-- Write-amplification breakdown (simulation) --\n");
  Geometry sim;
  sim.num_blocks = 512;
  sim.pages_per_block = 32;
  sim.page_bytes = 1024;
  sim.logical_ratio = 0.7;
  const uint32_t kCache = 256;
  const uint64_t kWarm = 20000, kMeasure = 20000;

  TablePrinter wa({"FTL", "user+GC", "translation", "page-validity", "total"});
  std::map<std::string, WaBreakdown> wa_results;
  for (const std::string& name :
       {std::string("DFTL"), std::string("LazyFTL"), std::string("uFTL"),
        std::string("IB-FTL"), std::string("GeckoFTL")}) {
    FlashDevice device(sim);
    auto ftl = MakeFtl(name, &device, DefaultFtlConfig(name, kCache));
    FtlExperiment::Fill(*ftl, sim.NumLogicalPages());
    UniformWorkload workload(sim.NumLogicalPages(), 7);
    WaBreakdown b =
        FtlExperiment::MeasureWa(*ftl, device, workload, kWarm, kMeasure);
    wa.AddRow({name, TablePrinter::Fmt(b.user_and_gc, 3),
               TablePrinter::Fmt(b.translation, 3),
               TablePrinter::Fmt(b.page_validity, 3),
               TablePrinter::Fmt(b.total, 3)});
    wa_results[name] = b;
  }
  wa.Print();

  // ---- Qualitative checks ------------------------------------------------
  // Compare metadata RAM (the LRU cache is identical across FTLs).
  double cache_bytes = params.cache_entries * params.cache_entry_bytes;
  h.Check((ram_totals["GeckoFTL"] - cache_bytes) <
              0.2 * (ram_totals["DFTL"] - cache_bytes),
          "GeckoFTL uses a small fraction of DFTL/LazyFTL's metadata RAM");
  h.Check(ram_totals["uFTL"] < ram_totals["GeckoFTL"],
          "uFTL is slightly below GeckoFTL (B-tree root vs GMD)");
  h.Check(rec_totals["GeckoFTL"] < 0.49 * rec_totals["LazyFTL"] &&
              rec_totals["GeckoFTL"] < 0.49 * rec_totals["IB-FTL"],
          ">=51% recovery-time reduction vs battery-less baselines");
  h.Check(wa_results["uFTL"].page_validity >
              4 * wa_results["GeckoFTL"].page_validity,
          "uFTL's flash PVB dominates its WA; Gecko's metadata WA is low");
  h.Check(wa_results["GeckoFTL"].translation <=
              1.25 * wa_results["DFTL"].translation,
          "checkpoints add only negligible translation WA vs battery-"
          "backed DFTL");
  h.Check(wa_results["GeckoFTL"].total < wa_results["uFTL"].total &&
              wa_results["GeckoFTL"].total < wa_results["LazyFTL"].total,
          "GeckoFTL's total WA beats the battery-less and flash-PVB "
          "baselines");
  return h.ExitCode();
}
