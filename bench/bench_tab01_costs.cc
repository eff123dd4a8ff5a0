// Table 1: per-update and per-GC-operation IO costs plus integrated-RAM
// requirements of a RAM-resident PVB, a flash-resident PVB, and
// Logarithmic Gecko.
//
// The analytic columns evaluate the closed forms at paper scale; the
// empirical columns measure per-operation averages in simulation and must
// match the predicted ordering: Gecko updates are sub-constant (far
// cheaper than the flash PVB's 1+1), while its GC queries cost O(log)
// reads (more expensive than the PVB's single read).

#include "bench/bench_util.h"
#include "core/analysis.h"

using namespace gecko;
using namespace gecko::bench;

int main(int argc, char** argv) {
  Harness h(argc, argv);
  PrintHeader("Table 1: page-validity scheme costs (analytic + measured)",
              "Logarithmic Gecko trades slightly costlier GC queries for "
              "sub-constant updates; RAM PVB needs O(B*K) RAM");

  // Analytic columns at paper scale (2 TB device).
  Geometry paper = Geometry::PaperScale();
  LogGeckoConfig cfg;
  cfg.partition_factor = LogGeckoConfig::RecommendedPartitionFactor(paper);
  PvmCostModel gecko = LogGeckoCosts(paper, cfg);
  PvmCostModel fpvb = FlashPvbCosts(paper);
  PvmCostModel rpvb = RamPvbCosts(paper);

  TablePrinter analytic({"scheme", "update reads", "update writes",
                         "GC-query reads", "RAM bytes"});
  analytic.AddRow({"RAM PVB", "0", "0", "0",
                   TablePrinter::FmtBytes(rpvb.ram_bytes)});
  analytic.AddRow({"flash PVB", TablePrinter::Fmt(fpvb.update_reads, 3),
                   TablePrinter::Fmt(fpvb.update_writes, 3),
                   TablePrinter::Fmt(fpvb.query_reads, 3),
                   TablePrinter::FmtBytes(fpvb.ram_bytes)});
  analytic.AddRow({"Log. Gecko", TablePrinter::Fmt(gecko.update_reads, 4),
                   TablePrinter::Fmt(gecko.update_writes, 4),
                   TablePrinter::Fmt(gecko.query_reads, 1),
                   TablePrinter::FmtBytes(gecko.ram_bytes)});
  std::printf("Analytic (paper scale, K=2^22, B=128, P=4KB, S=%u):\n",
              cfg.partition_factor);
  analytic.Print();

  // Empirical columns: per-operation averages measured in simulation.
  Geometry sim = PvmBenchGeometry();
  LogGeckoConfig sim_cfg;
  sim_cfg.partition_factor = LogGeckoConfig::RecommendedPartitionFactor(sim);
  PvmRunOptions opt;
  opt.updates = 50000;

  TablePrinter measured({"scheme", "reads/update", "writes/update",
                         "reads/GC-query (probed)", "RAM bytes"});
  double gecko_wpu = 0, fpvb_wpu = 0, gecko_rpq = 0, fpvb_rpq = 0;
  for (StoreKind kind :
       {StoreKind::kRamPvb, StoreKind::kFlashPvb, StoreKind::kGecko}) {
    PvmRunResult r = RunPvmExperiment(kind, sim, sim_cfg, opt);
    double wpu = static_cast<double>(r.pvm_writes) / r.updates;
    measured.AddRow(
        {StoreName(kind),
         TablePrinter::Fmt(static_cast<double>(r.pvm_reads) / r.updates, 4),
         TablePrinter::Fmt(wpu, 4), TablePrinter::Fmt(r.reads_per_query, 2),
         TablePrinter::FmtBytes(r.ram_bytes)});
    if (kind == StoreKind::kGecko) {
      gecko_wpu = wpu;
      gecko_rpq = r.reads_per_query;
    }
    if (kind == StoreKind::kFlashPvb) {
      fpvb_wpu = wpu;
      fpvb_rpq = r.reads_per_query;
    }
  }
  std::printf("\nMeasured (simulation, K=%u, B=%u, P=%u):\n", sim.num_blocks,
              sim.pages_per_block, sim.page_bytes);
  measured.Print();

  h.Check(gecko_wpu < 0.25 * fpvb_wpu,
          "Gecko updates are far cheaper than flash PVB's 1 write/update");
  h.Check(gecko_rpq > fpvb_rpq,
          "Gecko GC queries cost more reads than the flash PVB's");
  h.Check(gecko.ram_bytes < 0.05 * rpvb.ram_bytes,
          "flash-resident schemes use <5% of the RAM PVB's memory");
  return h.ExitCode();
}
