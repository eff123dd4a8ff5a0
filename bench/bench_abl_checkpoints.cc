// Ablation C (Section 4.3): checkpoint period vs write-amplification and
// the recovery-scan bound.
//
// Checkpoints bound the recovery backward scan to ~2 * period spare reads
// but prematurely synchronize long-lived dirty entries. The paper claims
// the WA increase is negligible at period = C; this sweep quantifies the
// trade-off.

#include "bench/bench_util.h"
#include "ftl/gecko_ftl.h"
#include "sim/ftl_experiment.h"

using namespace gecko;
using namespace gecko::bench;

int main(int argc, char** argv) {
  Harness h(argc, argv);
  PrintHeader("Ablation C: checkpoint period sweep (Section 4.3)",
              "checkpoints add negligible WA while bounding the recovery "
              "scan to ~2*period spare reads");

  Geometry sim;
  sim.num_blocks = 512;
  sim.pages_per_block = 32;
  sim.page_bytes = 1024;
  sim.logical_ratio = 0.7;
  const uint32_t kCache = 256;
  const uint64_t kWarm = 15000, kMeasure = 15000;

  TablePrinter table({"period", "translation WA", "total WA", "checkpoints",
                      "recovery scan (spare reads)"});
  std::vector<double> totals;
  std::vector<uint64_t> scans;
  for (uint32_t period : {64u, 128u, 256u, 512u, 0u}) {
    FlashDevice device(sim);
    FtlConfig config = GeckoFtl::DefaultConfig(kCache);
    config.checkpoint_period = period;
    GeckoFtl ftl(&device, config);
    FtlExperiment::Fill(ftl, sim.NumLogicalPages());
    UniformWorkload workload(sim.NumLogicalPages(), 17);
    WaBreakdown b =
        FtlExperiment::MeasureWa(ftl, device, workload, kWarm, kMeasure);
    RecoveryReport report = ftl.CrashAndRecover();
    uint64_t scan = 0;
    for (const RecoveryStep& s : report.steps) {
      if (s.name.rfind("dirty mapping entries", 0) == 0) scan = s.spare_reads;
    }
    table.AddRow({period == 0 ? "off" : TablePrinter::Fmt(uint64_t{period}),
                  TablePrinter::Fmt(b.translation, 3),
                  TablePrinter::Fmt(b.total, 3),
                  TablePrinter::Fmt(ftl.counters().checkpoints),
                  TablePrinter::Fmt(scan)});
    totals.push_back(b.total);
    scans.push_back(scan);
  }
  table.Print();

  h.Check(totals[1] < totals[4] * 1.15 + 0.05,
          "checkpoints at period=C cost little extra WA vs no "
          "checkpoints");
  h.Check(scans[0] <= scans[2],
          "shorter periods shrink the recovery backward scan");
  return h.ExitCode();
}
