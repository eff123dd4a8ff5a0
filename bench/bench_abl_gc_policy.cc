// Ablation B (Section 4.2): metadata-aware GC vs classic greedy GC.
//
// Flash-resident metadata is updated 2-3 orders of magnitude more often
// than user data, so migrating "still-valid" metadata pages is wasted
// work — they are about to be invalidated anyway. GeckoFTL never targets
// metadata blocks and erases them for free once fully invalid.

#include "bench/bench_util.h"
#include "ftl/gecko_ftl.h"
#include "sim/ftl_experiment.h"

using namespace gecko;
using namespace gecko::bench;

int main(int argc, char** argv) {
  Harness h(argc, argv);
  PrintHeader("Ablation B: metadata-aware GC vs greedy GC (Section 4.2)",
              "never garbage-collecting metadata blocks reduces translation "
              "and metadata WA");

  Geometry sim;
  sim.num_blocks = 512;
  sim.pages_per_block = 32;
  sim.page_bytes = 1024;
  sim.logical_ratio = 0.7;
  const uint64_t kWarm = 20000, kMeasure = 20000;

  TablePrinter table(
      {"GC policy", "user+GC", "translation", "page-validity", "total"});
  WaBreakdown results[2];
  int i = 0;
  for (GcPolicy policy :
       {GcPolicy::kGreedyAll, GcPolicy::kNeverCollectMetadata}) {
    FlashDevice device(sim);
    FtlConfig config = GeckoFtl::DefaultConfig(256);
    config.gc_policy = policy;
    GeckoFtl ftl(&device, config);
    FtlExperiment::Fill(ftl, sim.NumLogicalPages());
    UniformWorkload workload(sim.NumLogicalPages(), 13);
    WaBreakdown b =
        FtlExperiment::MeasureWa(ftl, device, workload, kWarm, kMeasure);
    table.AddRow({policy == GcPolicy::kGreedyAll ? "greedy (all blocks)"
                                                 : "never-collect-metadata",
                  TablePrinter::Fmt(b.user_and_gc, 3),
                  TablePrinter::Fmt(b.translation, 3),
                  TablePrinter::Fmt(b.page_validity, 3),
                  TablePrinter::Fmt(b.total, 3)});
    results[i++] = b;
  }
  table.Print();

  double meta_greedy = results[0].translation + results[0].page_validity;
  double meta_aware = results[1].translation + results[1].page_validity;
  h.Check(meta_aware <= meta_greedy + 0.02,
          "metadata-aware GC does not migrate metadata (metadata WA " +
              TablePrinter::Fmt(meta_greedy, 3) + " -> " +
              TablePrinter::Fmt(meta_aware, 3) + ")");
  h.Check(results[1].total <= results[0].total + 0.05,
          "total WA with the metadata-aware policy is at least as good");
  return h.ExitCode();
}
