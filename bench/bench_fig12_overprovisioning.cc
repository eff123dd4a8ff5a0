// Figure 12: write-amplification vs over-provisioning (R = logical /
// physical capacity).
//
// Less over-provisioning (higher R) means GC victims hold more valid
// pages, so garbage collection — and with it GC queries to Logarithmic
// Gecko — runs more often relative to application writes. The paper
// shows the added flash reads barely move WA because reads are ~10x
// cheaper than writes.

#include "bench/bench_util.h"

using namespace gecko;
using namespace gecko::bench;

int main(int argc, char** argv) {
  Harness h(argc, argv);
  PrintHeader("Figure 12: WA vs over-provisioning ratio R",
              "more GC queries at high R, but WA changes little because "
              "flash reads are an order of magnitude cheaper than writes");

  PvmRunOptions opt;
  opt.updates = 40000;

  TablePrinter table(
      {"R", "GC queries", "pvm reads", "pvm writes", "WA(pvm)"});
  std::vector<double> was;
  std::vector<uint64_t> queries;
  for (double r : {0.5, 0.6, 0.7, 0.8, 0.9}) {
    Geometry g = PvmBenchGeometry();
    g.logical_ratio = r;
    LogGeckoConfig cfg;
    cfg.partition_factor = LogGeckoConfig::RecommendedPartitionFactor(g);
    PvmRunResult res = RunPvmExperiment(StoreKind::kGecko, g, cfg, opt);
    table.AddRow({TablePrinter::Fmt(r, 1), TablePrinter::Fmt(res.gc_queries),
                  TablePrinter::Fmt(res.pvm_reads),
                  TablePrinter::Fmt(res.pvm_writes),
                  TablePrinter::Fmt(res.pvm_wa, 4)});
    was.push_back(res.pvm_wa);
    queries.push_back(res.gc_queries);
  }
  table.Print();

  h.Check(queries.back() > 2 * queries.front(),
          "GC queries become much more frequent as R rises");
  h.Check(was.back() < 4.0 * was.front() + 0.02,
          "overall WA stays low across all reasonable over-provisioning");
  h.Check(was.back() < 0.2,
          "even at R=0.9 the metadata WA remains a small fraction of a "
          "write per update");
  return h.ExitCode();
}
