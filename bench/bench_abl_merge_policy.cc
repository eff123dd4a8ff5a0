// Ablation A (Appendix A): multi-way merging vs the basic two-way policy.
//
// A cascade of two-way merges rewrites lower-level entries once per level;
// foreseeing the cascade and merging the whole chain at once saves ~1/T of
// the merge writes, at the cost of L+1 RAM input buffers.

#include "bench/bench_util.h"

using namespace gecko;
using namespace gecko::bench;

int main(int argc, char** argv) {
  Harness h(argc, argv);
  PrintHeader("Ablation A: two-way vs multi-way merging (Appendix A)",
              "multi-way merging reduces merge writes by ~1/T");

  Geometry g = PvmBenchGeometry();
  PvmRunOptions opt;
  opt.updates = 60000;

  TablePrinter table({"policy", "T", "pvm writes", "pvm reads", "WA(pvm)"});
  double wa[2][2];  // [policy][t-index]
  uint64_t writes[2][2];
  int ti = 0;
  for (uint32_t t : {2u, 4u}) {
    int pi = 0;
    for (MergePolicy policy : {MergePolicy::kTwoWay, MergePolicy::kMultiWay}) {
      LogGeckoConfig cfg;
      cfg.size_ratio = t;
      cfg.merge_policy = policy;
      cfg.partition_factor = LogGeckoConfig::RecommendedPartitionFactor(g);
      PvmRunResult r = RunPvmExperiment(StoreKind::kGecko, g, cfg, opt);
      table.AddRow({policy == MergePolicy::kTwoWay ? "two-way" : "multi-way",
                    TablePrinter::Fmt(uint64_t{t}),
                    TablePrinter::Fmt(r.pvm_writes),
                    TablePrinter::Fmt(r.pvm_reads),
                    TablePrinter::Fmt(r.pvm_wa, 4)});
      wa[pi][ti] = r.pvm_wa;
      writes[pi][ti] = r.pvm_writes;
      ++pi;
    }
    ++ti;
  }
  table.Print();

  h.Check(writes[1][0] < writes[0][0],
          "multi-way writes less than two-way at T=2");
  double saving_t2 = 1.0 - static_cast<double>(writes[1][0]) / writes[0][0];
  double saving_t4 = 1.0 - static_cast<double>(writes[1][1]) / writes[0][1];
  h.Check(saving_t2 > saving_t4 - 0.25,
          "savings are on the order of 1/T (T=2: " +
              TablePrinter::Fmt(100 * saving_t2, 1) + "%, T=4: " +
              TablePrinter::Fmt(100 * saving_t4, 1) + "%)");
  h.Check(wa[1][0] <= wa[0][0], "multi-way never hurts WA");
  return h.ExitCode();
}
