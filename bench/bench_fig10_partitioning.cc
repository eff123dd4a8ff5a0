// Figure 10: entry-partitioning makes write-amplification independent of
// the block size B.
//
// Without partitioning (S=1), a Gecko entry carries a B-bit bitmap, so V
// (entries per buffer page) shrinks as B grows and update costs rise
// proportionally. The paper's balance S = B/key keeps WA flat; excessive
// partitioning re-inflates WA through key-driven space-amplification.

#include "bench/bench_util.h"

using namespace gecko;
using namespace gecko::bench;

int main(int argc, char** argv) {
  Harness h(argc, argv);
  PrintHeader("Figure 10: entry-partitioning vs block size B",
              "S=1 makes WA grow with B; S=B/key keeps it flat; "
              "over-partitioning (S=B) hurts again");

  PvmRunOptions opt;
  opt.updates = 40000;

  std::vector<uint32_t> block_sizes = {64, 128, 256, 512};
  TablePrinter table({"B", "S=1", "S=B/32 (recommended)", "S=B (max)"});
  std::vector<double> wa_s1, wa_rec, wa_max;
  for (uint32_t b : block_sizes) {
    // Keep total pages constant so over-provisioning pressure is equal.
    Geometry g = PvmBenchGeometry(65536 / b, b, 2048);
    std::vector<std::string> row = {TablePrinter::Fmt(uint64_t{b})};
    for (int variant = 0; variant < 3; ++variant) {
      LogGeckoConfig cfg;
      cfg.partition_factor =
          variant == 0 ? 1
          : variant == 1 ? LogGeckoConfig::RecommendedPartitionFactor(g)
                         : b;
      PvmRunResult r = RunPvmExperiment(StoreKind::kGecko, g, cfg, opt);
      row.push_back(TablePrinter::Fmt(r.pvm_wa, 4));
      if (variant == 0) wa_s1.push_back(r.pvm_wa);
      if (variant == 1) wa_rec.push_back(r.pvm_wa);
      if (variant == 2) wa_max.push_back(r.pvm_wa);
    }
    table.AddRow(std::move(row));
  }
  table.Print();

  h.Check(wa_s1.back() > 2.0 * wa_s1.front(),
          "without partitioning, WA grows with B (" +
              TablePrinter::Fmt(wa_s1.front(), 4) + " -> " +
              TablePrinter::Fmt(wa_s1.back(), 4) + ")");
  h.Check(wa_rec.back() < 2.0 * wa_rec.front(),
          "recommended partitioning keeps WA nearly independent of B (" +
              TablePrinter::Fmt(wa_rec.front(), 4) + " -> " +
              TablePrinter::Fmt(wa_rec.back(), 4) + ")");
  h.Check(wa_max.back() > wa_rec.back(),
          "over-partitioning re-inflates WA via key space-amplification");
  h.Check(wa_rec.back() < wa_s1.back(),
          "at large B, partitioning clearly beats no partitioning");
  return h.ExitCode();
}
