// Figure 1: RAM-resident FTL metadata and recovery time of a state-of-the-
// art FTL (LazyFTL) grow unsustainably with device capacity.
//
// Reproduced from the analytic models (the paper derives this figure the
// same way; Section 5, "(1) Integrated RAM Comparison" / "(2) Recovery
// Time Comparison"). Capacities sweep 64 GB to 8 TB at B=128, P=4 KB.

#include "bench/bench_util.h"
#include "model/ram_model.h"
#include "model/recovery_model.h"

using namespace gecko;
using namespace gecko::bench;

int main(int argc, char** argv) {
  Harness h(argc, argv);
  PrintHeader(
      "Figure 1: LazyFTL integrated RAM and recovery time vs capacity",
      "RAM reaches ~4 MB at 128 GB (SRAM-hostile) and recovery reaches tens "
      "of seconds at ~2 TB");

  RamModelParams params;
  params.cache_entries = 1u << 19;  // 4 MB LRU cache at 8 B per entry
  LatencyModel latency;

  TablePrinter table({"capacity", "K (blocks)", "metadata RAM (no cache)",
                      "recovery time"});
  double ram_128gb = 0, rec_2tb = 0, ram_64gb = 0, ram_8tb = 0;
  for (uint32_t shift = 0; shift <= 7; ++shift) {
    Geometry g = Geometry::PaperScale();
    g.num_blocks = (1u << 17) << shift;  // 64 GB .. 8 TB
    params.gecko.partition_factor =
        LogGeckoConfig::RecommendedPartitionFactor(g);
    double cache_bytes = params.cache_entries * params.cache_entry_bytes;
    double ram = LazyFtlRam(g, params).TotalBytes() - cache_bytes;
    double rec_us = LazyFtlRecovery(g, params).TotalMicros(latency);
    table.AddRow({TablePrinter::FmtBytes(static_cast<double>(g.PhysicalBytes())),
                  TablePrinter::Fmt(uint64_t{g.num_blocks}),
                  TablePrinter::FmtBytes(ram),
                  TablePrinter::FmtMicros(rec_us)});
    double capacity_gb = static_cast<double>(g.PhysicalBytes()) / (1u << 30);
    if (capacity_gb == 64) ram_64gb = ram;
    if (capacity_gb == 128) ram_128gb = ram;
    if (capacity_gb == 2048) rec_2tb = rec_us / 1e6;
    if (capacity_gb == 8192) ram_8tb = ram;
  }
  table.Print();

  h.Check(ram_128gb >= 3.5 * (1 << 20),
          "metadata RAM reaches ~4 MB at 128 GB (got " +
              TablePrinter::FmtBytes(ram_128gb) + ")");
  h.Check(rec_2tb >= 10.0 && rec_2tb <= 600.0,
          "recovery takes tens of seconds at 2 TB (got " +
              TablePrinter::Fmt(rec_2tb, 1) + " s)");
  h.Check(ram_8tb > 100.0 * ram_64gb,
          "metadata RAM grows ~linearly with capacity (128x capacity -> " +
              TablePrinter::Fmt(ram_8tb / ram_64gb, 1) + "x RAM)");
  return h.ExitCode();
}
