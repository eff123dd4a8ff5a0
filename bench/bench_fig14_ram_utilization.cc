// Figure 14: even when integrated RAM is plentiful enough to hold the PVB,
// Logarithmic Gecko wins — the RAM it frees enlarges the mapping cache.
//
// Three FTLs receive the same RAM budget: DFTL spends most of it on the
// RAM PVB and keeps a small cache; µ-FTL and GeckoFTL move page validity
// to flash and spend the freed RAM on a bigger cache. µ-FTL then pays a
// read-modify-write per invalidation (flash PVB); GeckoFTL gets the best
// of both worlds. As in the paper, all three use GeckoFTL's GC scheme.

#include "bench/bench_util.h"
#include "ftl/baseline_ftls.h"
#include "ftl/gecko_ftl.h"
#include "model/ram_model.h"
#include "sim/ftl_experiment.h"

using namespace gecko;
using namespace gecko::bench;

int main(int argc, char** argv) {
  Harness h(argc, argv);
  PrintHeader("Figure 14: equal-RAM comparison (DFTL / uFTL / GeckoFTL)",
              "with the PVB's RAM given to the cache instead, sync costs "
              "drop to ~0; GeckoFTL alone also keeps metadata WA low");

  Geometry sim;
  sim.num_blocks = 1024;
  sim.pages_per_block = 32;
  sim.page_bytes = 1024;
  sim.logical_ratio = 0.7;

  // Equal RAM budgeting (Section 5.4's 70 MB translated to simulation
  // scale): DFTL's budget = PVB + small cache; the PVB-free FTLs convert
  // the PVB bytes into cache entries (8 bytes each, Section 5).
  const uint32_t kSmallCache = 128;
  uint32_t pvb_entries =
      static_cast<uint32_t>(sim.TotalPages() / 8 / 8);  // PVB bytes / 8
  const uint32_t kBigCache = kSmallCache + pvb_entries;
  std::printf("cache sizes: DFTL=%u entries, uFTL/GeckoFTL=%u entries\n",
              kSmallCache, kBigCache);

  const uint64_t kWarm = 30000, kMeasure = 30000;
  TablePrinter table(
      {"FTL", "cache", "user+GC", "translation", "page-validity", "total"});
  WaBreakdown dftl_b, muftl_b, gecko_b;
  for (int i = 0; i < 3; ++i) {
    FlashDevice device(sim);
    std::unique_ptr<Ftl> ftl;
    uint32_t cache = i == 0 ? kSmallCache : kBigCache;
    std::string name;
    if (i == 0) {
      // DFTL with GeckoFTL's GC scheme (apples-to-apples, Section 5.4).
      FtlConfig c = DftlFtl::DefaultConfig(cache);
      c.gc_policy = GcPolicy::kNeverCollectMetadata;
      ftl = std::make_unique<DftlFtl>(&device, c);
      name = "DFTL (RAM PVB)";
    } else if (i == 1) {
      FtlConfig c = MuFtl::DefaultConfig(cache);
      c.gc_policy = GcPolicy::kNeverCollectMetadata;
      ftl = std::make_unique<MuFtl>(&device, c);
      name = "uFTL (flash PVB)";
    } else {
      ftl = std::make_unique<GeckoFtl>(&device, GeckoFtl::DefaultConfig(cache));
      name = "GeckoFTL";
    }
    FtlExperiment::Fill(*ftl, sim.NumLogicalPages());
    UniformWorkload workload(sim.NumLogicalPages(), 11);
    WaBreakdown b =
        FtlExperiment::MeasureWa(*ftl, device, workload, kWarm, kMeasure);
    table.AddRow({name, TablePrinter::Fmt(uint64_t{cache}),
                  TablePrinter::Fmt(b.user_and_gc, 3),
                  TablePrinter::Fmt(b.translation, 3),
                  TablePrinter::Fmt(b.page_validity, 3),
                  TablePrinter::Fmt(b.total, 3)});
    if (i == 0) dftl_b = b;
    if (i == 1) muftl_b = b;
    if (i == 2) gecko_b = b;
  }
  table.Print();

  h.Check(muftl_b.translation < 0.5 * dftl_b.translation,
          "the larger cache slashes translation (sync) overhead");
  h.Check(muftl_b.page_validity > 5 * gecko_b.page_validity,
          "uFTL pays heavily for its flash PVB; Gecko's metadata WA "
          "stays low");
  h.Check(gecko_b.total < dftl_b.total && gecko_b.total < muftl_b.total,
          "GeckoFTL achieves the best of both worlds");
  return h.ExitCode();
}
