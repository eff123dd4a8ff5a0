// FTL shootout: run all five FTLs under three workload shapes (uniform,
// zipf, hot/cold) and compare write-amplification — a quick way to explore
// how the paper's conclusions shift with access skew. A second pass
// replays the uniform shape through batched scatter-gather requests with
// a trim mix, showing how request batching shifts the metadata columns.

#include <cstdio>
#include <memory>
#include <string>

#include "flash/flash_device.h"
#include "ftl/ftl_factory.h"
#include "sim/ftl_experiment.h"
#include "util/table_printer.h"
#include "workload/workload.h"

using namespace gecko;

namespace {

constexpr uint32_t kCache = 256;

std::unique_ptr<Workload> MakeWorkload(const std::string& kind, uint64_t n) {
  if (kind == "uniform") return std::make_unique<UniformWorkload>(n, 5);
  if (kind == "zipf") return std::make_unique<ZipfWorkload>(n, 0.99, 5);
  return std::make_unique<HotColdWorkload>(n, 0.1, 0.9, 5);
}

}  // namespace

int main() {
  Geometry geometry;
  geometry.num_blocks = 512;
  geometry.pages_per_block = 32;
  geometry.page_bytes = 1024;
  geometry.logical_ratio = 0.7;

  TablePrinter table({"workload", "FTL", "user+GC", "translation",
                      "page-validity", "total WA"});
  for (const std::string& wk :
       {std::string("uniform"), std::string("zipf"), std::string("hot-cold")}) {
    for (const std::string& name :
         {std::string("DFTL"), std::string("LazyFTL"), std::string("uFTL"),
          std::string("IB-FTL"), std::string("GeckoFTL")}) {
      FlashDevice device(geometry);
      auto ftl = MakeFtl(name, &device, DefaultFtlConfig(name, kCache));
      FtlExperiment::Fill(*ftl, geometry.NumLogicalPages());
      auto workload = MakeWorkload(wk, geometry.NumLogicalPages());
      WaBreakdown b = FtlExperiment::MeasureWa(*ftl, device, *workload,
                                               /*warm_ops=*/15000,
                                               /*measure_ops=*/15000);
      table.AddRow({wk, name, TablePrinter::Fmt(b.user_and_gc, 3),
                    TablePrinter::Fmt(b.translation, 3),
                    TablePrinter::Fmt(b.page_validity, 3),
                    TablePrinter::Fmt(b.total, 3)});
    }
  }
  std::printf("write-amplification by workload shape:\n");
  table.Print();
  std::printf(
      "\nSkew lowers WA across the board (hot pages invalidate whole blocks\n"
      "quickly), but the ordering — GeckoFTL ahead of flash-PVB and\n"
      "dirty-capped baselines — holds for every shape.\n");

  // Second pass: the same uniform shape submitted as 32-page batched
  // requests with a 5% trim mix (RequestStream), against single-page
  // calls.
  TablePrinter batched({"FTL", "mode", "user+GC", "translation",
                        "page-validity", "total WA"});
  for (const std::string& name :
       {std::string("uFTL"), std::string("GeckoFTL")}) {
    for (bool batch : {false, true}) {
      FlashDevice device(geometry);
      auto ftl = MakeFtl(name, &device, DefaultFtlConfig(name, kCache));
      FtlExperiment::Fill(*ftl, geometry.NumLogicalPages(), 32);
      UniformWorkload workload(geometry.NumLogicalPages(), 5);
      RequestStream::Options options = FtlExperiment::LoneWrites();
      if (batch) {
        options.batch_size = 32;
        options.trim_fraction = 0.05;
      }
      WaBreakdown b = FtlExperiment::MeasureWa(*ftl, device, workload, 15000,
                                               15000, options);
      batched.AddRow({name, batch ? "batch=32 +5% trim" : "single-page",
                      TablePrinter::Fmt(b.user_and_gc, 3),
                      TablePrinter::Fmt(b.translation, 3),
                      TablePrinter::Fmt(b.page_validity, 3),
                      TablePrinter::Fmt(b.total, 3)});
    }
  }
  std::printf("\nbatched scatter-gather submission vs single-page calls:\n");
  batched.Print();
  return 0;
}
