// Power-failure recovery, side by side: crash all five FTLs at the same
// point of the same workload and compare their recovery cost reports —
// the behavioural analogue of Figure 13 (middle).
//
// GeckoFTL recovers without a battery and without synchronizing the
// recreated mapping entries before resuming; LazyFTL and IB-FTL pay the
// sync-before-resume price; DFTL and µ-FTL cheat with a battery.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "flash/flash_device.h"
#include "ftl/ftl_factory.h"
#include "sim/ftl_experiment.h"
#include "util/table_printer.h"
#include "workload/workload.h"

using namespace gecko;

namespace {

constexpr uint32_t kCache = 256;

}  // namespace

int main() {
  Geometry geometry;
  geometry.num_blocks = 512;
  geometry.pages_per_block = 32;
  geometry.page_bytes = 1024;
  geometry.logical_ratio = 0.7;
  LatencyModel latency;

  TablePrinter table({"FTL", "battery", "spare reads", "page reads",
                      "page writes", "modeled time"});
  for (const std::string& name :
       {std::string("DFTL"), std::string("LazyFTL"), std::string("uFTL"),
        std::string("IB-FTL"), std::string("GeckoFTL")}) {
    FlashDevice device(geometry);
    const FtlConfig config = DefaultFtlConfig(name, kCache);
    auto ftl = MakeFtl(name, &device, config);
    // Same workload for everyone: batched fill, 10k uniform updates
    // submitted as 32-page scatter-gather requests, and a discarded range
    // whose trim must survive the crash.
    FtlExperiment::Fill(*ftl, geometry.NumLogicalPages(), /*batch_size=*/32);
    UniformWorkload workload(geometry.NumLogicalPages(), 3);
    for (int i = 0; i < 10000; i += 32) {
      IoRequest update(IoOp::kWrite);
      for (int j = 0; j < 32; ++j) update.Add(workload.NextLpn(), i + j);
      ftl->Submit(update, nullptr);
    }
    IoRequest trim = IoRequest::Trim({2000, 2001, 2002, 2003});
    ftl->Submit(trim, nullptr);

    RecoveryReport report = ftl->CrashAndRecover();
    table.AddRow({name, config.battery ? "yes" : "no",
                  TablePrinter::Fmt(report.TotalSpareReads()),
                  TablePrinter::Fmt(report.TotalPageReads()),
                  TablePrinter::Fmt(report.TotalPageWrites()),
                  TablePrinter::FmtMicros(report.TotalMicros(latency))});

    // Data must be intact either way — and the discard must hold.
    uint64_t payload = 0;
    Status s = ftl->Read(100, &payload);
    if (!s.ok()) {
      std::printf("%s lost data: %s\n", name.c_str(), s.ToString().c_str());
      return 1;
    }
    if (ftl->Read(2001, &payload).ok()) {
      std::printf("%s resurrected a trimmed page across the crash\n",
                  name.c_str());
      return 1;
    }
  }
  std::printf("recovery cost after an identical crash point:\n");
  table.Print();
  std::printf(
      "\nNote: page *writes* during recovery mean synchronize-before-resume\n"
      "(LazyFTL / IB-FTL). GeckoFTL defers that work to normal operation;\n"
      "its only writes persist the re-derived Gecko buffer.\n");
  return 0;
}
