// Batched scatter-gather submission vs single-page calls: ops/sec and
// metadata flash writes as a function of batch size.
//
// The redesigned Ftl API's claim: a write batch updates each touched
// translation page / page-validity page once per request instead of once
// per lpn. In the RAM-starved regime (mapping cache far smaller than the
// working set) the single-page path pays an eviction-driven
// synchronization for almost every write; Submit streams each batch in
// translation-page order and commits each touched page once.

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "flash/flash_device.h"
#include "ftl/baseline_ftls.h"
#include "ftl/gecko_ftl.h"
#include "sim/ftl_experiment.h"
#include "util/table_printer.h"
#include "workload/request_stream.h"
#include "workload/trace.h"

using namespace gecko;

namespace {

// RAM-starved regime (the paper's premise: integrated RAM is the scarce
// resource): the mapping cache is far smaller than the working set.
// Batches the cache could absorb stay lazy — their metadata cost matches
// single-page calls; once the batch far exceeds C (>= 2C), Submit streams
// it in translation-page order and commits each touched page once per
// request.
constexpr uint32_t kCache = 16;
constexpr Lpn kSpan = 4096;       // working set: 32 translation pages
constexpr uint64_t kOps = 32768;  // update extents measured per run

Geometry BenchGeometry() {
  Geometry g;
  g.num_blocks = 1024;
  g.pages_per_block = 32;
  g.page_bytes = 512;  // 128 mapping entries per translation page
  g.logical_ratio = 0.5;
  return g;
}

struct RunResult {
  double kops_per_sec = 0;
  uint64_t translation_writes = 0;
  uint64_t pvm_writes = 0;
  uint64_t total_writes = 0;
  double wa = 0;
};

template <typename FtlT>
RunResult RunOne(const Trace& trace, uint32_t batch_size, double trim_mix,
                 FtlCounters* counters_out = nullptr) {
  FlashDevice device(BenchGeometry());
  FtlT ftl(&device, FtlT::DefaultConfig(kCache));
  FtlExperiment::Fill(ftl, kSpan, /*batch_size=*/8);
  Status fs = ftl.Flush();
  GECKO_CHECK(fs.ok());

  Rng trim_rng(7);
  IoCounters before = device.stats().Snapshot();
  auto start = std::chrono::steady_clock::now();
  for (uint64_t base = 0; base < kOps; base += batch_size) {
    IoRequest write(IoOp::kWrite);
    IoRequest trim(IoOp::kTrim);
    for (uint64_t i = base; i < base + batch_size && i < kOps; ++i) {
      Lpn lpn = trace.at(i);
      if (trim_mix > 0 && trim_rng.Bernoulli(trim_mix)) {
        trim.Add(lpn);
      } else {
        write.Add(lpn, FtlExperiment::Token(lpn, i));
      }
    }
    IoResult result;
    if (!write.empty()) {
      Status s = ftl.Submit(write, &result);
      GECKO_CHECK(s.ok());
    }
    if (!trim.empty()) {
      Status s = ftl.Submit(trim, &result);
      GECKO_CHECK(s.ok());
    }
  }
  Status fe = ftl.Flush();
  GECKO_CHECK(fe.ok());
  auto elapsed = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  IoCounters delta = device.stats().Snapshot() - before;

  RunResult r;
  r.kops_per_sec = kOps / elapsed / 1000.0;
  r.translation_writes = delta.WritesFor(IoPurpose::kTranslation);
  r.pvm_writes = delta.WritesFor(IoPurpose::kPvm);
  r.total_writes = delta.TotalWrites();
  r.wa = delta.WriteAmplification(device.stats().latency().Delta());
  if (counters_out != nullptr) *counters_out = ftl.counters();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h(argc, argv);
  bench::PrintHeader(
      "Batched submission: metadata writes and throughput vs batch size",
      "Submit() with a multi-page batch performs fewer translation-page/PVM "
      "flash writes than the same updates as single-page Write() calls");

  UniformWorkload uniform(kSpan, 42);
  Trace trace = Trace::Record(uniform, kOps);

  std::printf("\nGeckoFTL, uniform updates over %u lpns, cache C=%u:\n",
              unsigned{kSpan}, kCache);
  TablePrinter table({"batch", "kops/s", "transl W", "pvm W", "total W",
                      "WA", "vs batch=1"});
  uint64_t baseline = 0;
  FtlCounters last_counters;
  for (uint32_t batch : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    RunResult r = RunOne<GeckoFtl>(trace, batch, /*trim_mix=*/0.0,
                                   &last_counters);
    uint64_t meta = r.translation_writes + r.pvm_writes;
    if (batch == 1) baseline = meta;
    double ratio = baseline > 0 ? static_cast<double>(meta) / baseline : 0;
    table.AddRow({TablePrinter::Fmt(static_cast<int>(batch)),
                  TablePrinter::Fmt(r.kops_per_sec, 1),
                  TablePrinter::Fmt(r.translation_writes),
                  TablePrinter::Fmt(r.pvm_writes),
                  TablePrinter::Fmt(r.total_writes), TablePrinter::Fmt(r.wa),
                  TablePrinter::Fmt(ratio, 2)});
  }
  table.Print();

  std::printf("\nuFTL (flash-resident PVB), same workload:\n");
  TablePrinter mu({"batch", "kops/s", "transl W", "pvm W", "total W", "WA"});
  for (uint32_t batch : {1u, 8u, 32u}) {
    RunResult r = RunOne<MuFtl>(trace, batch, /*trim_mix=*/0.0);
    mu.AddRow({TablePrinter::Fmt(static_cast<int>(batch)),
               TablePrinter::Fmt(r.kops_per_sec, 1),
               TablePrinter::Fmt(r.translation_writes),
               TablePrinter::Fmt(r.pvm_writes),
               TablePrinter::Fmt(r.total_writes), TablePrinter::Fmt(r.wa)});
  }
  mu.Print();

  std::printf("\nGeckoFTL with a 10%% trim mix (batch=32):\n");
  FtlCounters trim_counters;
  RunResult r = RunOne<GeckoFtl>(trace, 32, /*trim_mix=*/0.1, &trim_counters);
  std::printf("  %.1f kops/s, WA %.3f\n", r.kops_per_sec, r.wa);
  TablePrinter counters({"counter", "value"});
  bench::AddFtlCounterRows(&counters, trim_counters);
  counters.Print();

  RunResult single = RunOne<GeckoFtl>(trace, 1, 0.0);
  RunResult batched = RunOne<GeckoFtl>(trace, 32, 0.0);
  h.Check(
      batched.translation_writes + batched.pvm_writes <
          single.translation_writes + single.pvm_writes,
      "32-page batches perform fewer translation+PVM flash writes than "
      "single-page calls (" +
          std::to_string(batched.translation_writes + batched.pvm_writes) +
          " vs " +
          std::to_string(single.translation_writes + single.pvm_writes) + ")");
  return h.ExitCode();
}
