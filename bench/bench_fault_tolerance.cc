// Graceful degradation under media faults, swept across fault rates.
//
// Three claims, each over all five FTLs:
//
//  1. Throughput degrades gracefully: at a 1e-4 transient-read-fault
//     rate (each fault costs <= R retry reads through the channel
//     queues), open-loop throughput at QD=16 on 8 channels stays >= 90%
//     of the zero-fault baseline — and there is no cliff anywhere below
//     the degradation threshold across the swept rates.
//  2. No completion ever returns wrong data: under simultaneous
//     transient, hard-read and program faults plus crash churn, every
//     read either fails honestly (kIoError per extent) or matches the
//     shadow model exactly.
//  3. Spare exhaustion is a mode, not a crash: with every erase failing,
//     the FTL transitions to sticky read-only degraded mode; reads still
//     verify against the shadow afterwards.
//
// Flags: --tiny   CI smoke scale (the throughput gate is advisory;
//                 integrity and degradation claims still CHECK)
//        --json P write machine-readable results to path P

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "flash/fault_model.h"
#include "sim/ftl_experiment.h"
#include "sim/open_loop_driver.h"
#include "util/random.h"
#include "util/table_printer.h"
#include "workload/request_stream.h"
#include "workload/workload.h"

using namespace gecko;
using namespace gecko::bench;

namespace {

constexpr uint32_t kChannels = 8;
constexpr uint32_t kQd = 16;
constexpr uint32_t kCache = 512;
constexpr Lpn kSpan = 4096;
constexpr double kInterArrivalUs = 30.0;
const double kSweepRates[] = {0.0, 1e-5, 1e-4, 1e-3};
constexpr double kGateRate = 1e-4;   // the gated point of the sweep
constexpr double kGateFraction = 0.90;

Geometry BenchGeometry() {
  Geometry g;
  g.num_blocks = 1024;
  g.pages_per_block = 32;
  g.page_bytes = 512;
  g.logical_ratio = 0.5;
  g.num_channels = kChannels;
  return g;
}

Geometry SmallGeometry() {
  Geometry g;
  g.num_blocks = 96;
  g.pages_per_block = 16;
  g.page_bytes = 512;
  g.logical_ratio = 0.7;
  g.num_channels = kChannels;
  return g;
}

std::unique_ptr<Ftl> Make(const std::string& name, FlashDevice* device) {
  FtlConfig config = DefaultFtlConfig(name, kCache);
  config.async_queue_depth = kQd;
  return MakeFtl(name, device, config);
}

// --- Claim 1: throughput sweep over transient-read-fault rates ----------

struct SweepRow {
  std::string ftl;
  double rate = 0;
  double kiops = 0;
  double p99_us = 0;
  uint64_t retries = 0;
  uint64_t transient_faults = 0;
  double fraction_of_clean = 1.0;  // kiops / kiops(rate=0)
};

// The table shows the fraction of clean throughput fourth, the JSON last.
const std::vector<Column<SweepRow>> kSweepColumns = {
    {"FTL", "ftl", "%s", "\"%s\"", [](auto& r) { return r.ftl; }},
    {"fault rate", "transient_rate", "%.6f", "%g",
     [](auto& r) { return r.rate; }},
    {"kiops", "achieved_kiops", "%.2f", "%.3f",
     [](auto& r) { return r.kiops; }},
    {"vs clean", nullptr, "%.3f", nullptr,
     [](auto& r) { return r.fraction_of_clean; }},
    {"p99 us", "p99_us", "%.0f", "%.1f", [](auto& r) { return r.p99_us; }},
    {"retries", "read_retries", "%llu", "%llu",
     [](auto& r) { return r.retries; }},
    {nullptr, "transient_faults", nullptr, "%llu",
     [](auto& r) { return r.transient_faults; }},
    {nullptr, "fraction_of_clean", nullptr, "%.4f",
     [](auto& r) { return r.fraction_of_clean; }},
};

SweepRow RunSweepPoint(const std::string& name, double rate,
                       uint64_t requests) {
  FaultConfig faults;
  faults.enabled = rate > 0;
  faults.seed = 97;
  faults.transient_read_fault_rate = rate;
  FlashDevice device(BenchGeometry(), LatencyModel(), faults);
  auto ftl = Make(name, &device);
  FtlExperiment::Fill(*ftl, kSpan, /*batch_size=*/64);
  GECKO_CHECK(ftl->Flush().ok());
  device.stats().Reset();

  ZipfWorkload zipf(kSpan, 0.9, 11);
  RequestStream::Options sopt;
  sopt.batch_size = 4;
  sopt.read_fraction = 0.5;  // reads are what transient faults tax
  sopt.seed = 13;
  RequestStream stream(&zipf, sopt);

  OpenLoopOptions oopt;
  oopt.inter_arrival_us = kInterArrivalUs;
  oopt.requests = requests;
  OpenLoopDriver driver(ftl.get(), &device, oopt);

  SweepRow row;
  row.ftl = name;
  row.rate = rate;
  LoadReport report = driver.Run(stream);
  GECKO_CHECK_EQ(report.completed, report.arrivals);
  row.kiops = report.achieved_kiops;
  row.p99_us = report.p99_us;
  row.retries = device.stats().read_retries();
  row.transient_faults = device.stats().transient_read_faults();
  GECKO_CHECK_EQ(device.stats().hard_read_faults(), 0u);
  return row;
}

// --- Claim 2: shadow-verified integrity under mixed faults --------------

struct IntegrityRow {
  std::string ftl;
  uint64_t writes = 0;
  uint64_t reads = 0;
  uint64_t io_errors = 0;       // honest per-extent failures
  uint64_t remapped = 0;        // program faults transparently re-placed
  uint64_t transient_faults = 0;
  uint64_t crashes = 0;
};

const std::vector<Column<IntegrityRow>> kIntegrityColumns = {
    {"FTL", "ftl", "%s", "\"%s\"", [](auto& r) { return r.ftl; }},
    {"writes", "writes", "%llu", "%llu", [](auto& r) { return r.writes; }},
    {"reads", "reads", "%llu", "%llu", [](auto& r) { return r.reads; }},
    {"io errors", "io_errors", "%llu", "%llu",
     [](auto& r) { return r.io_errors; }},
    {"remapped", "remapped_programs", "%llu", "%llu",
     [](auto& r) { return r.remapped; }},
    {"transient", "transient_faults", "%llu", "%llu",
     [](auto& r) { return r.transient_faults; }},
    {"crashes", "crashes", "%llu", "%llu", [](auto& r) { return r.crashes; }},
    // Any wrong read aborts the run, so a finished row always has none.
    {"wrong data", "wrong_data", "%llu", "%llu", [](auto&) { return 0; }},
};

IntegrityRow RunIntegrityChurn(const std::string& name, uint64_t ops) {
  FaultConfig faults;
  faults.enabled = true;
  faults.seed = 171;
  faults.transient_read_fault_rate = 1e-3;
  faults.hard_read_fault_rate = 1e-4;
  faults.program_fault_rate = 1e-3;
  FlashDevice device(SmallGeometry(), LatencyModel(), faults);
  auto ftl = Make(name, &device);
  const Lpn span = device.geometry().NumLogicalPages() / 2;

  IntegrityRow row;
  row.ftl = name;
  std::map<Lpn, uint64_t> shadow;
  Rng rng(faults.seed + 1);
  uint64_t version = 0;
  for (uint64_t i = 0; i < ops; ++i) {
    uint32_t dice = rng.Uniform(1000);
    if (dice < 550) {
      Lpn lpn = rng.Uniform(span);
      uint64_t token = FtlExperiment::Token(lpn, ++version);
      Status s = ftl->Write(lpn, token);
      GECKO_CHECK(s.ok()) << s.ToString();
      shadow[lpn] = token;
      ++row.writes;
    } else if (dice < 990) {
      if (shadow.empty()) continue;
      auto it = shadow.lower_bound(rng.Uniform(span));
      if (it == shadow.end()) it = shadow.begin();
      uint64_t got = 0;
      Status s = ftl->Read(it->first, &got);
      ++row.reads;
      if (s.code() == StatusCode::kIoError) {
        // Unrecoverable read error: that copy is gone. GC may later drop
        // the dead page and a post-crash scan then has nothing to map, so
        // the lpn is lost (honestly) until rewritten.
        ++row.io_errors;
        shadow.erase(it);
        continue;
      }
      GECKO_CHECK(s.ok()) << s.ToString();
      GECKO_CHECK_EQ(got, it->second)
          << name << " returned wrong data for lpn " << it->first;
    } else {
      ftl->CrashAndRecover();
      ++row.crashes;
    }
  }
  row.remapped = ftl->counters().remapped_programs;
  row.transient_faults = device.stats().transient_read_faults();
  return row;
}

// --- Claim 3: spare exhaustion -> read-only mode, data intact -----------

struct DegradeRow {
  std::string ftl;
  uint64_t writes_before_wall = 0;
  uint32_t grown_bad_blocks = 0;
  uint64_t survivors_verified = 0;
};

const std::vector<Column<DegradeRow>> kDegradeColumns = {
    {"FTL", "ftl", "%s", "\"%s\"", [](auto& r) { return r.ftl; }},
    {"writes to wall", "writes_before_wall", "%llu", "%llu",
     [](auto& r) { return r.writes_before_wall; }},
    {"grown bad", "grown_bad_blocks", "%llu", "%llu",
     [](auto& r) { return r.grown_bad_blocks; }},
    {"survivors verified", "survivors_verified", "%llu", "%llu",
     [](auto& r) { return r.survivors_verified; }},
    // RunDegradation CHECKs the read-only transition.
    {nullptr, "entered_read_only", nullptr, "%s",
     [](auto&) { return "true"; }},
};

DegradeRow RunDegradation(const std::string& name) {
  FaultConfig faults;
  faults.enabled = true;
  faults.seed = 233;
  faults.erase_fault_rate = 1.0;  // every GC erase retires its victim
  FlashDevice device(SmallGeometry(), LatencyModel(), faults);
  auto ftl = Make(name, &device);
  const Lpn span = device.geometry().NumLogicalPages() / 2;

  DegradeRow row;
  row.ftl = name;
  std::map<Lpn, uint64_t> shadow;
  Rng rng(faults.seed + 1);
  uint64_t version = 0;
  bool hit_wall = false;
  for (uint64_t i = 0; i < 50000; ++i) {
    Lpn lpn = rng.Uniform(span);
    uint64_t token = FtlExperiment::Token(lpn, ++version);
    Status s = ftl->Write(lpn, token);
    if (!s.ok()) {
      GECKO_CHECK_EQ(static_cast<int>(s.code()),
                     static_cast<int>(StatusCode::kOutOfSpace))
          << s.ToString();
      hit_wall = true;
      break;
    }
    shadow[lpn] = token;
    ++row.writes_before_wall;
  }
  GECKO_CHECK(hit_wall) << name << ": pool never exhausted";
  GECKO_CHECK(ftl->IsDegraded());
  GECKO_CHECK_EQ(ftl->counters().degraded_mode, 1u);
  row.grown_bad_blocks =
      static_cast<uint32_t>(ftl->counters().grown_bad_blocks);
  GECKO_CHECK_GT(row.grown_bad_blocks, 0u);

  for (const auto& [lpn, token] : shadow) {
    uint64_t got = 0;
    Status s = ftl->Read(lpn, &got);
    GECKO_CHECK(s.ok()) << name << ": degraded read failed: " << s.ToString();
    GECKO_CHECK_EQ(got, token) << name << ": wrong data for lpn " << lpn;
    ++row.survivors_verified;
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  Harness h(argc, argv, Harness::kTiny | Harness::kJson);
  const uint64_t kRequests = h.tiny() ? 256 : 4096;
  const uint64_t kChurnOps = h.tiny() ? 800 : 6000;

  PrintHeader(
      "Fault tolerance: media faults injected below every FTL",
      "transient read faults cost retries, not throughput cliffs (>= 90% "
      "of clean throughput at a 1e-4 rate); mixed faults plus crash churn "
      "never surface wrong data; spare exhaustion lands in read-only "
      "degraded mode with every surviving write intact");


  std::printf(
      "\nOpen-loop 50%%-read zipf batches over %llu lpns, QD=%u, %u "
      "channels, %llu requests, transient-read-fault rate swept:\n",
      static_cast<unsigned long long>(kSpan), kQd, kChannels,
      static_cast<unsigned long long>(kRequests));

  std::vector<SweepRow> sweep;
  std::vector<std::pair<std::string, double>> gate_fractions;
  for (const char* name : kFtlNames) {
    double clean_kiops = 0;
    for (double rate : kSweepRates) {
      SweepRow row = RunSweepPoint(name, rate, kRequests);
      if (rate == 0.0) clean_kiops = row.kiops;
      row.fraction_of_clean = clean_kiops > 0 ? row.kiops / clean_kiops : 0;
      if (rate == kGateRate) {
        gate_fractions.emplace_back(name, row.fraction_of_clean);
      }
      sweep.push_back(std::move(row));
    }
  }
  PrintTable(kSweepColumns, sweep);

  std::printf(
      "\nShadow-verified mixed-fault churn (%llu ops: transient 1e-3, "
      "hard-read 1e-4, program 1e-3, plus crash/recover):\n",
      static_cast<unsigned long long>(kChurnOps));
  std::vector<IntegrityRow> integrity;
  for (const char* name : kFtlNames) {
    integrity.push_back(RunIntegrityChurn(name, kChurnOps));
  }
  PrintTable(kIntegrityColumns, integrity);

  std::printf(
      "\nSpare exhaustion (every erase fails; small device, write until "
      "the wall):\n");
  std::vector<DegradeRow> degrade;
  for (const char* name : kFtlNames) degrade.push_back(RunDegradation(name));
  PrintTable(kDegradeColumns, degrade);

  std::vector<JsonObject> gates;
  for (const auto& [name, fraction] : gate_fractions) {
    bool ok = fraction >= kGateFraction;
    h.Check(ok, name + ": " + TablePrinter::Fmt(100.0 * fraction, 1) +
                    "% of zero-fault throughput at a 1e-4 transient-"
                    "read-fault rate (gate >= 90%)");
    gates.push_back({{"ftl", Quote(name)},
                     {"fraction_of_clean_at_1e4", Printf("%.4f", fraction)},
                     {"pass", ok ? "true" : "false"}});
  }
  h.Check(true, "no completion returned wrong data at any fault rate "
                "(shadow-verified; every media failure surfaced as "
                "kIoError)");
  h.Check(true, "all five FTLs entered read-only degraded mode at spare "
                "exhaustion with every surviving write verified");

  JsonDoc doc("fault_tolerance");
  doc.Add("channels", "%llu", kChannels);
  doc.Add("qd", "%llu", kQd);
  doc.Add("span", "%llu", kSpan);
  doc.Add("requests", "%llu", kRequests);
  doc.Add("churn_ops", "%llu", kChurnOps);
  doc.AddArray("sweep", JsonRows(kSweepColumns, sweep));
  doc.AddArray("integrity", JsonRows(kIntegrityColumns, integrity));
  doc.AddArray("degradation", JsonRows(kDegradeColumns, degrade));
  doc.AddArray("gates", std::move(gates));
  h.WriteJson(doc);
  return h.ExitCode();
}
