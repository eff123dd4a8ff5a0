// Golden request-path test: one fixed script of lone and batched requests
// through the public Ftl API, for all five FTLs at 1 and 4 channels with
// the async miss pipeline on and off. Every FtlCounters field, the
// per-purpose flash IO counts and the device clock must equal the values
// recorded in Golden(), so a request-path change that moves any simulated
// cost — down to the one translation read of a one-extent write miss —
// fails here and prints the full dump.
//
// The script: a fill in cache-overflowing (>= 2C) write batches; lone
// writes that hit and miss the cache until GC runs; lone trims (cached,
// uncached, never-written translation page); lone reads (hit, miss,
// never-written, trimmed); 8-extent write, trim and read batches; one
// more >= 2C batch; a flush; a crash and recovery; a read-back of the
// whole filled range; then lone writes and a second crash without a
// flush, so recovery also replays what the lone writes left unsynced.
// Every read is checked against a shadow map. Both crashes' recovery
// reports are pinned step by step in GoldenReports(): a report charge
// with no device IO behind it (DFTL's battery read-back) shows nowhere
// else.

#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "tests/ftl/ftl_test_util.h"
#include "util/random.h"

namespace gecko {
namespace {

constexpr uint32_t kCache = 16;      // 2C = 32 extents
constexpr Lpn kFilled = 1600;        // lpns [0, 1600) are written
constexpr Lpn kUnwrittenLpn = 1620;  // on a written translation page
constexpr Lpn kNoTPageLpn = 2000;    // on a never-written translation page

/// FtlTestGeometry with twice the blocks: more blocks than the Gecko
/// buffer holds entries, so buffer flushes land inside requests.
Geometry GoldenGeometry(uint32_t channels) {
  Geometry g = FtlTestGeometry(channels);
  g.num_blocks = 192;
  return g;
}

/// Param: (FTL name, channel count, async_miss_fetch).
using GoldenParam = std::tuple<std::string, uint32_t, bool>;

std::string GoldenName(const ::testing::TestParamInfo<GoldenParam>& info) {
  std::string name = std::get<0>(info.param);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_ch" + std::to_string(std::get<1>(info.param)) +
         (std::get<2>(info.param) ? "_async" : "_sync");
}

/// Nonzero fields only, so the recorded strings stay short; a field that
/// becomes nonzero still changes the string.
std::string Dump(const Ftl& ftl, const FlashDevice& device) {
  std::ostringstream os;
  auto field = [&os](const std::string& name, uint64_t value) {
    if (value != 0) os << name << '=' << value << ' ';
  };
  const FtlCounters& c = ftl.counters();
  for (const FtlCounterField& f : kFtlCounterFields) field(f.name, c.*f.member);
  const IoCounters& io = device.stats().counters();
  for (int p = 0; p < kNumIoPurposes; ++p) {
    const std::string purpose = IoPurposeName(static_cast<IoPurpose>(p));
    field(purpose + ".reads", io.page_reads[p]);
    field(purpose + ".writes", io.page_writes[p]);
    field(purpose + ".spare_reads", io.spare_reads[p]);
  }
  char clock[40];
  std::snprintf(clock, sizeof(clock), "%.17g", device.now_us());
  os << "clock_us=" << clock;
  return os.str();
}

/// Every step of a recovery report: name, spare reads, page reads, page
/// writes.
std::string DumpReport(const RecoveryReport& report) {
  std::ostringstream os;
  for (const RecoveryStep& step : report.steps) {
    os << step.name << ": " << step.spare_reads << '/' << step.page_reads
       << '/' << step.page_writes << "; ";
  }
  return os.str();
}

/// Submits scripted requests and checks every read against a shadow map.
class Script {
 public:
  explicit Script(Ftl* ftl) : ftl_(ftl) {}

  void Write(const std::vector<Lpn>& lpns) {
    IoRequest request(IoOp::kWrite);
    for (Lpn lpn : lpns) {
      uint64_t token = FtlExperiment::Token(lpn, ++version_);
      request.Add(lpn, token);
      shadow_[lpn] = token;  // duplicates: last writer wins
    }
    Expect(request);
  }

  void Trim(const std::vector<Lpn>& lpns) {
    IoRequest request = IoRequest::Trim(lpns);
    for (Lpn lpn : lpns) shadow_.erase(lpn);
    Expect(request);
  }

  void Read(const std::vector<Lpn>& lpns) {
    IoRequest request = IoRequest::Read(lpns);
    IoResult result;
    ASSERT_TRUE(ftl_->Submit(request, &result).ok());
    ASSERT_EQ(result.extent_status.size(), lpns.size());
    for (size_t i = 0; i < lpns.size(); ++i) {
      auto it = shadow_.find(lpns[i]);
      if (it == shadow_.end()) {
        EXPECT_EQ(result.extent_status[i].code(), StatusCode::kNotFound)
            << "lpn " << lpns[i];
      } else {
        ASSERT_TRUE(result.extent_status[i].ok())
            << "lpn " << lpns[i] << ": " << result.extent_status[i].ToString();
        EXPECT_EQ(result.payloads[i], it->second) << "lpn " << lpns[i];
      }
    }
  }

 private:
  void Expect(IoRequest& request) {
    IoResult result;
    ASSERT_TRUE(ftl_->Submit(request, &result).ok());
    ASSERT_TRUE(result.AllOk()) << result.FirstError().ToString();
  }

  Ftl* ftl_;
  std::map<Lpn, uint64_t> shadow_;
  uint64_t version_ = 0;
};

/// Runs the script, appending both crashes' recovery reports (dumped) to
/// `reports`.
void RunScript(Ftl* ftl, std::vector<std::string>* reports) {
  Script s(ftl);
  // Fill in cache-overflowing batches (eager per-translation-page commit).
  for (Lpn base = 0; base < kFilled; base += 40) {
    std::vector<Lpn> lpns;
    for (Lpn lpn = base; lpn < base + 40; ++lpn) lpns.push_back(lpn);
    s.Write(lpns);
  }
  // Lone writes: a recently written lpn hits the cache, a random one
  // mostly misses; enough of them to bring GC in.
  Rng rng(2016);
  Lpn last = 0;
  auto lone_writes = [&](int count) {
    for (int i = 0; i < count; ++i) {
      last = i % 5 == 4 ? last : static_cast<Lpn>(rng.Uniform(kFilled));
      s.Write({last});
    }
  };
  lone_writes(1200);
  // Lone trims: cached, uncached, on a never-written translation page.
  s.Trim({last});
  s.Trim({5});
  s.Trim({kNoTPageLpn});
  // Lone reads: trimmed (cached), hit, miss, never-written (mapped
  // translation page and not), trimmed (uncached).
  s.Read({last});
  s.Write({7});
  s.Read({7});
  s.Read({6});
  s.Read({kUnwrittenLpn});
  s.Read({kNoTPageLpn});
  s.Read({5});
  // 8-extent batches (a duplicate extent in the write).
  s.Write({10, 140, 270, 11, 141, 12, 400, 10});
  s.Trim({140, 141, 13, 14, 271, 15, 16, 17});
  s.Read({10, 140, 12, 6, kUnwrittenLpn, 13, 270, kNoTPageLpn});
  // One more cache-overflowing batch.
  std::vector<Lpn> big;
  for (Lpn lpn = 500; lpn < 548; ++lpn) big.push_back(lpn);
  s.Write(big);
  ASSERT_TRUE(ftl->Flush().ok());
  // Read-back: lone reads, then 8-extent batches over the filled range.
  auto read_back = [&] {
    for (Lpn lpn = 0; lpn < 64; ++lpn) s.Read({lpn});
    for (Lpn base = 0; base < kFilled; base += 8) {
      std::vector<Lpn> lpns;
      for (Lpn lpn = base; lpn < base + 8; ++lpn) lpns.push_back(lpn);
      s.Read(lpns);
    }
  };
  reports->push_back(DumpReport(ftl->CrashAndRecover()));
  read_back();
  lone_writes(800);
  reports->push_back(DumpReport(ftl->CrashAndRecover()));
  read_back();
}

// Recorded values. A change that moves one of them changes a simulated
// cost: re-record only when that is the change's intent.
const std::map<std::string, std::string>& Golden() {
  static const auto* golden = new std::map<std::string, std::string>{
      {"GeckoFTL_ch1_sync",
       "writes=3657 reads=3342 trims=11 flushes=1 batches=444 "
       "batched_pages=4872 sync_ops=1096 aborted_sync_ops=2 "
       "checkpoints=457 gc_collections=69 gc_migrations=316 "
       "cache_hits=439 cache_misses=6570 miss_fetches=532 "
       "miss_joins=2800 user-write.writes=3667 user-read.reads=3338 "
       "gc-migration.reads=632 gc-migration.writes=316 "
       "gc-migration.spare_reads=317 translation.reads=1615 "
       "translation.writes=1094 translation.spare_reads=13 "
       "page-validity.reads=235 page-validity.writes=275 "
       "recovery.reads=39 recovery.spare_reads=1012 clock_us=6243926"},
      {"GeckoFTL_ch1_async",
       "writes=3657 reads=3342 trims=11 flushes=1 batches=444 "
       "batched_pages=4872 sync_ops=1096 aborted_sync_ops=2 "
       "checkpoints=457 gc_collections=69 gc_migrations=316 "
       "cache_hits=439 cache_misses=6570 miss_fetches=532 "
       "miss_joins=2800 user-write.writes=3667 user-read.reads=3338 "
       "gc-migration.reads=632 gc-migration.writes=316 "
       "gc-migration.spare_reads=317 translation.reads=1615 "
       "translation.writes=1094 translation.spare_reads=13 "
       "page-validity.reads=235 page-validity.writes=275 "
       "recovery.reads=39 recovery.spare_reads=1012 clock_us=6243926"},
      {"GeckoFTL_ch4_sync",
       "writes=3657 reads=3342 trims=11 flushes=1 batches=444 "
       "batched_pages=4872 sync_ops=1130 aborted_sync_ops=3 "
       "checkpoints=465 gc_collections=85 gc_migrations=444 "
       "uip_detections=1 cache_hits=441 cache_misses=6568 "
       "miss_fetches=531 miss_joins=2800 user-write.writes=3667 "
       "user-read.reads=3338 gc-migration.reads=829 "
       "gc-migration.writes=444 gc-migration.spare_reads=453 "
       "translation.reads=1648 translation.writes=1127 "
       "translation.spare_reads=14 page-validity.reads=485 "
       "page-validity.writes=872 recovery.reads=18 "
       "recovery.spare_reads=1156 clock_us=4042806"},
      {"GeckoFTL_ch4_async",
       "writes=3657 reads=3342 trims=11 flushes=1 batches=444 "
       "batched_pages=4872 sync_ops=1130 aborted_sync_ops=3 "
       "checkpoints=465 gc_collections=85 gc_migrations=444 "
       "uip_detections=1 cache_hits=441 cache_misses=6568 "
       "miss_fetches=531 miss_joins=2800 user-write.writes=3667 "
       "user-read.reads=3338 gc-migration.reads=829 "
       "gc-migration.writes=444 gc-migration.spare_reads=453 "
       "translation.reads=1648 translation.writes=1127 "
       "translation.spare_reads=14 page-validity.reads=485 "
       "page-validity.writes=872 recovery.reads=18 "
       "recovery.spare_reads=1156 clock_us=4042806"},
      {"DFTL_ch1_sync",
       "writes=3657 reads=3342 trims=11 flushes=1 batches=444 "
       "batched_pages=4872 sync_ops=1066 gc_collections=136 "
       "gc_migrations=352 cache_hits=443 cache_misses=6566 "
       "miss_fetches=2102 miss_joins=2800 user-write.writes=3667 "
       "user-read.reads=3338 gc-migration.reads=574 "
       "gc-migration.writes=287 gc-migration.spare_reads=287 "
       "translation.reads=3220 translation.writes=1131 "
       "translation.spare_reads=1104 recovery.spare_reads=507 "
       "clock_us=6071894"},
      {"DFTL_ch1_async",
       "writes=3657 reads=3342 trims=11 flushes=1 batches=444 "
       "batched_pages=4872 sync_ops=1066 gc_collections=136 "
       "gc_migrations=352 cache_hits=443 cache_misses=6566 "
       "miss_fetches=2102 miss_joins=2800 user-write.writes=3667 "
       "user-read.reads=3338 gc-migration.reads=574 "
       "gc-migration.writes=287 gc-migration.spare_reads=287 "
       "translation.reads=3220 translation.writes=1131 "
       "translation.spare_reads=1104 recovery.spare_reads=507 "
       "clock_us=6071894"},
      {"DFTL_ch4_sync",
       "writes=3657 reads=3342 trims=11 flushes=1 batches=444 "
       "batched_pages=4872 sync_ops=1086 gc_collections=146 "
       "gc_migrations=450 cache_hits=443 cache_misses=6566 "
       "miss_fetches=2102 miss_joins=2800 user-write.writes=3667 "
       "user-read.reads=3338 gc-migration.reads=704 "
       "gc-migration.writes=352 gc-migration.spare_reads=352 "
       "translation.reads=3273 translation.writes=1184 "
       "translation.spare_reads=1143 recovery.spare_reads=467 "
       "clock_us=3640511"},
      {"DFTL_ch4_async",
       "writes=3657 reads=3342 trims=11 flushes=1 batches=444 "
       "batched_pages=4872 sync_ops=1086 gc_collections=146 "
       "gc_migrations=450 cache_hits=443 cache_misses=6566 "
       "miss_fetches=2102 miss_joins=2800 user-write.writes=3667 "
       "user-read.reads=3338 gc-migration.reads=704 "
       "gc-migration.writes=352 gc-migration.spare_reads=352 "
       "translation.reads=3273 translation.writes=1184 "
       "translation.spare_reads=1143 recovery.spare_reads=467 "
       "clock_us=3640311"},
      {"LazyFTL_ch1_sync",
       "writes=3657 reads=3342 trims=11 flushes=1 batches=444 "
       "batched_pages=4872 sync_ops=2567 aborted_sync_ops=6 "
       "checkpoints=7286 gc_collections=237 gc_migrations=480 "
       "cache_hits=443 cache_misses=6566 miss_fetches=2102 "
       "miss_joins=2800 user-write.writes=3667 user-read.reads=3338 "
       "gc-migration.reads=580 gc-migration.writes=290 "
       "gc-migration.spare_reads=290 translation.reads=4846 "
       "translation.writes=2751 translation.spare_reads=2720 "
       "recovery.reads=26 recovery.spare_reads=943 clock_us=8070859"},
      {"LazyFTL_ch1_async",
       "writes=3657 reads=3342 trims=11 flushes=1 batches=444 "
       "batched_pages=4872 sync_ops=2567 aborted_sync_ops=6 "
       "checkpoints=7286 gc_collections=237 gc_migrations=480 "
       "cache_hits=443 cache_misses=6566 miss_fetches=2102 "
       "miss_joins=2800 user-write.writes=3667 user-read.reads=3338 "
       "gc-migration.reads=580 gc-migration.writes=290 "
       "gc-migration.spare_reads=290 translation.reads=4846 "
       "translation.writes=2751 translation.spare_reads=2720 "
       "recovery.reads=26 recovery.spare_reads=943 clock_us=8070859"},
      {"LazyFTL_ch4_sync",
       "writes=3657 reads=3342 trims=11 flushes=1 batches=444 "
       "batched_pages=4872 sync_ops=2617 aborted_sync_ops=8 "
       "checkpoints=7348 gc_collections=248 gc_migrations=540 "
       "cache_hits=446 cache_misses=6563 miss_fetches=2099 "
       "miss_joins=2800 user-write.writes=3667 user-read.reads=3338 "
       "gc-migration.reads=701 gc-migration.writes=352 "
       "gc-migration.spare_reads=352 translation.reads=4891 "
       "translation.writes=2797 translation.spare_reads=2770 "
       "recovery.reads=26 recovery.spare_reads=988 clock_us=4857196"},
      {"LazyFTL_ch4_async",
       "writes=3657 reads=3342 trims=11 flushes=1 batches=444 "
       "batched_pages=4872 sync_ops=2617 aborted_sync_ops=8 "
       "checkpoints=7348 gc_collections=248 gc_migrations=540 "
       "cache_hits=446 cache_misses=6563 miss_fetches=2099 "
       "miss_joins=2800 user-write.writes=3667 user-read.reads=3338 "
       "gc-migration.reads=701 gc-migration.writes=352 "
       "gc-migration.spare_reads=352 translation.reads=4891 "
       "translation.writes=2797 translation.spare_reads=2770 "
       "recovery.reads=26 recovery.spare_reads=988 clock_us=4857096"},
      {"uFTL_ch1_sync",
       "writes=3657 reads=3342 trims=11 flushes=1 batches=444 "
       "batched_pages=4872 sync_ops=1074 gc_collections=268 "
       "gc_migrations=394 cache_hits=442 cache_misses=6567 "
       "miss_fetches=2103 miss_joins=2800 user-write.writes=3667 "
       "user-read.reads=3338 gc-migration.reads=600 "
       "gc-migration.writes=300 gc-migration.spare_reads=300 "
       "translation.reads=3258 translation.writes=1168 "
       "translation.spare_reads=1136 page-validity.reads=2142 "
       "page-validity.writes=2075 page-validity.spare_reads=2064 "
       "recovery.reads=2 recovery.spare_reads=517 clock_us=8690051"},
      {"uFTL_ch1_async",
       "writes=3657 reads=3342 trims=11 flushes=1 batches=444 "
       "batched_pages=4872 sync_ops=1074 gc_collections=268 "
       "gc_migrations=394 cache_hits=442 cache_misses=6567 "
       "miss_fetches=2103 miss_joins=2800 user-write.writes=3667 "
       "user-read.reads=3338 gc-migration.reads=600 "
       "gc-migration.writes=300 gc-migration.spare_reads=300 "
       "translation.reads=3258 translation.writes=1168 "
       "translation.spare_reads=1136 page-validity.reads=2142 "
       "page-validity.writes=2075 page-validity.spare_reads=2064 "
       "recovery.reads=2 recovery.spare_reads=517 clock_us=8690051"},
      {"uFTL_ch4_sync",
       "writes=3657 reads=3342 trims=11 flushes=1 batches=444 "
       "batched_pages=4872 sync_ops=1104 gc_collections=283 "
       "gc_migrations=506 cache_hits=440 cache_misses=6569 "
       "miss_fetches=2103 miss_joins=2802 user-write.writes=3667 "
       "user-read.reads=3338 gc-migration.reads=788 "
       "gc-migration.writes=410 gc-migration.spare_reads=410 "
       "translation.reads=3290 translation.writes=1200 "
       "translation.spare_reads=1168 page-validity.reads=2175 "
       "page-validity.writes=2095 page-validity.spare_reads=2064 "
       "recovery.reads=2 recovery.spare_reads=539 clock_us=5497120"},
      {"uFTL_ch4_async",
       "writes=3657 reads=3342 trims=11 flushes=1 batches=444 "
       "batched_pages=4872 sync_ops=1104 gc_collections=283 "
       "gc_migrations=506 cache_hits=440 cache_misses=6569 "
       "miss_fetches=2103 miss_joins=2802 user-write.writes=3667 "
       "user-read.reads=3338 gc-migration.reads=788 "
       "gc-migration.writes=410 gc-migration.spare_reads=410 "
       "translation.reads=3290 translation.writes=1200 "
       "translation.spare_reads=1168 page-validity.reads=2175 "
       "page-validity.writes=2095 page-validity.spare_reads=2064 "
       "recovery.reads=2 recovery.spare_reads=539 clock_us=5496920"},
      {"IB_FTL_ch1_sync",
       "writes=3657 reads=3342 trims=11 flushes=1 batches=444 "
       "batched_pages=4872 sync_ops=2629 aborted_sync_ops=10 "
       "checkpoints=7346 gc_collections=251 gc_migrations=581 "
       "cache_hits=444 cache_misses=6565 miss_fetches=2102 "
       "miss_joins=2800 user-write.writes=3667 user-read.reads=3338 "
       "gc-migration.reads=704 gc-migration.writes=350 "
       "gc-migration.spare_reads=354 translation.reads=4945 "
       "translation.writes=2846 translation.spare_reads=2816 "
       "page-validity.reads=661 page-validity.writes=73 "
       "page-validity.spare_reads=16 recovery.reads=96 "
       "recovery.spare_reads=993 clock_us=8422937"},
      {"IB_FTL_ch1_async",
       "writes=3657 reads=3342 trims=11 flushes=1 batches=444 "
       "batched_pages=4872 sync_ops=2629 aborted_sync_ops=10 "
       "checkpoints=7346 gc_collections=251 gc_migrations=581 "
       "cache_hits=444 cache_misses=6565 miss_fetches=2102 "
       "miss_joins=2800 user-write.writes=3667 user-read.reads=3338 "
       "gc-migration.reads=704 gc-migration.writes=350 "
       "gc-migration.spare_reads=354 translation.reads=4945 "
       "translation.writes=2846 translation.spare_reads=2816 "
       "page-validity.reads=661 page-validity.writes=73 "
       "page-validity.spare_reads=16 recovery.reads=96 "
       "recovery.spare_reads=993 clock_us=8422937"},
      {"IB_FTL_ch4_sync",
       "writes=3657 reads=3342 trims=11 flushes=1 batches=444 "
       "batched_pages=4872 sync_ops=2681 aborted_sync_ops=9 "
       "checkpoints=7447 gc_collections=267 gc_migrations=697 "
       "cache_hits=445 cache_misses=6564 miss_fetches=2101 "
       "miss_joins=2800 user-write.writes=3667 user-read.reads=3338 "
       "gc-migration.reads=909 gc-migration.writes=451 "
       "gc-migration.spare_reads=460 translation.reads=5015 "
       "translation.writes=2918 translation.spare_reads=2896 "
       "page-validity.reads=778 page-validity.writes=68 "
       "recovery.reads=96 recovery.spare_reads=1093 clock_us=5036794"},
      {"IB_FTL_ch4_async",
       "writes=3657 reads=3342 trims=11 flushes=1 batches=444 "
       "batched_pages=4872 sync_ops=2681 aborted_sync_ops=9 "
       "checkpoints=7447 gc_collections=267 gc_migrations=697 "
       "cache_hits=445 cache_misses=6564 miss_fetches=2101 "
       "miss_joins=2800 user-write.writes=3667 user-read.reads=3338 "
       "gc-migration.reads=909 gc-migration.writes=451 "
       "gc-migration.spare_reads=460 translation.reads=5015 "
       "translation.writes=2918 translation.spare_reads=2896 "
       "page-validity.reads=778 page-validity.writes=68 "
       "recovery.reads=96 recovery.spare_reads=1093 clock_us=5036794"},
  };
  return *golden;
}

// Both crashes' recovery reports, one "name: spare reads/page reads/page
// writes; " group per step. Recorded like Golden().
const std::map<std::string, std::vector<std::string>>& GoldenReports() {
  static const auto* golden =
      new std::map<std::string, std::vector<std::string>>{
          {"GeckoFTL_ch1_sync",
           {"block scan (BID): 192/0/0; "
            "GMD (translation-page spare scan): 43/0/0; "
            "Gecko run directories: 19/7/0; "
            "Gecko buffer (erased blocks): 0/0/0; "
            "Gecko buffer (translation diff): 0/0/0; "
            "BVC (scan Logarithmic Gecko): 0/4/0; "
            "dirty mapping entries (backward scan): 244/0/0; "
            "flush re-derived Gecko buffer: 0/2/6; ",
            "block scan (BID): 192/0/0; "
            "GMD (translation-page spare scan): 31/0/0; "
            "Gecko run directories: 14/5/0; "
            "Gecko buffer (erased blocks): 0/0/0; "
            "Gecko buffer (translation diff): 32/31/0; "
            "BVC (scan Logarithmic Gecko): 0/4/0; "
            "dirty mapping entries (backward scan): 245/0/0; "
            "flush re-derived Gecko buffer: 0/2/6; "}},
          {"GeckoFTL_ch1_async",
           {"block scan (BID): 192/0/0; "
            "GMD (translation-page spare scan): 43/0/0; "
            "Gecko run directories: 19/7/0; "
            "Gecko buffer (erased blocks): 0/0/0; "
            "Gecko buffer (translation diff): 0/0/0; "
            "BVC (scan Logarithmic Gecko): 0/4/0; "
            "dirty mapping entries (backward scan): 244/0/0; "
            "flush re-derived Gecko buffer: 0/2/6; ",
            "block scan (BID): 192/0/0; "
            "GMD (translation-page spare scan): 31/0/0; "
            "Gecko run directories: 14/5/0; "
            "Gecko buffer (erased blocks): 0/0/0; "
            "Gecko buffer (translation diff): 32/31/0; "
            "BVC (scan Logarithmic Gecko): 0/4/0; "
            "dirty mapping entries (backward scan): 245/0/0; "
            "flush re-derived Gecko buffer: 0/2/6; "}},
          {"GeckoFTL_ch4_sync",
           {"block scan (BID): 192/0/0; "
            "GMD (translation-page spare scan): 54/0/0; "
            "Gecko run directories: 53/16/0; "
            "Gecko buffer (erased blocks): 0/0/0; "
            "Gecko buffer (translation diff): 0/0/0; "
            "BVC (scan Logarithmic Gecko): 0/4/0; "
            "dirty mapping entries (backward scan): 286/0/0; "
            "flush re-derived Gecko buffer: 0/2/6; ",
            "block scan (BID): 192/0/0; "
            "GMD (translation-page spare scan): 36/0/0; "
            "Gecko run directories: 45/13/0; "
            "Gecko buffer (erased blocks): 0/0/0; "
            "Gecko buffer (translation diff): 10/10/0; "
            "BVC (scan Logarithmic Gecko): 0/4/0; "
            "dirty mapping entries (backward scan): 288/0/0; "
            "flush re-derived Gecko buffer: 0/7/12; "}},
          {"GeckoFTL_ch4_async",
           {"block scan (BID): 192/0/0; "
            "GMD (translation-page spare scan): 54/0/0; "
            "Gecko run directories: 53/16/0; "
            "Gecko buffer (erased blocks): 0/0/0; "
            "Gecko buffer (translation diff): 0/0/0; "
            "BVC (scan Logarithmic Gecko): 0/4/0; "
            "dirty mapping entries (backward scan): 286/0/0; "
            "flush re-derived Gecko buffer: 0/2/6; ",
            "block scan (BID): 192/0/0; "
            "GMD (translation-page spare scan): 36/0/0; "
            "Gecko run directories: 45/13/0; "
            "Gecko buffer (erased blocks): 0/0/0; "
            "Gecko buffer (translation diff): 10/10/0; "
            "BVC (scan Logarithmic Gecko): 0/4/0; "
            "dirty mapping entries (backward scan): 288/0/0; "
            "flush re-derived Gecko buffer: 0/7/12; "}},
          {"DFTL_ch1_sync",
           {"block scan (BID): 192/0/0; "
            "GMD (translation-page spare scan): 95/0/0; "
            "PVB read-back (battery copy): 0/1/0; "
            "BVC (from RAM PVB): 0/0/0; "
            "dirty mapping entries (battery): 0/0/0; ",
            "block scan (BID): 192/0/0; "
            "GMD (translation-page spare scan): 28/0/0; "
            "PVB read-back (battery copy): 0/1/0; "
            "BVC (from RAM PVB): 0/0/0; "
            "dirty mapping entries (battery): 0/0/0; "}},
          {"DFTL_ch1_async",
           {"block scan (BID): 192/0/0; "
            "GMD (translation-page spare scan): 95/0/0; "
            "PVB read-back (battery copy): 0/1/0; "
            "BVC (from RAM PVB): 0/0/0; "
            "dirty mapping entries (battery): 0/0/0; ",
            "block scan (BID): 192/0/0; "
            "GMD (translation-page spare scan): 28/0/0; "
            "PVB read-back (battery copy): 0/1/0; "
            "BVC (from RAM PVB): 0/0/0; "
            "dirty mapping entries (battery): 0/0/0; "}},
          {"DFTL_ch4_sync",
           {"block scan (BID): 192/0/0; "
            "GMD (translation-page spare scan): 37/0/0; "
            "PVB read-back (battery copy): 0/1/0; "
            "BVC (from RAM PVB): 0/0/0; "
            "dirty mapping entries (battery): 0/0/0; ",
            "block scan (BID): 192/0/0; "
            "GMD (translation-page spare scan): 46/0/0; "
            "PVB read-back (battery copy): 0/1/0; "
            "BVC (from RAM PVB): 0/0/0; "
            "dirty mapping entries (battery): 0/0/0; "}},
          {"DFTL_ch4_async",
           {"block scan (BID): 192/0/0; "
            "GMD (translation-page spare scan): 37/0/0; "
            "PVB read-back (battery copy): 0/1/0; "
            "BVC (from RAM PVB): 0/0/0; "
            "dirty mapping entries (battery): 0/0/0; ",
            "block scan (BID): 192/0/0; "
            "GMD (translation-page spare scan): 46/0/0; "
            "PVB read-back (battery copy): 0/1/0; "
            "BVC (from RAM PVB): 0/0/0; "
            "dirty mapping entries (battery): 0/0/0; "}},
          {"LazyFTL_ch1_sync",
           {"block scan (BID): 192/0/0; "
            "GMD (translation-page spare scan): 100/0/0; "
            "dirty mapping entries (backward scan): 212/0/0; "
            "synchronize recovered entries: 0/1/0; "
            "PVB rebuild (translation-table scan): 0/13/0; ",
            "block scan (BID): 192/0/0; "
            "GMD (translation-page spare scan): 31/0/0; "
            "dirty mapping entries (backward scan): 216/0/0; "
            "synchronize recovered entries: 0/6/1; "
            "PVB rebuild (translation-table scan): 0/13/0; "}},
          {"LazyFTL_ch1_async",
           {"block scan (BID): 192/0/0; "
            "GMD (translation-page spare scan): 100/0/0; "
            "dirty mapping entries (backward scan): 212/0/0; "
            "synchronize recovered entries: 0/1/0; "
            "PVB rebuild (translation-table scan): 0/13/0; ",
            "block scan (BID): 192/0/0; "
            "GMD (translation-page spare scan): 31/0/0; "
            "dirty mapping entries (backward scan): 216/0/0; "
            "synchronize recovered entries: 0/6/1; "
            "PVB rebuild (translation-table scan): 0/13/0; "}},
          {"LazyFTL_ch4_sync",
           {"block scan (BID): 192/0/0; "
            "GMD (translation-page spare scan): 50/0/0; "
            "dirty mapping entries (backward scan): 261/0/0; "
            "synchronize recovered entries: 0/1/0; "
            "PVB rebuild (translation-table scan): 0/13/0; ",
            "block scan (BID): 192/0/0; "
            "GMD (translation-page spare scan): 31/0/0; "
            "dirty mapping entries (backward scan): 262/0/0; "
            "synchronize recovered entries: 0/8/1; "
            "PVB rebuild (translation-table scan): 0/13/0; "}},
          {"LazyFTL_ch4_async",
           {"block scan (BID): 192/0/0; "
            "GMD (translation-page spare scan): 50/0/0; "
            "dirty mapping entries (backward scan): 261/0/0; "
            "synchronize recovered entries: 0/1/0; "
            "PVB rebuild (translation-table scan): 0/13/0; ",
            "block scan (BID): 192/0/0; "
            "GMD (translation-page spare scan): 31/0/0; "
            "dirty mapping entries (backward scan): 262/0/0; "
            "synchronize recovered entries: 0/8/1; "
            "PVB rebuild (translation-table scan): 0/13/0; "}},
          {"uFTL_ch1_sync",
           {"block scan (BID): 192/0/0; "
            "GMD (translation-page spare scan): 47/0/0; "
            "PVB chunk directory (spare scan): 42/0/0; "
            "BVC (read PVB chunks): 0/1/0; "
            "dirty mapping entries (battery): 0/0/0; ",
            "block scan (BID): 192/0/0; "
            "GMD (translation-page spare scan): 32/0/0; "
            "PVB chunk directory (spare scan): 12/0/0; "
            "BVC (read PVB chunks): 0/1/0; "
            "dirty mapping entries (battery): 0/0/0; "}},
          {"uFTL_ch1_async",
           {"block scan (BID): 192/0/0; "
            "GMD (translation-page spare scan): 47/0/0; "
            "PVB chunk directory (spare scan): 42/0/0; "
            "BVC (read PVB chunks): 0/1/0; "
            "dirty mapping entries (battery): 0/0/0; ",
            "block scan (BID): 192/0/0; "
            "GMD (translation-page spare scan): 32/0/0; "
            "PVB chunk directory (spare scan): 12/0/0; "
            "BVC (read PVB chunks): 0/1/0; "
            "dirty mapping entries (battery): 0/0/0; "}},
          {"uFTL_ch4_sync",
           {"block scan (BID): 192/0/0; "
            "GMD (translation-page spare scan): 29/0/0; "
            "PVB chunk directory (spare scan): 55/0/0; "
            "BVC (read PVB chunks): 0/1/0; "
            "dirty mapping entries (battery): 0/0/0; ",
            "block scan (BID): 192/0/0; "
            "GMD (translation-page spare scan): 36/0/0; "
            "PVB chunk directory (spare scan): 35/0/0; "
            "BVC (read PVB chunks): 0/1/0; "
            "dirty mapping entries (battery): 0/0/0; "}},
          {"uFTL_ch4_async",
           {"block scan (BID): 192/0/0; "
            "GMD (translation-page spare scan): 29/0/0; "
            "PVB chunk directory (spare scan): 55/0/0; "
            "BVC (read PVB chunks): 0/1/0; "
            "dirty mapping entries (battery): 0/0/0; ",
            "block scan (BID): 192/0/0; "
            "GMD (translation-page spare scan): 36/0/0; "
            "PVB chunk directory (spare scan): 35/0/0; "
            "BVC (read PVB chunks): 0/1/0; "
            "dirty mapping entries (battery): 0/0/0; "}},
          {"IB_FTL_ch1_sync",
           {"block scan (BID): 192/0/0; "
            "GMD (translation-page spare scan): 56/0/0; "
            "PVL chain heads (full log scan): 40/39/0; "
            "BVC (from log scan): 0/0/0; "
            "dirty mapping entries (backward scan): 212/0/0; "
            "synchronize recovered entries: 0/2/0; ",
            "block scan (BID): 192/0/0; "
            "GMD (translation-page spare scan): 30/0/0; "
            "PVL chain heads (full log scan): 58/57/0; "
            "BVC (from log scan): 0/0/0; "
            "dirty mapping entries (backward scan): 213/0/0; "
            "synchronize recovered entries: 0/9/1; "}},
          {"IB_FTL_ch1_async",
           {"block scan (BID): 192/0/0; "
            "GMD (translation-page spare scan): 56/0/0; "
            "PVL chain heads (full log scan): 40/39/0; "
            "BVC (from log scan): 0/0/0; "
            "dirty mapping entries (backward scan): 212/0/0; "
            "synchronize recovered entries: 0/2/0; ",
            "block scan (BID): 192/0/0; "
            "GMD (translation-page spare scan): 30/0/0; "
            "PVL chain heads (full log scan): 58/57/0; "
            "BVC (from log scan): 0/0/0; "
            "dirty mapping entries (backward scan): 213/0/0; "
            "synchronize recovered entries: 0/9/1; "}},
          {"IB_FTL_ch4_sync",
           {"block scan (BID): 192/0/0; "
            "GMD (translation-page spare scan): 57/0/0; "
            "PVL chain heads (full log scan): 43/39/0; "
            "BVC (from log scan): 0/0/0; "
            "dirty mapping entries (backward scan): 258/0/0; "
            "synchronize recovered entries: 0/1/0; ",
            "block scan (BID): 192/0/0; "
            "GMD (translation-page spare scan): 25/0/0; "
            "PVL chain heads (full log scan): 69/57/0; "
            "BVC (from log scan): 0/0/0; "
            "dirty mapping entries (backward scan): 257/0/0; "
            "synchronize recovered entries: 0/9/1; "}},
          {"IB_FTL_ch4_async",
           {"block scan (BID): 192/0/0; "
            "GMD (translation-page spare scan): 57/0/0; "
            "PVL chain heads (full log scan): 43/39/0; "
            "BVC (from log scan): 0/0/0; "
            "dirty mapping entries (backward scan): 258/0/0; "
            "synchronize recovered entries: 0/1/0; ",
            "block scan (BID): 192/0/0; "
            "GMD (translation-page spare scan): 25/0/0; "
            "PVL chain heads (full log scan): 69/57/0; "
            "BVC (from log scan): 0/0/0; "
            "dirty mapping entries (backward scan): 257/0/0; "
            "synchronize recovered entries: 0/9/1; "}},
      };
  return *golden;
}

class RequestPathGoldenTest : public ::testing::TestWithParam<GoldenParam> {};

TEST_P(RequestPathGoldenTest, ScriptCostsMatchRecording) {
  const auto& [name, channels, async_miss] = GetParam();
  FlashDevice device(GoldenGeometry(channels));
  const bool async = async_miss;
  std::unique_ptr<Ftl> ftl =
      MakeFtl(name, &device, kCache,
              [async](FtlConfig& c) { c.async_miss_fetch = async; });
  ASSERT_NE(ftl, nullptr);
  std::vector<std::string> reports;
  ASSERT_NO_FATAL_FAILURE(RunScript(ftl.get(), &reports));

  const std::string key =
      GoldenName(::testing::TestParamInfo<GoldenParam>(GetParam(), 0));
  const std::string got = Dump(*ftl, device);
  auto it = Golden().find(key);
  ASSERT_TRUE(it != Golden().end())
      << "no recording for " << key << "; this run:\n    {\"" << key
      << "\",\n     \"" << got << "\"},";
  EXPECT_EQ(got, it->second) << "full dump of " << key << ":\n" << got;

  std::string got_reports;
  for (const std::string& r : reports) got_reports += "\n     \"" + r + "\",";
  auto rit = GoldenReports().find(key);
  ASSERT_TRUE(rit != GoldenReports().end())
      << "no report recording for " << key << "; this run:\n    {\"" << key
      << "\", {" << got_reports << "}},";
  EXPECT_EQ(reports, rit->second)
      << "recovery reports of " << key << ":" << got_reports;
}

INSTANTIATE_TEST_SUITE_P(
    AllFtls, RequestPathGoldenTest,
    ::testing::Combine(::testing::Values("GeckoFTL", "DFTL", "LazyFTL",
                                         "uFTL", "IB-FTL"),
                       ::testing::Values(1u, 4u), ::testing::Bool()),
    GoldenName);

}  // namespace
}  // namespace gecko
