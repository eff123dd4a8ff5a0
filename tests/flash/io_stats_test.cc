#include "flash/io_stats.h"

#include <gtest/gtest.h>

namespace gecko {
namespace {

TEST(IoStatsTest, CountsAccumulatePerPurpose) {
  IoStats stats;
  stats.OnPageRead(IoPurpose::kTranslation);
  stats.OnPageRead(IoPurpose::kTranslation);
  stats.OnPageWrite(IoPurpose::kPvm);
  stats.OnSpareRead(IoPurpose::kRecovery);
  stats.OnErase(IoPurpose::kGcMigration);
  stats.OnLogicalWrite();

  const IoCounters& c = stats.counters();
  EXPECT_EQ(c.ReadsFor(IoPurpose::kTranslation), 2u);
  EXPECT_EQ(c.WritesFor(IoPurpose::kPvm), 1u);
  EXPECT_EQ(c.TotalSpareReads(), 1u);
  EXPECT_EQ(c.TotalErases(), 1u);
  EXPECT_EQ(c.logical_writes, 1u);
}

TEST(IoStatsTest, InternalIoExcludesApplicationIo) {
  IoCounters c;
  c.page_reads[static_cast<int>(IoPurpose::kUserRead)] = 10;
  c.page_reads[static_cast<int>(IoPurpose::kPvm)] = 3;
  c.page_writes[static_cast<int>(IoPurpose::kUserWrite)] = 20;
  c.page_writes[static_cast<int>(IoPurpose::kGcMigration)] = 5;
  EXPECT_EQ(c.InternalReads(), 3u);
  EXPECT_EQ(c.InternalWrites(), 5u);
}

TEST(IoStatsTest, WaBreakdownSumsToTotal) {
  IoCounters c;
  c.logical_writes = 100;
  c.page_writes[static_cast<int>(IoPurpose::kUserWrite)] = 100;
  c.page_writes[static_cast<int>(IoPurpose::kGcMigration)] = 30;
  c.page_reads[static_cast<int>(IoPurpose::kGcMigration)] = 30;
  c.page_writes[static_cast<int>(IoPurpose::kTranslation)] = 20;
  c.page_reads[static_cast<int>(IoPurpose::kTranslation)] = 25;
  c.page_writes[static_cast<int>(IoPurpose::kPvm)] = 10;
  c.page_reads[static_cast<int>(IoPurpose::kPvm)] = 15;

  const double d = 10.0;
  double parts = c.WriteAmplificationFor(IoPurpose::kUserWrite, d) +
                 c.WriteAmplificationFor(IoPurpose::kGcMigration, d) +
                 c.WriteAmplificationFor(IoPurpose::kTranslation, d) +
                 c.WriteAmplificationFor(IoPurpose::kPvm, d);
  EXPECT_NEAR(parts, c.WriteAmplification(d), 1e-9);
}

TEST(IoStatsTest, ZeroLogicalWritesGivesZeroWa) {
  IoCounters c;
  c.page_writes[static_cast<int>(IoPurpose::kPvm)] = 5;
  EXPECT_DOUBLE_EQ(c.WriteAmplification(10.0), 0.0);
}

TEST(IoStatsTest, PurposeNamesAreDistinct) {
  for (int i = 0; i < kNumIoPurposes; ++i) {
    for (int j = i + 1; j < kNumIoPurposes; ++j) {
      EXPECT_STRNE(IoPurposeName(static_cast<IoPurpose>(i)),
                   IoPurposeName(static_cast<IoPurpose>(j)));
    }
  }
}

TEST(IoStatsTest, DebugStringMentionsActivePurposes) {
  IoStats stats;
  stats.OnPageWrite(IoPurpose::kPvm);
  std::string s = stats.counters().DebugString();
  EXPECT_NE(s.find("page-validity"), std::string::npos);
  EXPECT_EQ(s.find("wear-leveling"), std::string::npos);  // silent purposes
}

TEST(IoStatsTest, ResetClearsEverything) {
  IoStats stats;
  stats.OnPageWrite(IoPurpose::kPvm);
  stats.OnLogicalWrite();
  stats.Reset();
  EXPECT_EQ(stats.counters().TotalWrites(), 0u);
  EXPECT_EQ(stats.counters().logical_writes, 0u);
  EXPECT_DOUBLE_EQ(stats.elapsed_us(), 0.0);
}

// The in-flight gauges are exact: a completion without a matching
// admission (or a fetch done without an issue) is an accounting bug and
// aborts instead of clamping at zero. A Reset keeps balanced callers
// working, since both gauges are live pipeline state.
TEST(IoStatsTest, UnbalancedInFlightGaugeDecrementsAbort) {
  IoStats stats;
  stats.OnHostAdmit();
  stats.OnMissFetchIssued();
  stats.Reset();
  stats.OnHostComplete();
  stats.OnMissFetchDone();
  EXPECT_EQ(stats.host_inflight(), 0u);
  EXPECT_EQ(stats.miss_fetch_inflight(), 0u);
  EXPECT_DEATH(stats.OnHostComplete(), "host completion without admission");
  EXPECT_DEATH(stats.OnMissFetchDone(), "miss fetch done without issue");
}

TEST(LatencyHistogramTest, PercentilesTrackRecordedSamples) {
  LatencyHistogram h;
  EXPECT_DOUBLE_EQ(h.P99(), 0.0);
  for (int i = 0; i < 99; ++i) h.Record(1000.0);
  h.Record(50000.0);  // one tail sample
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.MaxUs(), 50000.0);
  // p50 lands in the 1000us bucket (geometric buckets, ~7% error).
  EXPECT_NEAR(h.P50(), 1000.0, 100.0);
  // p99 is the rank-99 sample: the tail.
  EXPECT_NEAR(h.P99(), 50000.0, 4000.0);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 50000.0);
}

TEST(LatencyHistogramTest, MergeAndResetBehave) {
  LatencyHistogram a, b;
  a.Record(10.0);
  b.Record(30.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.MaxUs(), 30.0);
  EXPECT_NEAR(a.MeanUs(), 20.0, 1e-9);
  a.Reset();
  EXPECT_EQ(a.count(), 0u);
}

TEST(IoStatsTest, RequestLatencyHistogramsSplitByClass) {
  IoStats stats;
  stats.OnRequestLatency(RequestClass::kWrite, 2000.0);
  stats.OnRequestLatency(RequestClass::kWrite, 4000.0);
  stats.OnRequestLatency(RequestClass::kMaintenance, 500.0);
  EXPECT_EQ(stats.RequestLatency(RequestClass::kWrite).count(), 2u);
  EXPECT_EQ(stats.RequestLatency(RequestClass::kMaintenance).count(), 1u);
  EXPECT_EQ(stats.RequestLatency(RequestClass::kRead).count(), 0u);
  EXPECT_DOUBLE_EQ(stats.RequestLatency(RequestClass::kWrite).MaxUs(),
                   4000.0);
  stats.Reset();
  EXPECT_EQ(stats.RequestLatency(RequestClass::kWrite).count(), 0u);
}

TEST(IoStatsTest, RequestClassNamesAreStable) {
  EXPECT_STREQ(RequestClassName(RequestClass::kWrite), "write");
  EXPECT_STREQ(RequestClassName(RequestClass::kMaintenance), "maintenance");
}

}  // namespace
}  // namespace gecko
