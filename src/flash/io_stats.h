// IO accounting for the flash device, broken down by purpose and channel.
//
// Every device operation is tagged with an IoPurpose so experiments can
// report the write-amplification breakdown of Figure 13 (user data vs.
// translation metadata vs. page-validity metadata) and the per-interval
// series of Figure 9. The channel-parallel backend additionally feeds
// per-channel busy time and queue-depth watermarks through the
// OnChannelSubmit/OnChannelComplete hooks, so experiments can report
// channel utilization (busy time / simulated elapsed time).

#ifndef GECKOFTL_FLASH_IO_STATS_H_
#define GECKOFTL_FLASH_IO_STATS_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "flash/latency.h"
#include "flash/latency_histogram.h"
#include "util/check.h"

namespace gecko {

/// Why an IO happened. kUserWrite/kUserRead are the application's own IOs;
/// everything else is internal and contributes to write-amplification.
enum class IoPurpose : uint8_t {
  kUserWrite = 0,     // the application write landing on flash
  kUserRead,          // the application read of a user page
  kGcMigration,       // reads/writes that move live pages off a GC victim
  kTranslation,       // translation-page reads/writes (sync ops, misses)
  kPvm,               // page-validity metadata (Gecko runs / PVB / PVL)
  kRecovery,          // IOs performed while recovering from power failure
  kWearLeveling,      // wear-leveling scans and migrations
  kOther,
};

inline constexpr int kNumIoPurposes = 8;

const char* IoPurposeName(IoPurpose p);

/// What a recorded end-to-end latency sample was servicing. One sample is
/// recorded per host request (its device batch window's makespan), split
/// so the tail of user-visible writes is measurable separately from reads,
/// trims, flushes, and background-maintenance windows (which run while the
/// host is idle and must NOT pollute the user-visible distributions).
enum class RequestClass : uint8_t {
  kWrite = 0,    // host kWrite requests
  kRead,         // host kRead requests
  kTrim,         // host kTrim requests
  kFlush,        // host kFlush requests
  kMaintenance,  // background maintenance ticks (GC steps, idle flushes)
};

inline constexpr int kNumRequestClasses = 5;

const char* RequestClassName(RequestClass c);

/// Raw operation counts, indexable by purpose. Value-type; subtractable to
/// form per-interval deltas.
struct IoCounters {
  std::array<uint64_t, kNumIoPurposes> page_reads{};
  std::array<uint64_t, kNumIoPurposes> page_writes{};
  std::array<uint64_t, kNumIoPurposes> spare_reads{};
  std::array<uint64_t, kNumIoPurposes> erases{};
  uint64_t logical_writes = 0;  // application-level page updates
  uint64_t logical_reads = 0;
  uint64_t logical_trims = 0;   // host trim/discard commands, per page

  uint64_t TotalReads() const;
  uint64_t TotalWrites() const;
  uint64_t TotalSpareReads() const;
  uint64_t TotalErases() const;

  /// Internal IOs: everything except the application's own page IOs.
  uint64_t InternalReads() const;
  uint64_t InternalWrites() const;

  uint64_t ReadsFor(IoPurpose p) const {
    return page_reads[static_cast<int>(p)];
  }
  uint64_t WritesFor(IoPurpose p) const {
    return page_writes[static_cast<int>(p)];
  }

  IoCounters operator-(const IoCounters& other) const;
  /// Element-wise accumulation (merging per-shard device views).
  IoCounters& operator+=(const IoCounters& other);

  /// Write-amplification as defined in Section 5:
  ///   WA = (i_writes + i_reads / delta) / logical_writes
  /// where i_writes/i_reads are internal IOs per application update.
  double WriteAmplification(double delta) const;

  /// WA contribution of a single purpose (for the Figure 13 breakdown).
  double WriteAmplificationFor(IoPurpose p, double delta) const;

  std::string DebugString() const;
};

/// Mutable accumulator owned by the FlashDevice. Operation *counts* are
/// recorded at submission time (OnPageRead & co.); simulated *time* flows
/// in from the channel pipeline (AdvanceElapsed / OnChannelComplete), so
/// elapsed_us() reflects channel overlap: a striped batch advances the
/// clock by its makespan, not by the sum of its op latencies. With one
/// channel — or serial submission — the two coincide.
class IoStats {
 public:
  explicit IoStats(LatencyModel latency = LatencyModel(),
                   uint32_t num_channels = 1)
      : latency_(latency),
        channel_busy_us_(num_channels, 0.0),
        channel_ops_(num_channels, 0) {}

  void OnPageRead(IoPurpose p) {
    ++counters_.page_reads[static_cast<int>(p)];
  }
  void OnPageWrite(IoPurpose p) {
    ++counters_.page_writes[static_cast<int>(p)];
  }
  void OnSpareRead(IoPurpose p) {
    ++counters_.spare_reads[static_cast<int>(p)];
  }
  void OnErase(IoPurpose p) {
    ++counters_.erases[static_cast<int>(p)];
  }
  void OnLogicalWrite() { ++counters_.logical_writes; }
  void OnLogicalRead() { ++counters_.logical_reads; }
  void OnLogicalTrim() { ++counters_.logical_trims; }

  // --- Channel pipeline hooks (fed by FlashDevice) ----------------------

  /// An op entered a channel queue, which now holds `depth` ops.
  void OnChannelSubmit(size_t depth) {
    ++submissions_;
    if (depth > max_queue_depth_) {
      max_queue_depth_ = static_cast<uint32_t>(depth);
    }
  }

  /// An op on channel `c` retired after `service_us` of channel time.
  void OnChannelComplete(uint32_t c, double service_us) {
    channel_busy_us_[c] += service_us;
    ++channel_ops_[c];
  }

  /// Advances the simulated clock by one drained batch's makespan.
  void AdvanceElapsed(double us) { elapsed_us_ += us; }

  // --- Host submission-queue accounting (fed by the FTL's async engine) --
  // Distinct from the per-channel depths above: this gauge counts whole
  // host *requests* admitted and not yet completed (parked on a dependency
  // or executing), i.e. the queue depth the host actually achieved.

  /// A request was admitted into the host submission queue.
  void OnHostAdmit() {
    uint32_t depth = ++host_inflight_;
    if (depth > host_inflight_watermark_) host_inflight_watermark_ = depth;
  }
  /// An in-flight request completed (or was aborted by a power failure).
  void OnHostComplete() {
    GECKO_CHECK_GT(host_inflight_, 0u) << "host completion without admission";
    --host_inflight_;
  }
  /// An admission was refused because the queue was at its in-flight cap.
  void OnHostQueueFull() { ++host_queue_full_; }

  /// Requests currently in flight (admitted, not yet completed).
  uint32_t host_inflight() const { return host_inflight_; }
  /// Deepest the host queue ever got (lifetime watermark).
  uint32_t host_inflight_watermark() const { return host_inflight_watermark_; }
  /// Lifetime kQueueFull rejections.
  uint64_t host_queue_full() const { return host_queue_full_; }

  // --- Translation-miss pipeline accounting (fed by the async engine) ----
  // A "miss fetch" is one in-flight translation-page read servicing one or
  // more parked read extents. The gauge counts distinct fetches in flight
  // (== waiting-list entries), the coalesced counter counts extents that
  // joined an already-in-flight fetch instead of issuing their own, and
  // the stall histogram records each parked extent's park-to-replay time
  // in device microseconds.

  /// A translation-page fetch was issued for a parked miss.
  void OnMissFetchIssued() {
    ++miss_fetches_issued_;
    uint32_t depth = ++miss_fetch_inflight_;
    if (depth > miss_fetch_inflight_watermark_) {
      miss_fetch_inflight_watermark_ = depth;
    }
  }
  /// An in-flight miss fetch completed (or was aborted by a power failure).
  void OnMissFetchDone() {
    GECKO_CHECK_GT(miss_fetch_inflight_, 0u) << "miss fetch done without issue";
    --miss_fetch_inflight_;
  }
  /// A missing extent coalesced onto an already-in-flight fetch.
  void OnCoalescedMiss() { ++coalesced_misses_; }
  /// A parked extent was replayed `us` device-microseconds after parking.
  void OnMissStall(double us) { miss_stall_.Record(us); }

  /// Distinct translation-page fetches currently in flight.
  uint32_t miss_fetch_inflight() const { return miss_fetch_inflight_; }
  /// Deepest the miss-fetch gauge ever got (lifetime watermark).
  uint32_t miss_fetch_inflight_watermark() const {
    return miss_fetch_inflight_watermark_;
  }
  /// Lifetime miss fetches issued.
  uint64_t miss_fetches_issued() const { return miss_fetches_issued_; }
  /// Lifetime extents that coalesced onto an in-flight fetch.
  uint64_t coalesced_misses() const { return coalesced_misses_; }
  /// Park-to-replay stall distribution of parked extents.
  const LatencyHistogram& MissStall() const { return miss_stall_; }

  // --- Media-fault accounting (fed by the FlashDevice fault plane) -------
  // A transient read fault is absorbed by the device's retry loop (extra
  // channel time, no data loss); `n` is the number of extra read ops it
  // cost. A hard read fault survives the retry budget and surfaces to the
  // FTL as media_error. Program/erase faults consume the page / retire the
  // block respectively.

  void OnTransientReadFault(uint32_t n) {
    ++transient_read_faults_;
    read_retries_ += n;
  }
  void OnHardReadFault() { ++hard_read_faults_; }
  void OnProgramFault() { ++program_faults_; }
  void OnEraseFault() { ++erase_faults_; }

  /// Lifetime extra read ops spent absorbing transient faults.
  uint64_t read_retries() const { return read_retries_; }
  /// Lifetime reads that needed at least one retry (and then succeeded).
  uint64_t transient_read_faults() const { return transient_read_faults_; }
  /// Lifetime uncorrectable reads surfaced to the FTL.
  uint64_t hard_read_faults() const { return hard_read_faults_; }
  /// Lifetime page programs the medium failed (page marked bad).
  uint64_t program_faults() const { return program_faults_; }
  /// Lifetime block erases the medium failed (block retired).
  uint64_t erase_faults() const { return erase_faults_; }

  // --- Per-request latency histograms -----------------------------------

  /// Records one request's end-to-end latency (its batch window makespan).
  /// Fed by the FTL once per serviced host request / maintenance tick.
  void OnRequestLatency(RequestClass c, double us) {
    request_latency_[static_cast<int>(c)].Record(us);
  }
  const LatencyHistogram& RequestLatency(RequestClass c) const {
    return request_latency_[static_cast<int>(c)];
  }

  const IoCounters& counters() const { return counters_; }
  const LatencyModel& latency() const { return latency_; }
  /// Simulated time: sum of drained-batch makespans (channel-overlapped).
  double elapsed_us() const { return elapsed_us_; }

  uint32_t num_channels() const {
    return static_cast<uint32_t>(channel_busy_us_.size());
  }
  /// Total channel-busy time of channel `c` (service time, no queueing).
  double ChannelBusyUs(uint32_t c) const { return channel_busy_us_[c]; }
  /// Ops retired by channel `c`.
  uint64_t ChannelOps(uint32_t c) const { return channel_ops_[c]; }
  /// Fraction of simulated time channel `c` spent servicing ops, in [0,1].
  double ChannelUtilization(uint32_t c) const {
    return elapsed_us_ > 0 ? channel_busy_us_[c] / elapsed_us_ : 0.0;
  }
  /// Utilization of every channel (index = channel id).
  std::vector<double> ChannelUtilizations() const {
    std::vector<double> out(num_channels());
    for (uint32_t c = 0; c < num_channels(); ++c) {
      out[c] = ChannelUtilization(c);
    }
    return out;
  }
  /// Deepest any channel queue ever got (lifetime watermark).
  uint32_t max_queue_depth() const { return max_queue_depth_; }
  /// Lifetime submissions across all channels.
  uint64_t total_submissions() const { return submissions_; }

  /// Snapshot for interval measurements (Figure 9 uses 10k-write windows).
  IoCounters Snapshot() const { return counters_; }

  void Reset() {
    counters_ = IoCounters();
    elapsed_us_ = 0;
    std::fill(channel_busy_us_.begin(), channel_busy_us_.end(), 0.0);
    std::fill(channel_ops_.begin(), channel_ops_.end(), uint64_t{0});
    // host_inflight_ is live pipeline state, not a statistic: in-flight
    // requests still complete after a Reset.
    max_queue_depth_ = 0;
    submissions_ = 0;
    host_inflight_watermark_ = host_inflight_;
    host_queue_full_ = 0;
    // miss_fetch_inflight_ is live pipeline state too (fetches issued
    // before the Reset still complete after it).
    miss_fetch_inflight_watermark_ = miss_fetch_inflight_;
    miss_fetches_issued_ = 0;
    coalesced_misses_ = 0;
    read_retries_ = 0;
    transient_read_faults_ = 0;
    hard_read_faults_ = 0;
    program_faults_ = 0;
    erase_faults_ = 0;
    miss_stall_.Reset();
    for (LatencyHistogram& h : request_latency_) h.Reset();
  }

 private:
  LatencyModel latency_;
  IoCounters counters_;
  double elapsed_us_ = 0;
  std::vector<double> channel_busy_us_;
  std::vector<uint64_t> channel_ops_;
  uint32_t max_queue_depth_ = 0;
  uint64_t submissions_ = 0;
  uint32_t host_inflight_ = 0;
  uint32_t host_inflight_watermark_ = 0;
  uint64_t host_queue_full_ = 0;
  uint32_t miss_fetch_inflight_ = 0;
  uint32_t miss_fetch_inflight_watermark_ = 0;
  uint64_t miss_fetches_issued_ = 0;
  uint64_t coalesced_misses_ = 0;
  uint64_t read_retries_ = 0;
  uint64_t transient_read_faults_ = 0;
  uint64_t hard_read_faults_ = 0;
  uint64_t program_faults_ = 0;
  uint64_t erase_faults_ = 0;
  LatencyHistogram miss_stall_;
  std::array<LatencyHistogram, kNumRequestClasses> request_latency_;
};

}  // namespace gecko

#endif  // GECKOFTL_FLASH_IO_STATS_H_
