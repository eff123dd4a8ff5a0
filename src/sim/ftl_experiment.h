// Driver for the Section 5.3/5.4 experiments: runs a complete FTL under a
// workload and reports the write-amplification breakdown of Figure 13
// (bottom): (1) user data + its GC, (2) translation metadata, (3) page-
// validity metadata.

#ifndef GECKOFTL_SIM_FTL_EXPERIMENT_H_
#define GECKOFTL_SIM_FTL_EXPERIMENT_H_

#include <cstdint>
#include <vector>

#include "flash/flash_device.h"
#include "ftl/ftl.h"
#include "workload/request_stream.h"
#include "workload/workload.h"

namespace gecko {

/// Write-amplification split by cause, per Figure 13 (bottom).
struct WaBreakdown {
  double user_and_gc = 0;    // GC migrations of user data
  double translation = 0;    // sync ops + translation-page GC
  double page_validity = 0;  // PVM updates, GC queries, PVM-page GC
  double total = 0;
};

/// Per-channel view of a run on the channel-parallel backend: how evenly
/// the FTL spread its flash ops, and how deep the submission queues got.
struct ChannelReport {
  std::vector<double> utilization;  // busy / elapsed per channel, in [0,1]
  std::vector<uint64_t> ops;        // flash ops serviced per channel
  std::vector<double> idle_us;      // inter-op idle time per channel
  uint32_t max_queue_depth = 0;     // deepest any channel queue got
  double elapsed_us = 0;            // simulated (channel-overlapped) time

  double MeanUtilization() const {
    if (utilization.empty()) return 0;
    double sum = 0;
    for (double u : utilization) sum += u;
    return sum / static_cast<double>(utilization.size());
  }
};

/// Tail-latency view of one bursty run: the user-write request latency
/// distribution plus the throughput the run sustained (both in simulated
/// time, which includes background-maintenance windows).
struct LatencyReport {
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
  double max_us = 0;
  double mean_us = 0;
  uint64_t requests = 0;       // write requests measured
  uint64_t extents = 0;        // write/trim extents measured
  double elapsed_us = 0;       // simulated time of the measurement window
  double throughput_kops = 0;  // extents per simulated millisecond
  uint64_t background_steps = 0;  // GC steps the idle ticks ran
};

class FtlExperiment {
 public:
  /// Writes every logical page once (device fill). Payload is a
  /// deterministic token derived from the lpn. `batch_size` > 1 submits
  /// the fill as scatter-gather requests of that many sequential pages.
  static void Fill(Ftl& ftl, uint64_t num_lpns, uint32_t batch_size = 1);

  /// Runs ~`warm_ops` update extents to reach steady state, then measures
  /// the WA breakdown over the following ~`measure_ops` extents. The
  /// updates are RequestStream requests over `workload` (batch size, trim
  /// mix), so the whole request pipeline — including kTrim — is
  /// exercised; by default they are lone single-page writes.
  static WaBreakdown MeasureWa(Ftl& ftl, FlashDevice& device,
                               Workload& workload, uint64_t warm_ops,
                               uint64_t measure_ops,
                               const RequestStream::Options& options =
                                   LoneWrites());

  /// Stream options for lone single-page writes: batch size 1, no trims
  /// or reads.
  static RequestStream::Options LoneWrites() {
    RequestStream::Options options;
    options.batch_size = 1;
    return options;
  }

  /// Snapshot of the device's per-channel accounting (utilization, op
  /// spread, queue depth) for channel-scaling experiments.
  static ChannelReport Channels(const FlashDevice& device);

  /// Tail-latency measurement loop for a bursty host: `burst_requests`
  /// requests from `stream`, then `idle_slots` host-idle slots, repeated.
  /// Warms with ~`warm_extents` write/trim extents, then measures ~
  /// `measure_extents` more; the burst/idle phase carries over from the
  /// warm-up into the measured window. Each idle slot ticks the FTL's
  /// maintenance scheduler (`Ftl::IdleTick`) when `tick_idle` is set — the
  /// incremental-GC configuration — and is wasted otherwise (the
  /// foreground-only baseline). Returns the user-write latency
  /// distribution over the measurement window.
  static LatencyReport MeasureGcLatency(Ftl& ftl, FlashDevice& device,
                                        RequestStream& stream,
                                        uint32_t burst_requests,
                                        uint32_t idle_slots,
                                        uint64_t warm_extents,
                                        uint64_t measure_extents,
                                        bool tick_idle);

  /// Deterministic content token for (lpn, version) — the payload every
  /// RequestStream write carries; tests and benches use it to verify
  /// end-to-end data integrity.
  static uint64_t Token(Lpn lpn, uint64_t version) {
    return RequestStream::PayloadToken(lpn, version);
  }
};

}  // namespace gecko

#endif  // GECKOFTL_SIM_FTL_EXPERIMENT_H_
