// What one open-loop load run measured, for both load drivers
// (OpenLoopDriver on one FTL, ParallelDriver on the sharded front end).
// Every time is simulated device time.

#ifndef GECKOFTL_SIM_LOAD_REPORT_H_
#define GECKOFTL_SIM_LOAD_REPORT_H_

#include <cstdint>

#include "flash/latency_histogram.h"

namespace gecko {

struct LoadReport {
  uint64_t arrivals = 0;           // requests generated
  uint64_t completed = 0;          // requests that completed
  uint64_t aborted = 0;            // ParallelDriver: requests a crash aborted
  uint64_t extents_completed = 0;  // extents the completed requests carried
  uint64_t extents_offered = 0;    // extents across all arrivals
  /// OpenLoopDriver: arrivals that found the submission queue full and
  /// waited in the host overflow queue.
  uint64_t deferrals = 0;
  /// ParallelDriver: kQueueFull submissions a submitter retried.
  uint64_t queue_full_retries = 0;
  /// OpenLoopDriver: most requests this run had in flight at once — how
  /// much of the configured queue depth it actually used.
  uint32_t inflight_watermark = 0;
  double elapsed_us = 0;      // run makespan
  double offered_kiops = 0;   // extents offered per simulated ms
  double achieved_kiops = 0;  // extents completed per simulated ms
  /// Arrival-to-completion latency (includes host-side queueing).
  LatencyHistogram latency;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  double max_us = 0;
  double mean_us = 0;

  /// Fills the rates and percentiles from the counts, `elapsed_us` and
  /// `latency`; `offered_window_us` is the span of the arrival clock.
  void Finish(double offered_window_us) {
    offered_kiops = offered_window_us > 0
                        ? static_cast<double>(extents_offered) /
                              offered_window_us * 1000.0
                        : 0;
    achieved_kiops = elapsed_us > 0 ? static_cast<double>(extents_completed) /
                                          elapsed_us * 1000.0
                                    : 0;
    p50_us = latency.Percentile(0.50);
    p99_us = latency.Percentile(0.99);
    p999_us = latency.Percentile(0.999);
    max_us = latency.MaxUs();
    mean_us = latency.MeanUs();
  }
};

}  // namespace gecko

#endif  // GECKOFTL_SIM_LOAD_REPORT_H_
