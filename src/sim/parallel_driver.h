// Multi-threaded open-loop load driver for the sharded FTL front end.
//
// Each of T submitter threads models one host core: it owns a private
// Workload + RequestStream (forked per thread — util/random.h is not
// thread-safe, so nothing is shared) and an arrival clock that ticks
// every `inter_arrival_us` of simulated device time, independent of
// completions. Requests are submitted arrival-stamped
// (ShardedFtl::SubmitAsyncAt), so each shard's worker advances its
// device clock to the arrival time before servicing — queueing delay
// lands in the arrival-to-completion distribution exactly as in the
// single-threaded OpenLoopDriver, but with T independent arrival
// processes fanning into the shards' MPSC queues from real threads.
//
// Backpressure: each submitter caps its own uncompleted requests at
// `max_outstanding_per_thread` (yielding at the cap) and retries
// kQueueFull with a yield, so memory stays bounded while the offered
// rate still scales with the thread count.
//
// Throughput is measured in simulated device time, consistent with the
// rest of the bench suite: the run's makespan is the largest per-shard
// device-clock advance (shard clocks run in parallel — the aggregate
// timeline is the slowest shard's).

#ifndef GECKOFTL_SIM_PARALLEL_DRIVER_H_
#define GECKOFTL_SIM_PARALLEL_DRIVER_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "ftl/sharded_ftl.h"
#include "sim/load_report.h"
#include "workload/request_stream.h"

namespace gecko {

struct ParallelDriverOptions {
  /// Submitter threads (independent arrival processes).
  uint32_t threads = 4;
  /// Arrivals each thread generates.
  uint64_t requests_per_thread = 512;
  /// Inter-arrival period of EACH thread's clock, in simulated us (the
  /// aggregate offered rate is threads / inter_arrival_us requests/us).
  double inter_arrival_us = 10.0;
  /// Per-thread cap on uncompleted requests (bounds host memory).
  uint32_t max_outstanding_per_thread = 16;
};

class ParallelDriver {
 public:
  /// Builds submitter thread `t`'s private workload instance.
  using WorkloadFactory =
      std::function<std::unique_ptr<Workload>(uint32_t thread)>;

  ParallelDriver(ShardedFtl* ftl, const ParallelDriverOptions& options)
      : ftl_(ftl), options_(options) {}

  /// Runs options.threads submitter threads to completion and drains the
  /// tail. `stream_options` seeds thread 0's prototype; every thread
  /// forks its own deterministic stream from it. The FTL must be
  /// quiescent on entry. The report's makespan is the largest per-shard
  /// device-clock advance.
  LoadReport Run(const RequestStream::Options& stream_options,
                 const WorkloadFactory& factory);

 private:
  ShardedFtl* ftl_;
  ParallelDriverOptions options_;
};

}  // namespace gecko

#endif  // GECKOFTL_SIM_PARALLEL_DRIVER_H_
