// bdevperf-style open-loop load driver over the async Ftl interface.
//
// Closed-loop measurement (submit, wait, repeat) can never observe
// overload: the host self-throttles to the device's service rate, so tail
// latency looks flat no matter how slow the FTL is. An open-loop driver
// generates arrivals on a fixed clock regardless of completions — the
// production regime — so when offered load exceeds capacity, queueing
// delay shows up where it belongs: in the p99/p999 of the
// arrival-to-completion distribution.
//
// Mechanics per arrival tick: advance the device clock to the arrival
// time (retiring channel ops and firing request completions on the way,
// so queue slots free at their true device times), then submit the next
// request from the stream. kQueueFull pushes the request onto an
// unbounded host-side overflow queue — open-loop load does not stop
// arriving because the device is busy — and overflow drains FIFO as
// completions free slots. Latency is recorded from *arrival* to
// completion, so time spent waiting in the overflow queue counts, exactly
// like bdevperf's submit-latency accounting under saturation.

#ifndef GECKOFTL_SIM_OPEN_LOOP_DRIVER_H_
#define GECKOFTL_SIM_OPEN_LOOP_DRIVER_H_

#include <cstdint>
#include <deque>

#include "flash/flash_device.h"
#include "ftl/ftl.h"
#include "sim/load_report.h"
#include "workload/request_stream.h"

namespace gecko {

struct OpenLoopOptions {
  /// Fixed inter-arrival period of the request clock, in simulated us.
  double inter_arrival_us = 10.0;
  /// Requests to generate.
  uint64_t requests = 1024;
};

class OpenLoopDriver {
 public:
  OpenLoopDriver(Ftl* ftl, FlashDevice* device, const OpenLoopOptions& options)
      : ftl_(ftl), device_(device), options_(options) {}

  /// Drives `options.requests` arrivals from `stream`, then drains the
  /// tail. Reentrant: each Run measures only its own requests.
  LoadReport Run(RequestStream& stream);

 private:
  struct Deferred {
    IoRequest request;
    double arrival_us = 0;
  };

  /// Submits `d`, recording its arrival-to-completion latency on
  /// completion. Returns false, leaving `d` untouched, on kQueueFull.
  bool TrySubmit(Deferred& d, LoadReport* report);
  /// Submits one arrival, or parks it on the overflow queue when the
  /// submission queue is full or earlier arrivals are still waiting.
  void SubmitOrDefer(IoRequest&& request, double arrival_us,
                     LoadReport* report);
  /// Moves overflow-queue requests into freed submission slots, FIFO.
  void DrainDeferred(LoadReport* report);

  Ftl* ftl_;
  FlashDevice* device_;
  OpenLoopOptions options_;
  std::deque<Deferred> deferred_;
};

}  // namespace gecko

#endif  // GECKOFTL_SIM_OPEN_LOOP_DRIVER_H_
