#include "sim/open_loop_driver.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/check.h"

namespace gecko {

bool OpenLoopDriver::TrySubmit(Deferred& d, LoadReport* report) {
  const uint64_t extents = d.request.size();
  const double arrival_us = d.arrival_us;
  CompletionCb on_complete = [report, arrival_us, extents](
                                 const IoResult& result,
                                 const AsyncCompletion& done) {
    if (result.status.code() == StatusCode::kAborted) return;
    ++report->completed;
    report->extents_completed += extents;
    report->latency.Record(done.complete_us - arrival_us);
  };
  // The request is untouched on kQueueFull.
  Status s = ftl_->SubmitAsync(std::move(d.request), std::move(on_complete));
  if (s.code() == StatusCode::kQueueFull) return false;
  GECKO_CHECK(s.ok()) << s.ToString();
  report->inflight_watermark =
      std::max(report->inflight_watermark, ftl_->InFlightRequests());
  return true;
}

void OpenLoopDriver::SubmitOrDefer(IoRequest&& request, double arrival_us,
                                   LoadReport* report) {
  Deferred d{std::move(request), arrival_us};
  // FIFO fairness: an arrival never jumps ahead of earlier deferrals.
  if (!deferred_.empty() || !TrySubmit(d, report)) {
    deferred_.push_back(std::move(d));
    ++report->deferrals;
  }
}

void OpenLoopDriver::DrainDeferred(LoadReport* report) {
  while (!deferred_.empty() && TrySubmit(deferred_.front(), report)) {
    deferred_.pop_front();
  }
}

LoadReport OpenLoopDriver::Run(RequestStream& stream) {
  LoadReport report;
  const double start_us = device_->now_us();

  for (uint64_t i = 0; i < options_.requests; ++i) {
    const double arrival_us =
        start_us + static_cast<double>(i) * options_.inter_arrival_us;
    // Let device time pass until this arrival, firing completions at
    // their true device times so queue slots free as they would on real
    // hardware (not rounded up to the next arrival tick).
    while (ftl_->NextCompletionUs() <= arrival_us) {
      device_->AdvanceTo(ftl_->NextCompletionUs());
      ftl_->Poll();
      DrainDeferred(&report);
    }
    if (arrival_us > device_->now_us()) device_->AdvanceTo(arrival_us);
    ftl_->Poll();
    DrainDeferred(&report);

    IoRequest request = stream.Next();
    ++report.arrivals;
    report.extents_offered += request.size();
    SubmitOrDefer(std::move(request), arrival_us, &report);
  }

  // Tail drain: the backlog (in-flight + overflow) empties at device
  // speed, completion by completion.
  while (true) {
    DrainDeferred(&report);
    if (ftl_->InFlightRequests() == 0 && deferred_.empty()) break;
    const double next_us = ftl_->NextCompletionUs();
    GECKO_CHECK(!std::isinf(next_us)) << "in-flight requests but no pending "
                                         "completion";
    device_->AdvanceTo(next_us);
    ftl_->Poll();
  }

  report.elapsed_us = device_->now_us() - start_us;
  report.Finish(static_cast<double>(options_.requests) *
                options_.inter_arrival_us);
  return report;
}

}  // namespace gecko
