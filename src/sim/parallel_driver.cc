#include "sim/parallel_driver.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "util/check.h"

namespace gecko {

namespace {

/// State shared between one submitter thread and the worker threads that
/// complete its requests. Lives in the Run-scoped vector, which outlives
/// every completion (Run drains before returning).
struct SubmitterState {
  std::atomic<uint32_t> outstanding{0};
  uint64_t arrivals = 0;          // submitter-private
  uint64_t extents_offered = 0;   // submitter-private
  uint64_t queue_full_retries = 0;
};

/// Completion-side half of the report, guarded by one mutex (completions
/// fire concurrently on shard worker threads).
struct CompletionSink {
  std::mutex mu;
  LoadReport report;
};

}  // namespace

LoadReport ParallelDriver::Run(
    const RequestStream::Options& stream_options,
    const WorkloadFactory& factory) {
  GECKO_CHECK_GE(options_.threads, 1u);
  GECKO_CHECK_GE(options_.max_outstanding_per_thread, 1u);
  GECKO_CHECK(factory != nullptr);

  const uint32_t num_shards = ftl_->num_shards();
  std::vector<double> start_now(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    start_now[s] = ftl_->shard_device(s).now_us();
  }
  // Arrival clocks start at the latest shard clock so stamps are never in
  // any shard's past (a prefilled shard may already be ahead).
  const double arrival_base =
      *std::max_element(start_now.begin(), start_now.end());

  std::vector<SubmitterState> states(options_.threads);
  CompletionSink sink;

  auto submitter = [&](uint32_t t) {
    SubmitterState& state = states[t];
    std::unique_ptr<Workload> workload = factory(t);
    GECKO_CHECK(workload != nullptr);
    // Every thread forks the same prototype: independent deterministic
    // streams with disjoint payload-version ranges.
    RequestStream prototype(workload.get(), stream_options);
    RequestStream stream = prototype.Fork(t, workload.get());

    for (uint64_t i = 0; i < options_.requests_per_thread; ++i) {
      const double arrival_us =
          arrival_base + static_cast<double>(i) * options_.inter_arrival_us;
      while (state.outstanding.load(std::memory_order_acquire) >=
             options_.max_outstanding_per_thread) {
        std::this_thread::yield();
      }
      IoRequest request = stream.Next();
      ++state.arrivals;
      const uint64_t extents = request.size();
      state.extents_offered += extents;
      CompletionCb on_complete = [&sink, &state, arrival_us, extents](
                                     const IoResult& result,
                                     const AsyncCompletion& done) {
        {
          std::lock_guard<std::mutex> lock(sink.mu);
          if (result.status.code() == StatusCode::kAborted) {
            ++sink.report.aborted;
          } else {
            ++sink.report.completed;
            sink.report.extents_completed += extents;
            sink.report.latency.Record(done.complete_us - arrival_us);
          }
        }
        state.outstanding.fetch_sub(1, std::memory_order_acq_rel);
      };
      for (;;) {
        state.outstanding.fetch_add(1, std::memory_order_acq_rel);
        Status s =
            ftl_->SubmitAsyncAt(std::move(request), arrival_us, on_complete);
        if (s.ok()) break;
        state.outstanding.fetch_sub(1, std::memory_order_acq_rel);
        GECKO_CHECK_EQ(static_cast<int>(s.code()),
                       static_cast<int>(StatusCode::kQueueFull))
            << s.ToString();
        ++state.queue_full_retries;  // request untouched; retry after yield
        std::this_thread::yield();
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(options_.threads);
  for (uint32_t t = 0; t < options_.threads; ++t) {
    threads.emplace_back(submitter, t);
  }
  for (std::thread& t : threads) t.join();
  ftl_->DrainAsync();  // tail completions land before we read anything

  LoadReport report = sink.report;
  for (const SubmitterState& state : states) {
    report.arrivals += state.arrivals;
    report.extents_offered += state.extents_offered;
    report.queue_full_retries += state.queue_full_retries;
  }
  for (uint32_t s = 0; s < num_shards; ++s) {
    report.elapsed_us = std::max(report.elapsed_us,
                                 ftl_->shard_device(s).now_us() - start_now[s]);
  }
  report.Finish(static_cast<double>(options_.requests_per_thread) *
                options_.inter_arrival_us);
  return report;
}

}  // namespace gecko
