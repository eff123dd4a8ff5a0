#include "sim/ftl_experiment.h"

#include "flash/latency_histogram.h"
#include "util/check.h"

namespace gecko {

namespace {

/// Submits one RequestStream request. Trims of never-written pages come
/// back NotFound; every other extent must land.
void SubmitStreamRequest(Ftl& ftl, IoRequest& request) {
  IoResult result;
  Status s = ftl.Submit(request, &result);
  GECKO_CHECK(s.ok()) << s.ToString();
  for (const Status& es : result.extent_status) {
    GECKO_CHECK(es.ok() || es.code() == StatusCode::kNotFound)
        << es.ToString();
  }
}

}  // namespace

void FtlExperiment::Fill(Ftl& ftl, uint64_t num_lpns, uint32_t batch_size) {
  GECKO_CHECK_GT(batch_size, 0u);
  if (batch_size == 1) {
    for (uint64_t lpn = 0; lpn < num_lpns; ++lpn) {
      Status s =
          ftl.Write(static_cast<Lpn>(lpn), Token(static_cast<Lpn>(lpn), 0));
      GECKO_CHECK(s.ok()) << s.ToString();
    }
    return;
  }
  for (uint64_t base = 0; base < num_lpns; base += batch_size) {
    IoRequest request(IoOp::kWrite);
    uint64_t end = base + batch_size < num_lpns ? base + batch_size : num_lpns;
    for (uint64_t lpn = base; lpn < end; ++lpn) {
      request.Add(static_cast<Lpn>(lpn), Token(static_cast<Lpn>(lpn), 0));
    }
    IoResult result;
    Status s = ftl.Submit(request, &result);
    GECKO_CHECK(s.ok() && result.AllOk()) << result.FirstError().ToString();
  }
}

ChannelReport FtlExperiment::Channels(const FlashDevice& device) {
  const IoStats& stats = device.stats();
  ChannelReport report;
  report.utilization = stats.ChannelUtilizations();
  report.ops.reserve(stats.num_channels());
  report.idle_us.reserve(stats.num_channels());
  for (uint32_t c = 0; c < stats.num_channels(); ++c) {
    report.ops.push_back(stats.ChannelOps(c));
    report.idle_us.push_back(device.ChannelIdleUs(c));
  }
  report.max_queue_depth = stats.max_queue_depth();
  report.elapsed_us = stats.elapsed_us();
  return report;
}

LatencyReport FtlExperiment::MeasureGcLatency(
    Ftl& ftl, FlashDevice& device, RequestStream& stream,
    uint32_t burst_requests, uint32_t idle_slots, uint64_t warm_extents,
    uint64_t measure_extents, bool tick_idle) {
  GECKO_CHECK_GT(burst_requests, 0u);
  LatencyHistogram hist;
  uint64_t background_steps = 0;
  uint32_t in_burst = 0;  // requests of the current burst issued so far
  auto run = [&](uint64_t target_extents, bool record) {
    while (stream.ops_emitted() < target_extents) {
      if (in_burst == burst_requests) {
        // Host-idle phase: the incremental configuration hands each slot
        // to the maintenance scheduler; the foreground-only baseline
        // wastes them.
        for (uint32_t i = 0; tick_idle && i < idle_slots; ++i) {
          background_steps += ftl.IdleTick();
        }
        in_burst = 0;
      }
      ++in_burst;
      IoRequest request = stream.Next();
      double before_us = device.stats().elapsed_us();
      SubmitStreamRequest(ftl, request);
      // The request's end-to-end latency is its batch window's makespan —
      // including any foreground GC steps it had to pay for.
      if (record && request.op == IoOp::kWrite) {
        hist.Record(device.stats().elapsed_us() - before_us);
      }
    }
  };
  run(warm_extents, /*record=*/false);

  uint64_t extents_before = stream.ops_emitted();
  double elapsed_before = device.stats().elapsed_us();
  uint64_t bg_before = background_steps;
  run(warm_extents + measure_extents, /*record=*/true);

  LatencyReport report;
  report.p50_us = hist.P50();
  report.p95_us = hist.P95();
  report.p99_us = hist.P99();
  report.max_us = hist.MaxUs();
  report.mean_us = hist.MeanUs();
  report.requests = hist.count();
  report.extents = stream.ops_emitted() - extents_before;
  report.elapsed_us = device.stats().elapsed_us() - elapsed_before;
  report.throughput_kops =
      report.elapsed_us > 0
          ? static_cast<double>(report.extents) / (report.elapsed_us / 1000.0)
          : 0;
  report.background_steps = background_steps - bg_before;
  return report;
}

WaBreakdown FtlExperiment::MeasureWa(Ftl& ftl, FlashDevice& device,
                                     Workload& workload, uint64_t warm_ops,
                                     uint64_t measure_ops,
                                     const RequestStream::Options& options) {
  RequestStream stream(&workload, options);
  auto run_until = [&](uint64_t target_ops) {
    while (stream.ops_emitted() < target_ops) {
      IoRequest request = stream.Next();
      SubmitStreamRequest(ftl, request);
    }
  };
  run_until(warm_ops);
  IoCounters before = device.stats().Snapshot();
  run_until(warm_ops + measure_ops);
  IoCounters delta = device.stats().Snapshot() - before;
  double d = device.stats().latency().Delta();

  WaBreakdown wa;
  wa.user_and_gc = delta.WriteAmplificationFor(IoPurpose::kGcMigration, d) +
                   delta.WriteAmplificationFor(IoPurpose::kUserWrite, d);
  wa.translation = delta.WriteAmplificationFor(IoPurpose::kTranslation, d);
  wa.page_validity = delta.WriteAmplificationFor(IoPurpose::kPvm, d);
  wa.total = delta.WriteAmplification(d);
  return wa;
}

}  // namespace gecko
