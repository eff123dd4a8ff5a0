// geckobench: the repo benchmark.
//
// One command per workload builds a flash device and GeckoFTL
// (GeckoFtl::DefaultConfig, the paper's FTL as shipped), fills it, and
// drives it through the public Ftl API as a closed loop: the host keeps a
// fixed number of requests in flight and issues the next one when one
// completes (the NVMe/fio model). Every read is checked against a shadow
// model; after the measured phase the FTL is drained, crashed and
// recovered without a flush, and every logical page is read back.
//
// A run repeats the whole workload (set-up, measured phase, checks) as
// often as its repetition budget fits into --seconds, at least three
// times; repetition i draws its requests from seed
// RequestStream::ForkSeed(seed, i). The simulated metrics pool every
// repetition's samples, so they are a function of the arguments; host
// times are medians over repetitions.
// With --trace 1 the first seed runs once more, traced: the per-layer
// host times come from that repetition, and its simulated metrics must
// equal the untraced repetition's.
//
// Usage:
//   geckobench --workload read_miss|skewed_write|sharded_mixed --seed N
//              --seconds S --trace 0|1 [--tiny] [--trace-out PATH]
//              [--corrupt-shadow]
//
// --tiny shrinks every workload 16x (device) and 50x (requests) for the
// smoke test; --corrupt-shadow flips one shadow entry before the final
// read-back, which must make the run fail.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "flash/flash_device.h"
#include "flash/geometry.h"
#include "ftl/gecko_ftl.h"
#include "ftl/sharded_ftl.h"
#include "sim/ftl_experiment.h"
#include "workload/request_stream.h"
#include "workload/workload.h"

#include "shadow.h"
#include "trace.h"

namespace perfbench {
namespace {

using gecko::AsyncCompletion;
using gecko::FlashDevice;
using gecko::GeckoFtl;
using gecko::IoOp;
using gecko::IoRequest;
using gecko::IoResult;
using gecko::Lpn;
using gecko::RequestStream;
using gecko::ShardedFtl;
using gecko::Status;

// --- Workloads ----------------------------------------------------------

// The paper's latencies: 100 us page read, 1 ms page write (delta = 10).
const gecko::LatencyModel kLatency;

struct Workload {
  const char* name;
  uint32_t blocks;
  uint32_t cache;        // mapping-cache entries (per shard when sharded)
  uint32_t shards;       // 0: one GeckoFtl; else a ShardedFtl of that many
  uint32_t queue_depth;  // requests the host keeps in flight
  uint32_t extents;      // extents per read or write request
  double read_fraction;
  double trim_fraction;  // share of drawn write pages that become trims
  bool hot_cold;         // the hot 10% of pages take 90% of accesses
  double warmup_capacities;  // logical capacities written after the fill
  uint64_t measured_requests;
  // Share of --seconds each repetition gets: a run makes floor(--seconds /
  // this) repetitions, at least three. It is set so that every workload
  // gets enough repetitions for steady host-time medians; a repetition
  // that takes longer (skewed_write: about 7 s on a 4-vCPU x86 VM) makes
  // the run last longer than --seconds.
  double rep_budget_seconds;
};

// Why these three: see perfbench/README.md.
constexpr Workload kWorkloads[] = {
    {"read_miss", 16384, 1024, 0, 16, 1, 0.9, 0.0, false, 0.0, 150000, 3.0},
    {"skewed_write", 4096, 24576, 0, 8, 8, 0.1, 0.02, true, 2.0, 30000, 4.0},
    {"sharded_mixed", 4096, 1024, 2, 32, 4, 0.3, 0.0, false, 2.0, 40000, 4.0},
};

// Every workload: 2 KiB pages (512 mappings per translation page), 64
// pages per block, logical ratio 0.7, 8 channels.
gecko::Geometry MakeGeometry(uint32_t blocks) {
  gecko::Geometry g;
  g.num_blocks = blocks;
  g.pages_per_block = 64;
  g.page_bytes = 2048;
  g.logical_ratio = 0.7;
  g.num_channels = 8;
  return g;
}

Workload Tiny(Workload w) {
  w.blocks /= 16;
  // Keep skewed_write's cache large enough for its hot set.
  w.cache = w.cache > 8192 ? w.cache / 16 : 64;
  w.measured_requests /= 50;
  return w;
}

struct Options {
  Workload workload{};
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool corrupt_shadow = false;
  std::string trace_out;
};

[[noreturn]] void Fail(const Options& o, const std::string& what) {
  std::fflush(stdout);
  std::fprintf(stderr, "%s (workload=%s seed=%llu)\n", what.c_str(),
               o.workload.name, static_cast<unsigned long long>(o.seed));
  std::fflush(stderr);
  std::_Exit(1);
}

// --- Statistics ---------------------------------------------------------

// Quantile on the mid-distribution function (Parzen): each distinct value
// sits at P(X < v) + P(X = v) / 2 and the quantile interpolates linearly
// between neighbouring distinct values. Simulated latencies are sums of a
// few fixed op latencies and tie heavily; this quantile moves with the
// share of samples on each side of a tie, where an order statistic would
// stay pinned to the tied value. Without ties it is the Hazen quantile.
double MidQuantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  double prev_value = v.front();
  double prev_mid = -1.0;
  for (size_t i = 0; i < v.size();) {
    size_t j = i;
    while (j < v.size() && v[j] == v[i]) ++j;
    const double mid = (static_cast<double>(i) + (j - i) / 2.0) / n;
    if (mid >= q) {
      if (prev_mid < 0) return v[i];
      return prev_value +
             (v[i] - prev_value) * (q - prev_mid) / (mid - prev_mid);
    }
    prev_value = v[i];
    prev_mid = mid;
    i = j;
  }
  return v.back();
}

double Median(std::vector<double> v) { return MidQuantile(std::move(v), 0.5); }

double Ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

// CPU time of the whole process, every thread included. Host metrics use
// it rather than wall-clock time: on a shared VM, vCPU steal and wake-up
// latency swing the wall-clock throughput of the threaded sharded
// pipeline by tens of percent between runs, while its CPU time stays
// within a few percent. For the single-threaded workloads the two agree
// whenever the process is not descheduled.
double CpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return ts.tv_sec + ts.tv_nsec / 1e9;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

// --- Counters summed over the GeckoFTL instance(s) -----------------------

enum Count {
  kSyncOps, kCheckpoints, kGcCollections, kGcMigrations, kUipDetections,
  kCacheHits, kCacheMisses, kRemappedPrograms,
  kAdmitted, kCompleted, kAborted, kParked, kParkedExtents, kReplayedExtents,
  kThrottledSteps, kEmergencyStalls,
  kGeckoMerges, kGeckoUpdateWrites, kGeckoMergeReads, kGeckoQueries,
  kGeckoQueryReads,
  kNumCounts,
};
using Counts = std::array<uint64_t, kNumCounts>;

Counts Collect(const std::vector<GeckoFtl*>& ftls) {
  Counts c{};
  for (GeckoFtl* f : ftls) {
    const gecko::FtlCounters& fc = f->counters();
    c[kSyncOps] += fc.sync_ops;
    c[kCheckpoints] += fc.checkpoints;
    c[kGcCollections] += fc.gc_collections;
    c[kGcMigrations] += fc.gc_migrations;
    c[kUipDetections] += fc.uip_detections;
    c[kCacheHits] += fc.cache_hits;
    c[kCacheMisses] += fc.cache_misses;
    c[kRemappedPrograms] += fc.remapped_programs;
    const gecko::AsyncEngineStats& es = f->async_engine().stats();
    c[kAdmitted] += es.admitted;
    c[kCompleted] += es.completed;
    c[kAborted] += es.aborted;
    c[kParked] += es.parked;
    c[kParkedExtents] += es.parked_extents;
    c[kReplayedExtents] += es.replayed_extents;
    const gecko::MaintenanceStats& ms = f->maintenance().stats();
    c[kThrottledSteps] += ms.throttled_steps;
    c[kEmergencyStalls] += ms.emergency_stalls;
    const gecko::LogGeckoStats& gs = f->gecko().stats();
    c[kGeckoMerges] += gs.merges;
    c[kGeckoUpdateWrites] += gs.UpdatePathWrites();
    c[kGeckoMergeReads] += gs.merge_reads;
    c[kGeckoQueries] += gs.queries;
    c[kGeckoQueryReads] += gs.query_reads;
  }
  return c;
}

Counts operator-(const Counts& a, const Counts& b) {
  Counts d{};
  for (int i = 0; i < kNumCounts; ++i) d[i] = a[i] - b[i];
  return d;
}

// --- Closed loops -------------------------------------------------------

struct Tally {
  uint64_t requests = 0;       // issued
  uint64_t completed = 0;
  uint64_t extents = 0;        // issued
  uint64_t write_extents = 0;  // issued kWrite extents
  uint64_t read_extents = 0;   // issued kRead extents
  uint64_t failed = 0;         // extents with an unexpected status
  std::vector<double> read_us;   // per kRead request
  std::vector<double> write_us;  // per kWrite / kTrim request
};

struct Slot {
  uint64_t id = 0;
  IoOp op = IoOp::kWrite;
  std::vector<Lpn> lpns;
  std::vector<Shadow::Expect> expect;  // kRead only
};

// Records what a request needs for its check and applies it to the shadow.
void Admit(const IoRequest& request, uint64_t id, Shadow& shadow, Slot& slot,
           Tally& tally) {
  slot.id = id;
  slot.op = request.op;
  slot.lpns.clear();
  slot.expect.clear();
  for (const gecko::IoExtent& e : request.extents) {
    slot.lpns.push_back(e.lpn);
    if (request.op == IoOp::kRead) slot.expect.push_back(shadow.At(e.lpn));
  }
  if (request.op != IoOp::kRead) shadow.Admit(request);
  ++tally.requests;
  tally.extents += request.size();
  if (request.op == IoOp::kWrite) tally.write_extents += request.size();
  if (request.op == IoOp::kRead) tally.read_extents += request.size();
}

// Checks a completed request and records its simulated latency.
void Verify(const Slot& slot, const IoResult& result,
            const AsyncCompletion& done, Shadow& shadow, Tally& tally) {
  ++tally.completed;
  const double latency_us = done.complete_us - done.submit_us;
  (slot.op == IoOp::kRead ? tally.read_us : tally.write_us)
      .push_back(latency_us);
  if (!result.status.ok()) {
    tally.failed += slot.lpns.size();
    for (Lpn lpn : slot.lpns) shadow.MarkFailed(lpn);
    return;
  }
  for (size_t i = 0; i < slot.lpns.size(); ++i) {
    const Status& s = result.extent_status[i];
    if (slot.op == IoOp::kRead) {
      if (!shadow.CheckRead(slot.lpns[i], slot.expect[i], s,
                            result.payloads[i])) {
        ++tally.failed;
      }
    } else if (!s.ok()) {
      ++tally.failed;
      shadow.MarkFailed(slot.lpns[i]);
    }
  }
}

// Unsharded: GeckoFtl::SubmitAsync/Poll on the caller's thread. Each
// completion callback issues the next request, so the callback span is a
// child of Poll and the Next/SubmitAsync spans are its children.
class DirectLoop {
 public:
  DirectLoop(GeckoFtl& ftl, FlashDevice& device, RequestStream& stream,
             Shadow& shadow, uint32_t queue_depth)
      : ftl_(ftl), device_(device), stream_(stream), shadow_(shadow),
        slots_(queue_depth) {}

  /// Issues until `max_requests` requests or `max_write_extents` write
  /// extents have been issued, then runs until all have completed.
  void Run(uint64_t max_requests, uint64_t max_write_extents, Tracer* tracer,
           Tally* tally) {
    tracer_ = tracer;
    tally_ = tally;
    max_requests_ = tally->requests + max_requests;
    max_write_extents_ = tally->write_extents + max_write_extents;
    for (uint32_t s = 0; s < slots_.size() && MoreToIssue(); ++s) Issue(s);
    while (ftl_.InFlightRequests() > 0) {
      const double next_us = ftl_.NextCompletionUs();
      GECKO_CHECK(!std::isinf(next_us)) << "requests in flight, none due";
      {
        ScopedSpan span(tracer_, SpanName::kAdvance);
        device_.AdvanceTo(next_us);
      }
      ScopedSpan span(tracer_, SpanName::kPoll);
      ftl_.Poll();
    }
  }

 private:
  bool MoreToIssue() const {
    return tally_->requests < max_requests_ &&
           tally_->write_extents < max_write_extents_;
  }

  void Issue(uint32_t s) {
    const uint64_t id = next_id_++;
    IoRequest request;
    {
      ScopedSpan span(tracer_, SpanName::kNext, id);
      request = stream_.Next();
    }
    Admit(request, id, shadow_, slots_[s], *tally_);
    ScopedSpan span(tracer_, SpanName::kSubmit, id);
    Status status = ftl_.SubmitAsync(
        std::move(request),
        [this, s](const IoResult& result, const AsyncCompletion& done) {
          OnComplete(s, result, done);
        });
    GECKO_CHECK(status.ok()) << status.ToString();
  }

  void OnComplete(uint32_t s, const IoResult& result,
                  const AsyncCompletion& done) {
    ScopedSpan span(tracer_, SpanName::kComplete, slots_[s].id);
    Verify(slots_[s], result, done, shadow_, *tally_);
    if (MoreToIssue()) Issue(s);
  }

  GeckoFtl& ftl_;
  FlashDevice& device_;
  RequestStream& stream_;
  Shadow& shadow_;
  std::vector<Slot> slots_;
  Tracer* tracer_ = nullptr;
  Tally* tally_ = nullptr;
  uint64_t max_requests_ = 0;
  uint64_t max_write_extents_ = 0;
  uint64_t next_id_ = 0;
};

// Sharded: one submitter thread (the caller) keeps `queue_depth` requests
// in flight through ShardedFtl::SubmitAsyncAt. Request i reuses slot
// i % queue_depth: the submitter waits for request i - queue_depth, checks
// it, and stamps request i's arrival with its completion time. Slots are
// reused in request order, so what each shard's queue receives, and when
// in simulated time, is a function of the seed alone.
class ShardedLoop {
 public:
  ShardedLoop(ShardedFtl& ftl, RequestStream& stream, Shadow& shadow,
              uint32_t queue_depth)
      : ftl_(ftl), stream_(stream), shadow_(shadow), slots_(queue_depth) {}

  void Run(uint64_t max_requests, uint64_t max_write_extents, Tracer* tracer,
           Tally* tally) {
    tracer_ = tracer;
    tally_ = tally;
    const uint64_t request_end = tally->requests + max_requests;
    const uint64_t write_end = tally->write_extents + max_write_extents;
    // The first arrivals of a phase land when the furthest-ahead shard's
    // clock stands (the front end is idle here, so the clocks are stable).
    double start_us = 0;
    for (uint32_t s = 0; s < ftl_.num_shards(); ++s) {
      start_us = std::max(start_us, ftl_.shard_device(s).now_us());
    }
    const size_t depth = slots_.size();
    uint64_t n = 0;
    while (tally->requests < request_end && tally->write_extents < write_end) {
      ShardSlot& slot = slots_[n % depth];
      double arrival_us = start_us;
      if (slot.busy) arrival_us = Reap(slot);
      Issue(slot, arrival_us);
      ++n;
    }
    for (uint64_t j = n; j < n + depth; ++j) {
      ShardSlot& slot = slots_[j % depth];
      if (slot.busy) Reap(slot);
    }
    // Quiescence: DrainAsync's return happens after every worker write, so
    // the caller may read shard state afterwards.
    ftl_.DrainAsync();
  }

 private:
  struct ShardSlot {
    Slot slot;
    bool busy = false;
    std::atomic<bool> done{false};
    // Written by the completing worker before `done` is released.
    IoResult result;
    AsyncCompletion completion;
    uint64_t callback_start_ns = 0;
    uint64_t callback_end_ns = 0;
  };

  void Issue(ShardSlot& slot, double arrival_us) {
    const uint64_t id = next_id_++;
    IoRequest request;
    {
      ScopedSpan span(tracer_, SpanName::kNext, id);
      request = stream_.Next();
    }
    Admit(request, id, shadow_, slot.slot, *tally_);
    slot.busy = true;
    slot.done.store(false, std::memory_order_relaxed);
    const bool traced = tracer_ != nullptr;
    ScopedSpan span(tracer_, SpanName::kShardSubmit, id);
    Status status = ftl_.SubmitAsyncAt(
        std::move(request), arrival_us,
        [&slot, traced](const IoResult& result, const AsyncCompletion& done) {
          if (traced) slot.callback_start_ns = NowNs();
          slot.result = result;
          slot.completion = done;
          if (traced) slot.callback_end_ns = NowNs();
          slot.done.store(true, std::memory_order_release);
          slot.done.notify_one();
        });
    GECKO_CHECK(status.ok()) << status.ToString();
  }

  // Waits for the slot's request, checks it and returns its completion.
  double Reap(ShardSlot& slot) {
    {
      ScopedSpan span(tracer_, SpanName::kSlotWait, slot.slot.id);
      while (!slot.done.load(std::memory_order_acquire)) {
        slot.done.wait(false, std::memory_order_acquire);
      }
    }
    if (tracer_) {
      tracer_->AddDetached(SpanName::kComplete, slot.slot.id,
                           slot.callback_start_ns, slot.callback_end_ns);
    }
    Verify(slot.slot, slot.result, slot.completion, shadow_, *tally_);
    slot.busy = false;
    return slot.completion.complete_us;
  }

  ShardedFtl& ftl_;
  RequestStream& stream_;
  Shadow& shadow_;
  std::vector<ShardSlot> slots_;
  Tracer* tracer_ = nullptr;
  Tally* tally_ = nullptr;
  uint64_t next_id_ = 0;
};

// --- One repetition -----------------------------------------------------

// Everything a measured phase ran on: one GeckoFtl, or a ShardedFtl and
// its shards.
struct System {
  gecko::Ftl* ftl = nullptr;
  ShardedFtl* sharded = nullptr;
  std::vector<GeckoFtl*> geckos;
  std::vector<FlashDevice*> devices;
};

void CheckConservation(const Options& o, const System& sys, const Tally& t,
                       const char* when) {
  auto fail = [&](const std::string& what) {
    Fail(o, std::string("CONSERVATION CHECK FAILED ") + when + ": " + what);
  };
  if (t.completed != t.requests) {
    fail("completions " + std::to_string(t.completed) + " != submissions " +
         std::to_string(t.requests));
  }
  const Counts c = Collect(sys.geckos);
  if (c[kAdmitted] != c[kCompleted]) {
    fail("engine admitted " + std::to_string(c[kAdmitted]) + " != completed " +
         std::to_string(c[kCompleted]));
  }
  if (c[kParkedExtents] != c[kReplayedExtents]) {
    fail("engine parked_extents " + std::to_string(c[kParkedExtents]) +
         " != replayed_extents " + std::to_string(c[kReplayedExtents]));
  }
  if (c[kAborted] != 0) fail("engine aborted " + std::to_string(c[kAborted]));
  for (FlashDevice* d : sys.devices) {
    if (d->stats().host_inflight() != 0 ||
        d->stats().miss_fetch_inflight() != 0) {
      fail("IoStats gauges host_inflight=" +
           std::to_string(d->stats().host_inflight()) +
           " miss_fetch_inflight=" +
           std::to_string(d->stats().miss_fetch_inflight()));
    }
  }
  if (sys.sharded != nullptr) {
    const gecko::ShardedFtlStats s = sys.sharded->stats();
    if (s.completed_requests != s.requests) {
      fail("sharded completed_requests " +
           std::to_string(s.completed_requests) + " != requests " +
           std::to_string(s.requests));
    }
  }
}

// Reads every logical page back (translation-page-sized batches) and
// checks it against the shadow.
void ReadBack(gecko::Ftl& ftl, Shadow& shadow, Tally* tally) {
  constexpr uint64_t kBatch = 512;
  for (uint64_t base = 0; base < shadow.size(); base += kBatch) {
    IoRequest request(IoOp::kRead);
    for (uint64_t lpn = base; lpn < std::min(base + kBatch, shadow.size());
         ++lpn) {
      request.Add(static_cast<Lpn>(lpn));
    }
    IoResult result;
    Status s = ftl.Submit(request, &result);
    GECKO_CHECK(s.ok()) << s.ToString();
    for (size_t i = 0; i < request.size(); ++i) {
      const Lpn lpn = request.extents[i].lpn;
      if (!shadow.CheckRead(lpn, shadow.At(lpn), result.extent_status[i],
                            result.payloads[i]) &&
          !shadow.failed(lpn)) {
        ++tally->failed;  // an unexpected status on a page nothing failed on
      }
    }
  }
}

// Raw simulated results of measured phases. Add() pools repetitions, so a
// run's simulated metrics come from all of its samples; per-repetition
// quantities (recovery, RAM, utilization, skew) are summed here and
// averaged in SimMetrics.
struct SimData {
  uint64_t reps = 0;
  uint64_t extents = 0;
  uint64_t read_extents = 0;
  uint64_t failed = 0;
  std::vector<double> read_us;   // per kRead request
  std::vector<double> write_us;  // per kWrite / kTrim request
  double sim_us = 0;             // the slowest device's clock advance
  double clock_skew = 0;         // (slowest - fastest) / slowest advance
  gecko::IoCounters io;
  Counts counts{};
  uint64_t miss_fetches = 0;
  uint64_t coalesced = 0;
  uint64_t submissions = 0;
  uint64_t shard_requests = 0;
  uint64_t shard_subs = 0;
  uint64_t shard_queue_full = 0;
  uint32_t queue_depth_max = 0;
  uint32_t inflight_max = 0;
  gecko::LatencyHistogram stall;
  double channel_util_mean = 0;
  double channel_util_min = 0;
  double ram_bytes = 0;
  double degraded = 0;
  // Recovery time: total, block scan, GMD scan, dirty-entry scan, and the
  // steps that rebuild Logarithmic Gecko.
  std::array<double, 5> recovery_us{};

  void Add(const SimData& o) {
    channel_util_min = reps ? std::min(channel_util_min, o.channel_util_min)
                            : o.channel_util_min;
    reps += o.reps;
    extents += o.extents;
    read_extents += o.read_extents;
    failed += o.failed;
    read_us.insert(read_us.end(), o.read_us.begin(), o.read_us.end());
    write_us.insert(write_us.end(), o.write_us.begin(), o.write_us.end());
    sim_us += o.sim_us;
    clock_skew += o.clock_skew;
    io += o.io;
    for (int i = 0; i < kNumCounts; ++i) counts[i] += o.counts[i];
    miss_fetches += o.miss_fetches;
    coalesced += o.coalesced;
    submissions += o.submissions;
    shard_requests += o.shard_requests;
    shard_subs += o.shard_subs;
    shard_queue_full += o.shard_queue_full;
    queue_depth_max = std::max(queue_depth_max, o.queue_depth_max);
    inflight_max = std::max(inflight_max, o.inflight_max);
    stall.Merge(o.stall);
    channel_util_mean += o.channel_util_mean;
    ram_bytes += o.ram_bytes;
    degraded = std::max(degraded, o.degraded);
    for (size_t i = 0; i < recovery_us.size(); ++i) {
      recovery_us[i] += o.recovery_us[i];
    }
  }
};

// What one measured phase did. Device stats were reset at its start;
// `before`, `clock_start` and `shard_before` were taken then.
SimData MeasurePhase(const System& sys, const Tally& t, const Counts& before,
                     const std::vector<double>& clock_start,
                     const gecko::ShardedFtlStats& shard_before) {
  SimData d;
  d.reps = 1;
  d.extents = t.extents;
  d.read_extents = t.read_extents;
  d.failed = t.failed;
  d.read_us = t.read_us;
  d.write_us = t.write_us;
  d.counts = Collect(sys.geckos) - before;
  std::vector<double> util;
  double min_advance = 0;
  for (size_t i = 0; i < sys.devices.size(); ++i) {
    const gecko::IoStats& st = sys.devices[i]->stats();
    d.io += st.counters();
    d.miss_fetches += st.miss_fetches_issued();
    d.coalesced += st.coalesced_misses();
    d.submissions += st.total_submissions();
    d.queue_depth_max = std::max(d.queue_depth_max, st.max_queue_depth());
    d.inflight_max = std::max(d.inflight_max, st.host_inflight_watermark());
    d.stall.Merge(st.MissStall());
    for (double u : st.ChannelUtilizations()) util.push_back(u);
    const double advance = sys.devices[i]->now_us() - clock_start[i];
    d.sim_us = i == 0 ? advance : std::max(d.sim_us, advance);
    min_advance = i == 0 ? advance : std::min(min_advance, advance);
  }
  d.channel_util_min = *std::min_element(util.begin(), util.end());
  for (double u : util) d.channel_util_mean += u / util.size();
  if (sys.sharded != nullptr) {
    const gecko::ShardedFtlStats s = sys.sharded->stats();
    d.shard_requests = s.requests - shard_before.requests;
    d.shard_subs = s.sub_requests - shard_before.sub_requests;
    d.shard_queue_full =
        s.queue_full_rejections - shard_before.queue_full_rejections;
    d.clock_skew = Ratio(d.sim_us - min_advance, d.sim_us);
  }
  d.ram_bytes = static_cast<double>(sys.ftl->RamBytes());
  d.degraded = sys.ftl->IsDegraded() ? 1.0 : 0.0;
  return d;
}

void AddRecovery(const gecko::RecoveryReport& report, SimData* d) {
  auto steps_us = [&](const char* needle, bool prefix) {
    double us = 0;
    for (const gecko::RecoveryStep& step : report.steps) {
      const bool match = prefix ? step.name.rfind(needle, 0) == 0
                                : step.name.find(needle) != std::string::npos;
      if (match) us += step.Micros(kLatency);
    }
    return us;
  };
  d->recovery_us = {report.TotalMicros(kLatency),
                    steps_us("block scan (BID)", true), steps_us("GMD", true),
                    steps_us("dirty mapping entries", true),
                    steps_us("Gecko", false)};
}

// The simulated end-to-end metrics (names without a dot), the percentile
// sample counts, and the simulated per-layer metrics.
std::vector<Metric> SimMetrics(const SimData& d) {
  using gecko::IoPurpose;
  const Counts& c = d.counts;
  const double reps = static_cast<double>(d.reps);
  const double ext = static_cast<double>(d.extents);
  const double reads = static_cast<double>(d.read_extents);
  const double kext = ext / 1000.0;
  const gecko::IoCounters& io = d.io;
  return {
      {"sim_kiops", "1/ms", Ratio(ext, d.sim_us / 1000.0)},
      {"sim_read_p50_us", "us", MidQuantile(d.read_us, 0.50)},
      {"sim_read_p99_us", "us", MidQuantile(d.read_us, 0.99)},
      {"sim_write_p50_us", "us", MidQuantile(d.write_us, 0.50)},
      {"sim_write_p99_us", "us", MidQuantile(d.write_us, 0.99)},
      {"waf", "ratio", io.WriteAmplification(kLatency.Delta())},
      {"recovery_sim_ms", "ms", d.recovery_us[0] / reps / 1000.0},
      {"ftl_ram_kb", "KiB", d.ram_bytes / reps / 1024.0},
      {"sim_read_samples", "count", static_cast<double>(d.read_us.size())},
      {"sim_write_samples", "count", static_cast<double>(d.write_us.size())},
      {"ftl.cache.hit_ratio", "ratio",
       Ratio(c[kCacheHits], c[kCacheHits] + c[kCacheMisses])},
      {"ftl.miss.fetches_per_read", "ratio", Ratio(d.miss_fetches, reads)},
      {"ftl.miss.coalesce_ratio", "ratio",
       Ratio(d.coalesced, d.miss_fetches + d.coalesced)},
      {"ftl.miss.stall_p50_us", "us", d.stall.Percentile(0.50)},
      {"ftl.miss.stall_p99_us", "us", d.stall.Percentile(0.99)},
      {"ftl.engine.parked_frac", "ratio", Ratio(c[kParked], c[kAdmitted])},
      {"ftl.engine.inflight_max", "count",
       static_cast<double>(d.inflight_max)},
      {"ftl.sync_ops_per_kext", "1/kext", Ratio(c[kSyncOps], kext)},
      {"ftl.checkpoints", "count", c[kCheckpoints] / reps},
      {"ftl.gc.collections_per_kext", "1/kext",
       Ratio(c[kGcCollections], kext)},
      {"ftl.gc.migrations_per_collection", "ratio",
       Ratio(c[kGcMigrations], c[kGcCollections])},
      {"ftl.gc.uip_detections", "count", c[kUipDetections] / reps},
      {"ftl.maint.throttled_steps", "count", c[kThrottledSteps] / reps},
      {"ftl.maint.emergency_stalls", "count", c[kEmergencyStalls] / reps},
      {"core.gecko.merges", "count", c[kGeckoMerges] / reps},
      {"core.gecko.update_writes_per_kext", "1/kext",
       Ratio(c[kGeckoUpdateWrites], kext)},
      {"core.gecko.merge_reads_per_kext", "1/kext",
       Ratio(c[kGeckoMergeReads], kext)},
      {"core.gecko.query_reads_per_query", "ratio",
       Ratio(c[kGeckoQueryReads], c[kGeckoQueries])},
      {"pvm.writes_per_kext", "1/kext",
       Ratio(io.WritesFor(IoPurpose::kPvm), kext)},
      {"pvm.reads_per_kext", "1/kext",
       Ratio(io.ReadsFor(IoPurpose::kPvm), kext)},
      {"flash.gc_writes_per_user_write", "ratio",
       Ratio(io.WritesFor(IoPurpose::kGcMigration),
             io.WritesFor(IoPurpose::kUserWrite))},
      {"flash.translation_writes_per_kext", "1/kext",
       Ratio(io.WritesFor(IoPurpose::kTranslation), kext)},
      {"flash.translation_reads_per_read", "ratio",
       Ratio(io.ReadsFor(IoPurpose::kTranslation), reads)},
      {"flash.erases_per_kext", "1/kext", Ratio(io.TotalErases(), kext)},
      {"flash.ops_per_extent", "ratio", Ratio(d.submissions, ext)},
      {"flash.channel_util_mean", "ratio", d.channel_util_mean / reps},
      {"flash.channel_util_min", "ratio", d.channel_util_min},
      {"flash.queue_depth_max", "count",
       static_cast<double>(d.queue_depth_max)},
      {"ftl.recovery.bid_ms", "ms", d.recovery_us[1] / reps / 1000.0},
      {"ftl.recovery.gmd_ms", "ms", d.recovery_us[2] / reps / 1000.0},
      {"ftl.recovery.dirty_scan_ms", "ms", d.recovery_us[3] / reps / 1000.0},
      {"core.recovery.gecko_ms", "ms", d.recovery_us[4] / reps / 1000.0},
      {"ftl.shard.fanout", "ratio", Ratio(d.shard_subs, d.shard_requests)},
      {"ftl.shard.clock_skew", "ratio", d.clock_skew / reps},
      {"ftl.shard.queue_full", "count", d.shard_queue_full / reps},
      {"ftl.degraded", "bool", d.degraded},
      {"ftl.remapped_programs", "count", c[kRemappedPrograms] / reps},
  };
}

std::vector<Metric> HostLayerMetrics(const Tracer& tracer) {
  const auto totals = tracer.Summarize();
  auto per_call = [&](SpanName n) {
    return totals[static_cast<int>(n)].SelfPerCallNs();
  };
  return {
      {"workload.next_ns", "ns", per_call(SpanName::kNext)},
      {"ftl.submit_ns", "ns", per_call(SpanName::kSubmit)},
      {"ftl.poll_self_ns", "ns", per_call(SpanName::kPoll)},
      {"flash.advance_ns", "ns", per_call(SpanName::kAdvance)},
      {"ftl.recover_host_ms", "ms",
       totals[static_cast<int>(SpanName::kRecover)].total_ns / 1e6},
      {"ftl.shard.submit_ns", "ns", per_call(SpanName::kShardSubmit)},
      {"ftl.shard.slot_wait_ns", "ns", per_call(SpanName::kSlotWait)},
      {"bench.complete_ns", "ns", per_call(SpanName::kComplete)},
  };
}

struct RepResult {
  SimData sim;
  double host_kops = 0;       // per process CPU second
  double host_wall_kops = 0;  // per wall-clock second, for reference
  double setup_s = 0;         // process CPU seconds
  std::vector<Metric> host_layers;  // traced repetitions only
  std::unique_ptr<Tracer> tracer;   // traced repetitions only
};

// Set-up, measured phase, crash and read-back for request-stream seed
// `stream_seed`.
RepResult RunRep(const Options& o, uint64_t stream_seed, bool traced) {
  const Workload& w = o.workload;
  RepResult rep;
  if (traced) rep.tracer = std::make_unique<Tracer>();
  Tracer* tracer = rep.tracer.get();
  const double setup_start_cpu = CpuSeconds();

  const gecko::Geometry geometry = MakeGeometry(w.blocks);
  const gecko::FtlConfig config = GeckoFtl::DefaultConfig(w.cache);
  std::unique_ptr<FlashDevice> device;
  std::unique_ptr<GeckoFtl> direct;
  std::unique_ptr<ShardedFtl> sharded;
  System sys;
  uint64_t lpns = 0;
  if (w.shards == 0) {
    device = std::make_unique<FlashDevice>(geometry, kLatency);
    direct = std::make_unique<GeckoFtl>(device.get(), config);
    sys.ftl = direct.get();
    sys.geckos = {direct.get()};
    sys.devices = {device.get()};
    lpns = geometry.NumLogicalPages();
  } else {
    gecko::ShardedFtlOptions options;
    options.geometry = geometry;
    options.num_shards = w.shards;
    options.config = config;
    options.latency = kLatency;
    sharded = std::make_unique<ShardedFtl>(
        options, [](FlashDevice* d, const gecko::FtlConfig& c) {
          return std::make_unique<GeckoFtl>(d, c);
        });
    sys.ftl = sys.sharded = sharded.get();
    for (uint32_t s = 0; s < w.shards; ++s) {
      // The factory above builds every shard as a GeckoFtl.
      sys.geckos.push_back(static_cast<GeckoFtl*>(&sharded->shard_ftl(s)));
      sys.devices.push_back(&sharded->shard_device(s));
    }
    lpns = sharded->shard_map().TotalLpns();
  }
  Shadow shadow(lpns, std::string("workload=") + w.name +
                          " seed=" + std::to_string(o.seed));
  {
    ScopedSpan span(tracer, SpanName::kFill);
    gecko::FtlExperiment::Fill(*sys.ftl, lpns, /*batch_size=*/64);
  }

  RequestStream::Options stream_options;
  stream_options.batch_size = w.extents;
  stream_options.read_fraction = w.read_fraction;
  stream_options.trim_fraction = w.trim_fraction;
  stream_options.seed = stream_seed;
  stream_options.workload = w.hot_cold
                                ? gecko::WorkloadSpec::HotCold(lpns, 0.1, 0.9)
                                : gecko::WorkloadSpec::Uniform(lpns);
  RequestStream stream(stream_options);
  std::unique_ptr<DirectLoop> direct_loop;
  std::unique_ptr<ShardedLoop> sharded_loop;
  if (direct) {
    direct_loop = std::make_unique<DirectLoop>(*direct, *device, stream,
                                               shadow, w.queue_depth);
  } else {
    sharded_loop = std::make_unique<ShardedLoop>(*sharded, stream, shadow,
                                                 w.queue_depth);
  }
  auto run_loop = [&](uint64_t max_requests, uint64_t max_write_extents,
                      Tracer* t, Tally* tally) {
    if (direct_loop) {
      direct_loop->Run(max_requests, max_write_extents, t, tally);
      direct->DrainAsync();  // closes the engine's batch window
    } else {
      sharded_loop->Run(max_requests, max_write_extents, t, tally);
    }
  };

  Tally warmup;
  if (w.warmup_capacities > 0) {
    ScopedSpan span(tracer, SpanName::kWarmup);
    run_loop(UINT64_MAX, static_cast<uint64_t>(w.warmup_capacities * lpns),
             nullptr, &warmup);
    CheckConservation(o, sys, warmup, "after the warm-up");
  }
  rep.setup_s = CpuSeconds() - setup_start_cpu;

  // Measured phase.
  for (FlashDevice* d : sys.devices) d->stats().Reset();
  const Counts before = Collect(sys.geckos);
  const gecko::ShardedFtlStats shard_before =
      sharded ? sharded->stats() : gecko::ShardedFtlStats{};
  std::vector<double> clock_start;
  for (FlashDevice* d : sys.devices) clock_start.push_back(d->now_us());
  Tally measured;
  const double measure_start_cpu = CpuSeconds();
  const uint64_t measure_start_ns = NowNs();
  run_loop(w.measured_requests, UINT64_MAX, tracer, &measured);
  rep.host_wall_kops =
      measured.extents / ((NowNs() - measure_start_ns) / 1e6);
  rep.host_kops =
      measured.extents / ((CpuSeconds() - measure_start_cpu) * 1000.0);
  CheckConservation(o, sys, measured, "after the measured phase");
  rep.sim = MeasurePhase(sys, measured, before, clock_start, shard_before);

  // Crash without a flush, recover, and read every page back.
  gecko::RecoveryReport recovery;
  {
    ScopedSpan span(tracer, SpanName::kRecover);
    recovery = sys.ftl->CrashAndRecover();
  }
  AddRecovery(recovery, &rep.sim);
  if (o.corrupt_shadow) shadow.Corrupt(static_cast<Lpn>(o.seed % lpns));
  Tally readback;
  ReadBack(*sys.ftl, shadow, &readback);
  CheckConservation(o, sys, measured, "after recovery and read-back");
  rep.sim.failed += warmup.failed + readback.failed;
  if (tracer) rep.host_layers = HostLayerMetrics(*tracer);
  return rep;
}

// --- Output -------------------------------------------------------------

double MedianOf(const std::vector<RepResult>& reps, double RepResult::*field) {
  std::vector<double> v;
  for (const RepResult& r : reps) v.push_back(r.*field);
  return Median(std::move(v));
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

void PrintMetric(const Metric& m) {
  std::printf("%s %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

void PrintJson(uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(),
                std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload read_miss|skewed_write|sharded_mixed "
               "--seed N --seconds S --trace 0|1 [--tiny] [--trace-out PATH] "
               "[--corrupt-shadow]\n",
               argv0);
  std::exit(2);
}

bool SameMetrics(const std::vector<Metric>& a, const std::vector<Metric>& b,
                 std::string* first_difference) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i].value, &b[i].value, sizeof(double)) != 0) {
      *first_difference = a[i].name + " " + std::to_string(a[i].value) +
                          " vs " + std::to_string(b[i].value);
      return false;
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  Options o;
  const char* workload = nullptr;
  bool tiny = false;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
      have_seconds = true;
    } else if (arg == "--trace" && has_value) {
      o.trace = std::strcmp(argv[++i], "0") != 0;
      have_trace = true;
    } else if (arg == "--trace-out" && has_value) {
      o.trace_out = argv[++i];
    } else if (arg == "--tiny") {
      tiny = true;
    } else if (arg == "--corrupt-shadow") {
      o.corrupt_shadow = true;
    } else {
      Usage(argv[0]);
    }
  }
  if (workload == nullptr || !have_seed || !have_seconds || !have_trace) {
    Usage(argv[0]);
  }
  bool found = false;
  for (const Workload& w : kWorkloads) {
    if (std::strcmp(w.name, workload) == 0) {
      o.workload = tiny ? Tiny(w) : w;
      found = true;
    }
  }
  if (!found) Usage(argv[0]);

  // Repetition i runs request-stream seed ForkSeed(seed, i). The count is
  // a function of the arguments, so the pooled simulated metrics are too.
  const uint64_t reps = std::max<uint64_t>(
      3, static_cast<uint64_t>(o.seconds / o.workload.rep_budget_seconds));
  std::vector<RepResult> untraced;
  for (uint64_t i = 0; i < reps; ++i) {
    untraced.push_back(RunRep(o, RequestStream::ForkSeed(o.seed, i), false));
  }
  RepResult traced;
  if (o.trace) {
    // Tracing only observes: a traced repetition of the first seed must
    // reproduce the untraced one exactly.
    traced = RunRep(o, RequestStream::ForkSeed(o.seed, 0), true);
    std::string diff;
    if (!SameMetrics(SimMetrics(untraced[0].sim), SimMetrics(traced.sim),
                     &diff) ||
        untraced[0].sim.failed != traced.sim.failed) {
      Fail(o, "DETERMINISM CHECK FAILED: traced and untraced runs differ: " +
                  diff);
    }
  }

  SimData pooled;
  for (size_t i = 0; i < untraced.size(); ++i) {
    const RepResult& r = untraced[i];
    pooled.Add(r.sim);
    std::printf("rep %zu: setup_s=%.4f host_kops=%.2f host_wall_kops=%.2f "
                "extents=%llu failed=%llu\n",
                i, r.setup_s, r.host_kops, r.host_wall_kops,
                static_cast<unsigned long long>(r.sim.extents),
                static_cast<unsigned long long>(r.sim.failed));
  }
  std::printf("workload %s seed %llu: %zu repetitions of %llu requests\n",
              o.workload.name, static_cast<unsigned long long>(o.seed),
              untraced.size(),
              static_cast<unsigned long long>(o.workload.measured_requests));
  const std::vector<Metric> sim = SimMetrics(pooled);
  const double failed_frac = Ratio(pooled.failed, pooled.extents);
  const std::vector<Metric> host = {
      {"host_kops", "kops", MedianOf(untraced, &RepResult::host_kops)},
      {"setup_s", "s", MedianOf(untraced, &RepResult::setup_s)},
      {"host_rss_mb", "MiB", PeakRssMb()},
      {"ok_frac", "ratio", 1.0 - failed_frac},
  };
  PrintMetric({"failed_frac", "ratio", failed_frac});
  PrintMetric({"host_wall_kops", "kops",
               MedianOf(untraced, &RepResult::host_wall_kops)});
  for (const Metric& m : sim) PrintMetric(m);
  for (const Metric& m : host) PrintMetric(m);

  std::vector<Metric> out;
  for (const Metric& m : sim) {
    const bool per_layer = m.name.find('.') != std::string::npos;
    if (o.trace ? per_layer : !per_layer && m.unit != "count") {
      out.push_back(m);
    }
  }
  if (!o.trace) {
    out.insert(out.end(), host.begin(), host.end());
  } else {
    std::vector<Metric> spans = traced.host_layers;
    spans.push_back({"bench.trace_overhead", "ratio",
                     Ratio(untraced[0].host_kops, traced.host_kops)});
    for (const Metric& m : spans) PrintMetric(m);
    out.insert(out.end(), spans.begin(), spans.end());
    if (!o.trace_out.empty()) {
      if (!traced.tracer->WriteTsv(o.trace_out.c_str())) {
        Fail(o, "cannot write the trace to " + o.trace_out);
      }
      std::printf("trace: %zu spans written to %s\n", traced.tracer->size(),
                  o.trace_out.c_str());
    }
  }
  PrintJson(pooled.extents, pooled.failed, out);
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
