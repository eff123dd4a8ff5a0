// Abstract interface of a flash translation layer, plus per-FTL counters.
//
// The interface is request-oriented: hosts build IoRequest batches (write /
// read / trim / flush over a vector of extents) and Submit() services them,
// letting the FTL amortize translation-table and page-validity-store
// updates across the batch. The single-page Write/Read/Trim/Flush calls
// are thin compatibility wrappers over one-extent requests so existing
// callers migrate incrementally.

#ifndef GECKOFTL_FTL_FTL_H_
#define GECKOFTL_FTL_FTL_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "flash/types.h"
#include "ftl/io_request.h"
#include "pvm/recovery_report.h"
#include "util/status.h"

namespace gecko {

/// Operation counters maintained by the FTL (flash IO is counted by the
/// device's IoStats; these track logical events).
struct FtlCounters {
  uint64_t writes = 0;            // write extents serviced
  uint64_t reads = 0;             // read extents serviced
  uint64_t trims = 0;             // trim extents serviced
  uint64_t flushes = 0;           // kFlush requests serviced
  uint64_t batches = 0;           // multi-extent requests submitted
  uint64_t batched_pages = 0;     // extents carried by those requests
  uint64_t sync_ops = 0;          // translation-page synchronizations
  uint64_t aborted_sync_ops = 0;  // all-clean syncs skipped (Appendix C.3.1)
  uint64_t checkpoints = 0;       // runtime checkpoints taken (Section 4.3)
  uint64_t gc_collections = 0;    // blocks collected by GC
  uint64_t gc_migrations = 0;     // live pages moved by GC
  /// GC migrations whose survivor landed one temperature class colder
  /// than its victim (hot/cold stream separation; 0 with one class).
  uint64_t gc_demotions = 0;
  uint64_t uip_detections = 0;    // invalid pages caught by the GC UIP check
  uint64_t cache_hits = 0;        // mapping-cache hits
  uint64_t cache_misses = 0;      // mapping-cache misses (all of them)
  /// Breakdown of cache_misses by how the mapping was obtained:
  ///   miss_fetches — misses that performed (or triggered) a translation-
  ///                  page flash read: the first miss of each
  ///                  translation-page group in a batched read, the miss
  ///                  that launches an async fetch, and immediate-mode
  ///                  write-miss lookups;
  ///   miss_joins   — coalesced misses that rode an existing fetch: later
  ///                  misses of the same group in a batched read, and
  ///                  extents parked onto an already-in-flight async
  ///                  fetch of their translation page.
  /// Lazy-mode write misses fetch nothing and count in neither bucket, so
  /// cache_misses >= miss_fetches + miss_joins always holds (with
  /// equality on read-only workloads).
  uint64_t miss_fetches = 0;
  uint64_t miss_joins = 0;
  uint64_t remapped_programs = 0;  // failed programs re-placed transparently
  uint64_t grown_bad_blocks = 0;   // blocks retired since the device shipped
  uint64_t degraded_mode = 0;      // 1 while the FTL is in read-only mode

  /// Folds another instance's counters into these (shard aggregation).
  void Merge(const FtlCounters& other);
};

/// Every FtlCounters field once, in declaration order: its name and how
/// instances merge it. Printers, aggregators and tests iterate this list,
/// so no field can go missing from any of them.
struct FtlCounterField {
  const char* name;
  uint64_t FtlCounters::*member;
  bool merges_as_max;  // a per-instance flag (else counts add)
};
inline constexpr FtlCounterField kFtlCounterFields[] = {
    {"writes", &FtlCounters::writes, false},
    {"reads", &FtlCounters::reads, false},
    {"trims", &FtlCounters::trims, false},
    {"flushes", &FtlCounters::flushes, false},
    {"batches", &FtlCounters::batches, false},
    {"batched_pages", &FtlCounters::batched_pages, false},
    {"sync_ops", &FtlCounters::sync_ops, false},
    {"aborted_sync_ops", &FtlCounters::aborted_sync_ops, false},
    {"checkpoints", &FtlCounters::checkpoints, false},
    {"gc_collections", &FtlCounters::gc_collections, false},
    {"gc_migrations", &FtlCounters::gc_migrations, false},
    {"gc_demotions", &FtlCounters::gc_demotions, false},
    {"uip_detections", &FtlCounters::uip_detections, false},
    {"cache_hits", &FtlCounters::cache_hits, false},
    {"cache_misses", &FtlCounters::cache_misses, false},
    {"miss_fetches", &FtlCounters::miss_fetches, false},
    {"miss_joins", &FtlCounters::miss_joins, false},
    {"remapped_programs", &FtlCounters::remapped_programs, false},
    {"grown_bad_blocks", &FtlCounters::grown_bad_blocks, false},
    {"degraded_mode", &FtlCounters::degraded_mode, true},
};
static_assert(sizeof(kFtlCounterFields) / sizeof(kFtlCounterFields[0]) *
                      sizeof(uint64_t) ==
                  sizeof(FtlCounters),
              "every FtlCounters field needs a kFtlCounterFields entry");

inline void FtlCounters::Merge(const FtlCounters& other) {
  for (const FtlCounterField& f : kFtlCounterFields) {
    uint64_t& mine = this->*f.member;
    const uint64_t theirs = other.*f.member;
    mine = f.merges_as_max ? std::max(mine, theirs) : mine + theirs;
  }
}

/// Device-time timeline of one completed async request, delivered to its
/// completion callback alongside the per-extent result.
struct AsyncCompletion {
  double submit_us = 0;    // device clock at admission
  double complete_us = 0;  // completion of the request's last flash op
  uint64_t flash_ops = 0;  // flash ops the request dispatched (0 possible)
};

/// Completion callback of an async request, fired from Poll()/DrainAsync()
/// in device-time completion order. For requests aborted by a power
/// failure the result's status is kAborted and `done.complete_us` is 0
/// (there is no meaningful completion time). Callbacks may submit new
/// requests (closed-loop hosts), except from an abort delivery.
using CompletionCb = std::function<void(const IoResult& result,
                                        const AsyncCompletion& done)>;

/// Block-device-like interface every FTL implements.
class Ftl {
 public:
  virtual ~Ftl() = default;

  /// Services one batched scatter-gather request. Returns OK when the
  /// request was executed (even if individual extents failed — those
  /// outcomes are in result->extent_status, parallel to the extents); a
  /// non-OK return means the request was malformed and nothing happened.
  /// Per-extent statuses: OK on success; InvalidArgument for an lpn
  /// beyond logical capacity (that extent is skipped); NotFound for a
  /// read of a never-written or trimmed page. `result` may be null for
  /// fire-and-forget writes/trims.
  virtual Status Submit(IoRequest& request, IoResult* result) = 0;

  // --- Asynchronous submission/completion --------------------------------
  // NVMe-style queue-depth semantics: SubmitAsync admits a request and
  // returns immediately; up to FtlConfig::async_queue_depth requests may
  // be in flight at once, overlapping across channels (requests that
  // conflict — same-LPN RAW/WAW, same translation-page commit — serialize
  // on per-key waiting lists). Completions are harvested by Poll() /
  // DrainAsync(), which fire callbacks in device-time completion order.
  // The synchronous Submit() above is a thin wrapper: submit-async +
  // drain-to-completion.

  /// Admits one request into the host submission queue. Returns OK when
  /// admitted (the callback will fire exactly once, from a later Poll/
  /// DrainAsync); kQueueFull when the in-flight cap is reached — the
  /// request is NOT consumed then and may be resubmitted after draining;
  /// InvalidArgument for a malformed request (no admission, no callback).
  /// `on_complete` may be empty for fire-and-forget submission.
  virtual Status SubmitAsync(IoRequest&& request, CompletionCb on_complete) = 0;

  /// Reactor tick: retires channel ops due at the current device clock
  /// and fires the completion callbacks of every in-flight request whose
  /// device-time completion has been reached, dispatching any requests
  /// their completion unblocks. Returns the number of callbacks fired.
  virtual uint64_t Poll() = 0;

  /// Runs the reactor until no request is in flight (the synchronous
  /// barrier behind Submit and Flush). Returns callbacks fired.
  virtual uint64_t DrainAsync() = 0;

  /// Requests admitted and not yet completed.
  virtual uint32_t InFlightRequests() const = 0;

  /// Device time at which the earliest in-flight dispatched request
  /// completes — the next instant Poll() has work to do. +infinity when
  /// nothing is in flight. Open-loop drivers advance the device clock to
  /// this point between arrivals.
  virtual double NextCompletionUs() const {
    return std::numeric_limits<double>::infinity();
  }

  // --- Single-page compatibility layer, re-expressed over Submit() -----
  // Each wrapper submits a one-extent request and folds the per-extent
  // status into its return value (FirstError), so callers see one Status.

  /// Writes `payload` to logical page `lpn` (out of place). OK on
  /// success; InvalidArgument if `lpn` is beyond logical capacity.
  Status Write(Lpn lpn, uint64_t payload) {
    IoRequest request = IoRequest::Write({IoExtent{lpn, payload}});
    IoResult result;
    Status s = Submit(request, &result);
    return s.ok() ? result.FirstError() : s;
  }

  /// Reads logical page `lpn` into `*payload`. OK on success; NotFound
  /// if the page was never written or was trimmed (`*payload` is left
  /// untouched then); InvalidArgument if `lpn` is out of range.
  Status Read(Lpn lpn, uint64_t* payload) {
    IoRequest request = IoRequest::Read({lpn});
    IoResult result;
    Status s = Submit(request, &result);
    if (!s.ok()) return s;
    if (result.AllOk() && !result.payloads.empty()) {
      *payload = result.payloads[0];
    }
    return result.FirstError();
  }

  /// Discards logical page `lpn`: later reads return NotFound, the old
  /// data feeds GC, and the discard survives power failure (tombstone).
  /// Trimming a never-written page is an idempotent no-op returning OK.
  Status Trim(Lpn lpn) {
    IoRequest request = IoRequest::Trim({lpn});
    IoResult result;
    Status s = Submit(request, &result);
    return s.ok() ? result.FirstError() : s;
  }

  /// Makes all volatile FTL state durable (dirty mapping entries,
  /// store-specific buffers). Always OK on a well-formed FTL.
  Status Flush() {
    IoRequest request = IoRequest::Flush();
    return Submit(request, nullptr);
  }

  /// Simulates a power failure (all RAM-resident state is lost) followed
  /// by the FTL's recovery algorithm. Returns the per-step cost report.
  virtual RecoveryReport CrashAndRecover() = 0;

  /// Integrated-RAM footprint of all RAM-resident structures, in bytes.
  virtual uint64_t RamBytes() const = 0;

  /// Forces one full garbage-collection cycle (tests and benchmarks),
  /// resuming a mid-flight incremental collection if one exists. Returns
  /// false when nothing was collectable (every non-free block active,
  /// pinned or all-live); callers that depend on a collection having
  /// happened must check the result.
  virtual bool ForceGc() = 0;

  /// One background-maintenance tick: the host is idle, so the FTL may run
  /// bounded incremental GC steps, flush volatile metadata, and do other
  /// housekeeping (ftl/gc_engine.h). Returns the number of GC
  /// steps executed (0 = nothing needed doing). Simulation drivers call
  /// this during the idle phases of a bursty workload.
  virtual uint64_t IdleTick() { return 0; }

  /// Logical-operation counters (flash IO lives in the device's IoStats).
  virtual const FtlCounters& counters() const = 0;

  /// Whether the FTL is in sticky read-only degraded mode: grown bad
  /// blocks ate the spare capacity GC needs, so writes and trims return
  /// kOutOfSpace while reads and flush keep working. Sharded front ends
  /// report true when ANY shard has degraded (each shard degrades — and
  /// fails its writes — independently, without stalling its siblings).
  virtual bool IsDegraded() const { return false; }

  /// Short display name ("GeckoFTL", "DFTL", ...). Never null.
  virtual const char* Name() const = 0;
};

}  // namespace gecko

#endif  // GECKOFTL_FTL_FTL_H_
