// Host-side asynchronous submission/completion engine (the tentpole of
// ROADMAP item 1): NVMe-style queue-depth semantics over the channel-
// parallel flash backend.
//
// SubmitAsync admits a request and returns immediately; up to
// `queue_depth` requests may be in flight at once. Because the simulator
// is functionally synchronous (data effects commit at submission; the
// channel pipeline models *time*), a dispatched request's device-time
// completion is known the moment its last flash op is stamped — so the
// engine needs no per-op device callbacks: it services each request
// through the host's synchronous code inside a long-lived device batch
// window, brackets the servicing in a FlashDevice op scope to capture the
// request's completion time, and parks {complete_us, seq} on a min-heap.
// Poll() retires channel ops due at the current clock and fires callbacks
// in device-time completion order.
//
// Translation misses are asynchronous too: a read extent whose mapping
// missed the cache does not stall its request on the translation-page
// fetch. The host records it in a MissSink, the engine attaches it to the
// (single) in-flight fetch of its translation page — issuing the fetch if
// none is outstanding, coalescing onto it otherwise — and the rest of the
// request, plus every independent request, keeps dispatching across
// channels. When the device clock reaches the fetch's completion, the
// parked extents are replayed (cache populated once, data reads stamped
// at replay time) and the request completes only after its last replay.
// This is the `ongoing_mapping_operations` + waiting-IO-list structure of
// the EagleTree DFTL scheduler.
//
// Conflicting in-flight requests must not overlap: a write and a later
// read of the same LPN (RAW), two writes of one LPN (WAW), or two
// cache-overflowing batches committing the same translation page would
// otherwise interleave their metadata updates. The engine serializes them
// with per-key FIFO waiting lists. The
// host computes each request's dependency keys (it knows LPN->translation-
// page geometry and the cache state); the engine only runs the lock table:
// a request dispatches when every key it claims is compatible with every
// earlier claim, and completions re-scan parked requests in admission
// order. Keys are claimed all-at-once at admission in seq order, so the
// wait-for graph is acyclic and progress is guaranteed (the earliest
// in-flight request is always dispatched).

#ifndef GECKOFTL_FTL_ASYNC_ENGINE_H_
#define GECKOFTL_FTL_ASYNC_ENGINE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <queue>
#include <utility>
#include <vector>

#include "flash/flash_device.h"
#include "ftl/ftl.h"

namespace gecko {

/// One resource an in-flight request claims until it completes. Requests
/// whose key sets conflict (same space+id, at least one side exclusive)
/// serialize in admission order; compatible claims overlap.
struct DepKey {
  enum class Space : uint8_t {
    kLpn = 0,          // a logical page (writes/trims exclusive, reads shared)
    kTranslationPage,  // a translation page an eager commit will rewrite
    kGlobal,           // the whole device (flush barrier; others share it)
  };
  Space space = Space::kLpn;
  uint64_t id = 0;
  bool exclusive = true;

  static DepKey Global(bool exclusive) {
    return DepKey{Space::kGlobal, 0, exclusive};
  }
};

/// Filled by the host while executing a request on the engine path: read
/// extents whose mapping missed the cache and whose translation page must
/// be fetched from flash. Instead of stalling the whole request on the
/// fetch, the engine parks each such extent on its translation page's
/// waiting list (one in-flight fetch per tpage; concurrent misses
/// coalesce) and replays it when the fetch's device time is reached.
struct MissSink {
  struct ParkedMiss {
    uint64_t tpage = 0;  // translation page the extent's mapping lives on
    size_t extent = 0;   // index into request.extents / the result arrays
  };
  std::vector<ParkedMiss> parked;
};

/// What the engine needs from the FTL it runs inside.
class AsyncHost {
 public:
  virtual ~AsyncHost() = default;

  /// Services one well-formed request synchronously (the engine opens the
  /// batch window and the op scope around the call). When `miss_sink` is
  /// non-null the host may defer read extents whose mapping missed the
  /// cache by recording them in the sink instead of fetching inline; the
  /// engine later issues one coalesced fetch per translation page and
  /// replays each parked extent via ResolveParkedExtent.
  virtual void ExecuteRequest(IoRequest& request, IoResult* result,
                              MissSink* miss_sink) = 0;

  /// Issues the charged flash read of translation page `tpage` that a
  /// parked miss is waiting on. The engine brackets the call in its own
  /// op scope to learn the fetch's device-time completion.
  virtual void IssueMappingFetch(uint64_t tpage) = 0;

  /// Replays one parked extent after its translation-page fetch completed:
  /// resolves the mapping (cache first, then the now-fetched flash image),
  /// populates the cache, performs the data read, and finalizes
  /// `result->extent_status[extent]` / `result->payloads[extent]`.
  virtual void ResolveParkedExtent(IoRequest& request, IoResult* result,
                                   size_t extent) = 0;

  /// A parked extent joined an already-in-flight fetch of its translation
  /// page (the host counts the coalesced miss; the engine counts the
  /// IoStats side).
  virtual void NoteCoalescedMiss() = 0;

  /// The dependency keys `request` must hold while in flight. Called once
  /// at admission; every non-flush request should include a shared
  /// kGlobal key so flushes act as full barriers.
  virtual std::vector<DepKey> DependencyKeys(const IoRequest& request) = 0;
};

/// Engine-level event counters (tests assert on these; bench_qd_sweep
/// reports the host view from IoStats instead).
struct AsyncEngineStats {
  uint64_t admitted = 0;   // requests accepted into the queue
  uint64_t parked = 0;     // admissions that had to wait on a dependency
  uint64_t dispatched = 0; // requests serviced (parked ones count on release)
  uint64_t completed = 0;  // callbacks fired with a real completion
  uint64_t aborted = 0;    // in-flight requests killed by a power failure
  // Translation-miss pipeline (fetches issued and joined, and refused
  // admissions, count in the device's IoStats):
  uint64_t parked_extents = 0;   // extents parked on fetch waiting lists
  uint64_t replayed_extents = 0; // parked extents replayed after their fetch
  uint64_t aborted_parked_extents = 0;  // parked extents killed by a crash
};

class AsyncEngine {
 public:
  AsyncEngine(AsyncHost* host, FlashDevice* device, uint32_t queue_depth);

  /// See Ftl::SubmitAsync. On kQueueFull the request is left untouched.
  Status Submit(IoRequest&& request, CompletionCb on_complete);

  /// See Ftl::Poll.
  uint64_t Poll();

  /// See Ftl::DrainAsync. Runs the event loop — advance the clock to the
  /// next pending event (request completion or translation fetch), replay
  /// due fetches, fire due completions — until nothing is in flight, then
  /// closes the engine's batch window. Must not be called inside a
  /// caller-managed batch window.
  uint64_t DrainAll();

  /// Power-failure path: every in-flight request's callback fires with
  /// kAborted (dispatched requests' flash effects have landed — they are
  /// indeterminate to the host, like NVMe commands outstanding at reset;
  /// parked ones never executed), the engine window closes, and the queue
  /// empties. Returns the number of requests aborted.
  uint64_t AbortAll();

  uint32_t in_flight() const {
    return static_cast<uint32_t>(requests_.size());
  }
  /// Device time of the earliest pending engine event — a dispatched
  /// request's completion or an in-flight translation fetch whose parked
  /// extents must be replayed (+infinity when neither is pending).
  double NextCompletionUs() const;

  /// Translation fetches currently in flight (waiting-list entries).
  /// Tests assert this drains to zero after DrainAll/AbortAll.
  uint32_t ongoing_fetch_count() const {
    return static_cast<uint32_t>(ongoing_fetches_.size());
  }

  uint32_t queue_depth() const { return queue_depth_; }
  const AsyncEngineStats& stats() const { return stats_; }

  /// Structural validation, shared with the sharded front end (which
  /// rejects a malformed request before fanning it out): flushes carry no
  /// extents; everything else carries at least one.
  static Status Validate(const IoRequest& request);

 private:
  struct Inflight {
    uint64_t seq = 0;
    IoRequest request;
    CompletionCb on_complete;
    IoResult result;
    std::vector<DepKey> keys;
    RequestClass cls = RequestClass::kWrite;
    double submit_us = 0;
    double complete_us = 0;
    uint64_t flash_ops = 0;
    bool dispatched = false;
    /// Extents parked on translation fetches and not yet replayed. The
    /// request enters the completion heap only when this reaches zero.
    uint32_t unresolved = 0;
  };

  /// One in-flight translation-page fetch and the extents parked on it —
  /// the `ongoing_mapping_operations` map of the EagleTree DFTL scheduler.
  struct Waiter {
    uint64_t seq = 0;     // parked request
    size_t extent = 0;    // parked extent within it
    double park_us = 0;   // device clock at parking (stall accounting)
  };
  struct MappingFetch {
    double complete_us = 0;  // device time the fetch's flash read retires
    std::vector<Waiter> waiters;
  };

  /// A claim parked on one key's FIFO waiting list.
  struct Claim {
    uint64_t seq;
    bool exclusive;
  };
  using KeyId = std::pair<uint8_t, uint64_t>;  // (space, id)

  /// Whether every key of `r` is compatible with all earlier claims.
  bool Grantable(const Inflight& r) const;
  void ClaimKeys(const Inflight& r);
  void ReleaseKeys(const Inflight& r);

  /// Services `r` through the host inside the engine window, capturing
  /// its device-time completion via the op scope. Extents the host parked
  /// in the miss sink are attached to their translation page's fetch
  /// (issuing it if absent, coalescing otherwise) instead of completing.
  void Dispatch(Inflight& r);
  /// Parks `r`'s missed extents onto their translation-page fetches.
  void ParkMisses(Inflight& r, const MissSink& sink);
  /// Replays the parked extents of every fetch due at the current clock,
  /// moving fully-resolved requests onto the completion heap. Returns the
  /// number of fetches retired.
  uint64_t ProcessDueFetches();
  /// Dispatches, in admission order, every parked request whose keys
  /// became compatible.
  void DispatchGrantableParked();
  /// Fires callbacks of dispatched requests whose completion time has
  /// been reached by the device clock.
  uint64_t FireDueCompletions();

  AsyncHost* host_;
  FlashDevice* device_;
  uint32_t queue_depth_;
  uint64_t next_seq_ = 1;
  /// In-flight requests by admission seq (ordered: abort/park scans are
  /// deterministic).
  std::map<uint64_t, Inflight> requests_;
  std::map<KeyId, std::deque<Claim>> key_claims_;
  using EventHeap =
      std::priority_queue<std::pair<double, uint64_t>,
                          std::vector<std::pair<double, uint64_t>>,
                          std::greater<std::pair<double, uint64_t>>>;
  /// Pending dispatched completions: min-heap on (complete_us, seq).
  EventHeap completion_heap_;
  /// In-flight translation fetches keyed by tpage id: at most one fetch
  /// per translation page is outstanding; later misses join its waiters.
  std::map<uint64_t, MappingFetch> ongoing_fetches_;
  /// Due-fetch events: min-heap on (complete_us, tpage).
  EventHeap fetch_heap_;
  /// Whether the engine holds its long-lived device batch window open.
  bool pipeline_open_ = false;
  AsyncEngineStats stats_;
};

}  // namespace gecko

#endif  // GECKOFTL_FTL_ASYNC_ENGINE_H_
