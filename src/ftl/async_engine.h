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
// with per-key FIFO claim lists in one flat open-addressing lock table. The
// host computes each request's dependency keys (it knows LPN->translation-
// page geometry and the cache state); the engine only runs the lock table:
// a request dispatches when every key it claims is compatible with every
// earlier claim, and completions re-scan parked requests in admission
// order. Keys are claimed all-at-once at admission in seq order, so the
// wait-for graph is acyclic and progress is guaranteed (the earliest
// in-flight request is always dispatched). Requests and fetches live in
// reused records and the table's buckets keep their capacity, so a warm
// engine allocates nothing per request.

#ifndef GECKOFTL_FTL_ASYNC_ENGINE_H_
#define GECKOFTL_FTL_ASYNC_ENGINE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <vector>

#include "flash/flash_device.h"
#include "ftl/ftl.h"
#include "util/pool.h"

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

  /// Appends to `keys` (empty on entry) the dependency keys `request`
  /// must hold while in flight. Called once at admission; every non-flush
  /// request should include a shared kGlobal key so flushes act as full
  /// barriers.
  virtual void DependencyKeys(const IoRequest& request,
                              std::vector<DepKey>* keys) = 0;
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

  /// See Ftl::SubmitAsync. The request's extents are copied into the
  /// slot's retained storage, so the caller keeps the request.
  Status Submit(const IoRequest& request, CompletionCb on_complete);

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

  uint32_t in_flight() const { return in_flight_; }
  /// Device time of the earliest pending engine event — a dispatched
  /// request's completion or an in-flight translation fetch whose parked
  /// extents must be replayed (+infinity when neither is pending).
  double NextCompletionUs() const;

  /// Translation fetches currently in flight (waiting-list entries).
  /// Tests assert this drains to zero after DrainAll/AbortAll.
  uint32_t ongoing_fetch_count() const {
    return static_cast<uint32_t>(fetch_heap_.size());
  }

  uint32_t queue_depth() const { return queue_depth_; }
  const AsyncEngineStats& stats() const { return stats_; }

  /// Structural validation, shared with the sharded front end (which
  /// rejects a malformed request before fanning it out): flushes carry no
  /// extents; everything else carries at least one.
  static Status Validate(const IoRequest& request);

 private:
  static constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

  /// A request's claim on the global key (kept out of the table).
  enum class Global : uint8_t { kNone, kShared, kExclusive };

  /// One request, in a pooled slot; the in-flight ones are linked in
  /// admission order.
  struct Slot {
    uint64_t seq = 0;
    IoRequest request;
    CompletionCb on_complete;
    IoResult result;
    std::vector<DepKey> keys;  // LPN and translation-page keys
    Global global = Global::kNone;
    RequestClass cls = RequestClass::kWrite;
    double submit_us = 0;
    double complete_us = 0;
    uint64_t flash_ops = 0;
    bool dispatched = false;
    /// Extents parked on translation fetches and not yet replayed. The
    /// request enters the completion heap only when this reaches zero.
    uint32_t unresolved = 0;
    uint32_t prev = kNone;
    uint32_t next = kNone;
  };

  /// An extent parked on a fetch; `seq` checks that `slot` still holds
  /// the request that parked it.
  struct Waiter {
    uint64_t seq = 0;
    uint32_t slot = kNone;
    size_t extent = 0;    // parked extent within the request
    double park_us = 0;   // device clock at parking (stall accounting)
  };
  /// One in-flight translation-page fetch and the extents parked on it —
  /// the `ongoing_mapping_operations` entry of the EagleTree DFTL
  /// scheduler.
  struct Fetch {
    uint64_t tpage = 0;
    std::vector<Waiter> waiters;
  };

  /// A due-time event, ordered on (us, order): `order` is the request's
  /// seq or the fetch's tpage, `index` its slot or fetch record.
  struct Event {
    double us = 0;
    uint64_t order = 0;
    uint32_t index = kNone;
    bool operator>(const Event& o) const {
      return us != o.us ? us > o.us : order > o.order;
    }
  };
  using EventHeap =
      std::priority_queue<Event, std::vector<Event>, std::greater<Event>>;

  struct Claim {
    uint64_t seq;
    bool exclusive;
  };
  /// A lock-table bucket; a freed one keeps its claim list's capacity.
  struct Bucket {
    uint64_t id = 0;
    DepKey::Space space = DepKey::Space::kLpn;
    bool used = false;
    std::vector<Claim> claims;
  };

  /// Whether every key of slot `s` is compatible with all earlier claims.
  bool Grantable(uint32_t s) const;
  void ClaimKeys(Slot& r);
  void ReleaseKeys(const Slot& r);

  // The lock table: open addressing on (space, id), at most half full.
  // Probe returns the key's bucket or the empty one where it would go.
  uint32_t Home(DepKey::Space space, uint64_t id) const;
  uint32_t Probe(const DepKey& key) const;
  void EraseBucket(uint32_t hole);  // backward shift, no tombstones
  void ResizeTable(size_t buckets);

  /// Moves slot `s` from the admission list to `held_`: in_flight()
  /// drops, and the slot stays out of the pool until FreeSlot.
  void Unlink(uint32_t s);
  void FreeSlot(uint32_t s);
  void FreeFetch(uint32_t f);
  /// With nothing in flight: no claim, fetch or event left, no slot lost.
  void CheckQuiescent() const;

  /// Services slot `s` through the host inside the engine window,
  /// capturing its device-time completion via the op scope; extents the
  /// host parked in the miss sink wait on their translation page's fetch.
  void Dispatch(uint32_t s);
  /// Parks slot `s`'s missed extents onto their translation-page fetches.
  void ParkMisses(uint32_t s);
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
  Pool<Slot> slots_;
  uint32_t head_ = kNone;  // oldest in-flight request
  uint32_t tail_ = kNone;
  uint32_t in_flight_ = 0;
  uint32_t parked_ = 0;  // in flight and not yet dispatched
  /// Out of the admission list but not yet back in the pool: their
  /// callbacks are running or about to.
  uint32_t held_ = 0;
  std::vector<Bucket> table_;
  uint32_t table_used_ = 0;
  uint32_t table_shift_ = 0;
  uint32_t flushes_ = 0;  // in flight holding the exclusive global key
  /// Pending dispatched completions: min-heap on (complete_us, seq).
  EventHeap completion_heap_;
  Pool<Fetch> fetches_;
  /// The in-flight fetch of each translation page (kNone: none), grown to
  /// the highest page fetched: at most one fetch per translation page is
  /// outstanding; later misses join its waiters.
  std::vector<uint32_t> fetch_of_tpage_;
  /// Due-fetch events, one per in-flight fetch: min-heap on (complete_us,
  /// tpage).
  EventHeap fetch_heap_;
  /// Reused by every dispatch.
  MissSink sink_;
  /// Whether the engine holds its long-lived device batch window open.
  bool pipeline_open_ = false;
  AsyncEngineStats stats_;
};

}  // namespace gecko

#endif  // GECKOFTL_FTL_ASYNC_ENGINE_H_
