// Sharded multi-threaded FTL front end: shared-nothing LPN shards with
// MPSC submission queues and per-shard worker threads.
//
// The LPN space is striped across N shards (ftl/shard_router.h). Each
// shard owns a PRIVATE world: its own FlashDevice slice (1/N of the
// blocks and channels, so block-manager state and channel clocks are
// never shared), its own inner Ftl instance (own mapping-cache segment,
// GC state, maintenance scheduler), and one dedicated worker thread that
// drains the shard's MPSC submission queue (util/mpsc_queue.h) in FIFO
// order. No FTL or device state is ever touched by two threads — the
// SPDK reactor / LFTL partitioned-queue idiom: threads exchange
// messages, never locks.
//
// Request flow: a submitter thread calls SubmitAsync (any number of
// submitters may do so concurrently). It takes a pooled request record,
// the router splits the request's extents into the record's sub-requests
// (at most one per touched shard), and the submitter pushes one queue
// message per sub. Each shard's worker executes its sub against the
// inner FTL and stamps the shard-local device time at which the sub
// started and finished; the LAST completing worker joins the per-extent
// statuses back into host order and fires the completion callback. kFlush
// fans out to every shard and the same join is the cross-shard barrier.
// Control operations (CrashAndRecover, ForceGc, IdleTick) broadcast a
// control message to every shard and block on a rendezvous until all
// workers have arrived.
//
// Ownership (docs/ARCHITECTURE.md walks it step by step): each request
// runs in a RequestState record from the front end's pool, which embeds
// one queue node (ShardMsg) per sub slot. The submitter owns the record
// until its pushes; a worker owns its sub's slots until its CompleteOne
// and must not touch its message or the record after it (both may be
// back in the pool and pushed again). The last completer joins, fires the
// callback and returns the record (async), or hands it back to the sync
// submitter, which copies the result out and returns it. Control and stop
// messages live on the broadcasting thread's stack until the rendezvous
// or the worker's join. A warm front end allocates nothing of its own.
//
// Memory-ordering conventions established here (everything later
// concurrency builds on):
//
//   Queue handoff   — everything a producer wrote before Push() is
//                     visible to the worker when WaitPop() returns the
//                     message (release store of the queue link, acquire
//                     on the consumer side; util/mpsc_queue.h).
//   Completion      — workers write disjoint sub_results slots; the
//   publication       per-request `remaining` counter is decremented
//                     with acq_rel, so the last decrementer (who runs
//                     the join) sees every other worker's writes, and
//                     the callback/semaphore hand the joined result to
//                     the host with the same edge.
//   Crash abort     — the host sets each shard's `aborting` flag
//                     (release) before pushing the kCrash message;
//                     workers load it with acquire per sub, so every
//                     queued sub between the flag and the kCrash
//                     message aborts exactly once with kAborted.
//   Stats           — per-shard counters/IoStats are only written by
//   aggregation       their worker; counters() and RamBytes() are
//                     valid only at quiescence (no request in flight).
//                     A sync Submit's return happens-after its join (the
//                     semaphore); DrainAsync's return happens-after every
//                     worker write, because each completion decrements
//                     `inflight_` with acq_rel after its writes (a
//                     release sequence) and DrainAsync waits on it with
//                     an acquire load until it reads zero.
//
// Deviations from the single-threaded Ftl contract (documented, tested):
//   - Completion callbacks fire on WORKER threads, not from Poll();
//     Poll() just reports how many fired since the last Poll().
//   - Each shard's device clock advances independently; aggregate
//     elapsed time is the max across shards (the slowest shard's
//     timeline).
//
// With num_shards == 1 the router is the identity map, the single shard
// owns the whole device, and every request executes exactly as the
// unsharded FTL would — bit-identical results, counters, and recovery
// (the shadow-equivalence test in tests/ftl/sharded_ftl_test.cc).

#ifndef GECKOFTL_FTL_SHARDED_FTL_H_
#define GECKOFTL_FTL_SHARDED_FTL_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <semaphore>
#include <string>
#include <thread>
#include <vector>

#include "flash/flash_device.h"
#include "flash/geometry.h"
#include "flash/io_stats.h"
#include "ftl/ftl.h"
#include "ftl/ftl_config.h"
#include "ftl/shard_router.h"
#include "util/mpsc_queue.h"
#include "util/pool.h"

namespace gecko {

/// Builds one shard's inner FTL over that shard's private device slice.
/// Called once per shard at construction (e.g. wraps MakeFtl or a
/// concrete FTL's constructor with a per-shard FtlConfig).
using FtlFactory =
    std::function<std::unique_ptr<Ftl>(FlashDevice* device,
                                       const FtlConfig& config)>;

struct ShardedFtlOptions {
  /// TOTAL device geometry; it is sliced into num_shards equal slices
  /// (num_blocks must divide evenly; channels divide when
  /// num_shards <= num_channels, else each shard gets one channel).
  Geometry geometry;
  uint32_t num_shards = 4;
  /// PER-SHARD FTL configuration. The caller divides global budgets
  /// (e.g. cache_capacity) across shards; this is applied to each. The
  /// front end's async in-flight cap (kQueueFull past it) is
  /// num_shards * config.async_queue_depth.
  FtlConfig config;
  /// Latency model shared by every shard's device slice.
  LatencyModel latency;
  /// Media-fault plane applied to every shard's device slice. Each shard
  /// gets its own FaultModel seeded with `faults.seed + shard_index`, so
  /// fault sequences are uncorrelated across shards while one seed still
  /// reproduces the whole run. Default: perfect medium (with faults
  /// disabled, num_shards == 1 stays bit-identical to the unsharded FTL).
  FaultConfig faults;
};

/// Aggregated front-end statistics (all counters are cumulative).
struct ShardedFtlStats {
  uint64_t requests = 0;             // host requests admitted (sync + async)
  uint64_t sub_requests = 0;         // per-shard subs fanned out
  uint64_t completed_requests = 0;   // host completions fired
  uint64_t aborted_requests = 0;     // completions with >=1 aborted sub
  uint64_t aborted_sub_requests = 0; // subs aborted by a crash
  uint64_t flush_barriers = 0;       // kFlush fan-outs
  uint64_t queue_full_rejections = 0;
  uint64_t control_broadcasts = 0;   // crash / force-gc / idle-tick rounds
};

class ShardedFtl : public Ftl {
 public:
  /// Spins up num_shards worker threads, each owning one device slice
  /// and one inner FTL built by `factory`.
  ShardedFtl(const ShardedFtlOptions& options, FtlFactory factory);

  /// Drains in-flight requests, stops and joins every worker.
  ~ShardedFtl() override;

  ShardedFtl(const ShardedFtl&) = delete;
  ShardedFtl& operator=(const ShardedFtl&) = delete;

  // --- Ftl interface -----------------------------------------------------

  /// Synchronous submission: fans out, blocks until the join completes.
  /// Callable from any thread, concurrently with other submitters.
  Status Submit(IoRequest& request, IoResult* result) override;

  /// Asynchronous submission: fans out and returns. The callback fires
  /// exactly once, on the worker thread that completes the last sub. The
  /// request's submit_us is the earliest shard clock at which one of its
  /// subs started executing.
  Status SubmitAsync(IoRequest&& request, CompletionCb on_complete) override;

  /// Arrival-stamped async submission for open-loop drivers: each
  /// shard's worker advances its device clock to at least `arrival_us`
  /// before executing its sub, so per-thread arrival processes measure
  /// queueing honestly against the simulated device timeline. The
  /// request's submit_us is `arrival_us`.
  Status SubmitAsyncAt(IoRequest&& request, double arrival_us,
                       CompletionCb on_complete);

  /// Completions since the last Poll() (they fire on worker threads;
  /// this only reports the count — see the header comment).
  uint64_t Poll() override;

  /// Blocks until no request is in flight. Returns completions
  /// harvested (as Poll would have).
  uint64_t DrainAsync() override;

  uint32_t InFlightRequests() const override;

  /// Crash on every shard: queued subs abort with kAborted (exactly
  /// once each), then each shard recovers its private world; reports
  /// are merged step-wise. Serialized against other control broadcasts.
  RecoveryReport CrashAndRecover() override;

  /// Sum of the shards' integrated-RAM footprints (quiescence only).
  uint64_t RamBytes() const override;

  /// Broadcasts one forced GC cycle to every shard; true iff every
  /// shard ran one.
  bool ForceGc() override;

  /// Broadcasts one maintenance tick to every shard; sums GC steps.
  uint64_t IdleTick() override;

  /// Merged inner-FTL counters (quiescence only). With num_shards == 1
  /// this is exactly the inner FTL's counters.
  const FtlCounters& counters() const override;

  /// True when ANY shard is in sticky read-only degraded mode (quiescence
  /// only, like counters()). A degraded shard fails its own writes with
  /// kOutOfSpace while sibling shards keep serving theirs — the per-extent
  /// statuses carry the degradation to the host without stalling anyone;
  /// reads work everywhere.
  bool IsDegraded() const override;

  const char* Name() const override;

  // --- Sharded introspection (quiescence only, like counters()) ---------

  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }
  const ShardMap& shard_map() const { return router_.map(); }
  Ftl& shard_ftl(uint32_t s) { return *shards_[s]->ftl; }
  const Ftl& shard_ftl(uint32_t s) const { return *shards_[s]->ftl; }
  FlashDevice& shard_device(uint32_t s) { return *shards_[s]->device; }
  const FlashDevice& shard_device(uint32_t s) const {
    return *shards_[s]->device;
  }

  /// Front-end counters snapshot.
  ShardedFtlStats stats() const;

  /// The geometry slice shard `s` of `num_shards` receives (exposed for
  /// tests and for callers sizing per-shard configs).
  static Geometry ShardGeometry(const Geometry& total, uint32_t num_shards);

 private:
  /// Cross-shard control rendezvous: the host blocks until every worker
  /// has arrived with its slot's result.
  struct ControlRendezvous {
    std::mutex mu;
    std::condition_variable cv;
    uint32_t pending = 0;
    std::vector<RecoveryReport> reports;
    std::vector<uint64_t> values;

    void Arrive() {
      std::lock_guard<std::mutex> lock(mu);
      if (--pending == 0) cv.notify_all();
    }
    void Wait() {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [this] { return pending == 0; });
    }
  };

  enum class ControlOp : uint8_t { kCrash, kForceGc, kIdleTick };

  struct RequestState;

  /// One queue message (an intrusive node; see "Ownership" above). kSub
  /// carries (request, sub index); kControl carries the rendezvous; kStop
  /// ends the worker loop.
  struct ShardMsg : MpscNode {
    enum class Kind : uint8_t { kStop = 0, kSub, kControl };
    Kind kind = Kind::kStop;
    RequestState* request = nullptr;
    uint32_t index = 0;  // sub slot (kSub) or shard slot (kControl)
    double arrival_us = 0;
    ControlOp control = ControlOp::kCrash;
    ControlRendezvous* rendezvous = nullptr;
  };

  /// One shard's private world. Only its worker thread ever touches
  /// `device`, `ftl`, or the executed/aborted counters.
  struct Shard {
    std::unique_ptr<FlashDevice> device;
    std::unique_ptr<Ftl> ftl;
    LockFreeMpscQueue queue;
    std::atomic<bool> aborting{false};
    std::thread worker;
    uint64_t subs_executed = 0;  // worker-private
    uint64_t subs_aborted = 0;   // worker-private
  };

  /// `arrival_us` is empty for requests submitted without an arrival
  /// stamp (Submit, SubmitAsync).
  Status SubmitInternal(IoRequest& request, CompletionCb on_complete,
                        bool sync, std::optional<double> arrival_us,
                        IoResult* sync_result);
  /// Takes a record from the pool (growing it only when none is free)
  /// and gives it one slot per shard on its first use.
  RequestState* AcquireState();
  /// Drops the record's callback and returns it to the pool.
  void ReleaseState(RequestState* state);
  void WorkerLoop(uint32_t shard_index);
  void ExecuteSub(Shard& shard, const ShardMsg& msg);
  void HandleControl(Shard& shard, const ShardMsg& msg);
  /// Decrements `remaining`; the last completer joins, fires the callback
  /// and returns the record (async), or releases the sync semaphore.
  void CompleteOne(RequestState* state);
  /// Broadcasts `op` to every shard and waits for the rendezvous.
  void Broadcast(ControlOp op, ControlRendezvous* rendezvous);

  ShardRouter router_;
  std::vector<std::unique_ptr<Shard>> shards_;
  const uint32_t max_inflight_;
  std::string name_;

  /// Admitted and not yet completed; DrainAsync waits on it.
  std::atomic<uint32_t> inflight_{0};
  std::atomic<uint64_t> unreported_completions_{0};
  /// Guards `pool_`: submitters take records, joiners return them.
  std::mutex pool_mu_;
  Pool<RequestState> pool_;
  /// Serializes control broadcasts (crash, force-gc, idle-tick) against
  /// each other; never held while executing IO.
  std::mutex control_mu_;

  // Front-end stats (atomics: submitters and workers both bump them).
  std::atomic<uint64_t> stat_requests_{0};
  std::atomic<uint64_t> stat_sub_requests_{0};
  std::atomic<uint64_t> stat_completed_{0};
  std::atomic<uint64_t> stat_aborted_requests_{0};
  std::atomic<uint64_t> stat_aborted_subs_{0};
  std::atomic<uint64_t> stat_flush_barriers_{0};
  std::atomic<uint64_t> stat_queue_full_{0};
  std::atomic<uint64_t> stat_control_broadcasts_{0};

  /// Scratch for counters(): merged at each call, valid at quiescence.
  mutable FtlCounters merged_counters_;
};

}  // namespace gecko

#endif  // GECKOFTL_FTL_SHARDED_FTL_H_
