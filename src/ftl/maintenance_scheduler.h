// The maintenance plane: incremental background/foreground scheduling of
// garbage collection and the FTL's periodic housekeeping.
//
// GeckoFTL's scaling argument (and the companion GC paper's) is that at
// very-large-device scale the dominant costs are metadata maintenance and
// garbage collection — and that *when* that work runs determines tail
// latency. This module separates the decision of when maintenance runs
// from the mechanics of running it:
//
//   - BaseFtl exposes the mechanics as a resumable GC state machine
//     (select victim -> migrate K pages -> flush grouped invalidations ->
//     erase), surfaced to the scheduler through the MaintenanceHost
//     interface. Every step leaves the device in a crash-consistent state:
//     migrated copies are ordinary out-of-place writes covered by the
//     regular recovery paths, and the store's erase record is written in
//     the same step as the physical erase.
//
//   - MaintenanceScheduler decides when steps run. Background ticks
//     (host-idle time) collect while the pool sits below the soft
//     watermark, preferring victims on idle channels. Below the hard
//     watermark, user writes pay bounded GC steps via write-credit
//     throttling. Only below the emergency floor does the legacy
//     stop-the-world loop run — the backstop that makes pool exhaustion
//     impossible.
//
// The scheduler also owns the FTL's periodic work: the checkpoint cadence
// (Section 4.3), idle-time volatile-metadata flushes (the Logarithmic
// Gecko buffer hook), and the wear-leveler's gradual scan feed
// (Appendix D).

#ifndef GECKOFTL_FTL_MAINTENANCE_SCHEDULER_H_
#define GECKOFTL_FTL_MAINTENANCE_SCHEDULER_H_

#include <cstdint>

#include "ftl/ftl_config.h"

namespace gecko {

/// Phase of the resumable GC state machine. Crash injection in the tests
/// interrupts at every phase boundary; recovery must be correct from all
/// of them.
enum class GcPhase : uint8_t {
  kIdle = 0,  // no collection in flight
  kMigrate,   // victim selected and queried; live pages moving off it
  kFlush,     // migrations done; grouped invalidation reports flushing
  kErase,     // reports flushed; erase record + physical erase pending
};

/// What one GC step accomplished.
struct GcStepOutcome {
  bool advanced = false;    // the state machine made progress
  bool erased = false;      // a collection completed (a block was freed)
  uint32_t migrations = 0;  // live pages migrated by this step
};

/// The mechanics the scheduler drives, implemented by BaseFtl.
class MaintenanceHost {
 public:
  virtual ~MaintenanceHost() = default;

  /// Current free-block pool size.
  virtual uint32_t FreeBlocks() const = 0;

  /// Whether a collection is mid-flight (GcPhase != kIdle).
  virtual bool GcInFlight() const = 0;

  /// Advances the GC state machine by one step, migrating at most
  /// `max_migrations` live pages. Returns what happened; !advanced means
  /// the machine refused (re-entrant call).
  virtual GcStepOutcome GcStep(uint32_t max_migrations) = 0;

  /// Synchronizes stale dirty cache entries (the Section 4.3 checkpoint).
  virtual void TakeCheckpoint() = 0;

  /// Flushes store-specific volatile state (the Gecko buffer hook).
  virtual void FlushVolatileMetadata() = 0;

  /// Advances the wear-leveler's gradual scan by one block, collecting the
  /// discovered victim if any. Returns whether a victim was collected.
  virtual bool WearScanStep() = 0;

  /// Device size, for the GC livelock bound.
  virtual uint32_t DeviceBlocks() const = 0;

  /// GC can no longer reclaim space: the pool is below the emergency
  /// floor and either no victim exists or collections stopped netting
  /// blocks (grown bad blocks ate the spare capacity). The host enters
  /// sticky read-only degraded mode instead of crashing.
  virtual void OnSpaceExhausted() = 0;
};

/// Counters describing what the maintenance plane has done. Exposed to
/// tests and benches through BaseFtl::maintenance().
struct MaintenanceStats {
  uint64_t idle_ticks = 0;            // IdleTick calls
  uint64_t background_steps = 0;      // GC steps run on idle ticks
  uint64_t throttled_steps = 0;       // GC steps paid by throttled writes
  uint64_t throttle_engagements = 0;  // writes that entered the band
  uint64_t emergency_stalls = 0;      // writes that hit the floor backstop
  uint64_t collections_completed = 0; // blocks freed through the scheduler
  uint64_t idle_flushes = 0;          // volatile-metadata flushes on idle
  uint64_t idle_checkpoints = 0;      // checkpoints taken early on idle
  uint64_t wear_scans = 0;            // wear scan steps fed
  uint64_t wear_collections = 0;      // wear-leveling victims collected
};

class MaintenanceScheduler {
 public:
  /// Takes the watermark ladder from `config` (see MaintenanceConfig),
  /// clamped so that soft >= hard >= the emergency floor.
  MaintenanceScheduler(MaintenanceHost* host, const FtlConfig& config);

  /// GC admission on the user write path, called before a data-page
  /// allocation: throttled incremental steps below the hard watermark,
  /// the run-to-completion backstop below the emergency floor. With an
  /// empty throttle band (hard watermark at the floor) this is
  /// behaviourally identical to the classic inline EnsureFreeSpace.
  void BeforeUserWrite();

  /// Periodic-work feed after a user data write: advances the wear
  /// leveler's gradual scan (one block per write, Appendix D).
  void AfterUserWrite();

  /// Checkpoint cadence: counts one cache insert/update and returns true
  /// when the host should take a checkpoint now (Section 4.3).
  bool OnCacheOp();

  /// One background tick (host-idle time): runs up to steps_per_tick GC
  /// steps while the pool is below the soft watermark or a collection is
  /// mid-flight, plus the periodic idle flush. Returns GC steps run.
  uint64_t IdleTick();

  /// Drops volatile pacing state after a power failure (credits, cadence
  /// counters). The in-flight GC cursor dies with the host's RAM.
  void ResetAfterCrash();

  /// Re-seeds the checkpoint cadence counter from the dirty backlog the
  /// recovery scan re-created. The counter itself is RAM state: if each
  /// crash reset it to zero, crashes arriving faster than the period
  /// would starve checkpoints forever while the dirty backlog (and the
  /// span of flash the recovery scan must cover) kept growing past the
  /// scan's budget — at which point mappings older than the coverage
  /// horizon are silently unrecoverable. Seeding with the backlog makes
  /// the next checkpoint arrive as if the crash never cleared the count.
  void SeedCheckpointBacklog(uint64_t backlog);

  const MaintenanceStats& stats() const { return stats_; }
  uint32_t emergency_floor() const { return floor_; }
  uint32_t hard_watermark() const { return hard_; }
  uint32_t soft_watermark() const { return soft_; }

 private:
  /// Legacy semantics: while the pool is below the floor, run whole
  /// collections inline (bounded by the livelock check).
  void CollectToFloor();

  MaintenanceHost* host_;
  MaintenanceConfig config_;
  uint32_t checkpoint_period_;
  uint32_t floor_;
  uint32_t hard_;
  uint32_t soft_;
  double credits_ = 0;
  uint64_t cache_ops_since_checkpoint_ = 0;
  uint64_t ticks_since_flush_ = 0;
  MaintenanceStats stats_;
};

}  // namespace gecko

#endif  // GECKOFTL_FTL_MAINTENANCE_SCHEDULER_H_
