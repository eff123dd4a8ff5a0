// Shared machinery of all page-associative FTLs in this repository.
//
// BaseFtl implements the DFTL-style translation scheme the paper adopts
// (Section 4): a flash-resident translation table with GMD, an LRU mapping
// cache with synchronization operations, a BVC, garbage collection with
// pluggable victim policy, checkpoints, dirty-entry caps, and power-failure
// recovery. The five FTLs differ in two choices (Section 5.3): the
// page-validity store a subclass hands to BaseFtl, and how dirty mapping
// entries survive power loss, which BaseFtl picks from the config:
//
//            validity store      dirty-entry recovery
//   GeckoFtl Logarithmic Gecko   checkpoint-bounded lazy scan (GeckoRec)
//   DftlFtl  RAM PVB             battery
//   LazyFtl  RAM PVB             dirty cap + sync-before-resume
//   MuFtl    flash PVB           battery
//   IbFtl    page-validity log   dirty cap + sync-before-resume

#ifndef GECKOFTL_FTL_BASE_FTL_H_
#define GECKOFTL_FTL_BASE_FTL_H_

#include <memory>
#include <vector>

#include "flash/flash_device.h"
#include "ftl/async_engine.h"
#include "ftl/block_manager.h"
#include "ftl/ftl.h"
#include "ftl/ftl_config.h"
#include "ftl/gc_victim_policy.h"
#include "ftl/hotness.h"
#include "ftl/maintenance_scheduler.h"
#include "ftl/mapping_cache.h"
#include "ftl/translation_table.h"
#include "ftl/wear_leveler.h"
#include "pvm/page_validity_store.h"

namespace gecko {

class BaseFtl : public Ftl, private MaintenanceHost, private AsyncHost {
 public:
  BaseFtl(FlashDevice* device, const FtlConfig& config);
  ~BaseFtl() override = default;

  /// Request-oriented entry point: a thin wrapper over the async path
  /// (submit-async + drain-to-completion), so a synchronous request gets
  /// the engine's batch window — its flash ops overlap across channels,
  /// completing in max-per-channel time. Must not be called inside a
  /// caller-managed batch window (the drain would close a window it does
  /// not own).
  Status Submit(IoRequest& request, IoResult* result) override;

  /// Async submission/completion (ftl/async_engine.h): admits up to
  /// FtlConfig::async_queue_depth requests, overlapping independent ones
  /// across channels while the dependency tracker serializes conflicting
  /// ones (same-LPN RAW/WAW, same eager translation-page commit, flush
  /// barriers).
  Status SubmitAsync(IoRequest&& request, CompletionCb on_complete) override {
    return engine_.Submit(std::move(request), std::move(on_complete));
  }
  uint64_t Poll() override { return engine_.Poll(); }
  uint64_t DrainAsync() override { return engine_.DrainAll(); }
  uint32_t InFlightRequests() const override { return engine_.in_flight(); }
  double NextCompletionUs() const override {
    return engine_.NextCompletionUs();
  }

  /// Engine introspection (admission/park/abort counters) for tests.
  const AsyncEngine& async_engine() const { return engine_; }

  RecoveryReport CrashAndRecover() override;
  uint64_t RamBytes() const override;
  /// Refreshes the fault-surface counters (remapped programs, grown bad
  /// blocks, degraded flag) from the device and block manager on read.
  const FtlCounters& counters() const override;

  /// Sticky read-only degraded mode (fault tolerance): entered when GC can
  /// no longer reclaim space below the emergency floor. Writes and trims
  /// return kOutOfSpace; reads and flush keep working. A power cycle
  /// clears the flag — if the retired blocks still leave no spare
  /// capacity, the first post-recovery write re-derives it.
  bool IsDegraded() const override { return degraded_; }

  FlashDevice& device() { return *device_; }
  const FtlConfig& config() const { return config_; }
  const MappingCache& cache() const { return cache_; }
  BlockManager& block_manager() { return blocks_; }
  TranslationTable& translation() { return translation_; }

  /// Identified-invalid count of a user block (the BVC of Figure 7).
  uint32_t InvalidCount(BlockId block) const { return bvc_[block]; }

  /// Forces one full GC collection cycle (tests/benchmarks), resuming the
  /// in-flight incremental collection if one exists. False (and a
  /// gc_force_skips count) when refused because GC was already executing.
  bool ForceGc() override;

  /// One background-maintenance tick inside its own device batch window;
  /// the window's makespan is recorded under RequestClass::kMaintenance.
  uint64_t IdleTick() override;

  /// The maintenance plane (watermarks, scheduling counters).
  const MaintenanceScheduler& maintenance() const { return scheduler_; }

  /// Phase of the resumable GC state machine (kIdle = no collection in
  /// flight). Tests use this to inject crashes at step boundaries.
  GcPhase gc_phase() const { return gc_.phase; }

  /// The active victim-selection policy object.
  const GcVictimPolicy& victim_policy() const { return *victim_policy_; }

  /// The write-temperature estimator (hot/cold stream separation).
  const HotnessEstimator& hotness() const { return hotness_; }

 protected:
  /// Store-specific RAM bytes beyond the common structures.
  virtual uint64_t PvmRamBytes() const { return store_->RamBytes(); }

  // --- Hooks for FTL-level recovery work a store cannot do --------------

  /// Called once the store has rebuilt itself from flash, before the BVC
  /// is counted from it: GeckoFTL re-derives its buffer (Appendix C.2),
  /// DFTL charges the battery read-back of its RAM PVB.
  virtual void OnStoreRecovered(RecoveryReport* report) { (void)report; }

  /// Called once dirty entries are recovered, before normal operation
  /// resumes: GeckoFTL persists what its buffer recovery re-derived,
  /// LazyFTL rebuilds its RAM PVB and the BVC from the translation table.
  virtual void OnRecoveryComplete(RecoveryReport* report) { (void)report; }

  /// Subclass hook invoked after a translation page is replaced; GeckoFTL
  /// pins the block holding the previous version (Appendix C.2.2).
  virtual void OnTranslationPageReplaced(TPageId /*tpage*/,
                                         PhysicalAddress /*old_addr*/) {}

  /// Flushes store-specific volatile state (kFlush); GeckoFTL flushes the
  /// Logarithmic Gecko buffer and releases translation-diff pins.
  virtual void FlushMetadata() {}

  // --- Shared internals (used by subclasses) ----------------------------

  /// Reports a user-page invalidation. The BVC and the GC-victim mirror
  /// update immediately; the store record is forwarded at once in normal
  /// operation, or collected and submitted as one RecordInvalidPages batch
  /// while a write batch or trim is being serviced (so flash-resident
  /// stores pay one read-modify-write per touched metadata page per
  /// request; a lone write reports at once). GC paths flush the collected batch before querying or
  /// recording erases, keeping the store's view consistent.
  void ReportInvalid(PhysicalAddress addr);
  void FlushPendingInvalid();

  // --- AsyncHost (the engine's view of this FTL) ------------------------

  /// Services one validated request (the engine brackets the call in its
  /// batch window and op scope): writes and trims through WriteBatch,
  /// reads through ReadBatch, whatever their extent count — a single
  /// extent is a batch of one — and kFlush through FlushAll.
  void ExecuteRequest(IoRequest& request, IoResult* result,
                      MissSink* miss_sink) override;

  /// Issues the charged translation-page read behind one coalesced miss
  /// fetch (the result is discarded: replays read the then-current image
  /// through TranslationTable::PeekMapping, which also stays correct when
  /// GC migrates the page while the fetch is in flight).
  void IssueMappingFetch(uint64_t tpage) override;

  /// Replays one parked read extent after its fetch completed: mapping
  /// from the cache if an interleaved request or GC already (re)populated
  /// it, else from the fetched flash image; cache fill once; data read
  /// stamped at replay time.
  void ResolveParkedExtent(IoRequest& request, IoResult* result,
                           size_t extent) override;

  void NoteCoalescedMiss() override { ++counters_.miss_joins; }

  /// Dependency keys of one request: exclusive per-LPN claims for writes
  /// and trims, shared for reads; shared translation-page claims for
  /// reads predicted to miss the mapping cache (their miss path reads the
  /// translation page — the EagleTree `ongoing_mapping_operations`
  /// hazard); exclusive translation-page claims for cache-overflowing
  /// write batches (WriteBatch's eager per-tpage commit); a global key
  /// that makes kFlush a full barrier (exclusive for flush, shared for
  /// everything else).
  std::vector<DepKey> DependencyKeys(const IoRequest& request) override;

  // --- Request servicing ------------------------------------------------

  /// Writes one in-range extent of WriteBatch. `tombstone` turns the
  /// write into a trim tombstone. `lone` marks the extent of a lone write:
  /// immediate-invalidation baselines identify its before-image with a
  /// per-lpn translation lookup, and the dirty cap is enforced right
  /// after it; batch extents leave both to the request's grouped
  /// synchronization and its end.
  Status WriteExtent(Lpn lpn, uint64_t payload, bool tombstone, bool lone);

  /// Write/trim of any extent count: per-extent data-page writes, then one
  /// synchronization per touched translation page (cache-overflowing
  /// batches only), then one page-validity batch submission. A lone write
  /// (one kWrite extent) reports its before-image to the store at once.
  void WriteBatch(const IoRequest& request, IoResult* result, bool trim);

  /// Whether a request commits each touched translation page inline: a
  /// write/trim batch of at least twice the cache capacity. WriteBatch
  /// acts on it and DependencyKeys claims the pages it commits.
  bool CommitsEagerly(const IoRequest& request) const;

  /// Read of any extent count: cache hits resolve directly; misses share
  /// one translation-page read per touched translation page. With
  /// async_miss_fetch, missed extents are parked in `miss_sink` instead
  /// (never-written translation pages short-circuit to NotFound without
  /// parking — there is nothing to fetch). With it off — the
  /// synchronous-miss baseline — each group fetches inline and stalls
  /// the device clock to the fetch's completion, so its data reads (and
  /// everything dispatched after them) serialize behind the mapping
  /// store, which is what a blocking fetch costs on real hardware.
  void ReadBatch(const IoRequest& request, IoResult* result,
                 MissSink* miss_sink);

  /// Reads the data page `ppa` that `request.extents[extent]` maps to into
  /// the result: payload, or a per-extent media error or trimmed status.
  void ReadMappedPage(const IoRequest& request, IoResult* result,
                      size_t extent, PhysicalAddress ppa);

  /// kFlush: synchronizes every dirty cached entry (grouped per
  /// translation page) and flushes store-specific volatile state.
  void FlushAll();

  // --- MaintenanceHost (the mechanics the scheduler drives) -------------

  uint32_t FreeBlocks() const override { return blocks_.NumFreeBlocks(); }
  bool GcInFlight() const override { return gc_.phase != GcPhase::kIdle; }
  GcStepOutcome GcStep(uint32_t max_migrations) override;
  void TakeCheckpoint() override;
  void FlushVolatileMetadata() override { FlushMetadata(); }
  bool WearScanStep() override;
  uint32_t DeviceBlocks() const override {
    return device_->geometry().num_blocks;
  }
  void OnSpaceExhausted() override { EnterDegradedMode(); }

  /// Flips the sticky degraded flag (idempotent) and logs the transition.
  void EnterDegradedMode();

#ifdef GECKO_DEBUG_GC_GROUND_TRUTH
  /// Debug-only: aborts if `addr` is the authoritative location of the
  /// logical page it holds (a report for it would destroy live data).
  void DebugCheckNotAuthoritative(PhysicalAddress addr, const char* tag);
#endif

  /// Synchronization operation (Section 4): flushes every dirty cached
  /// entry of `tpage` into a new version of that translation page,
  /// resolving UIP/uncertain flags per Section 4.1 / Appendix C.3.
  void SyncTranslationPage(TPageId tpage);
  /// One synchronization per translation page holding any of `lpns`, in
  /// page order (checkpoints, flushes, power-fail and recovery syncs).
  void SyncTranslationPagesOf(const std::vector<Lpn>& lpns);

  /// Evicts the LRU entry, synchronizing first if dirty.
  void EvictOne();

  // --- Resumable GC state machine ---------------------------------------
  // One collection = select victim + query store (kIdle step) -> migrate
  // up to K live pages per step (kMigrate) -> flush grouped invalidation
  // reports (kFlush) -> erase record + physical erase atomically (kErase).
  // The cursor is RAM-only: a crash at any step boundary abandons the
  // collection, and recovery treats the half-migrated victim like any
  // other block (migrated copies are ordinary out-of-place writes; stale
  // victim copies are caught by the last_recovery_seq_ validation below).

  struct GcCursor {
    GcPhase phase = GcPhase::kIdle;
    BlockId victim = kInvalidU32;
    PageType type = PageType::kUser;
    /// Store snapshot from the collection's single GC query (user blocks).
    Bitmap invalid;
    /// Next page offset of the victim to examine.
    uint32_t next_page = 0;
  };

  /// Starts a collection of `victim`: counts it, snapshots the validity
  /// bitmap (user blocks), and arms the fresh-invalidation mirror.
  void StartCollection(BlockId victim);
  /// Migrates up to `max_migrations` live pages, advancing the cursor;
  /// transitions to kFlush when the victim is fully examined.
  uint32_t MigrateUserPages(uint32_t max_migrations);
  uint32_t MigrateMetadataPages(uint32_t max_migrations);
  /// kErase: records the erase in the validity store and erases the
  /// victim, in one crash-atomic step.
  void FinishCollection();
  /// Runs the state machine until the current collection completes,
  /// starting one on `forced_victim` first if the cursor is idle (used by
  /// wear leveling to collect a specific block).
  void RunCollectionToCompletion(BlockId forced_victim);
  /// Victim selection through the pluggable policy object. kInvalidU32
  /// when no candidate exists (every non-free block active/pinned/
  /// all-live, or grown bad blocks retired the spare capacity).
  BlockId SelectVictim();

  /// Erases `block` through the device, dropping stale translation images
  /// first, and returns it to the free pool — unless the block is marked
  /// for retirement or its erase faults, in which case it is retired.
  void EraseBlockForGc(BlockId block, IoPurpose purpose);

  /// Inserts (or updates) a cache entry for a freshly written/migrated
  /// page, evicting as needed. `uip` follows Section 4.1's rules.
  void UpsertCacheEntry(Lpn lpn, PhysicalAddress ppa, bool uip);

  /// Counts a cache insert-or-update; the scheduler owns the checkpoint
  /// cadence (Section 4.3) and decides when TakeCheckpoint runs.
  void NoteCacheOp();
  void EnforceDirtyCap();

  /// Backward spare-area scan over user blocks (newest first): recreates
  /// up to C mapping entries, bounded by 2*`scan_bound` spare reads.
  /// When `report_duplicates` is set, older versions of already-seen lpns
  /// are reported invalid (DESIGN.md deviation 2). Entries are inserted
  /// dirty, with the uip/uncertain flags as requested (GeckoRec sets both;
  /// baselines without a UIP concept set neither).
  void BackwardScanRecoverEntries(uint64_t scan_bound, bool mark_uip,
                                  bool mark_uncertain, bool report_duplicates,
                                  RecoveryReport* report);

  /// Erases fully-dead, non-active metadata blocks left over after
  /// recovery (only under the auto-erase metadata policy).
  void SweepDeadMetadataBlocks();

  /// Write-temperature class for a fresh host write/trim of `lpn`
  /// (records the op in the estimator first). Always 0 with one class.
  uint8_t ClassifyWrite(Lpn lpn, bool tombstone);

  FlashDevice* device_;
  FtlConfig config_;
  BlockManager blocks_;
  /// The page-validity store, built by the subclass on blocks_.
  std::unique_ptr<PageValidityStore> store_;
  TranslationTable translation_;
  MappingCache cache_;
  /// Update-recency/frequency sketch behind ClassifyWrite (RAM-only;
  /// reset by a power failure).
  HotnessEstimator hotness_;
  std::unique_ptr<WearLeveler> wear_;
  std::unique_ptr<GcVictimPolicy> victim_policy_;
  /// Resumable-GC cursor (RAM-only; dies with a crash).
  GcCursor gc_;
  /// BVC: identified-invalid pages per block (user blocks only).
  std::vector<uint32_t> bvc_;
  /// While a user block is being collected, invalidation reports can still
  /// arrive for it (synchronizations triggered by migration-driven cache
  /// evictions identify before-images lazily). The GC query's bitmap was
  /// snapshotted at collection start, so fresh reports for the victim are
  /// mirrored here and consulted before migrating each page.
  BlockId gc_victim_ = kInvalidU32;
  Bitmap gc_victim_fresh_invalid_;
  /// Device sequence at the end of the last power-failure recovery. Pages
  /// written before this point may carry invalidations whose buffered
  /// reports died with the crash and evaded every re-derivation path
  /// (e.g. intermediate before-images outside the backward-scan window);
  /// GC validates such pages against the translation table before
  /// migrating them. Pages written after it are exactly tracked, so
  /// crash-free operation pays nothing (DESIGN.md §3).
  uint64_t last_recovery_seq_ = 0;
  /// Mutable: counters() refreshes the device-derived fault counters
  /// (remapped programs, grown bad blocks, degraded flag) on read.
  mutable FtlCounters counters_;
  /// Sticky read-only mode (see IsDegraded). Reset by a power cycle and
  /// re-derived from the persistent physical state on the next write.
  bool degraded_ = false;
  bool in_gc_ = false;  // guards re-entrant GC step execution
  /// While true (inside WriteBatch, except for a lone write), ReportInvalid
  /// collects store records into pending_invalid_ instead of forwarding
  /// them one by one; FlushPendingInvalid submits the batch.
  bool defer_invalid_reports_ = false;
  std::vector<PhysicalAddress> pending_invalid_;
  /// Saved translation-page versions from the last RecoverGmd call, used
  /// by GeckoFTL's buffer recovery diffing.
  std::vector<TranslationTable::TPageVersions> recovered_versions_;
  /// Saved Blocks Information Directory from the current recovery pass
  /// (block type + first-write seq), used by store-specific steps.
  std::vector<BlockManager::BidEntry> last_bid_;
  /// The maintenance plane: decides when GC steps, checkpoints, wear
  /// scans, and idle flushes run. Declared last; it only stores pointers.
  MaintenanceScheduler scheduler_;
  /// The async submission/completion engine (declared after everything it
  /// can reach through the AsyncHost hooks; only stores pointers).
  AsyncEngine engine_;
};

}  // namespace gecko

#endif  // GECKOFTL_FTL_BASE_FTL_H_
