// The translation side of a page-associative FTL (Section 4): the
// flash-resident translation table with its GMD, the LRU mapping cache,
// synchronization operations, eviction, runtime checkpoints and their
// cadence (Section 4.3), and the dirty-entry cap of the baselines that
// recover by scanning (Section 5.3).
//
// A synchronization identifies before-images (Section 4.1, Appendix C.3);
// the layer hands each one to the `report_invalid` hook (the GC engine's
// BVC and validity store), and each replaced translation-page version to
// the `page_replaced` hook (GeckoFTL pins it, Appendix C.2.2).

#ifndef GECKOFTL_FTL_TRANSLATION_LAYER_H_
#define GECKOFTL_FTL_TRANSLATION_LAYER_H_

#include <functional>
#include <vector>

#include "flash/flash_device.h"
#include "ftl/block_manager.h"
#include "ftl/ftl.h"
#include "ftl/ftl_config.h"
#include "ftl/hotness.h"
#include "ftl/mapping_cache.h"
#include "ftl/translation_table.h"

namespace gecko {

class TranslationLayer {
 public:
  using ReportInvalidFn = std::function<void(PhysicalAddress)>;
  using PageReplacedFn = std::function<void(TPageId, PhysicalAddress)>;

  /// With more than one temperature class, cache eviction prefers cold
  /// entries by `hotness`'s score. `page_replaced` may be empty. The layer
  /// counts sync_ops, aborted_sync_ops and checkpoints in `counters`.
  TranslationLayer(FlashDevice* device, BlockManager* blocks,
                   const FtlConfig& config, const HotnessEstimator* hotness,
                   FtlCounters* counters, ReportInvalidFn report_invalid,
                   PageReplacedFn page_replaced);

  TranslationTable& table() { return table_; }
  const TranslationTable& table() const { return table_; }
  const MappingCache& cache() const { return cache_; }

  /// Cache lookup that refreshes the entry's recency; nullptr on a miss.
  /// GC's UIP check edits the returned entry's flags.
  MappingEntry* Find(Lpn lpn) { return cache_.Find(lpn); }
  /// The mapping reads would use, from the cache or else the flash image,
  /// with no IO and no recency update (the ground-truth checks).
  PhysicalAddress PeekAuthoritative(Lpn lpn) const {
    const MappingEntry* e = cache_.Peek(lpn);
    return e != nullptr ? e->ppa : table_.PeekMapping(lpn);
  }

  /// Points `lpn` at its new copy `ppa` as a dirty entry and counts one
  /// cache op. A cached entry keeps its UIP flag (rewriting a page does
  /// not identify an older unidentified before-image) and, with
  /// `report_before_image`, its old copy is reported invalid; a new entry
  /// evicts as needed and takes `uip` (Section 4.1's rules).
  void Remap(Lpn lpn, PhysicalAddress ppa, bool uip, bool report_before_image);

  /// Caches the mapping a read miss fetched, clean with no unidentified
  /// image (Section 4.1, "Application Reads"), unless `lpn` is cached.
  void CacheFetched(Lpn lpn, PhysicalAddress ppa);

  /// Synchronization operation (Section 4): flushes every dirty cached
  /// entry of `tpage` into a new version of that translation page,
  /// resolving UIP/uncertain flags per Section 4.1 / Appendix C.3.
  void Sync(TPageId tpage);
  /// One synchronization per translation page holding any of `lpns`, in
  /// page order (checkpoints, flushes, power-fail and recovery syncs).
  void SyncPagesOf(const std::vector<Lpn>& lpns);
  void SyncAllDirty() { SyncPagesOf(cache_.DirtyLpns()); }

  /// Synchronizes the oldest dirty entries' pages until the dirty count is
  /// within the cap (no-op without one).
  void EnforceDirtyCap();

  /// Host-idle time: once at least half the cadence has elapsed, takes
  /// the next checkpoint now instead of letting it ride (and stall) a
  /// user write. Early checkpoints only shrink the dirty window the
  /// recovery scan must cover, so the Section 4.3 bound holds.
  void IdleCheckpoint();

  // --- Power failure and recovery ----------------------------------------

  /// Drops the cache, the GMD and the checkpoint cadence.
  void ResetRamState();
  /// Re-creates an entry found by the recovery scan, dropping the LRU
  /// entry unsynchronized when the cache is full.
  void RestoreEntry(Lpn lpn, const MappingEntry& entry);
  /// The entries recovery re-created are the pre-crash instance's
  /// un-checkpointed backlog, not freshly dirtied work: ages them one
  /// epoch so the next checkpoint (not the one after) synchronizes them,
  /// and re-seeds the cadence counter from the backlog so that checkpoint
  /// arrives on the schedule the crash interrupted. Without both, crash
  /// churn faster than the period resets the counter forever, no
  /// checkpoint ever fires, and mappings whose only copy ages past the
  /// backward scan's coverage horizon become silently unrecoverable.
  void ResumeAfterRecovery();

  /// Cache (8 bytes per entry, Section 5's assumption) plus GMD.
  uint64_t RamBytes() const {
    return uint64_t{cache_.capacity()} * 8 + table_.GmdRamBytes();
  }

 private:
  /// Evicts the eviction victim, synchronizing its page first if dirty.
  void EvictOne();
  /// Counts a cache insert-or-update: one checkpoint every
  /// `checkpoint_period` of them (Section 4.3).
  void NoteCacheOp();
  /// Synchronizes the entries dirtied before the previous checkpoint and
  /// restarts the cadence.
  void TakeCheckpoint();

  FlashDevice* device_;
  FtlCounters* counters_;
  TranslationTable table_;
  MappingCache cache_;
  ReportInvalidFn report_invalid_;
  PageReplacedFn page_replaced_;
  uint32_t dirty_cap_;
  uint32_t checkpoint_period_;
  uint64_t cache_ops_since_checkpoint_ = 0;
};

}  // namespace gecko

#endif  // GECKOFTL_FTL_TRANSLATION_LAYER_H_
