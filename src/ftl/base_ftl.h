// Shared machinery of all page-associative FTLs in this repository.
//
// BaseFtl is the request path of the DFTL-style scheme the paper adopts
// (Section 4) and wires together the parts it owns:
//   - a TranslationLayer: translation table with GMD, LRU mapping cache,
//     synchronization, eviction, checkpoints and the dirty-entry cap;
//   - a GcEngine: the BVC, the resumable collection with pluggable victim
//     policy, wear leveling, and the watermark ladder that paces them;
//   - the page-validity store a subclass builds;
// and recovers them after a power failure with the steps of ftl/recovery.h.
// The five FTLs differ in two choices (Section 5.3): the page-validity
// store, and how dirty mapping entries survive power loss, which recovery
// picks from the config:
//
//            validity store      dirty-entry recovery
//   GeckoFtl Logarithmic Gecko   checkpoint-bounded lazy scan (GeckoRec)
//   DftlFtl  RAM PVB             battery
//   LazyFtl  RAM PVB             dirty cap + sync-before-resume
//   MuFtl    flash PVB           battery
//   IbFtl    page-validity log   dirty cap + sync-before-resume

#ifndef GECKOFTL_FTL_BASE_FTL_H_
#define GECKOFTL_FTL_BASE_FTL_H_

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "flash/flash_device.h"
#include "ftl/async_engine.h"
#include "ftl/block_manager.h"
#include "ftl/ftl.h"
#include "ftl/ftl_config.h"
#include "ftl/gc_engine.h"
#include "ftl/hotness.h"
#include "ftl/mapping_cache.h"
#include "ftl/recovery.h"
#include "ftl/translation_layer.h"
#include "pvm/page_validity_store.h"

namespace gecko {

class BaseFtl : public Ftl, private AsyncHost {
 public:
  /// `make_store` builds the page-validity store on the block manager.
  BaseFtl(FlashDevice* device, const FtlConfig& config,
          const std::function<std::unique_ptr<PageValidityStore>(
              BlockManager*)>& make_store);
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
    return engine_.Submit(request, std::move(on_complete));
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

  const FtlConfig& config() const { return config_; }
  const MappingCache& cache() const { return translation_.cache(); }
  BlockManager& block_manager() { return blocks_; }

  /// Forces one full GC collection cycle (tests/benchmarks), resuming the
  /// in-flight incremental collection if one exists. False when nothing
  /// was collectable.
  bool ForceGc() override { return gc_.Collect(); }

  /// One background-maintenance tick inside its own device batch window;
  /// the window's makespan is recorded under RequestClass::kMaintenance.
  uint64_t IdleTick() override;

  /// The GC engine and its pacing: watermarks, MaintenanceStats, the
  /// phase of the collection in flight, the victim policy and the BVC.
  const GcEngine& maintenance() const { return gc_; }

 protected:
  // --- Hooks for FTL-level recovery work a store cannot do --------------

  /// Called once the store has rebuilt itself from flash, before the BVC
  /// is counted from it: GeckoFTL re-derives its buffer from `scan`
  /// (Appendix C.2), DFTL charges the battery read-back of its RAM PVB.
  virtual void OnStoreRecovered(const FlashMetadataScan& /*scan*/,
                                RecoveryReport* /*report*/) {}

  /// Called once dirty entries are recovered, before normal operation
  /// resumes: GeckoFTL persists what its buffer recovery re-derived,
  /// LazyFTL rebuilds its RAM PVB and the BVC from the translation table.
  virtual void OnRecoveryComplete(RecoveryReport* /*report*/) {}

  /// Invoked after a translation page is replaced; GeckoFTL pins the
  /// block holding the previous version (Appendix C.2.2).
  virtual void OnTranslationPageReplaced(TPageId /*tpage*/,
                                         PhysicalAddress /*old_addr*/) {}

  /// Flushes store-specific volatile state (kFlush and idle flushes);
  /// GeckoFTL flushes the Logarithmic Gecko buffer and releases
  /// translation-diff pins.
  virtual void FlushMetadata() {}

  FlashDevice* device_;
  FtlConfig config_;
  BlockManager blocks_;
  std::unique_ptr<PageValidityStore> store_;
  /// Update-recency/frequency sketch behind ClassifyWrite (RAM-only;
  /// reset by a power failure).
  HotnessEstimator hotness_;
  /// Counted by the request path and the parts. Mutable: counters()
  /// refreshes the device-derived fault counters on read.
  mutable FtlCounters counters_;
  TranslationLayer translation_;
  GcEngine gc_;

 private:
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
  void DependencyKeys(const IoRequest& request,
                      std::vector<DepKey>* keys) override;

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

  /// Write-temperature class for a fresh host write/trim of `lpn`
  /// (records the op in the estimator first). Always 0 with one class.
  uint8_t ClassifyWrite(Lpn lpn, bool tombstone);

  /// Sticky read-only mode (see IsDegraded). Reset by a power cycle and
  /// re-derived from the persistent physical state on the next write.
  bool degraded_ = false;
  /// Background ticks since the last idle flush (idle_flush_period).
  uint64_t ticks_since_flush_ = 0;
  // Reused request-path scratch: DependencyKeys' (id, exclusive) lists,
  // the (tpage, extent) pairs Write/ReadBatch sort to group extents by page.
  std::vector<std::pair<uint64_t, bool>> key_lpns_;
  std::vector<std::pair<uint64_t, bool>> key_tpages_;
  std::vector<std::pair<TPageId, size_t>> by_tpage_;
  std::vector<PhysicalAddress> resolved_;
  /// The async submission/completion engine (declared after everything it
  /// can reach through the AsyncHost hooks; only stores pointers).
  AsyncEngine engine_;
};

}  // namespace gecko

#endif  // GECKOFTL_FTL_BASE_FTL_H_
