// Configuration shared by all five FTL implementations.

#ifndef GECKOFTL_FTL_FTL_CONFIG_H_
#define GECKOFTL_FTL_FTL_CONFIG_H_

#include <cstdint>

#include "core/gecko_config.h"
#include "flash/geometry.h"

namespace gecko {

/// Garbage-collection victim-selection policy (Section 4.2). Each value
/// maps to a pluggable GcVictimPolicy object (ftl/gc_victim_policy.h).
enum class GcPolicy : uint8_t {
  /// Classic greedy: any block (including metadata blocks) with the fewest
  /// valid pages may be chosen; valid metadata pages are migrated.
  kGreedyAll,
  /// GeckoFTL's policy: never target translation/PVM blocks; erase them
  /// only once every page is invalid (frequently-updated metadata
  /// invalidates itself soon anyway).
  kNeverCollectMetadata,
  /// Cost-benefit scoring ((1-u)/(1+u) * age) over user blocks, keeping
  /// the paper's never-collect-metadata rule for metadata blocks.
  kCostBenefit,
};

/// How the FTL learns the address of the before-image a write invalidates.
enum class InvalidationMode : uint8_t {
  /// Baselines: on a write miss, read the translation page to find the
  /// before-image and report it immediately.
  kImmediate,
  /// GeckoFTL: set the UIP flag and identify the before-image lazily
  /// during synchronization operations and GC (Section 4.1).
  kLazyUip,
};

/// Emergency floor: when the free-block pool drops below this many blocks,
/// collection runs to completion inline before the write proceeds (the
/// stop-the-world backstop; the watermarks below keep the pool away from
/// it).
inline constexpr uint32_t kGcFreeBlockFloor = 5;

/// Pacing of garbage collection (ftl/gc_engine.h).
///
/// The free pool is governed by three levels:
///
///   soft watermark  >  hard watermark  >=  emergency floor
///
/// Above the soft watermark the plane is quiescent. Below it, background
/// ticks (host-idle time) run bounded GC steps. Below the hard watermark,
/// user writes additionally pay bounded GC steps through write-credit
/// throttling — incremental work proportional to the deficit, instead of
/// a stop-the-world whole-block collection. The emergency floor
/// (kGcFreeBlockFloor) keeps the legacy run-to-completion behaviour as the
/// backstop that makes pool exhaustion impossible. A hard watermark at the
/// floor empties the throttle band: pure stop-the-world foreground GC.
struct MaintenanceConfig {
  /// Foreground throttling engages below this pool size.
  uint32_t hard_watermark = kGcFreeBlockFloor + 3;

  /// Background collection (IdleTick) engages below this pool size.
  uint32_t soft_watermark = kGcFreeBlockFloor + 7;

  /// Live-page migrations one GC step performs at most.
  uint32_t migrations_per_step = 8;

  /// GC steps one background tick runs at most.
  uint32_t steps_per_tick = 4;

  /// Background ticks between volatile-metadata flushes (the Gecko buffer
  /// hook). 0 disables idle-driven flushing.
  uint32_t idle_flush_period = 0;
};

struct FtlConfig {
  /// C: capacity of the LRU mapping cache, in entries.
  uint32_t cache_capacity = 2048;

  /// In-flight cap of the host-side async submission queue: SubmitAsync
  /// admits at most this many uncompleted requests before pushing back
  /// with kQueueFull (NVMe-style queue-depth semantics). Parked requests
  /// (waiting on a dependency) count against the cap.
  uint32_t async_queue_depth = 32;

  /// Non-blocking translation-miss pipeline (async path only). When true,
  /// a read extent whose lpn misses the mapping cache is parked on a
  /// per-translation-page waiting list while its translation page is
  /// fetched: concurrent misses to the same page coalesce into one flash
  /// read, and hit extents plus independent requests keep dispatching
  /// across channels meanwhile. When false, the miss is serviced
  /// synchronously — the device clock stalls at the fetch's completion
  /// before the data read is issued, serializing the pipeline on the
  /// mapping store (the baseline bench_miss_overlap measures against).
  bool async_miss_fetch = true;

  /// Maximum number of dirty entries allowed in the cache, as a fraction
  /// of cache_capacity. 0 disables the cap. LazyFTL/IB-FTL use 0.1
  /// (Section 5.3); GeckoFTL and battery-backed FTLs are uncapped.
  double dirty_fraction_cap = 0.0;

  /// Runtime checkpoints: a checkpoint is taken every `checkpoint_period`
  /// inserts/updates to the cache (Section 4.3). 0 disables. GeckoFTL
  /// uses cache_capacity; baselines without batteries use their dirty cap
  /// (emulating LazyFTL's update-block bookkeeping; see DESIGN.md §3).
  uint32_t checkpoint_period = 0;

  /// Whether a battery persists dirty entries (and a RAM PVB) at failure.
  bool battery = false;

  GcPolicy gc_policy = GcPolicy::kNeverCollectMetadata;
  InvalidationMode invalidation = InvalidationMode::kLazyUip;

  /// Maintenance plane (ftl/gc_engine.h): watermarks and step
  /// budgets for incremental background/throttled-foreground collection.
  MaintenanceConfig maintenance;

  /// Whether GC validates not-in-cache victim pages against the flash
  /// translation table (needed by IB-FTL, whose log buffer can lose
  /// records across power failure; see DESIGN.md §3).
  bool gc_validate_against_translation_table = false;

  /// Wear-leveling (Appendix D). Off by default in experiments, matching
  /// the paper's evaluation focus.
  bool wear_leveling = false;
  /// Erase-count gap versus the device average that makes a block a
  /// static-wear-leveling victim.
  uint32_t wear_gap_threshold = 8;

  /// Bound on blocks pinned for translation-diff recovery (GeckoFTL,
  /// Appendix C.2.2). Every synchronization pins the block holding the
  /// replaced translation-page version until the Gecko buffer flushes past
  /// it; under report-poor workloads syncs can outrun flushes, so when the
  /// pin set exceeds this bound the buffer is flushed early (one page
  /// write) to advance the durable horizon and release the pins.
  uint32_t max_pinned_metadata_blocks = 4;

  /// T: number of write-temperature classes for hot/cold stream
  /// separation (ftl/hotness.h). 1 — the default — is the single-stream
  /// legacy write path, bit-identical to a build without the feature.
  /// With T > 1, every user write is classified by recent update
  /// frequency, each class appends to its own per-channel active blocks,
  /// GC demotes migration survivors one class colder, and mapping-cache
  /// eviction prefers cold entries over hot ones.
  uint32_t num_temp_classes = 1;

  /// log2 of the hotness sketch's counter count (2^bits bytes of RAM).
  uint32_t hotness_sketch_bits = 12;

  /// Writes+trims between halvings of the hotness counters (the recency
  /// window of the estimator).
  uint32_t hotness_decay_period = 4096;

  /// Hotness-weighted eviction: how many entries from the LRU end are
  /// scanned for the coldest candidate. <= 1 keeps pure LRU eviction.
  /// Only active when num_temp_classes > 1.
  uint32_t hot_eviction_scan_depth = 8;

  /// Logarithmic Gecko tuning (GeckoFTL only).
  LogGeckoConfig gecko;

  uint32_t DirtyCap() const {
    if (dirty_fraction_cap <= 0.0) return 0;
    uint32_t cap = static_cast<uint32_t>(cache_capacity * dirty_fraction_cap);
    return cap < 1 ? 1 : cap;
  }
};

}  // namespace gecko

#endif  // GECKOFTL_FTL_FTL_CONFIG_H_
