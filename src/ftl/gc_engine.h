// Garbage collection of a page-associative FTL (Sections 4, 4.1, 4.2) as
// one component fed by the page-validity store, the translation layer and
// the block directory (the decomposition of Dayan & Bonnet,
// arXiv:1504.01666).
//
// The engine owns:
//   - the invalidation path: the BVC (identified-invalid pages per user
//     block, Figure 7) and every report's way to the store, one at a time
//     or grouped per request;
//   - the resumable collection: select victim + query the store (kIdle
//     step) -> migrate up to K live pages per step (kMigrate) -> flush
//     grouped reports (kFlush) -> erase record + physical erase (kErase);
//   - victim selection through the pluggable policy, the UIP check,
//     migration and erase, and the wear-leveling scan (Appendix D);
//   - the greedy victim index: per channel, the candidate blocks ordered
//     by (valid pages, block id), kept current by the BVC updates here and
//     by the block manager's block-state hook, so a greedy selection reads
//     one candidate per channel instead of scanning the device;
//   - the pacing of MaintenanceConfig's watermark ladder. Background steps
//     run on idle ticks below the soft watermark, preferring victims on
//     idle channels. Below the hard watermark user writes pay bounded steps
//     through write-credit throttling. Below the emergency floor
//     (kGcFreeBlockFloor) whole collections run inline — the backstop that
//     makes pool exhaustion impossible.
//
// Every step leaves the device crash-consistent: migrated copies are
// ordinary out-of-place writes covered by the regular recovery paths, and
// the store's erase record is written in the same step as the physical
// erase. The cursor is RAM-only, so a crash abandons the collection;
// stale copies on the half-migrated victim are fenced by the recovery
// fence (see set_recovery_fence).

#ifndef GECKOFTL_FTL_GC_ENGINE_H_
#define GECKOFTL_FTL_GC_ENGINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "flash/flash_device.h"
#include "ftl/block_manager.h"
#include "ftl/ftl.h"
#include "ftl/ftl_config.h"
#include "ftl/gc_victim_policy.h"
#include "ftl/translation_layer.h"
#include "ftl/wear_leveler.h"
#include "pvm/page_validity_store.h"
#include "util/bitmap.h"
#include "util/ordered_id_set.h"

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
};

/// What the pacing has done. Exposed through BaseFtl::maintenance().
struct MaintenanceStats {
  uint64_t background_steps = 0;      // GC steps run on idle ticks
  uint64_t throttled_steps = 0;       // GC steps paid by throttled writes
  uint64_t throttle_engagements = 0;  // writes that entered the band
  uint64_t emergency_stalls = 0;      // writes that hit the floor backstop
};

class GcEngine {
 public:
  /// Takes the watermark ladder from `config.maintenance`, clamped so
  /// that soft >= hard >= the emergency floor. Counts gc_collections,
  /// gc_migrations, gc_demotions and uip_detections in `counters`. Under a
  /// greedy policy the engine observes `blocks` for its victim index.
  GcEngine(FlashDevice* device, BlockManager* blocks, PageValidityStore* store,
           TranslationLayer* translation, const FtlConfig& config,
           FtlCounters* counters);
  ~GcEngine();
  // The block manager's hook holds this engine's address.
  GcEngine(const GcEngine&) = delete;
  GcEngine& operator=(const GcEngine&) = delete;

  // --- Invalidation reports and the BVC ----------------------------------

  /// Reports a user-page invalidation. The BVC and the victim mirror
  /// update at once; the store record is forwarded at once, or collected
  /// while a request defers it (see BeginRequest).
  void ReportInvalid(PhysicalAddress addr);
  /// Brackets one write or trim request. With `defer`, store records
  /// collect into one RecordInvalidPages batch that EndRequest submits, so
  /// flash-resident stores pay one read-modify-write per touched metadata
  /// page per request. GC flushes the batch before any store query or
  /// erase record, keeping the store's view consistent.
  void BeginRequest(bool defer);
  void EndRequest();

  /// Identified-invalid count of a user block (the BVC of Figure 7).
  uint32_t InvalidCount(BlockId block) const { return bvc_[block]; }

  // --- Collection ----------------------------------------------------------

  /// Advances the state machine by one step, migrating at most
  /// `max_migrations` live pages. From kIdle it starts a collection of
  /// `victim`, or of the policy's choice when none is given. !advanced
  /// means nothing was collectable or the call was re-entrant.
  GcStepOutcome Step(uint32_t max_migrations, BlockId victim = kInvalidU32);
  /// Runs one whole collection: the one in flight, else one of `victim` or
  /// the policy's choice. True once a block was erased; false when nothing
  /// was collectable. Must not be called from inside a GC step.
  bool Collect(BlockId victim = kInvalidU32);
  /// The policy's victim, or kInvalidU32 when no candidate exists (every
  /// non-free block active, pinned or all-live, or grown bad blocks
  /// retired the spare capacity). Greedy policies read it from the victim
  /// index; cost-benefit, whose age term moves with every program, scans.
  BlockId SelectVictim() const;
  /// The same choice by one SelectGcVictim scan over every block: the
  /// cost-benefit path, and the reference the victim index must match.
  BlockId ScanVictim() const;
  /// Erases `block` through the device, dropping stale translation images
  /// first, and returns it to the free pool — unless the block is marked
  /// for retirement or its erase faults, in which case it is retired.
  void EraseBlock(BlockId block, IoPurpose purpose);

  GcPhase phase() const { return cursor_.phase; }
  const GcVictimPolicy& victim_policy() const { return *victim_policy_; }

  // --- Pacing --------------------------------------------------------------

  /// GC admission before a user data-page allocation: throttled steps
  /// below the hard watermark, whole collections below the emergency
  /// floor. False when space cannot be reclaimed (no victim, nothing left
  /// to start a collection with, or collections that never net a block);
  /// the FTL then degrades instead of exhausting the pool.
  bool BeforeUserWrite();
  /// After a user data write: advances the wear leveler's gradual scan by
  /// one block and collects the victim it finds, if any.
  void AfterUserWrite();
  /// One background tick: up to steps_per_tick steps while the pool is
  /// below the soft watermark or a collection is in flight. Returns the
  /// steps run.
  uint64_t IdleSteps();

  const MaintenanceStats& stats() const { return stats_; }
  uint32_t soft_watermark() const { return soft_; }

  // --- Power failure and recovery ----------------------------------------

  /// Drops the BVC, the cursor, the victim mirror and the pacing credits.
  void ResetRamState();
  /// Sets the BVC of every user block from the store's counts and
  /// rebuilds the victim index with it.
  void RecoverBvc(const std::vector<uint32_t>& counts);
  /// Device sequence at the end of the last recovery. Pages written before
  /// it may carry invalidations whose buffered reports died with the crash
  /// and evaded every re-derivation path (e.g. intermediate before-images
  /// outside the backward-scan window); GC validates such pages before
  /// migrating them. Pages written after it are exactly tracked, so
  /// crash-free operation pays nothing (DESIGN.md §3).
  void set_recovery_fence(uint64_t seq) { last_recovery_seq_ = seq; }

  /// BVC (2 bytes per block) plus the wear leveler's statistics.
  uint64_t RamBytes() const {
    return bvc_.size() * 2 + (wear_ != nullptr ? wear_->RamBytes() : 0);
  }

 private:
  struct GcCursor {
    GcPhase phase = GcPhase::kIdle;
    BlockId victim = kInvalidU32;
    PageType type = PageType::kUser;
    /// Store snapshot from the collection's single GC query (user blocks).
    Bitmap invalid;
    /// Next page offset of the victim to examine.
    uint32_t next_page = 0;
  };

  /// Whether a victim with live pages may be collected (see the migration
  /// reserve in gc_engine.cc).
  bool MigrationSafe() const;
  /// Live pages `block` would cost as a victim, or kNotCandidate when the
  /// policy cannot choose it: free, active, pinned, or a metadata block
  /// the policy never collects.
  uint32_t CandidateValid(BlockId block) const;
  /// Re-keys `block` in the victim index from its current state; called
  /// whenever anything CandidateValid reads of it may have changed.
  void UpdateCandidate(BlockId block);
  void RebuildCandidates();

  /// Starts a collection of `victim`: counts it, snapshots the validity
  /// bitmap (user blocks), and arms the fresh-invalidation mirror.
  void StartCollection(BlockId victim);
  /// Migrate up to `max_migrations` live pages, advancing the cursor, and
  /// move to kFlush once the victim is fully examined.
  void MigrateUserPages(uint32_t max_migrations);
  void MigrateMetadataPages(uint32_t max_migrations);
  /// kErase: records the erase in the store and erases the victim, in one
  /// crash-atomic step.
  void FinishCollection();
  void FlushPendingInvalid();

  FlashDevice* device_;
  BlockManager* blocks_;
  PageValidityStore* store_;
  TranslationLayer* translation_;
  FtlCounters* counters_;
  bool collects_metadata_;
  bool validate_against_table_;
  MaintenanceConfig pacing_;
  uint32_t hard_;
  uint32_t soft_;
  double credits_ = 0;
  MaintenanceStats stats_;
  std::unique_ptr<GcVictimPolicy> victim_policy_;
  std::unique_ptr<WearLeveler> wear_;
  GcCursor cursor_;
  bool in_gc_ = false;  // guards re-entrant step execution
  /// BVC: identified-invalid pages per block (user blocks only).
  std::vector<uint32_t> bvc_;
  /// Greedy victim index (empty under cost-benefit): per channel, the
  /// candidates keyed by valid * blocks_per_channel_ + block / channels,
  /// so a channel's first member is its fewest-valid, lowest-id candidate.
  std::vector<OrderedIdSet> candidates_;
  /// Each block's key in its channel's set, or OrderedIdSet::kNone.
  std::vector<uint32_t> candidate_key_;
  uint32_t blocks_per_channel_ = 0;
  /// While a user block is being collected, invalidation reports can still
  /// arrive for it (synchronizations triggered by migration-driven cache
  /// evictions identify before-images lazily). The GC query's bitmap was
  /// snapshotted at collection start, so fresh reports for the victim are
  /// mirrored here and consulted before migrating each page.
  BlockId fresh_victim_ = kInvalidU32;
  Bitmap fresh_invalid_;
  bool defer_reports_ = false;
  std::vector<PhysicalAddress> pending_invalid_;
  uint64_t last_recovery_seq_ = 0;
};

}  // namespace gecko

#endif  // GECKOFTL_FTL_GC_ENGINE_H_
