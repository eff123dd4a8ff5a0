#include "ftl/maintenance_scheduler.h"

#include <algorithm>

#include "util/check.h"

namespace gecko {

namespace {
/// Write-credit throttling: credits earned per unit of pool deficit on
/// each throttled write; one GC step costs one credit.
constexpr double kCreditsPerDeficit = 1.0;
}  // namespace

MaintenanceScheduler::MaintenanceScheduler(MaintenanceHost* host,
                                           const FtlConfig& config)
    : host_(host),
      config_(config.maintenance),
      checkpoint_period_(config.checkpoint_period),
      floor_(kGcFreeBlockFloor),
      hard_(std::max(config_.hard_watermark, floor_)),
      soft_(std::max(config_.soft_watermark, hard_)) {
  if (config_.migrations_per_step == 0) config_.migrations_per_step = 1;
}

void MaintenanceScheduler::BeforeUserWrite() {
  if (hard_ > floor_ && host_->FreeBlocks() < hard_ &&
      host_->FreeBlocks() >= floor_) {
    // Write-credit throttling: the deficit below the hard watermark earns
    // credits, and each credit funds one bounded GC step — work grows
    // smoothly with the pressure instead of arriving as one stop-the-world
    // collection at the floor.
    ++stats_.throttle_engagements;
    uint32_t deficit = hard_ - host_->FreeBlocks();
    credits_ += kCreditsPerDeficit * static_cast<double>(deficit);
    // Credits never bank more than one full band's worth: the per-write
    // step budget stays bounded by the band width, so a deep deficit
    // cannot fund a whole-block collection on a single write — that
    // would be the stop-the-world spike this path exists to avoid.
    credits_ = std::min(credits_, kCreditsPerDeficit *
                                      static_cast<double>(hard_ - floor_));
    while (credits_ >= 1.0 && host_->FreeBlocks() < hard_) {
      GcStepOutcome o = host_->GcStep(config_.migrations_per_step);
      if (!o.advanced) break;
      credits_ -= 1.0;
      ++stats_.throttled_steps;
      if (o.erased) ++stats_.collections_completed;
    }
  }
  CollectToFloor();
}

void MaintenanceScheduler::CollectToFloor() {
  if (host_->FreeBlocks() >= floor_) return;
  ++stats_.emergency_stalls;
  // A single collection can be transiently net-zero (migrations and
  // metadata read-modify-writes consume pages before the victim's erase
  // frees them), so progress is checked across collections, not per step.
  uint64_t rounds = 0;
  while (host_->FreeBlocks() < floor_) {
    if (host_->FreeBlocks() == 0 && !host_->GcInFlight()) {
      // Starting a fresh collection with nothing in the pool: even an
      // all-invalid victim's erase record may need a page on a fresh
      // metadata block. The pool is gone — degrade.
      host_->OnSpaceExhausted();
      return;
    }
    bool erased = false;
    while (!erased) {
      GcStepOutcome o = host_->GcStep(~uint32_t{0});
      if (!o.advanced) {
        // No victim to collect (every non-free user block is all-live, or
        // grown bad blocks retired the spare capacity): space cannot be
        // reclaimed. Degrade instead of crashing.
        host_->OnSpaceExhausted();
        return;
      }
      erased = o.erased;
    }
    ++stats_.collections_completed;
    if (++rounds > uint64_t{2} * host_->DeviceBlocks()) {
      // Collections complete but never net a block above the floor —
      // the write-amplification death spiral of a device out of spares.
      host_->OnSpaceExhausted();
      return;
    }
  }
}

void MaintenanceScheduler::AfterUserWrite() {
  ++stats_.wear_scans;
  if (host_->WearScanStep()) ++stats_.wear_collections;
}

bool MaintenanceScheduler::OnCacheOp() {
  if (checkpoint_period_ == 0) return false;
  if (++cache_ops_since_checkpoint_ >= checkpoint_period_) {
    cache_ops_since_checkpoint_ = 0;
    return true;
  }
  return false;
}

uint64_t MaintenanceScheduler::IdleTick() {
  ++stats_.idle_ticks;
  uint64_t steps = 0;
  for (uint32_t i = 0; i < config_.steps_per_tick; ++i) {
    // Collect while the pool is short; always finish a collection that is
    // already mid-flight (completing it is what frees the block).
    if (host_->FreeBlocks() >= soft_ && !host_->GcInFlight()) break;
    GcStepOutcome o = host_->GcStep(config_.migrations_per_step);
    if (!o.advanced) break;
    ++stats_.background_steps;
    ++steps;
    if (o.erased) ++stats_.collections_completed;
  }
  // Early checkpoint: once at least half the cadence has elapsed, take
  // the next checkpoint here instead of letting it ride (and stall) a
  // user write. Early checkpoints only *shrink* the dirty window the
  // recovery scan must cover, so the Section 4.3 bound is preserved; the
  // on-write cadence in OnCacheOp stays as the backstop for idle-poor
  // workloads.
  if (checkpoint_period_ > 0 &&
      cache_ops_since_checkpoint_ >=
          std::max<uint64_t>(1, checkpoint_period_ / 2)) {
    cache_ops_since_checkpoint_ = 0;
    host_->TakeCheckpoint();
    ++stats_.idle_checkpoints;
  }
  if (config_.idle_flush_period > 0 &&
      ++ticks_since_flush_ >= config_.idle_flush_period) {
    ticks_since_flush_ = 0;
    host_->FlushVolatileMetadata();
    ++stats_.idle_flushes;
  }
  return steps;
}

void MaintenanceScheduler::ResetAfterCrash() {
  credits_ = 0;
  cache_ops_since_checkpoint_ = 0;
  ticks_since_flush_ = 0;
}

void MaintenanceScheduler::SeedCheckpointBacklog(uint64_t backlog) {
  if (checkpoint_period_ == 0) return;
  // Clamped to the period: a backlog at or beyond it means the very next
  // cache op triggers a checkpoint, which is the strongest the cadence
  // can say.
  cache_ops_since_checkpoint_ = std::min<uint64_t>(backlog, checkpoint_period_);
}

}  // namespace gecko
