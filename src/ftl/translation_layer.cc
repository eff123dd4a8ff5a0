#include "ftl/translation_layer.h"

#include <algorithm>
#include <utility>

namespace gecko {

TranslationLayer::TranslationLayer(FlashDevice* device, BlockManager* blocks,
                                   const FtlConfig& config,
                                   const HotnessEstimator* hotness,
                                   FtlCounters* counters,
                                   ReportInvalidFn report_invalid,
                                   PageReplacedFn page_replaced)
    : device_(device),
      counters_(counters),
      table_(device->geometry(), device, blocks),
      cache_(config.cache_capacity, table_.entries_per_page()),
      report_invalid_(std::move(report_invalid)),
      page_replaced_(std::move(page_replaced)),
      dirty_cap_(config.DirtyCap()),
      checkpoint_period_(config.checkpoint_period) {
  // With one class (the default) eviction stays pure LRU, bit-identical to
  // the single-stream layout the temperature-class identity tests pin.
  if (hotness->num_classes() > 1) {
    cache_.SetEvictionPolicy(
        [hotness](Lpn lpn) { return hotness->Score(lpn); },
        config.hot_eviction_scan_depth);
  }
}

void TranslationLayer::Remap(Lpn lpn, PhysicalAddress ppa, bool uip,
                             bool report_before_image) {
  MappingEntry* entry = cache_.Find(lpn);
  if (entry != nullptr) {
    if (report_before_image) report_invalid_(entry->ppa);
    cache_.MarkDirty(entry);
    entry->ppa = ppa;
  } else {
    while (cache_.NeedsEviction()) EvictOne();
    cache_.Insert(lpn, MappingEntry{ppa, /*dirty=*/true, uip,
                                    /*uncertain=*/false});
  }
  NoteCacheOp();
}

void TranslationLayer::CacheFetched(Lpn lpn, PhysicalAddress ppa) {
  // Duplicate extents of one read: an entry inserted for an earlier miss
  // of the same lpn must not be inserted twice.
  if (cache_.Contains(lpn)) return;
  while (cache_.NeedsEviction()) EvictOne();
  cache_.Insert(lpn, MappingEntry{ppa, false, false, false});
  NoteCacheOp();
}

void TranslationLayer::Sync(TPageId tpage) {
  std::vector<Lpn> dirty = cache_.DirtyInPage(tpage);
  if (dirty.empty()) return;
  ++counters_->sync_ops;

  std::vector<PhysicalAddress> mappings =
      table_.ReadTPage(tpage, IoPurpose::kTranslation);
  if (mappings.empty()) {
    mappings.assign(table_.entries_per_page(), kNullAddress);
  }

  bool any_changed = false;
  for (Lpn lpn : dirty) {
    MappingEntry* entry = cache_.Find(lpn);
    GECKO_CHECK(entry != nullptr && entry->dirty);
    PhysicalAddress flash_ppa = mappings[lpn % table_.entries_per_page()];

    if (entry->uncertain && flash_ppa == entry->ppa) {
      // Appendix C.3.1: the restored entry was in fact clean; fix the
      // flags and omit it from the synchronization.
      entry->dirty = false;
      entry->uip = false;
      entry->uncertain = false;
      cache_.NoteCleaned();
      continue;
    }

    if (entry->uip && flash_ppa.IsValid() && flash_ppa != entry->ppa) {
      // The flash-resident mapping points at the unidentified
      // before-image. Uncertain entries must verify the page still holds
      // this logical page before reporting (Appendix C.3.2) — it may have
      // been erased and rewritten since.
      bool report = true;
      if (entry->uncertain) {
        PageReadResult r =
            device_->ReadSpare(flash_ppa, IoPurpose::kTranslation);
        report = r.written && !r.media_error && r.spare.IsUser() &&
                 r.spare.key == lpn;
      }
      if (report) report_invalid_(flash_ppa);
    }

    mappings[lpn % table_.entries_per_page()] = entry->ppa;
    entry->dirty = false;
    entry->uip = false;
    entry->uncertain = false;
    cache_.NoteCleaned();
    any_changed = true;
  }

  if (!any_changed) {
    // Every entry was omitted: abort the synchronization, saving the
    // flash write (Appendix C.3.1).
    ++counters_->aborted_sync_ops;
    return;
  }

  PhysicalAddress old =
      table_.CommitTPage(tpage, std::move(mappings), IoPurpose::kTranslation);
  if (old.IsValid() && page_replaced_) page_replaced_(tpage, old);
}

void TranslationLayer::SyncPagesOf(const std::vector<Lpn>& lpns) {
  // Entries of the same page flush together, amortizing the write.
  std::vector<TPageId> tpages;
  tpages.reserve(lpns.size());
  for (Lpn lpn : lpns) tpages.push_back(table_.TPageOf(lpn));
  std::sort(tpages.begin(), tpages.end());
  tpages.erase(std::unique(tpages.begin(), tpages.end()), tpages.end());
  for (TPageId t : tpages) Sync(t);
}

void TranslationLayer::EvictOne() {
  Lpn victim = cache_.PeekEvictionVictim();
  const MappingEntry* entry = cache_.Peek(victim);
  GECKO_CHECK(entry != nullptr);
  if (entry->dirty) Sync(table_.TPageOf(victim));
  cache_.Erase(victim);
}

void TranslationLayer::EnforceDirtyCap() {
  if (dirty_cap_ == 0) return;
  while (cache_.dirty_count() > dirty_cap_) {
    Lpn oldest;
    GECKO_CHECK(cache_.OldestDirty(&oldest));
    Sync(table_.TPageOf(oldest));
  }
}

void TranslationLayer::NoteCacheOp() {
  if (checkpoint_period_ > 0 &&
      ++cache_ops_since_checkpoint_ >= checkpoint_period_) {
    TakeCheckpoint();
  }
}

void TranslationLayer::TakeCheckpoint() {
  cache_ops_since_checkpoint_ = 0;
  ++counters_->checkpoints;
  SyncPagesOf(cache_.TakeCheckpoint());
}

void TranslationLayer::IdleCheckpoint() {
  if (checkpoint_period_ > 0 &&
      cache_ops_since_checkpoint_ >=
          std::max<uint64_t>(1, checkpoint_period_ / 2)) {
    TakeCheckpoint();
  }
}

void TranslationLayer::ResetRamState() {
  cache_.Reset();
  table_.ResetRamState();
  cache_ops_since_checkpoint_ = 0;
}

void TranslationLayer::RestoreEntry(Lpn lpn, const MappingEntry& entry) {
  while (cache_.NeedsEviction()) cache_.Erase(cache_.PeekLru());
  cache_.Insert(lpn, entry);
}

void TranslationLayer::ResumeAfterRecovery() {
  cache_.AdvanceEpoch();
  // Clamped to the period: a backlog at or beyond it means the very next
  // cache op triggers a checkpoint, the strongest the cadence can say.
  if (checkpoint_period_ > 0) {
    cache_ops_since_checkpoint_ =
        std::min<uint64_t>(cache_.dirty_count(), checkpoint_period_);
  }
}

}  // namespace gecko
