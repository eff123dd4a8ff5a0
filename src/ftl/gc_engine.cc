#include "ftl/gc_engine.h"

#include <algorithm>

namespace gecko {

namespace {

/// Write-credit throttling: credits earned per unit of pool deficit on
/// each throttled write; one GC step costs one credit.
constexpr double kCreditsPerDeficit = 1.0;

/// Migration reserve: collecting a victim with live pages consumes free
/// blocks transiently before the erase nets one back — a compact-mode
/// destination block, a translation block (mapping updates during the
/// migration can evict dirty cache entries and commit their pages), and a
/// PVM block for the invalidation/erase records. On a healthy medium every
/// erase returns the victim, so the emergency loop always nets blocks back
/// and the transient dip is safe. Once the medium has retired blocks,
/// erases can fail and net nothing, so the pool can only shrink: below the
/// reserve, only fully-invalid victims are safe to collect. If none exist
/// the spare capacity is genuinely exhausted and the caller degrades
/// instead of letting an allocation CHECK out of blocks.
constexpr uint32_t kMigrationReserve = 4;

/// CandidateValid's answer for a block the policy cannot choose.
constexpr uint32_t kNotCandidate = ~uint32_t{0};

#ifdef GECKO_DEBUG_GC_GROUND_TRUTH
/// Ground-truth invariant for every invalidation report: a strictly newer
/// on-flash copy of the page's lpn must exist somewhere on the device, or
/// the report would destroy live data.
void DebugCheckNotAuthoritative(const FlashDevice& device,
                                PhysicalAddress addr) {
  if (!device.IsWritten(addr)) return;
  PageReadResult r = device.PeekSpare(addr);
  // A failed-program page is never authoritative (its data was re-placed
  // before the write completed), so a report for it is always legitimate.
  if (r.media_error || !r.spare.IsUser()) return;
  const Geometry& g = device.geometry();
  for (BlockId b = 0; b < g.num_blocks; ++b) {
    for (uint32_t p = 0; p < g.pages_per_block; ++p) {
      PhysicalAddress other{b, p};
      if (other == addr || !device.IsWritten(other)) continue;
      PageReadResult o = device.PeekSpare(other);
      if (o.spare.IsUser() && o.spare.key == r.spare.key &&
          o.spare.seq > r.spare.seq) {
        return;  // a newer copy exists: the report is legitimate
      }
    }
  }
  GECKO_CHECK(false) << "FALSE REPORT lpn=" << r.spare.key
                     << " page=" << addr.ToString() << " (newest copy)";
}
#endif

}  // namespace

GcEngine::GcEngine(FlashDevice* device, BlockManager* blocks,
                   PageValidityStore* store, TranslationLayer* translation,
                   const FtlConfig& config, FtlCounters* counters)
    : device_(device),
      blocks_(blocks),
      store_(store),
      translation_(translation),
      counters_(counters),
      collects_metadata_(GcPolicyCollectsMetadata(config.gc_policy)),
      validate_against_table_(config.gc_validate_against_translation_table),
      pacing_(config.maintenance),
      hard_(std::max(pacing_.hard_watermark, kGcFreeBlockFloor)),
      soft_(std::max(pacing_.soft_watermark, hard_)),
      victim_policy_(MakeGcVictimPolicy(config.gc_policy)),
      bvc_(device->geometry().num_blocks, 0) {
  if (pacing_.migrations_per_step == 0) pacing_.migrations_per_step = 1;
  if (config.wear_leveling) {
    wear_ = std::make_unique<WearLeveler>(device, config.wear_gap_threshold);
  }
  if (config.gc_policy != GcPolicy::kCostBenefit) {
    const Geometry& g = device->geometry();
    const uint32_t channels = g.num_channels;
    blocks_per_channel_ = (g.num_blocks + channels - 1) / channels;
    const uint64_t universe =
        (uint64_t{g.pages_per_block} + 1) * blocks_per_channel_;
    GECKO_CHECK_LT(universe, uint64_t{OrderedIdSet::kNone})
        << "victim index keys overflow";
    candidates_.assign(channels,
                       OrderedIdSet(static_cast<uint32_t>(universe)));
    candidate_key_.assign(g.num_blocks, OrderedIdSet::kNone);
    RebuildCandidates();
    blocks_->set_block_observer(
        [this](BlockId block) { UpdateCandidate(block); });
  }
}

GcEngine::~GcEngine() {
  if (!candidates_.empty()) blocks_->set_block_observer(nullptr);
}

// ---------------------------------------------------------------------------
// Invalidation reports and the BVC.
// ---------------------------------------------------------------------------

void GcEngine::ReportInvalid(PhysicalAddress addr) {
#ifdef GECKO_DEBUG_GC_GROUND_TRUTH
  DebugCheckNotAuthoritative(*device_, addr);
#endif
  if (defer_reports_) {
    pending_invalid_.push_back(addr);
  } else {
    store_->RecordInvalidPage(addr);
  }
  // BVC tracks identified-invalid pages; clamp against double reports
  // (possible after recovery, Appendix C.3.2 — harmless for the bitmap,
  // so merely bounded here).
  if (bvc_[addr.block] < device_->geometry().pages_per_block) {
    ++bvc_[addr.block];
    if (!candidates_.empty()) UpdateCandidate(addr.block);
  }
  if (addr.block == fresh_victim_) fresh_invalid_.Set(addr.page);
}

void GcEngine::BeginRequest(bool defer) {
  GECKO_CHECK(!defer_reports_) << "re-entrant batched request";
  defer_reports_ = defer;
}

void GcEngine::EndRequest() {
  defer_reports_ = false;
  FlushPendingInvalid();
}

void GcEngine::FlushPendingInvalid() {
  if (pending_invalid_.empty()) return;
  std::vector<PhysicalAddress> batch;
  batch.swap(pending_invalid_);
  store_->RecordInvalidPages(batch);
}

// ---------------------------------------------------------------------------
// The resumable collection.
// ---------------------------------------------------------------------------

GcStepOutcome GcEngine::Step(uint32_t max_migrations, BlockId victim) {
  GcStepOutcome out;
  if (in_gc_) return out;  // re-entrant call: refuse, make no progress
  in_gc_ = true;
  // GC's own allocations run in compact mode: without it, channel striping
  // could open a fresh active on every stripe slot of every group
  // mid-collection and starve the pool. Restored between steps so user
  // writes interleaved with an incremental collection keep striping.
  const bool prev_compact = blocks_->compact_mode();
  blocks_->set_compact_mode(true);
  switch (cursor_.phase) {
    case GcPhase::kIdle:
      if (victim == kInvalidU32) victim = SelectVictim();
      // Nothing collectable: no progress; the caller decides whether that
      // means degradation (emergency floor) or nothing to do (idle tick).
      if (victim == kInvalidU32) break;
      StartCollection(victim);
      out.advanced = true;
      break;
    case GcPhase::kMigrate:
      cursor_.type == PageType::kUser ? MigrateUserPages(max_migrations)
                                      : MigrateMetadataPages(max_migrations);
      out.advanced = true;
      break;
    case GcPhase::kFlush:
      // Grouped invalidation reports collected during the migrate steps
      // (an in-flight batched request defers them) reach the store before
      // the erase record can obsolete them.
      FlushPendingInvalid();
      cursor_.phase = GcPhase::kErase;
      out.advanced = true;
      break;
    case GcPhase::kErase:
      FinishCollection();
      out.advanced = true;
      out.erased = true;
      break;
  }
  blocks_->set_compact_mode(prev_compact);
  in_gc_ = false;
  return out;
}

bool GcEngine::Collect(BlockId victim) {
  // ForceGc, the emergency floor and the wear scan all run between steps.
  GECKO_CHECK(!in_gc_) << "Collect called from inside a GC step";
  for (;;) {
    GcStepOutcome o = Step(~uint32_t{0}, victim);
    if (!o.advanced) return false;
    if (o.erased) return true;
  }
}

bool GcEngine::MigrationSafe() const {
  return device_->NumBadBlocks() == 0 ||
         blocks_->NumFreeBlocks() >= kMigrationReserve;
}

uint32_t GcEngine::CandidateValid(BlockId b) const {
  // The paper's kNeverCollectMetadata (and cost-benefit) restrict the
  // candidate set to user blocks (Section 4.2); greedy-all admits metadata
  // blocks.
  const PageType type = blocks_->BlockType(b);
  if (type == PageType::kFree) return kNotCandidate;
  if (!collects_metadata_ && type != PageType::kUser) return kNotCandidate;
  if (blocks_->IsActive(b) || blocks_->IsPinned(b)) return kNotCandidate;
  const uint32_t written = device_->PagesWritten(b);
  const uint32_t invalid = type == PageType::kUser
                               ? bvc_[b]
                               : written - blocks_->MetadataLivePages(b);
  return written >= invalid ? written - invalid : 0;
}

void GcEngine::UpdateCandidate(BlockId block) {
  const uint32_t valid = CandidateValid(block);
  const uint32_t channels = device_->num_channels();
  const uint32_t key = valid == kNotCandidate
                           ? OrderedIdSet::kNone
                           : valid * blocks_per_channel_ + block / channels;
  uint32_t& current = candidate_key_[block];
  if (key == current) return;
  OrderedIdSet& set = candidates_[device_->ChannelOf(block)];
  if (current != OrderedIdSet::kNone) set.Erase(current);
  if (key != OrderedIdSet::kNone) set.Insert(key);
  current = key;
}

void GcEngine::RebuildCandidates() {
  if (candidates_.empty()) return;
  for (OrderedIdSet& set : candidates_) set.Clear();
  std::fill(candidate_key_.begin(), candidate_key_.end(), OrderedIdSet::kNone);
  for (BlockId b = 0; b < candidate_key_.size(); ++b) UpdateCandidate(b);
}

BlockId GcEngine::SelectVictim() const {
  if (candidates_.empty()) return ScanVictim();
  // SelectGcVictim's order over each channel's best candidate: fewest
  // valid pages, then the least-busy channel clock, then the lowest id.
  const bool migration_safe = MigrationSafe();
  const uint32_t channels = device_->num_channels();
  BlockId best = kInvalidU32;
  uint32_t best_valid = 0;
  double best_busy = 0;
  for (ChannelId c = 0; c < channels; ++c) {
    const uint32_t key = candidates_[c].First();
    if (key == OrderedIdSet::kNone) continue;
    const uint32_t valid = key / blocks_per_channel_;
    if (!migration_safe && valid > 0) continue;
    const BlockId block = key % blocks_per_channel_ * channels + c;
    const double busy = device_->ChannelBusyUntilUs(c);
    if (best == kInvalidU32 || valid < best_valid ||
        (valid == best_valid &&
         (busy < best_busy || (busy == best_busy && block < best)))) {
      best = block;
      best_valid = valid;
      best_busy = busy;
    }
  }
#ifdef GECKO_DEBUG_GC_GROUND_TRUTH
  GECKO_CHECK_EQ(best, ScanVictim()) << "victim index diverged from the scan";
#endif
  return best;
}

BlockId GcEngine::ScanVictim() const {
  const Geometry& g = device_->geometry();
  const uint64_t now_seq = device_->CurrentSeq();
  const bool migration_safe = MigrationSafe();
  return SelectGcVictim(
      g.num_blocks, *victim_policy_, [&](BlockId b, GcVictimCandidate* c) {
        const uint32_t valid = CandidateValid(b);
        if (valid == kNotCandidate) return false;
        if (!migration_safe && valid > 0) return false;
        c->valid = valid;
        c->written = device_->PagesWritten(b);
        c->pages_per_block = g.pages_per_block;
        uint64_t last = device_->LastProgramSeq(b);
        c->age = now_seq >= last ? now_seq - last : 0;
        c->channel_busy_until_us =
            device_->ChannelBusyUntilUs(device_->ChannelOf(b));
        return true;
      });
}

void GcEngine::StartCollection(BlockId victim) {
  GECKO_CHECK_NE(victim, kInvalidU32);
  GECKO_CHECK(cursor_.phase == GcPhase::kIdle);
  ++counters_->gc_collections;
  cursor_.victim = victim;
  cursor_.type = blocks_->BlockType(victim);
  cursor_.next_page = 0;
  if (cursor_.type == PageType::kUser) {
    // Reports deferred by an in-flight batched request must reach the
    // store before its bitmap is queried.
    FlushPendingInvalid();
    // One GC query to the page-validity store (Section 4, Figure 7).
    cursor_.invalid = store_->QueryInvalidPages(victim);
    fresh_victim_ = victim;
    fresh_invalid_ = Bitmap(device_->geometry().pages_per_block);
  } else {
    cursor_.invalid = Bitmap();
  }
  cursor_.phase = GcPhase::kMigrate;
}

void GcEngine::MigrateUserPages(uint32_t max_migrations) {
  const Geometry& g = device_->geometry();
  const BlockId victim = cursor_.victim;
  TranslationTable& table = translation_->table();
  // Hot/cold separation: a page that survived a whole collection is
  // colder than its class predicted, so survivors land one temperature
  // class colder than the victim block (saturating at the coldest). With
  // one class both temps stay 0 and no demotion is counted.
  const uint32_t classes = blocks_->num_temp_classes();
  const uint8_t victim_temp = blocks_->BlockTemp(victim);
  const uint8_t survivor_temp =
      classes > 1 ? static_cast<uint8_t>(std::min(victim_temp + 1u,
                                                  classes - 1))
                  : victim_temp;
  uint32_t migrated = 0;
  while (cursor_.next_page < g.pages_per_block && migrated < max_migrations) {
    const uint32_t p = cursor_.next_page++;
    if (cursor_.invalid.Test(p)) {
      continue;  // known invalid: no spare read needed
    }
    // Reports that arrived after the query snapshot (from syncs triggered
    // by migration-driven evictions, or by user writes interleaved with
    // an incremental collection) supersede the snapshot.
    if (fresh_invalid_.Test(p)) continue;
    PhysicalAddress addr{victim, p};
    PageReadResult spare = device_->ReadSpare(addr, IoPurpose::kGcMigration);
    if (!spare.written) {
      // Sequential programming: the rest are free. (No write can land on
      // the victim mid-collection — it is neither free nor active.)
      cursor_.next_page = g.pages_per_block;
      break;
    }
    if (spare.media_error) {
      // Failed-program page: its data was re-placed before the write
      // completed, so nothing live can be here. Skip it.
      continue;
    }
    GECKO_CHECK(spare.spare.IsUser());
    Lpn lpn = spare.spare.key;

    // UIP check (Section 4.1, "Garbage-Collection"): a cached entry that
    // points elsewhere makes this page a stale copy — the cache is
    // authoritative. With the UIP flag set, the before-image is now
    // identified (and about to be erased), so the flag clears; without it
    // (possible for baselines whose validity store lost records across a
    // power failure) the page is equally dead and must not be migrated.
    MappingEntry* entry = translation_->Find(lpn);
    if (entry != nullptr && entry->ppa != addr) {
      if (entry->uip) {
        if (spare.spare.seq >= last_recovery_seq_) {
          // Exactly-tracked page: every *identified* stale copy younger
          // than the last recovery is in the query snapshot or the fresh
          // mirror, so reaching this check means this page IS the
          // unidentified before-image — about to be erased, so the flag
          // clears and the next sync writes no report.
          ++counters_->uip_detections;
          entry->uip = false;
        } else {
          // Pre-recovery stale copy: it may be an *already-identified*
          // copy whose store record died with a crash and evaded
          // re-derivation, while the entry's real unidentified
          // before-image sits elsewhere. Clearing the flag here would
          // leave that before-image unidentified forever (a zombie once
          // this entry is evicted); leaving it untouched would let the
          // next sync report the translation-resident address without
          // verification — possibly this very page after its block is
          // erased and rewritten (the Appendix C.3.2 resurrection
          // hazard). Mark the entry uncertain instead: the sync then
          // verifies via a spare read that the reported page still holds
          // this logical page.
          entry->uncertain = true;
        }
      }
      continue;
    }
    if (entry == nullptr && (validate_against_table_ ||
                             spare.spare.seq < last_recovery_seq_)) {
      // Crash-resilience: buffered invalidation records can die with a
      // power failure, and some before-images evade the re-derivation
      // paths of Appendix C.2. Pages that predate the last recovery are
      // therefore validated against the translation table (authoritative
      // for uncached lpns) before migration; younger pages are exactly
      // tracked and skip this read (DESIGN.md §3).
      PhysicalAddress current = table.Lookup(lpn, IoPurpose::kGcMigration);
      if (current != addr) continue;  // stale copy: do not migrate
    }

#ifdef GECKO_DEBUG_GC_GROUND_TRUTH
    GECKO_CHECK(translation_->PeekAuthoritative(lpn) == addr)
        << "ZOMBIE MIGRATION lpn=" << lpn << " page=" << addr.ToString();
#endif
    // Migrate: read + write, treated like an application write (a dirty
    // cached mapping entry is created). UIP=false — the before-image is
    // this very page (DESIGN.md deviation 3).
    PageReadResult page = device_->ReadPage(addr, IoPurpose::kGcMigration);
    SpareArea new_spare;
    new_spare.type = PageType::kUser;
    new_spare.key = lpn;
    // A live tombstone stays a tombstone (the trimmed lpn must keep
    // reading back NotFound after its marker is migrated).
    new_spare.tombstone = page.spare.tombstone;
    new_spare.temp = survivor_temp;
    // A program fault mid-migration re-places the copy transparently.
    PhysicalAddress dest =
        AllocateAndProgram(device_, blocks_, PageType::kUser, kNoStream,
                           new_spare, page.payload, IoPurpose::kGcMigration)
            .addr;
    ++counters_->gc_migrations;
    if (survivor_temp > victim_temp) ++counters_->gc_demotions;
    translation_->Remap(lpn, dest, /*uip=*/false,
                        /*report_before_image=*/false);
    translation_->EnforceDirtyCap();
    ++migrated;
  }
  if (cursor_.next_page >= g.pages_per_block) cursor_.phase = GcPhase::kFlush;
}

void GcEngine::MigrateMetadataPages(uint32_t max_migrations) {
  const Geometry& g = device_->geometry();
  const BlockId victim = cursor_.victim;
  const PageType type = cursor_.type;
  TranslationTable& table = translation_->table();
  uint32_t migrated = 0;
  while (cursor_.next_page < g.pages_per_block && migrated < max_migrations) {
    const uint32_t p = cursor_.next_page++;
    PhysicalAddress addr{victim, p};
    PageReadResult spare = device_->ReadSpare(
        addr, type == PageType::kTranslation ? IoPurpose::kTranslation
                                             : IoPurpose::kPvm);
    if (!spare.written) {
      cursor_.next_page = g.pages_per_block;
      break;
    }
    if (spare.media_error) continue;  // failed program: nothing live here
    if (type == PageType::kTranslation) {
      TPageId t = spare.spare.key;
      // A sync interleaved with this incremental collection may have
      // replaced the page already; only the current version migrates.
      if (table.Exists(t) && table.Location(t) == addr) {
        table.MigrateTPage(t, IoPurpose::kTranslation);
        ++counters_->gc_migrations;
        ++migrated;
      }
    } else {
      if (store_->RelocatePage(addr)) ++counters_->gc_migrations;
      ++migrated;
    }
  }
  if (cursor_.next_page >= g.pages_per_block) cursor_.phase = GcPhase::kFlush;
}

void GcEngine::FinishCollection() {
  GECKO_CHECK(cursor_.phase == GcPhase::kErase);
  const BlockId victim = cursor_.victim;
  if (cursor_.type == PageType::kUser) {
    fresh_victim_ = kInvalidU32;
#ifdef GECKO_DEBUG_GC_GROUND_TRUTH
    for (uint32_t p = 0; p < device_->geometry().pages_per_block; ++p) {
      PhysicalAddress a{victim, p};
      if (!device_->IsWritten(a)) continue;
      PageReadResult r = device_->PeekSpare(a);
      if (r.media_error || !r.spare.IsUser()) continue;
      GECKO_CHECK(translation_->PeekAuthoritative(r.spare.key) != a)
          << "ERASING LIVE PAGE lpn=" << r.spare.key << " page="
          << a.ToString() << " invalid_bit=" << cursor_.invalid.Test(p)
          << " fresh=" << fresh_invalid_.Test(p);
    }
#endif
    // Record the erase in the validity store (one cheap buffered insert
    // for Logarithmic Gecko; Section 3's erase flag) and erase the block,
    // in one crash-atomic step. Any reports still pending (fresh
    // invalidations from migration-driven evictions can target the victim
    // itself) must land before the erase record obsoletes them.
    FlushPendingInvalid();
    store_->RecordErase(victim);
    bvc_[victim] = 0;
    EraseBlock(victim, IoPurpose::kGcMigration);
  } else {
    EraseBlock(victim, cursor_.type == PageType::kTranslation
                           ? IoPurpose::kTranslation
                           : IoPurpose::kPvm);
  }
  cursor_ = GcCursor{};
}

void GcEngine::EraseBlock(BlockId block, IoPurpose purpose) {
  translation_->table().OnBlockErased(block);
  blocks_->EraseOrRetire(block, purpose);
}

// ---------------------------------------------------------------------------
// Pacing: the watermark ladder and the wear scan.
// ---------------------------------------------------------------------------

bool GcEngine::BeforeUserWrite() {
  constexpr uint32_t floor = kGcFreeBlockFloor;
  const uint32_t free = blocks_->NumFreeBlocks();
  if (hard_ > floor && free < hard_ && free >= floor) {
    // Write-credit throttling: the deficit below the hard watermark earns
    // credits, and each credit funds one bounded GC step — work grows
    // smoothly with the pressure instead of arriving as one stop-the-world
    // collection at the floor.
    ++stats_.throttle_engagements;
    credits_ += kCreditsPerDeficit * static_cast<double>(hard_ - free);
    // Credits never bank more than one full band's worth: the per-write
    // step budget stays bounded by the band width, so a deep deficit
    // cannot fund a whole-block collection on a single write — that
    // would be the stop-the-world spike this path exists to avoid.
    credits_ = std::min(credits_, kCreditsPerDeficit *
                                      static_cast<double>(hard_ - floor));
    while (credits_ >= 1.0 && blocks_->NumFreeBlocks() < hard_) {
      if (!Step(pacing_.migrations_per_step).advanced) break;
      credits_ -= 1.0;
      ++stats_.throttled_steps;
    }
  }
  // Below the emergency floor: whole collections until the pool is back
  // at it.
  if (blocks_->NumFreeBlocks() >= floor) return true;
  ++stats_.emergency_stalls;
  // A single collection can be transiently net-zero (migrations and
  // metadata read-modify-writes consume pages before the victim's erase
  // frees them), so progress is checked across collections, not per step.
  uint64_t rounds = 0;
  while (blocks_->NumFreeBlocks() < floor) {
    // Starting a fresh collection with nothing in the pool: even an
    // all-invalid victim's erase record may need a page on a fresh
    // metadata block. The pool is gone.
    if (blocks_->NumFreeBlocks() == 0 && cursor_.phase == GcPhase::kIdle) {
      return false;
    }
    // No victim to collect (every non-free user block is all-live, or
    // grown bad blocks retired the spare capacity).
    if (!Collect()) return false;
    // Collections complete but never net a block above the floor — the
    // write-amplification death spiral of a device out of spares.
    if (++rounds > uint64_t{2} * device_->geometry().num_blocks) return false;
  }
  return true;
}

void GcEngine::AfterUserWrite() {
  if (wear_ == nullptr) return;
  const BlockId victim = wear_->OnWrite();
  // Wear leveling is opportunistic: with a collection in flight the
  // gradual scan will rediscover the block later.
  if (victim != kInvalidU32 && blocks_->BlockType(victim) == PageType::kUser &&
      !blocks_->IsActive(victim) && !blocks_->IsPinned(victim) && !in_gc_ &&
      cursor_.phase == GcPhase::kIdle) {
    Collect(victim);
  }
}

uint64_t GcEngine::IdleSteps() {
  uint64_t steps = 0;
  for (uint32_t i = 0; i < pacing_.steps_per_tick; ++i) {
    // Collect while the pool is short; always finish a collection that is
    // already mid-flight (completing it is what frees the block).
    if (blocks_->NumFreeBlocks() >= soft_ && cursor_.phase == GcPhase::kIdle) {
      break;
    }
    if (!Step(pacing_.migrations_per_step).advanced) break;
    ++stats_.background_steps;
    ++steps;
  }
  return steps;
}

// ---------------------------------------------------------------------------
// Power failure and recovery.
// ---------------------------------------------------------------------------

void GcEngine::ResetRamState() {
  // Request dispatch is synchronous, so a crash sits between requests: no
  // batched reports pending.
  GECKO_CHECK(pending_invalid_.empty() && !defer_reports_)
      << "power failure inside a batched request";
  std::fill(bvc_.begin(), bvc_.end(), 0u);
  RebuildCandidates();
  cursor_ = GcCursor{};
  fresh_victim_ = kInvalidU32;
  fresh_invalid_ = Bitmap();
  in_gc_ = false;
  credits_ = 0;
}

void GcEngine::RecoverBvc(const std::vector<uint32_t>& counts) {
  const uint32_t pages = device_->geometry().pages_per_block;
  for (BlockId block = 0; block < counts.size(); ++block) {
    if (blocks_->BlockType(block) == PageType::kUser) {
      bvc_[block] = std::min(counts[block], pages);
    }
  }
  RebuildCandidates();
}

}  // namespace gecko
