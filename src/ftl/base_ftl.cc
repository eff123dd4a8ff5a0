#include "ftl/base_ftl.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace gecko {

BaseFtl::BaseFtl(FlashDevice* device, const FtlConfig& config,
                 const std::function<std::unique_ptr<PageValidityStore>(
                     BlockManager*)>& make_store)
    : device_(device),
      config_(config),
      // Any policy that never selects metadata victims needs the block
      // manager's auto-erase of fully-invalid metadata blocks instead.
      blocks_(device, !GcPolicyCollectsMetadata(config.gc_policy)),
      store_(make_store(&blocks_)),
      hotness_(config.num_temp_classes == 0 ? 1 : config.num_temp_classes,
               config.hotness_sketch_bits, config.hotness_decay_period),
      translation_(
          device, &blocks_, config, &hotness_, &counters_,
          [this](PhysicalAddress addr) { gc_.ReportInvalid(addr); },
          [this](TPageId tpage, PhysicalAddress old_addr) {
            OnTranslationPageReplaced(tpage, old_addr);
          }),
      gc_(device, &blocks_, store_.get(), &translation_, config, &counters_),
      engine_(this, device, config.async_queue_depth) {
  // Hot/cold stream separation: per-class active blocks (and, inside the
  // translation layer, hotness-weighted cache eviction). With one class
  // (the default) the FTL is bit-identical to the single-stream layout,
  // which the temperature-class identity tests pin down.
  if (hotness_.num_classes() > 1) {
    blocks_.ConfigureTempClasses(hotness_.num_classes());
  }
}

uint8_t BaseFtl::ClassifyWrite(Lpn lpn, bool tombstone) {
  if (hotness_.num_classes() <= 1) return 0;
  // Record first, then classify: the class reflects the op that is about
  // to program, so an lpn's second recent update already lands hot, and
  // trim affinity (double weight) pulls discard-churned pages hotter.
  if (tombstone) {
    hotness_.RecordTrim(lpn);
  } else {
    hotness_.RecordWrite(lpn);
  }
  return hotness_.Classify(lpn);
}

// ---------------------------------------------------------------------------
// Request servicing (Section 4, "Serving Application ...", extended to
// batched scatter-gather requests).
// ---------------------------------------------------------------------------

Status BaseFtl::Submit(IoRequest& request, IoResult* result) {
  IoResult scratch;
  IoResult& res = result != nullptr ? *result : scratch;
  // Cleared in place, so the completion's copy reuses the caller's
  // capacity.
  res.Clear();

  // Thin wrapper over the async path: submit, then run the reactor to
  // completion. The engine opens a batch window around the dispatch, so a
  // lone synchronous request still completes in max-per-channel time and
  // records one latency sample. If other async requests are in flight,
  // this acts as a barrier for them too.
  bool done = false;
  CompletionCb capture = [&res, &done](const IoResult& r,
                                       const AsyncCompletion&) {
    res = r;
    done = true;
  };
  Status s = engine_.Submit(request, capture);
  if (s.code() == StatusCode::kQueueFull) {
    engine_.DrainAll();
    s = engine_.Submit(request, capture);
  }
  if (!s.ok()) {
    res.status = s;
    return s;
  }
  engine_.DrainAll();
  GECKO_CHECK(done) << "submission drained without completing";
  return res.status;
}

void BaseFtl::ExecuteRequest(IoRequest& request, IoResult* result,
                             MissSink* miss_sink) {
  if (request.op == IoOp::kFlush) {
    ++counters_.flushes;
    FlushAll();
    return;
  }
  const size_t n = request.extents.size();
  result->extent_status.assign(n, Status::Ok());
  if (n > 1) {
    ++counters_.batches;
    counters_.batched_pages += n;
  }
  if (request.op == IoOp::kRead) {
    result->payloads.assign(n, 0);
    ReadBatch(request, result, miss_sink);
  } else {
    WriteBatch(request, result, /*trim=*/request.op == IoOp::kTrim);
  }
}

bool BaseFtl::CommitsEagerly(const IoRequest& request) const {
  // Commit each translation-page group eagerly only when a write/trim
  // batch far overflows the mapping cache. A batch the cache can absorb
  // loses nothing by staying lazy — eviction- and checkpoint-driven
  // synchronization groups dirty entries over a window of roughly C ops,
  // at least as wide as the request. A much larger batch would instead
  // see its entries evicted one by one, each paying a nearly-private
  // synchronization; streaming the groups and committing each touched
  // translation page once per request caps the cost at the number of
  // touched pages. The 2C margin keeps the boundary regime (where both
  // schemes group about equally well) on the lazy path.
  return (request.op == IoOp::kWrite || request.op == IoOp::kTrim) &&
         request.extents.size() >= 2 * translation_.cache().capacity();
}

void BaseFtl::DependencyKeys(const IoRequest& request,
                             std::vector<DepKey>* keys) {
  if (request.op == IoOp::kFlush) {
    // A flush synchronizes every dirty entry: it must see the effects of
    // everything admitted before it and block everything after — a full
    // barrier, expressed as the exclusive side of the global key every
    // other request shares.
    keys->push_back(DepKey::Global(/*exclusive=*/true));
    return;
  }
  keys->push_back(DepKey::Global(/*exclusive=*/false));

  const uint64_t num_lpns = device_->geometry().NumLogicalPages();
  const bool write_like =
      request.op == IoOp::kWrite || request.op == IoOp::kTrim;
  // Cache-overflowing write/trim batches commit each touched translation
  // page inline (WriteBatch's eager commit): two such commits of one
  // tpage — or a commit racing a miss-path read of it — must serialize.
  const bool eager_commit = CommitsEagerly(request);

  key_lpns_.clear();
  key_tpages_.clear();
  for (const IoExtent& e : request.extents) {
    if (e.lpn >= num_lpns) continue;  // rejected per-extent; touches nothing
    key_lpns_.push_back({e.lpn, write_like});
    if (eager_commit) {
      key_tpages_.push_back({translation_.table().TPageOf(e.lpn), true});
    } else if (request.op == IoOp::kRead &&
               !translation_.cache().Contains(e.lpn)) {
      // Predicted cache miss: the read will fetch this translation page.
      key_tpages_.push_back({translation_.table().TPageOf(e.lpn), false});
    }
  }

  // Dedupe each space, merging exclusivity (exclusive wins).
  auto emit = [keys](std::vector<std::pair<uint64_t, bool>>* ids,
                     DepKey::Space space) {
    std::sort(ids->begin(), ids->end());
    for (size_t i = 0; i < ids->size();) {
      size_t j = i;
      bool exclusive = false;
      while (j < ids->size() && (*ids)[j].first == (*ids)[i].first) {
        exclusive = exclusive || (*ids)[j].second;
        ++j;
      }
      keys->push_back(DepKey{space, (*ids)[i].first, exclusive});
      i = j;
    }
  };
  emit(&key_lpns_, DepKey::Space::kLpn);
  emit(&key_tpages_, DepKey::Space::kTranslationPage);
}

Status BaseFtl::WriteExtent(Lpn lpn, uint64_t payload, bool tombstone,
                            bool lone) {
  // Sticky read-only mode: no spare capacity is left for out-of-place
  // writes, and a trim programs a tombstone page, so both are refused.
  if (degraded_) {
    return Status::OutOfSpace("device in read-only degraded mode");
  }
  TranslationTable& table = translation_.table();
  if (tombstone) {
    ++counters_.trims;
    device_->stats().OnLogicalTrim();
    // Cheap no-op: an lpn with no cached entry whose translation page was
    // never written cannot have on-flash data (dirty evictions sync, so
    // any flash-resident copy implies a flash-resident translation page).
    if (!translation_.cache().Contains(lpn) &&
        !table.Exists(table.TPageOf(lpn))) {
      return Status::Ok();
    }
  } else {
    ++counters_.writes;
    device_->stats().OnLogicalWrite();
  }
  // GC admission: throttled incremental steps below the hard watermark,
  // the run-to-completion backstop below the emergency floor. If that
  // found space unreclaimable, allocating now would exhaust the pool.
  if (!gc_.BeforeUserWrite()) {
    degraded_ = true;
    std::fprintf(stderr,
                 "[%s] entering read-only degraded mode: free_blocks=%u "
                 "emergency_floor=%u grown_bad_blocks=%u\n",
                 Name(), blocks_.NumFreeBlocks(), kGcFreeBlockFloor,
                 blocks_.bad_blocks().GrownBadBlocks());
    return Status::OutOfSpace("device in read-only degraded mode");
  }

  // Program the new version on a free user page. A trim programs a
  // tombstone: a user page flagged dead-on-read, so the whole write-path
  // invariant set (UIP identification, GC checks, backward-scan recovery)
  // covers discards with no special cases. A program fault re-places the
  // page transparently before the extent completes (AllocateAndProgram).
  SpareArea spare;
  spare.type = PageType::kUser;
  spare.key = lpn;
  spare.tombstone = tombstone;
  spare.temp = ClassifyWrite(lpn, tombstone);
  PhysicalAddress ppa =
      AllocateAndProgram(device_, &blocks_, PageType::kUser, kNoStream, spare,
                         payload, IoPurpose::kUserWrite)
          .addr;

  // The cached address, if any, is the before-image: identify it
  // immediately (Section 4.1, "Application Writes"). The UIP flag is left
  // as is — an older unidentified image may still exist.
  bool uip = true;
  if (translation_.cache().Contains(lpn)) {
    ++counters_.cache_hits;
  } else {
    ++counters_.cache_misses;
    if (lone && config_.invalidation == InvalidationMode::kImmediate) {
      if (table.Exists(table.TPageOf(lpn))) {
        ++counters_.miss_fetches;  // the Lookup below reads the tpage
      }
      // Baselines fetch the mapping from flash to identify the
      // before-image right away (one translation-page read on the write
      // path — the cost GeckoFTL's lazy scheme avoids). Batch extents
      // skip this per-lpn read even for baselines: identification rides
      // the UIP flag to the next synchronization of the translation page
      // — within this request for cache-overflowing batches (WriteBatch's
      // eager commit), at a later eviction/checkpoint sync otherwise —
      // where one read covers every before-image of the page.
      PhysicalAddress old = table.Lookup(lpn, IoPurpose::kTranslation);
      if (old.IsValid()) gc_.ReportInvalid(old);
      uip = false;
    }
  }
  translation_.Remap(lpn, ppa, uip, /*report_before_image=*/true);
  if (lone) translation_.EnforceDirtyCap();
  gc_.AfterUserWrite();  // wear-leveler gradual-scan feed
  return Status::Ok();
}

void BaseFtl::WriteBatch(const IoRequest& request, IoResult* result,
                         bool trim) {
  // Scatter-gather batching = reordering freedom: the extents stream
  // through in translation-page order, and each touched translation page
  // is synchronized once, right after its group of extents lands. The
  // group's entries are dirtied together and committed together, so the
  // translation table and page-validity store are updated once per
  // touched metadata page instead of once per lpn — even when the
  // mapping cache is far smaller than the batch (the RAM-starved regime
  // the paper targets), where single-page calls thrash the cache and pay
  // one eviction-driven sync per write. Extents of one lpn keep their
  // submission order (same group), so duplicates resolve last-writer-wins.
  //
  // A lone write — a kWrite request with one extent — keeps the per-page
  // shape of the paper's write path: its before-image report goes straight
  // to the validity store, immediate-invalidation baselines look up its
  // old mapping in flash (their baseline write-miss cost), and the dirty
  // cap is enforced right after the page. Trims of any size keep the
  // batch shape: even a single trim benefits from deferred identification
  // and the grouped synchronization.
  const bool lone = !trim && request.extents.size() == 1;
  gc_.BeginRequest(/*defer=*/!lone);

  by_tpage_.clear();
  for (size_t i = 0; i < request.extents.size(); ++i) {
    Lpn lpn = request.extents[i].lpn;
    if (lpn >= device_->geometry().NumLogicalPages()) {
      result->extent_status[i] =
          Status::InvalidArgument("lpn beyond logical capacity");
      continue;
    }
    by_tpage_.push_back({translation_.table().TPageOf(lpn), i});
  }
  std::sort(by_tpage_.begin(), by_tpage_.end());

  const bool commit_now = CommitsEagerly(request);
  for (size_t g = 0; g < by_tpage_.size(); ++g) {
    const size_t i = by_tpage_[g].second;
    const IoExtent& e = request.extents[i];
    result->extent_status[i] =
        WriteExtent(e.lpn, trim ? 0 : e.payload, trim, lone);
    // One synchronization after the page's last extent commits the whole
    // group's mappings and identifies their before-images off a single
    // translation-page read (the lazy phase left them flagged UIP, even
    // for immediate-mode baselines — their per-lpn lookup is what the
    // batch amortizes away).
    const TPageId tpage = by_tpage_[g].first;
    if (commit_now &&
        (g + 1 == by_tpage_.size() || by_tpage_[g + 1].first != tpage)) {
      translation_.Sync(tpage);
    }
  }

  gc_.EndRequest();
  translation_.EnforceDirtyCap();
}

void BaseFtl::ReadBatch(const IoRequest& request, IoResult* result,
                        MissSink* miss_sink) {
  // Cache misses are grouped by translation page so N missed lpns of the
  // same page cost one translation read instead of N lookups.
  TranslationTable& table = translation_.table();
  by_tpage_.clear();
  resolved_.assign(request.extents.size(), kNullAddress);
  for (size_t i = 0; i < request.extents.size(); ++i) {
    Lpn lpn = request.extents[i].lpn;
    if (lpn >= device_->geometry().NumLogicalPages()) {
      result->extent_status[i] =
          Status::InvalidArgument("lpn beyond logical capacity");
      continue;
    }
    ++counters_.reads;
    device_->stats().OnLogicalRead();
    MappingEntry* entry = translation_.Find(lpn);
    if (entry != nullptr) {
      ++counters_.cache_hits;
      resolved_[i] = entry->ppa;
    } else {
      ++counters_.cache_misses;
      by_tpage_.push_back({table.TPageOf(lpn), i});
    }
  }
  std::sort(by_tpage_.begin(), by_tpage_.end());

  for (size_t begin = 0, end = 0; begin < by_tpage_.size(); begin = end) {
    const TPageId tpage = by_tpage_[begin].first;
    while (end < by_tpage_.size() && by_tpage_[end].first == tpage) ++end;
    if (!table.Exists(tpage)) {
      // Nothing to fetch: the translation page was never written, so
      // every lpn on it is unmapped. Resolves identically on every path
      // (in particular, parking such extents would be a wasted stall).
      for (size_t g = begin; g < end; ++g) {
        result->extent_status[by_tpage_[g].second] =
            Status::NotFound("logical page never written");
      }
      continue;
    }
    if (config_.async_miss_fetch) {
      // Async miss pipeline: park the whole group. The engine issues one
      // coalesced fetch per translation page (across requests, not just
      // within this one) and replays each extent via ResolveParkedExtent
      // when the fetch's device time is reached.
      for (size_t g = begin; g < end; ++g) {
        miss_sink->parked.push_back(
            MissSink::ParkedMiss{tpage, by_tpage_[g].second});
      }
      continue;
    }
    // Synchronous-miss baseline: one charged translation read serves the
    // whole group — the first miss is the fetch, the rest coalesce — and
    // the group's data reads may not issue until the fetch retires (it is
    // the newest op on its channel, so busy-until is its completion time).
    // The image is copied: an eviction below can commit and erase the block
    // that holds it.
    ++counters_.miss_fetches;
    counters_.miss_joins += end - begin - 1;
    std::vector<PhysicalAddress> mappings =
        table.ReadTPage(tpage, IoPurpose::kTranslation);
    device_->AdvanceTo(device_->ChannelBusyUntilUs(
        device_->ChannelOf(table.Location(tpage).block)));
    for (size_t g = begin; g < end; ++g) {
      const size_t i = by_tpage_[g].second;
      const Lpn lpn = request.extents[i].lpn;
      PhysicalAddress ppa = mappings[lpn % table.entries_per_page()];
      if (!ppa.IsValid()) {
        result->extent_status[i] =
            Status::NotFound("logical page never written");
        continue;
      }
      resolved_[i] = ppa;
      translation_.CacheFetched(lpn, ppa);
    }
  }

  for (size_t i = 0; i < request.extents.size(); ++i) {
    if (!result->extent_status[i].ok() || !resolved_[i].IsValid()) continue;
    ReadMappedPage(request, result, i, resolved_[i]);
  }
}

void BaseFtl::ReadMappedPage(const IoRequest& request, IoResult* result,
                             size_t extent, PhysicalAddress ppa) {
  PageReadResult r = device_->ReadPage(ppa, IoPurpose::kUserRead);
  if (r.media_error) {
    // Uncorrectable (hard) read fault: surfaced per extent, never as
    // wrong data. The mapping stays put — the loss is the page's, not
    // the translation's.
    result->extent_status[extent] =
        Status::IoError("uncorrectable read at " + ppa.ToString());
    return;
  }
  GECKO_CHECK(r.written) << "mapping points to unwritten page";
  GECKO_CHECK_EQ(r.spare.key, request.extents[extent].lpn)
      << "mapping points to wrong logical page";
  if (r.spare.tombstone) {
    result->extent_status[extent] = Status::NotFound("logical page trimmed");
  } else {
    result->payloads[extent] = r.payload;
  }
}

void BaseFtl::IssueMappingFetch(uint64_t tpage) {
  ++counters_.miss_fetches;
  // One charged flash read pays for every extent parked on this
  // translation page. The decoded image is discarded: data effects are
  // synchronous in this simulator, so each replay peeks the then-current
  // image instead of a snapshot (correct under concurrent GC migration
  // and interleaved synchronizations of the page). ReadVersion charges the
  // read without copying the image; a never-written page costs no IO.
  const TPageId t = static_cast<TPageId>(tpage);
  TranslationTable& table = translation_.table();
  if (table.Exists(t)) {
    table.ReadVersion(table.Location(t), IoPurpose::kTranslation);
  }
}

void BaseFtl::ResolveParkedExtent(IoRequest& request, IoResult* result,
                                  size_t extent) {
  const Lpn lpn = request.extents[extent].lpn;
  PhysicalAddress ppa;
  MappingEntry* entry = translation_.Find(lpn);
  if (entry != nullptr) {
    // An interleaved request, a replay of an earlier waiter, or a GC
    // migration repopulated the entry while we were parked; it is
    // authoritative (the parked request's shared lpn claim blocks every
    // write/trim of this lpn, so no newer version can be missed).
    ppa = entry->ppa;
  } else {
    ppa = translation_.table().PeekMapping(lpn);
    if (ppa.IsValid()) translation_.CacheFetched(lpn, ppa);
  }
  if (!ppa.IsValid()) {
    result->extent_status[extent] =
        Status::NotFound("logical page never written");
    return;
  }
  ReadMappedPage(request, result, extent, ppa);
}

void BaseFtl::FlushAll() {
  // Synchronize every dirty cached entry, grouped per translation page
  // (the checkpoint machinery's grouping, applied to the full cache),
  // then let the subclass flush its own volatile state (the Logarithmic
  // Gecko buffer for GeckoFTL).
  translation_.SyncAllDirty();
  FlushMetadata();
}

// ---------------------------------------------------------------------------
// Counters and maintenance ticks.
// ---------------------------------------------------------------------------

const FtlCounters& BaseFtl::counters() const {
  // Refresh the fault surface on read: every program fault was re-placed
  // by AllocateAndProgram (or the process would have aborted), so the
  // device's fault count IS the remap count.
  counters_.remapped_programs = device_->stats().program_faults();
  counters_.grown_bad_blocks = blocks_.bad_blocks().GrownBadBlocks();
  counters_.degraded_mode = degraded_ ? 1 : 0;
  return counters_;
}

uint64_t BaseFtl::IdleTick() {
  // Background maintenance runs in its own batch window, so its flash ops
  // overlap across channels and its cost is charged to host-idle time —
  // never to a user request's latency.
  device_->BeginBatch();
  uint64_t steps = gc_.IdleSteps();
  translation_.IdleCheckpoint();
  if (config_.maintenance.idle_flush_period > 0 &&
      ++ticks_since_flush_ >= config_.maintenance.idle_flush_period) {
    ticks_since_flush_ = 0;
    FlushMetadata();
  }
  FlashDevice::BatchResult batch = device_->EndBatch();
  if (!device_->in_batch() && batch.ops > 0) {
    device_->stats().OnRequestLatency(RequestClass::kMaintenance,
                                      batch.elapsed_us);
  }
  return steps;
}

// ---------------------------------------------------------------------------
// Power failure and recovery (Section 4.3, Appendix C).
// ---------------------------------------------------------------------------

RecoveryReport BaseFtl::CrashAndRecover() {
  // In-flight async requests die with the power: dispatched ones have
  // their flash effects on the device but the host never saw a
  // completion (indeterminate, like NVMe commands outstanding at reset);
  // parked ones never executed at all. Both get kAborted callbacks, and
  // the engine's batch window closes (its parked channel ops physically
  // happened and retire into the stats).
  engine_.AbortAll();
  GECKO_CHECK(!device_->in_batch())
      << "power failure inside a device batch window";
  // Battery-backed FTLs synchronize all dirty entries before power runs
  // out (Section 2). The IO happens on residual power and does not count
  // toward recovery time.
  if (config_.battery) translation_.SyncAllDirty();

  // Power failure: all RAM-resident structures vanish — including the
  // resumable-GC cursor. A collection interrupted at any step boundary is
  // simply abandoned: its migrated copies are ordinary out-of-place
  // writes (recovered like any others), and stale not-yet-erased victim
  // copies are fenced by the recovery fence before any later collection
  // could migrate them.
  translation_.ResetRamState();
  gc_.ResetRamState();
  hotness_.Reset();
  blocks_.ResetRamState();
  // The degraded flag is RAM state: a power cycle clears it, and if the
  // retired blocks still leave no reclaimable space, the first
  // post-recovery write re-derives it through the emergency path.
  degraded_ = false;
  ticks_since_flush_ = 0;

  // Steps 1-2: the BID and the GMD.
  RecoveryReport report;
  const FlashMetadataScan scan = RecoverBlocksAndGmd(
      device_, &blocks_, &translation_.table(), &report);
  // Steps 3-5: the store rebuilds itself from its own blocks, then the
  // BVC is counted from it. A battery also saves a RAM-only store (DFTL's
  // RAM PVB, Section 5.3); flash-resident stores rebuild either way.
  if (!config_.battery) store_->ResetRamState();
  StoreRecovery store =
      store_->Recover(blocks_.BlocksOfType(PageType::kPvm), &report);
  blocks_.RecoverMetadataLiveCounts(store.live_pages);
  OnStoreRecovered(scan, &report);
  // Else a RAM store was lost: its FTL rebuilds PVB and BVC (LazyFTL).
  if (store.in_flash || config_.battery) {
    gc_.RecoverBvc(store_->InvalidCounts(&report));
  }
  // Steps 6-7: dirty mapping entries.
  RecoverDirtyEntries(config_, device_, blocks_, &translation_, &gc_, &report);
  OnRecoveryComplete(&report);
  translation_.ResumeAfterRecovery();
  // Step 8: dispose of leftovers, resume.
  SweepDeadMetadataBlocks(config_, *device_, blocks_, &gc_);
  gc_.set_recovery_fence(device_->CurrentSeq());
  return report;
}

uint64_t BaseFtl::RamBytes() const {
  return translation_.RamBytes() + gc_.RamBytes() + hotness_.RamBytes() +
         store_->RamBytes();
}

}  // namespace gecko
