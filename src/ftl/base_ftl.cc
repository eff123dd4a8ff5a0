#include "ftl/base_ftl.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

namespace gecko {

BaseFtl::BaseFtl(FlashDevice* device, const FtlConfig& config)
    : device_(device),
      config_(config),
      // Any policy that never selects metadata victims needs the block
      // manager's auto-erase of fully-invalid metadata blocks instead.
      blocks_(device, !GcPolicyCollectsMetadata(config.gc_policy)),
      translation_(device->geometry(), device, &blocks_),
      cache_(config.cache_capacity),
      hotness_(config.num_temp_classes == 0 ? 1 : config.num_temp_classes,
               config.hotness_sketch_bits, config.hotness_decay_period),
      victim_policy_(MakeGcVictimPolicy(config.gc_policy)),
      bvc_(device->geometry().num_blocks, 0),
      scheduler_(this, config),
      engine_(this, device, config.async_queue_depth) {
  if (config.wear_leveling) {
    wear_ = std::make_unique<WearLeveler>(device, config.wear_gap_threshold);
  }
  // Hot/cold stream separation: per-class active blocks and hotness-
  // weighted cache eviction. With one class (the default) neither call
  // changes anything — the FTL is bit-identical to the single-stream
  // layout, which the temperature-class identity tests pin down.
  if (hotness_.num_classes() > 1) {
    blocks_.ConfigureTempClasses(hotness_.num_classes());
    cache_.SetEvictionPolicy([this](Lpn lpn) { return hotness_.Score(lpn); },
                             config_.hot_eviction_scan_depth);
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
  res = IoResult();

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
  IoRequest copy = request;  // callers may reuse the request across retries
  Status s = engine_.Submit(std::move(copy), capture);
  if (s.code() == StatusCode::kQueueFull) {
    engine_.DrainAll();
    s = engine_.Submit(std::move(copy), capture);
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
         request.extents.size() >= 2 * cache_.capacity();
}

std::vector<DepKey> BaseFtl::DependencyKeys(const IoRequest& request) {
  std::vector<DepKey> keys;
  if (request.op == IoOp::kFlush) {
    // A flush synchronizes every dirty entry: it must see the effects of
    // everything admitted before it and block everything after — a full
    // barrier, expressed as the exclusive side of the global key every
    // other request shares.
    keys.push_back(DepKey::Global(/*exclusive=*/true));
    return keys;
  }
  keys.push_back(DepKey::Global(/*exclusive=*/false));

  const uint64_t num_lpns = device_->geometry().NumLogicalPages();
  const bool write_like =
      request.op == IoOp::kWrite || request.op == IoOp::kTrim;
  // Cache-overflowing write/trim batches commit each touched translation
  // page inline (WriteBatch's eager commit): two such commits of one
  // tpage — or a commit racing a miss-path read of it — must serialize.
  const bool eager_commit = CommitsEagerly(request);

  std::vector<std::pair<uint64_t, bool>> lpns;    // (lpn, exclusive)
  std::vector<std::pair<uint64_t, bool>> tpages;  // (tpage, exclusive)
  for (const IoExtent& e : request.extents) {
    if (e.lpn >= num_lpns) continue;  // rejected per-extent; touches nothing
    lpns.push_back({e.lpn, write_like});
    if (eager_commit) {
      tpages.push_back({translation_.TPageOf(e.lpn), true});
    } else if (request.op == IoOp::kRead && cache_.Peek(e.lpn) == nullptr) {
      // Predicted cache miss: the read will fetch this translation page.
      tpages.push_back({translation_.TPageOf(e.lpn), false});
    }
  }

  // Dedupe each space, merging exclusivity (exclusive wins).
  auto emit = [&keys](std::vector<std::pair<uint64_t, bool>>* ids,
                      DepKey::Space space) {
    std::sort(ids->begin(), ids->end());
    for (size_t i = 0; i < ids->size();) {
      size_t j = i;
      bool exclusive = false;
      while (j < ids->size() && (*ids)[j].first == (*ids)[i].first) {
        exclusive = exclusive || (*ids)[j].second;
        ++j;
      }
      keys.push_back(DepKey{space, (*ids)[i].first, exclusive});
      i = j;
    }
  };
  emit(&lpns, DepKey::Space::kLpn);
  emit(&tpages, DepKey::Space::kTranslationPage);
  return keys;
}

Status BaseFtl::WriteExtent(Lpn lpn, uint64_t payload, bool tombstone,
                            bool lone) {
  // Sticky read-only mode: no spare capacity is left for out-of-place
  // writes, and a trim programs a tombstone page, so both are refused.
  if (degraded_) {
    return Status::OutOfSpace("device in read-only degraded mode");
  }
  if (tombstone) {
    ++counters_.trims;
    device_->stats().OnLogicalTrim();
    // Cheap no-op: an lpn with no cached entry whose translation page was
    // never written cannot have on-flash data (dirty evictions sync, so
    // any flash-resident copy implies a flash-resident translation page).
    if (cache_.Peek(lpn) == nullptr &&
        !translation_.Exists(translation_.TPageOf(lpn))) {
      return Status::Ok();
    }
  } else {
    ++counters_.writes;
    device_->stats().OnLogicalWrite();
  }
  // GC admission: throttled incremental steps below the hard watermark,
  // the run-to-completion backstop below the emergency floor.
  scheduler_.BeforeUserWrite();
  // The emergency collection may have just found space unreclaimable and
  // degraded the FTL; allocating now would exhaust the pool.
  if (degraded_) {
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

  MappingEntry* entry = cache_.Find(lpn);
  if (entry != nullptr) {
    ++counters_.cache_hits;
    // The cached address is the before-image: identify it immediately
    // (Section 4.1, "Application Writes"). The UIP flag is left as is —
    // an older unidentified image may still exist.
#ifdef GECKO_DEBUG_GC_GROUND_TRUTH
    DebugCheckNotAuthoritative(entry->ppa, "write-hit");
#endif
    ReportInvalid(entry->ppa);
    cache_.MarkDirty(entry);
    entry->ppa = ppa;
  } else {
    ++counters_.cache_misses;
    bool uip = true;
    if (lone && config_.invalidation == InvalidationMode::kImmediate) {
      if (translation_.Exists(translation_.TPageOf(lpn))) {
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
      PhysicalAddress old =
          translation_.Lookup(lpn, IoPurpose::kTranslation);
#ifdef GECKO_DEBUG_GC_GROUND_TRUTH
      if (old.IsValid()) DebugCheckNotAuthoritative(old, "write-miss");
#endif
      if (old.IsValid()) ReportInvalid(old);
      uip = false;
    }
    while (cache_.NeedsEviction()) EvictOne();
    cache_.Insert(lpn, MappingEntry{ppa, /*dirty=*/true, uip,
                                    /*uncertain=*/false});
  }
  NoteCacheOp();
  if (lone) EnforceDirtyCap();
  scheduler_.AfterUserWrite();  // wear-leveler gradual-scan feed
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
  GECKO_CHECK(!defer_invalid_reports_) << "re-entrant batched request";
  defer_invalid_reports_ = !lone;

  std::map<TPageId, std::vector<size_t>> groups;
  for (size_t i = 0; i < request.extents.size(); ++i) {
    Lpn lpn = request.extents[i].lpn;
    if (lpn >= device_->geometry().NumLogicalPages()) {
      result->extent_status[i] =
          Status::InvalidArgument("lpn beyond logical capacity");
      continue;
    }
    groups[translation_.TPageOf(lpn)].push_back(i);
  }

  const bool commit_now = CommitsEagerly(request);
  for (const auto& [tpage, extent_indices] : groups) {
    for (size_t i : extent_indices) {
      const IoExtent& e = request.extents[i];
      result->extent_status[i] =
          WriteExtent(e.lpn, trim ? 0 : e.payload, trim, lone);
    }
    // One synchronization commits the whole group's mappings and
    // identifies their before-images off a single translation-page read
    // (the lazy phase left them flagged UIP, even for immediate-mode
    // baselines — their per-lpn lookup is what the batch amortizes away).
    if (commit_now) SyncTranslationPage(tpage);
  }

  defer_invalid_reports_ = false;
  FlushPendingInvalid();
  EnforceDirtyCap();
}

void BaseFtl::ReadBatch(const IoRequest& request, IoResult* result,
                        MissSink* miss_sink) {
  // Cache misses are grouped by translation page so N missed lpns of the
  // same page cost one translation read instead of N lookups.
  struct Miss {
    Lpn lpn;
    size_t extent;
  };
  std::map<TPageId, std::vector<Miss>> misses;
  std::vector<PhysicalAddress> resolved(request.extents.size(), kNullAddress);
  for (size_t i = 0; i < request.extents.size(); ++i) {
    Lpn lpn = request.extents[i].lpn;
    if (lpn >= device_->geometry().NumLogicalPages()) {
      result->extent_status[i] =
          Status::InvalidArgument("lpn beyond logical capacity");
      continue;
    }
    ++counters_.reads;
    device_->stats().OnLogicalRead();
    MappingEntry* entry = cache_.Find(lpn);
    if (entry != nullptr) {
      ++counters_.cache_hits;
      resolved[i] = entry->ppa;
    } else {
      ++counters_.cache_misses;
      misses[translation_.TPageOf(lpn)].push_back(Miss{lpn, i});
    }
  }

  for (auto& [tpage, group] : misses) {
    if (!translation_.Exists(tpage)) {
      // Nothing to fetch: the translation page was never written, so
      // every lpn on it is unmapped. Resolves identically on every path
      // (in particular, parking such extents would be a wasted stall).
      for (const Miss& m : group) {
        result->extent_status[m.extent] =
            Status::NotFound("logical page never written");
      }
      continue;
    }
    if (config_.async_miss_fetch) {
      // Async miss pipeline: park the whole group. The engine issues one
      // coalesced fetch per translation page (across requests, not just
      // within this one) and replays each extent via ResolveParkedExtent
      // when the fetch's device time is reached.
      for (const Miss& m : group) {
        miss_sink->parked.push_back(MissSink::ParkedMiss{tpage, m.extent});
      }
      continue;
    }
    // Synchronous-miss baseline: one charged translation read serves the
    // whole group — the first miss is the fetch, the rest coalesce — and
    // the group's data reads may not issue until the fetch retires (it is
    // the newest op on its channel, so busy-until is its completion time).
    // The image is copied: EvictOne below can commit and erase the block
    // that holds it.
    ++counters_.miss_fetches;
    counters_.miss_joins += group.size() - 1;
    std::vector<PhysicalAddress> mappings =
        translation_.ReadTPage(tpage, IoPurpose::kTranslation);
    device_->AdvanceTo(device_->ChannelBusyUntilUs(
        device_->ChannelOf(translation_.Location(tpage).block)));
    for (const Miss& m : group) {
      PhysicalAddress ppa = mappings[m.lpn % translation_.entries_per_page()];
      if (!ppa.IsValid()) {
        result->extent_status[m.extent] =
            Status::NotFound("logical page never written");
        continue;
      }
      resolved[m.extent] = ppa;
      // Cache the fetched entry, clean with no unidentified image (Section
      // 4.1, "Application Reads"). An entry inserted for an earlier miss
      // of the same lpn (duplicate extents) must not be double-inserted.
      if (!cache_.Contains(m.lpn)) {
        while (cache_.NeedsEviction()) EvictOne();
        cache_.Insert(m.lpn, MappingEntry{ppa, false, false, false});
        NoteCacheOp();
      }
    }
  }

  for (size_t i = 0; i < request.extents.size(); ++i) {
    if (!result->extent_status[i].ok() || !resolved[i].IsValid()) continue;
    ReadMappedPage(request, result, i, resolved[i]);
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
  if (translation_.Exists(t)) {
    translation_.ReadVersion(translation_.Location(t), IoPurpose::kTranslation);
  }
}

void BaseFtl::ResolveParkedExtent(IoRequest& request, IoResult* result,
                                  size_t extent) {
  const Lpn lpn = request.extents[extent].lpn;
  PhysicalAddress ppa;
  MappingEntry* entry = cache_.Find(lpn);
  if (entry != nullptr) {
    // An interleaved request, a replay of an earlier waiter, or a GC
    // migration repopulated the entry while we were parked; it is
    // authoritative (the parked request's shared lpn claim blocks every
    // write/trim of this lpn, so no newer version can be missed).
    ppa = entry->ppa;
  } else {
    ppa = translation_.PeekMapping(lpn);
    if (ppa.IsValid()) {
      while (cache_.NeedsEviction()) EvictOne();
      cache_.InsertIfAbsent(lpn, MappingEntry{ppa, false, false, false});
      NoteCacheOp();
    }
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
  FlushPendingInvalid();
  SyncTranslationPagesOf(cache_.DirtyLpns());
  FlushMetadata();
}

bool BaseFtl::WearScanStep() {
  if (wear_ == nullptr) return false;
  BlockId victim = wear_->OnWrite();
  if (victim == kInvalidU32 || blocks_.BlockType(victim) != PageType::kUser ||
      blocks_.IsActive(victim) || blocks_.IsPinned(victim) || in_gc_) {
    return false;
  }
  if (gc_.phase != GcPhase::kIdle) {
    // An incremental collection is mid-flight; wear leveling is
    // opportunistic and the gradual scan will rediscover the block.
    return false;
  }
  RunCollectionToCompletion(victim);
  return true;
}

// ---------------------------------------------------------------------------
// Invalidation reporting and the BVC.
// ---------------------------------------------------------------------------

#ifdef GECKO_DEBUG_GC_GROUND_TRUTH
void BaseFtl::DebugCheckNotAuthoritative(PhysicalAddress addr,
                                         const char* tag) {
  // Ground-truth invariant for every invalidation report: a strictly newer
  // on-flash copy of the page's lpn must exist somewhere on the device.
  if (!device_->IsWritten(addr)) return;
  PageReadResult r = device_->PeekSpare(addr);
  // A failed-program page is never authoritative (its data was re-placed
  // before the write completed), so a report for it is always legitimate.
  if (r.media_error || !r.spare.IsUser()) return;
  Lpn lpn = r.spare.key;
  const Geometry& g = device_->geometry();
  for (BlockId b = 0; b < g.num_blocks; ++b) {
    for (uint32_t p = 0; p < g.pages_per_block; ++p) {
      PhysicalAddress other{b, p};
      if (other == addr || !device_->IsWritten(other)) continue;
      PageReadResult o = device_->PeekSpare(other);
      if (o.spare.IsUser() && o.spare.key == lpn &&
          o.spare.seq > r.spare.seq) {
        return;  // a newer copy exists: the report is legitimate
      }
    }
  }
  std::fprintf(stderr, "FALSE REPORT [%s] lpn=%u page=%s (newest copy)\n",
               tag, lpn, addr.ToString().c_str());
  std::abort();
}
#endif

void BaseFtl::ReportInvalid(PhysicalAddress addr) {
  if (defer_invalid_reports_) {
    // Batched request in flight: collect the store record so the whole
    // request submits one RecordInvalidPages batch. The BVC and the
    // GC-victim mirror below stay exact at all times, so GC decisions are
    // unaffected by the deferral; GC paths flush the batch before any
    // store query or erase record.
    pending_invalid_.push_back(addr);
  } else {
    store_->RecordInvalidPage(addr);
  }
  // BVC tracks identified-invalid pages; clamp against double reports
  // (possible after recovery, Appendix C.3.2 — harmless for the bitmap,
  // so merely bounded here).
  if (bvc_[addr.block] < device_->geometry().pages_per_block) {
    ++bvc_[addr.block];
  }
  if (addr.block == gc_victim_) {
    gc_victim_fresh_invalid_.Set(addr.page);
  }
}

void BaseFtl::FlushPendingInvalid() {
  if (pending_invalid_.empty()) return;
  std::vector<PhysicalAddress> batch;
  batch.swap(pending_invalid_);
  store_->RecordInvalidPages(batch);
}

// ---------------------------------------------------------------------------
// Synchronization operations (Section 4 + Appendix C.3).
// ---------------------------------------------------------------------------

void BaseFtl::SyncTranslationPage(TPageId tpage) {
  std::vector<Lpn> dirty = cache_.DirtyInRange(
      translation_.FirstLpnOf(tpage), translation_.LastLpnOf(tpage));
  if (dirty.empty()) return;
  ++counters_.sync_ops;

  std::vector<PhysicalAddress> mappings =
      translation_.ReadTPage(tpage, IoPurpose::kTranslation);
  if (mappings.empty()) {
    mappings.assign(translation_.entries_per_page(), kNullAddress);
  }

  bool any_changed = false;
  for (Lpn lpn : dirty) {
    MappingEntry* entry = cache_.Find(lpn);
    GECKO_CHECK(entry != nullptr && entry->dirty);
    PhysicalAddress flash_ppa = mappings[lpn % translation_.entries_per_page()];

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
#ifdef GECKO_DEBUG_GC_GROUND_TRUTH
      if (report) DebugCheckNotAuthoritative(flash_ppa, "sync-uip");
#endif
      if (report) ReportInvalid(flash_ppa);
    }

    mappings[lpn % translation_.entries_per_page()] = entry->ppa;
    entry->dirty = false;
    entry->uip = false;
    entry->uncertain = false;
    cache_.NoteCleaned();
    any_changed = true;
  }

  if (!any_changed) {
    // Every entry was omitted: abort the synchronization, saving the
    // flash write (Appendix C.3.1).
    ++counters_.aborted_sync_ops;
    return;
  }

  PhysicalAddress old = translation_.CommitTPage(tpage, std::move(mappings),
                                                 IoPurpose::kTranslation);
  if (old.IsValid()) OnTranslationPageReplaced(tpage, old);
}

void BaseFtl::EvictOne() {
  Lpn victim = cache_.PeekEvictionVictim();
  const MappingEntry* entry = cache_.Peek(victim);
  GECKO_CHECK(entry != nullptr);
  if (entry->dirty) {
    SyncTranslationPage(translation_.TPageOf(victim));
  }
  cache_.Erase(victim);
}

void BaseFtl::NoteCacheOp() {
  // The scheduler owns the checkpoint cadence (one checkpoint every
  // `checkpoint_period` cache inserts/updates, Section 4.3).
  if (scheduler_.OnCacheOp()) TakeCheckpoint();
}

void BaseFtl::TakeCheckpoint() {
  ++counters_.checkpoints;
  SyncTranslationPagesOf(cache_.TakeCheckpoint());
}

void BaseFtl::SyncTranslationPagesOf(const std::vector<Lpn>& lpns) {
  // Synchronize per translation page, in page order (entries of the same
  // page flush together, amortizing the write).
  std::vector<TPageId> tpages;
  tpages.reserve(lpns.size());
  for (Lpn lpn : lpns) tpages.push_back(translation_.TPageOf(lpn));
  std::sort(tpages.begin(), tpages.end());
  tpages.erase(std::unique(tpages.begin(), tpages.end()), tpages.end());
  for (TPageId t : tpages) SyncTranslationPage(t);
}

void BaseFtl::EnforceDirtyCap() {
  uint32_t cap = config_.DirtyCap();
  if (cap == 0) return;
  while (cache_.dirty_count() > cap) {
    Lpn oldest;
    GECKO_CHECK(cache_.OldestDirty(&oldest));
    SyncTranslationPage(translation_.TPageOf(oldest));
  }
}

// ---------------------------------------------------------------------------
// Garbage collection (Sections 4, 4.1, 4.2), as a resumable state machine.
// ---------------------------------------------------------------------------

GcStepOutcome BaseFtl::GcStep(uint32_t max_migrations) {
  GcStepOutcome out;
  if (in_gc_) return out;  // re-entrant call: refuse, make no progress
  in_gc_ = true;
  // GC's own allocations run in compact mode: without it, channel striping
  // could open a fresh active on every stripe slot of every group
  // mid-collection and starve the pool. Restored between steps so user
  // writes interleaved with an incremental collection keep striping.
  bool prev_compact = blocks_.compact_mode();
  blocks_.set_compact_mode(true);
  switch (gc_.phase) {
    case GcPhase::kIdle: {
      BlockId victim = SelectVictim();
      if (victim == kInvalidU32) {
        // Nothing collectable (all-live candidates, or grown bad blocks
        // retired the spare capacity): report no progress; the scheduler
        // decides whether that means degradation (emergency floor) or
        // simply nothing to do (background tick).
        break;
      }
      StartCollection(victim);
      out.advanced = true;
      break;
    }
    case GcPhase::kMigrate:
      out.migrations = gc_.type == PageType::kUser
                           ? MigrateUserPages(max_migrations)
                           : MigrateMetadataPages(max_migrations);
      out.advanced = true;
      break;
    case GcPhase::kFlush:
      // Grouped invalidation reports collected during the migrate steps
      // (an in-flight batched request defers them) reach the store before
      // the erase record can obsolete them.
      FlushPendingInvalid();
      gc_.phase = GcPhase::kErase;
      out.advanced = true;
      break;
    case GcPhase::kErase:
      FinishCollection();
      out.advanced = true;
      out.erased = true;
      break;
  }
  blocks_.set_compact_mode(prev_compact);
  in_gc_ = false;
  return out;
}

void BaseFtl::RunCollectionToCompletion(BlockId forced_victim) {
  GECKO_CHECK(!in_gc_);
  if (gc_.phase == GcPhase::kIdle && forced_victim != kInvalidU32) {
    in_gc_ = true;
    bool prev_compact = blocks_.compact_mode();
    blocks_.set_compact_mode(true);
    StartCollection(forced_victim);
    blocks_.set_compact_mode(prev_compact);
    in_gc_ = false;
  }
  while (gc_.phase != GcPhase::kIdle) {
    GcStepOutcome o = GcStep(~uint32_t{0});
    GECKO_CHECK(o.advanced) << "GC state machine refused to advance";
  }
}

bool BaseFtl::ForceGc() {
  if (in_gc_) {
    ++counters_.gc_force_skips;
    return false;
  }
  // One full cycle: resume the in-flight collection if any, else select a
  // fresh victim, and run until its erase lands.
  do {
    GcStepOutcome o = GcStep(~uint32_t{0});
    if (!o.advanced) return false;  // no victim available
    if (o.erased) return true;
  } while (true);
}

const FtlCounters& BaseFtl::counters() const {
  // Refresh the fault surface on read: every program fault was re-placed
  // by AllocateAndProgram (or the process would have aborted), so the
  // device's fault count IS the remap count.
  counters_.remapped_programs = device_->stats().program_faults();
  counters_.grown_bad_blocks = blocks_.bad_blocks().GrownBadBlocks();
  counters_.degraded_mode = degraded_ ? 1 : 0;
  return counters_;
}

void BaseFtl::EnterDegradedMode() {
  if (degraded_) return;
  degraded_ = true;
  std::fprintf(stderr,
               "[%s] entering read-only degraded mode: free_blocks=%u "
               "emergency_floor=%u grown_bad_blocks=%u\n",
               Name(), blocks_.NumFreeBlocks(), scheduler_.emergency_floor(),
               blocks_.bad_blocks().GrownBadBlocks());
}

uint64_t BaseFtl::IdleTick() {
  // Background maintenance runs in its own batch window, so its flash ops
  // overlap across channels and its cost is charged to host-idle time —
  // never to a user request's latency.
  device_->BeginBatch();
  uint64_t steps = scheduler_.IdleTick();
  FlashDevice::BatchResult batch = device_->EndBatch();
  if (!device_->in_batch() && batch.ops > 0) {
    device_->stats().OnRequestLatency(RequestClass::kMaintenance,
                                      batch.elapsed_us);
  }
  return steps;
}

BlockId BaseFtl::SelectVictim() {
  // One linear scan through the pluggable policy object. The paper's
  // kNeverCollectMetadata (and cost-benefit) restrict the candidate set
  // to user blocks (Section 4.2); greedy-all admits metadata blocks.
  const Geometry& g = device_->geometry();
  const bool metadata_ok = GcPolicyCollectsMetadata(config_.gc_policy);
  const uint64_t now_seq = device_->CurrentSeq();
  // Migration reserve: collecting a victim with live pages consumes free
  // blocks transiently before the erase nets one back — a compact-mode
  // destination block, a translation block (mapping updates during the
  // migration can evict dirty cache entries and commit their pages), and
  // a PVM block for the invalidation/erase records. On a healthy medium
  // every erase returns the victim, so the emergency loop always nets
  // blocks back and the transient dip is safe (the pre-fault-injection
  // behaviour, unchanged). Once the medium has retired blocks, erases
  // can fail and net nothing, so the pool can only shrink: below the
  // reserve, only fully-invalid victims are safe to collect. If none
  // exist the spare capacity is genuinely exhausted and the caller
  // degrades instead of letting an allocation CHECK out of blocks.
  constexpr uint32_t kMigrationReserve = 4;
  const bool migration_safe = device_->NumBadBlocks() == 0 ||
                              blocks_.NumFreeBlocks() >= kMigrationReserve;
  BlockId best = SelectGcVictim(
      g.num_blocks, *victim_policy_, [&](BlockId b, GcVictimCandidate* c) {
        PageType type = blocks_.BlockType(b);
        if (type == PageType::kFree) return false;
        if (blocks_.IsActive(b) || blocks_.IsPinned(b)) return false;
        if (!metadata_ok && type != PageType::kUser) return false;
        uint32_t written = device_->PagesWritten(b);
        uint32_t invalid = type == PageType::kUser
                               ? bvc_[b]
                               : written - blocks_.MetadataLivePages(b);
        c->valid = written >= invalid ? written - invalid : 0;
        if (!migration_safe && c->valid > 0) return false;
        c->written = written;
        c->pages_per_block = g.pages_per_block;
        uint64_t last = device_->LastProgramSeq(b);
        c->age = now_seq >= last ? now_seq - last : 0;
        c->channel_busy_until_us =
            device_->ChannelBusyUntilUs(device_->ChannelOf(b));
        return true;
      });
  // kInvalidU32 when nothing is collectable — the caller's problem
  // (GcStep reports no progress; the emergency path degrades).
  return best;
}

void BaseFtl::StartCollection(BlockId victim) {
  GECKO_CHECK_NE(victim, kInvalidU32);
  GECKO_CHECK(gc_.phase == GcPhase::kIdle);
  ++counters_.gc_collections;
  gc_.victim = victim;
  gc_.type = blocks_.BlockType(victim);
  gc_.next_page = 0;
  if (gc_.type == PageType::kUser) {
    // Reports deferred by an in-flight batched request must reach the
    // store before its bitmap is queried.
    FlushPendingInvalid();
    // One GC query to the page-validity store (Section 4, Figure 7).
    gc_.invalid = store_->QueryInvalidPages(victim);
    gc_victim_ = victim;
    gc_victim_fresh_invalid_ = Bitmap(device_->geometry().pages_per_block);
  } else {
    gc_.invalid = Bitmap();
  }
  gc_.phase = GcPhase::kMigrate;
}

uint32_t BaseFtl::MigrateUserPages(uint32_t max_migrations) {
  const Geometry& g = device_->geometry();
  const BlockId victim = gc_.victim;
  // Hot/cold separation: a page that survived a whole collection is
  // colder than its class predicted, so survivors land one temperature
  // class colder than the victim block (saturating at the coldest). With
  // one class both temps stay 0 and no demotion is counted.
  const uint8_t victim_temp = blocks_.BlockTemp(victim);
  uint8_t survivor_temp = victim_temp;
  if (hotness_.num_classes() > 1 &&
      victim_temp + 1u < hotness_.num_classes()) {
    survivor_temp = victim_temp + 1;
  } else if (hotness_.num_classes() > 1) {
    survivor_temp = static_cast<uint8_t>(hotness_.num_classes() - 1);
  }
  uint32_t migrated = 0;
  while (gc_.next_page < g.pages_per_block && migrated < max_migrations) {
    const uint32_t p = gc_.next_page++;
    if (gc_.invalid.Test(p)) {
      continue;  // known invalid: no spare read needed
    }
    // Reports that arrived after the query snapshot (from syncs triggered
    // by migration-driven evictions, or by user writes interleaved with
    // an incremental collection) supersede the snapshot.
    if (gc_victim_fresh_invalid_.Test(p)) continue;
    PhysicalAddress addr{victim, p};
    PageReadResult spare = device_->ReadSpare(addr, IoPurpose::kGcMigration);
    if (!spare.written) {
      // Sequential programming: the rest are free. (No write can land on
      // the victim mid-collection — it is neither free nor active.)
      gc_.next_page = g.pages_per_block;
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
    MappingEntry* entry = cache_.Find(lpn);
    if (entry != nullptr && entry->ppa != addr) {
      if (entry->uip) {
        if (spare.spare.seq >= last_recovery_seq_) {
          // Exactly-tracked page: every *identified* stale copy younger
          // than the last recovery is in the query snapshot or the fresh
          // mirror, so reaching this check means this page IS the
          // unidentified before-image — about to be erased, so the flag
          // clears and the next sync writes no report.
          ++counters_.uip_detections;
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
    if (entry == nullptr &&
        (config_.gc_validate_against_translation_table ||
         spare.spare.seq < last_recovery_seq_)) {
      // Crash-resilience: buffered invalidation records can die with a
      // power failure, and some before-images evade the re-derivation
      // paths of Appendix C.2. Pages that predate the last recovery are
      // therefore validated against the translation table (authoritative
      // for uncached lpns) before migration; younger pages are exactly
      // tracked and skip this read (DESIGN.md §3).
      PhysicalAddress current =
          translation_.Lookup(lpn, IoPurpose::kGcMigration);
      if (current != addr) continue;  // stale copy: do not migrate
    }

#ifdef GECKO_DEBUG_GC_GROUND_TRUTH
    {
      const MappingEntry* e = cache_.Peek(lpn);
      PhysicalAddress authoritative =
          e != nullptr ? e->ppa : translation_.PeekMapping(lpn);
      if (authoritative != addr) {
        std::fprintf(stderr,
                     "ZOMBIE MIGRATION lpn=%u page=%s auth=%s cached=%d "
                     "uip=%d dirty=%d\n",
                     lpn, addr.ToString().c_str(),
                     authoritative.ToString().c_str(), e != nullptr,
                     e != nullptr ? e->uip : -1, e != nullptr ? e->dirty : -1);
        std::abort();
      }
    }
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
        AllocateAndProgram(device_, &blocks_, PageType::kUser, kNoStream,
                           new_spare, page.payload, IoPurpose::kGcMigration)
            .addr;
    ++counters_.gc_migrations;
    if (survivor_temp > victim_temp) ++counters_.gc_demotions;
    UpsertCacheEntry(lpn, dest, /*uip=*/false);
    ++migrated;
  }
  if (gc_.next_page >= g.pages_per_block) gc_.phase = GcPhase::kFlush;
  return migrated;
}

uint32_t BaseFtl::MigrateMetadataPages(uint32_t max_migrations) {
  const Geometry& g = device_->geometry();
  const BlockId victim = gc_.victim;
  const PageType type = gc_.type;
  uint32_t migrated = 0;
  while (gc_.next_page < g.pages_per_block && migrated < max_migrations) {
    const uint32_t p = gc_.next_page++;
    PhysicalAddress addr{victim, p};
    PageReadResult spare = device_->ReadSpare(
        addr, type == PageType::kTranslation ? IoPurpose::kTranslation
                                             : IoPurpose::kPvm);
    if (!spare.written) {
      gc_.next_page = g.pages_per_block;
      break;
    }
    if (spare.media_error) continue;  // failed program: nothing live here
    if (type == PageType::kTranslation) {
      TPageId t = spare.spare.key;
      // A sync interleaved with this incremental collection may have
      // replaced the page already; only the current version migrates.
      if (translation_.Exists(t) && translation_.Location(t) == addr) {
        translation_.MigrateTPage(t, IoPurpose::kTranslation);
        ++counters_.gc_migrations;
        ++migrated;
      }
    } else {
      if (store_->RelocatePage(addr)) ++counters_.gc_migrations;
      ++migrated;
    }
  }
  if (gc_.next_page >= g.pages_per_block) gc_.phase = GcPhase::kFlush;
  return migrated;
}

void BaseFtl::FinishCollection() {
  GECKO_CHECK(gc_.phase == GcPhase::kErase);
  const BlockId victim = gc_.victim;
  if (gc_.type == PageType::kUser) {
    gc_victim_ = kInvalidU32;
#ifdef GECKO_DEBUG_GC_GROUND_TRUTH
    const Geometry& g = device_->geometry();
    for (uint32_t p = 0; p < g.pages_per_block; ++p) {
      PhysicalAddress a{victim, p};
      if (!device_->IsWritten(a)) continue;
      PageReadResult r = device_->PeekSpare(a);
      if (r.media_error || !r.spare.IsUser()) continue;
      Lpn lpn = r.spare.key;
      const MappingEntry* e = cache_.Peek(lpn);
      PhysicalAddress auth =
          e != nullptr ? e->ppa : translation_.PeekMapping(lpn);
      if (auth == a) {
        std::fprintf(stderr,
                     "ERASING LIVE PAGE lpn=%u page=%s invalid_bit=%d "
                     "fresh=%d cached=%d uip=%d dirty=%d uncertain=%d\n",
                     lpn, a.ToString().c_str(), gc_.invalid.Test(p) ? 1 : 0,
                     gc_victim_fresh_invalid_.size() > 0 &&
                             gc_victim_fresh_invalid_.Test(p)
                         ? 1
                         : 0,
                     e != nullptr, e != nullptr ? e->uip : -1,
                     e != nullptr ? e->dirty : -1,
                     e != nullptr ? e->uncertain : -1);
        std::abort();
      }
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
    EraseBlockForGc(victim, IoPurpose::kGcMigration);
  } else {
    EraseBlockForGc(victim, gc_.type == PageType::kTranslation
                                ? IoPurpose::kTranslation
                                : IoPurpose::kPvm);
  }
  gc_ = GcCursor{};
}

void BaseFtl::EraseBlockForGc(BlockId block, IoPurpose purpose) {
  translation_.OnBlockErased(block);
  // Fault-aware: a block marked for retirement (or whose erase faults) is
  // retired in the medium instead of returning to the pool.
  blocks_.EraseOrRetire(block, purpose);
}

void BaseFtl::UpsertCacheEntry(Lpn lpn, PhysicalAddress ppa, bool uip) {
  MappingEntry* entry = cache_.Find(lpn);
  if (entry != nullptr) {
    cache_.MarkDirty(entry);
    entry->ppa = ppa;
    // The existing UIP flag is kept: migrating or rewriting this page does
    // not identify any *older* unidentified before-image.
  } else {
    while (cache_.NeedsEviction()) EvictOne();
    cache_.Insert(lpn, MappingEntry{ppa, true, uip, false});
  }
  NoteCacheOp();
  EnforceDirtyCap();
}

// ---------------------------------------------------------------------------
// Power failure and recovery (Section 4.3, Appendix C).
// ---------------------------------------------------------------------------

void BaseFtl::BackwardScanRecoverEntries(uint64_t scan_bound, bool mark_uip,
                                         bool mark_uncertain,
                                         bool report_duplicates,
                                         RecoveryReport* report) {
  // GeckoRec step 6: recreate mapping entries for the most recently
  // updated logical pages by scanning user-block spare areas in reverse
  // write order. Checkpoints bound the scan to 2 * period spare reads
  // (Section 4.3). Duplicate logical addresses met deeper in the scan are
  // older versions — report them invalid (DESIGN.md deviation 2).
  RecoveryStep& step = report->Add("dirty mapping entries (backward scan)");

  // Order user blocks by the timestamp of their newest page. First-page
  // ordering would normally suffice (one active block at a time), but a
  // block resumed as the append target after an earlier recovery carries
  // new pages behind an old first-page timestamp.
  struct UserBlock {
    BlockId block;
    uint64_t last_seq;
  };
  std::vector<UserBlock> user_blocks;
  for (BlockId b : blocks_.BlocksOfType(PageType::kUser)) {
    uint32_t written = device_->PagesWritten(b);
    if (written == 0) continue;
    PageReadResult r = device_->ReadSpare(PhysicalAddress{b, written - 1},
                                          IoPurpose::kRecovery);
    ++step.spare_reads;
    if (r.written) user_blocks.push_back(UserBlock{b, r.spare.seq});
  }
  std::sort(user_blocks.begin(), user_blocks.end(),
            [](const UserBlock& a, const UserBlock& b) {
              return a.last_seq > b.last_seq;
            });

  // Budget: checkpoints bound the scan to ~2 * period pages (Section 4.3).
  // Channel striping interleaves the freshest writes across one partial
  // user block per channel (plus blocks resumed across recoveries can
  // interleave their page times with other blocks'), so allow one block of
  // slack per channel, plus one, before cutting off.
  const Geometry& g = device_->geometry();
  uint64_t budget =
      2 * scan_bound + uint64_t{g.num_channels + 1} * g.pages_per_block;
  struct Copy {
    PhysicalAddress addr;
    uint64_t seq;
  };
  // The scan runs to its budget, never stopping early on a count: with
  // channel striping the block-by-block order is not global reverse
  // write order (the freshest writes interleave across one partial block
  // per channel), so a count-based stop could fill up on older pages of
  // an early block while the newest copies of other lpns still sit in
  // unscanned stripe blocks — recovering stale mappings and, worse,
  // letting GC treat the true newest copies as stale. Instead the scan
  // tracks its *coverage horizon*: the newest sequence number that might
  // live on an unscanned page. Only candidates above the horizon are
  // trusted (every newer copy of such an lpn was provably scanned); the
  // newest C of those, by sequence number, become cache entries.
  std::map<Lpn, Copy> newest;  // newest on-flash copy per lpn, by seq
  uint64_t horizon = 0;        // newest possibly-unscanned seq
  for (const UserBlock& ub : user_blocks) {
    if (budget == 0) {
      // Block never reached: all of its pages are unscanned.
      horizon = std::max(horizon, ub.last_seq);
      continue;
    }
    uint32_t written = device_->PagesWritten(ub.block);
    uint64_t last_read_seq = 0;
    for (uint32_t i = written; i-- > 0;) {
      if (budget == 0) {
        // Stopped mid-block: the unscanned prefix is strictly older than
        // the last page read (seqs ascend with page index in a block).
        if (last_read_seq > 0) horizon = std::max(horizon, last_read_seq - 1);
        break;
      }
      PhysicalAddress addr{ub.block, i};
      PageReadResult r = device_->ReadSpare(addr, IoPurpose::kRecovery);
      ++step.spare_reads;
      // The budget is sized from the checkpoint bound, which counts
      // *logical* writes — but a failed program consumes a physical page
      // without representing one, and its re-placement consumes another.
      // Charging budget for such pages would make the scan stop short of
      // the checkpoint horizon (dropping mappings the table never got),
      // so only readable pages — the mapping candidates the bound
      // actually counts — are charged.
      if (!r.media_error) --budget;
      if (r.written) last_read_seq = r.spare.seq;
      // Failed-program pages keep their stamped seq (the horizon math
      // above stays valid) but are never mapping candidates — their data
      // was re-placed under a strictly newer seq before the write
      // completed, so skipping them can never lose the newest copy.
      if (!r.written || r.media_error || !r.spare.IsUser()) continue;
      Lpn lpn = r.spare.key;
      auto [it, inserted] = newest.emplace(lpn, Copy{addr, r.spare.seq});
      if (inserted) continue;
      // Two on-flash copies of the same lpn: the older one is a
      // before-image whose buffered invalidation report may have been lost
      // with the power failure (DESIGN.md deviation 2). Spare timestamps
      // decide which copy is older — scan order alone is unreliable across
      // resumed blocks.
      Copy older{addr, r.spare.seq};
      if (r.spare.seq > it->second.seq) {
        older = it->second;
        it->second = Copy{addr, r.spare.seq};
      }
      if (report_duplicates) {
#ifdef GECKO_DEBUG_GC_GROUND_TRUTH
        DebugCheckNotAuthoritative(older.addr, "scan-dup");
#endif
        ReportInvalid(older.addr);
      }
    }
  }

  // Candidates at or below the horizon are untrusted — an unscanned
  // newer copy may exist, and installing (or later syncing) the stale
  // one would regress the translation table. They are also unnecessary:
  // the budget covers the checkpoint bound, so any mapping older than
  // the horizon was already synchronized. (Their duplicate reports above
  // stay valid: those are pairwise seq-verified.) Of the trusted
  // candidates keep the newest C by seq, and insert oldest-first so the
  // LRU order reflects write recency.
  std::vector<std::pair<Lpn, Copy>> found;
  for (const auto& [lpn, copy] : newest) {
    if (copy.seq > horizon) found.emplace_back(lpn, copy);
  }
  std::sort(found.begin(), found.end(), [](const auto& a, const auto& b) {
    return a.second.seq < b.second.seq;
  });
  if (found.size() > cache_.capacity()) {
    found.erase(found.begin(), found.end() - cache_.capacity());
  }
  for (const auto& [lpn, copy] : found) {
    while (cache_.NeedsEviction()) cache_.Erase(cache_.PeekLru());
    cache_.Insert(lpn, MappingEntry{copy.addr, /*dirty=*/true, mark_uip,
                                    mark_uncertain});
  }
}

void BaseFtl::SweepDeadMetadataBlocks() {
  if (config_.gc_policy != GcPolicy::kNeverCollectMetadata) return;
  const Geometry& g = device_->geometry();
  for (BlockId b = 0; b < g.num_blocks; ++b) {
    PageType type = blocks_.BlockType(b);
    if (type != PageType::kTranslation && type != PageType::kPvm) continue;
    if (blocks_.IsActive(b) || blocks_.IsPinned(b)) continue;
    if (blocks_.MetadataLivePages(b) != 0) continue;
    if (device_->PagesWritten(b) == 0) continue;
    EraseBlockForGc(b, type == PageType::kTranslation ? IoPurpose::kTranslation
                                                      : IoPurpose::kPvm);
  }
}

RecoveryReport BaseFtl::CrashAndRecover() {
  // In-flight async requests die with the power: dispatched ones have
  // their flash effects on the device but the host never saw a
  // completion (indeterminate, like NVMe commands outstanding at reset);
  // parked ones never executed at all. Both get kAborted callbacks, and
  // the engine's batch window closes (its parked channel ops physically
  // happened and retire into the stats).
  engine_.AbortAll();
  // Request dispatch itself is synchronous, so the crash now sits between
  // dispatches — no batched reports pending, no batch window open.
  GECKO_CHECK(pending_invalid_.empty() && !defer_invalid_reports_)
      << "power failure inside a batched request";
  GECKO_CHECK(!device_->in_batch())
      << "power failure inside a device batch window";
  // Battery-backed FTLs synchronize all dirty entries before power runs
  // out (Section 2). The IO happens on residual power and does not count
  // toward recovery time.
  if (config_.battery) SyncTranslationPagesOf(cache_.DirtyLpns());

  // Power failure: all RAM-resident structures vanish — including the
  // resumable-GC cursor. A collection interrupted at any step boundary is
  // simply abandoned: its migrated copies are ordinary out-of-place
  // writes (recovered like any others), and stale not-yet-erased victim
  // copies are fenced by the last_recovery_seq_ validation in
  // MigrateUserPages before any later collection could migrate them.
  cache_.Reset();
  hotness_.Reset();
  translation_.ResetRamState();
  blocks_.ResetRamState();
  std::fill(bvc_.begin(), bvc_.end(), 0u);
  recovered_versions_.clear();
  gc_ = GcCursor{};
  gc_victim_ = kInvalidU32;
  gc_victim_fresh_invalid_ = Bitmap();
  in_gc_ = false;
  // The degraded flag is RAM state: a power cycle clears it, and if the
  // retired blocks still leave no reclaimable space, the first
  // post-recovery write re-derives it through the emergency path.
  degraded_ = false;
  blocks_.set_compact_mode(false);
  scheduler_.ResetAfterCrash();

  // GeckoRec step 1: one spare read per block gives its type and the
  // timestamp of its first page (the Blocks Information Directory).
  RecoveryReport report;
  const Geometry& g = device_->geometry();
  RecoveryStep& bid_step = report.Add("block scan (BID)");
  last_bid_.assign(g.num_blocks, BlockManager::BidEntry{});
  for (BlockId b = 0; b < g.num_blocks; ++b) {
    PageReadResult r =
        device_->ReadSpare(PhysicalAddress{b, 0}, IoPurpose::kRecovery);
    ++bid_step.spare_reads;
    BlockManager::BidEntry& e = last_bid_[b];
    if (!r.written) {
      e.type = PageType::kFree;
      continue;
    }
    e.type = r.spare.type;
    e.first_seq = r.spare.seq;
    e.temp = r.spare.temp;
    e.pages_written = device_->PagesWritten(b);
  }
  blocks_.RecoverFromBid(last_bid_);
  // Step 2: the GMD, from the translation blocks' spare areas.
  report.Add("GMD (translation-page spare scan)").spare_reads =
      translation_.RecoverGmd(blocks_.BlocksOfType(PageType::kTranslation),
                              &recovered_versions_);

  // Translation-block liveness: the pages the GMD references are live.
  std::vector<PhysicalAddress> live_translation;
  for (const auto& v : recovered_versions_) {
    if (v.current.IsValid()) live_translation.push_back(v.current);
  }
  blocks_.RecoverMetadataLiveCounts(live_translation);

  // Steps 3-5: the store rebuilds itself from its own blocks, then the
  // BVC is counted from it. A battery also saves a RAM-only store (DFTL's
  // RAM PVB, Section 5.3); flash-resident stores rebuild either way.
  if (!config_.battery) store_->ResetRamState();
  StoreRecovery store = store_->Recover(
      blocks_.BlocksOfType(PageType::kPvm), &report);
  blocks_.RecoverMetadataLiveCounts(store.live_pages);
  OnStoreRecovered(&report);
  if (store.in_flash || config_.battery) {
    // Else a RAM store was lost: its FTL rebuilds PVB and BVC (LazyFTL).
    std::vector<uint32_t> counts = store_->InvalidCounts(&report);
    for (BlockId block = 0; block < counts.size(); ++block) {
      if (blocks_.BlockType(block) == PageType::kUser) {
        bvc_[block] = std::min(counts[block], g.pages_per_block);
      }
    }
  }

  // Steps 6-7: dirty mapping entries.
  if (config_.battery) {
    // Synchronized on residual power: nothing to recover (Figure 13).
    report.Add("dirty mapping entries (battery)");
  } else if (config_.DirtyCap() > 0) {
    // LazyFTL/IB-FTL bound dirty entries at runtime and synchronize them
    // before normal operation resumes — the recovery-time vs
    // write-amplification contention GeckoFTL removes (Section 4.3).
    BackwardScanRecoverEntries(config_.checkpoint_period, /*mark_uip=*/false,
                               /*mark_uncertain=*/true,
                               /*report_duplicates=*/false, &report);
    RecoveryStep& step = report.Add("synchronize recovered entries");
    IoCounters before = device_->stats().Snapshot();
    SyncTranslationPagesOf(cache_.DirtyLpns());
    IoCounters delta = device_->stats().Snapshot() - before;
    step.page_reads = delta.TotalReads();
    step.page_writes = delta.TotalWrites();
    step.spare_reads = delta.TotalSpareReads();
  } else {
    // GeckoRec: a checkpoint-bounded scan; the entries stay dirty and
    // are synchronized lazily after normal operation resumes.
    BackwardScanRecoverEntries(config_.checkpoint_period > 0
                                   ? config_.checkpoint_period
                                   : cache_.capacity(),
                               /*mark_uip=*/true, /*mark_uncertain=*/true,
                               /*report_duplicates=*/true, &report);
  }
  OnRecoveryComplete(&report);
  // The entries the scan re-created are the pre-crash instance's
  // un-checkpointed backlog, not freshly dirtied work: age them one epoch
  // so the next checkpoint (not the one after) synchronizes them, and
  // re-seed the cadence counter from the backlog so that checkpoint
  // arrives on the schedule the crash interrupted. Without both, crash
  // churn faster than the period resets the counter forever, no
  // checkpoint ever fires, and mappings whose only copy ages past the
  // backward scan's coverage horizon become silently unrecoverable.
  cache_.AdvanceEpoch();
  scheduler_.SeedCheckpointBacklog(cache_.dirty_count());
  SweepDeadMetadataBlocks();     // step 8: dispose of leftovers, resume
  last_recovery_seq_ = device_->CurrentSeq();
  return report;
}

uint64_t BaseFtl::RamBytes() const {
  // LRU cache: 8 bytes per entry (Section 5's assumption); GMD; BVC
  // (2 bytes per block); plus the validity store's own footprint.
  uint64_t cache_bytes = uint64_t{cache_.capacity()} * 8;
  uint64_t bvc_bytes = uint64_t{device_->geometry().num_blocks} * 2;
  uint64_t wear_bytes = wear_ != nullptr ? wear_->RamBytes() : 0;
  return cache_bytes + translation_.GmdRamBytes() + bvc_bytes + wear_bytes +
         hotness_.RamBytes() + PvmRamBytes();
}

}  // namespace gecko
