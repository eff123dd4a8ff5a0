#include "ftl/gecko_ftl.h"

#include <memory>

#include "pvm/gecko_store.h"

namespace gecko {

FtlConfig GeckoFtl::DefaultConfig(uint32_t cache_capacity) {
  FtlConfig c;
  c.cache_capacity = cache_capacity;
  c.dirty_fraction_cap = 0.0;
  c.checkpoint_period = cache_capacity;  // a checkpoint every C cache ops
  c.battery = false;
  c.gc_policy = GcPolicy::kNeverCollectMetadata;
  c.invalidation = InvalidationMode::kLazyUip;
  return c;
}

GeckoFtl::GeckoFtl(FlashDevice* device, const FtlConfig& config)
    : BaseFtl(device, config, [&](BlockManager* blocks) {
        return std::make_unique<GeckoStore>(device->geometry(), config.gecko,
                                            device, blocks);
      }),
      gecko_(&static_cast<GeckoStore&>(*store_).gecko()) {}

void GeckoFtl::OnTranslationPageReplaced(TPageId, PhysicalAddress old_addr) {
  // Appendix C.2.2: the previous version of a translation page updated
  // since the last Gecko buffer flush must stay readable so buffer
  // recovery can diff against it. Pin its block until the buffer flushes
  // past this point; stale pins are released as the durable horizon moves.
  uint64_t now = device_->CurrentSeq();
  blocks_.UnpinThrough(gecko_->DurableSeq());
  if (blocks_.NumPinned() >= config_.max_pinned_metadata_blocks) {
    // Syncs are outrunning buffer flushes (GC-heavy, report-poor phases);
    // left unchecked, pinned translation blocks would consume the device.
    // Flushing the buffer advances the durable horizon, making the older
    // versions unnecessary for recovery, so their pins can drop.
    FlushMetadata();
  }
  blocks_.Pin(old_addr.block, now);
}

void GeckoFtl::FlushMetadata() {
  gecko_->Flush();
  blocks_.UnpinThrough(gecko_->DurableSeq());
}

void GeckoFtl::OnStoreRecovered(const FlashMetadataScan& scan,
                                RecoveryReport* report) {
  // Step 4a, Appendix C.2.1: any block that is free, or whose first page was
  // written after the durable horizon, was erased after the last flush;
  // its erase record may have died with the buffer. Re-inserting an erase
  // record is idempotent, so over-approximation is safe.
  //
  // Crucially this applies to blocks of *every current type*: a user block
  // can be GC-erased and immediately repurposed as a translation or Gecko
  // block; if the crash then eats its buffered erase record, the dead
  // user-era validity bits would resurrect and destroy live data once the
  // block cycles back to user duty. Erase records for metadata block ids
  // are harmless — they are only consulted when the block next serves as
  // a GC victim. Erase re-insertion is buffer work only; no IO beyond
  // possible flushes, which the device stats attribute to kPvm as in
  // normal operation.
  report->Add("Gecko buffer (erased blocks)");
  uint64_t durable = gecko_->DurableSeq();
  for (BlockId b = 0; b < scan.bid.size(); ++b) {
    const BlockManager::BidEntry& e = scan.bid[b];
    if (e.type == PageType::kFree || e.first_seq > durable) {
      gecko_->RecordErase(b);
    }
  }

  // Step 4b, Appendix C.2.2: invalidations reported during synchronization
  // operations since the last flush were lost with the buffer. Find
  // translation pages updated after the durable horizon, diff each
  // against its previous version, and re-report mappings that changed —
  // verifying via the spare area that the old page still holds the stale
  // logical page (it may have been erased and rewritten).
  RecoveryStep& step = report->Add("Gecko buffer (translation diff)");
  durable = gecko_->DurableSeq();  // the erase records may have flushed
  TranslationTable& table = translation_.table();
  for (TPageId t = 0; t < scan.versions.size(); ++t) {
    const TranslationTable::TPageVersions& v = scan.versions[t];
    if (!v.current.IsValid() || v.current_seq <= durable) continue;
    // Diff every consecutive version pair whose newer side postdates the
    // durable horizon. A translation page can be synchronized more than
    // once between buffer flushes (e.g. syncs that report nothing do not
    // advance the flush clock), so diffing only the newest pair could
    // miss a lost report; the pin mechanism keeps all of these versions
    // readable.
    for (size_t i = 0; i < v.versions.size(); ++i) {
      if (v.versions[i].seq <= durable) continue;
      const std::vector<PhysicalAddress>& current =
          table.ReadVersion(v.versions[i].addr, IoPurpose::kRecovery);
      ++step.page_reads;
      std::vector<PhysicalAddress> previous(current.size(), kNullAddress);
      if (i > 0) {
        previous = table.ReadVersion(v.versions[i - 1].addr,
                                     IoPurpose::kRecovery);
        ++step.page_reads;
      }
      for (size_t e = 0; e < current.size(); ++e) {
        PhysicalAddress old = previous[e];
        if (!old.IsValid() || old == current[e]) continue;
        Lpn lpn = static_cast<Lpn>(t * table.entries_per_page() + e);
        PageReadResult r = device_->ReadSpare(old, IoPurpose::kRecovery);
        ++step.spare_reads;
        // Report only if the page still holds this logical page AND was
        // written before the synchronization that replaced its mapping.
        // Without the second guard, a block erased and later rewritten
        // with the same lpn at the same slot (possible across repeated
        // crash/recover cycles) would have its *live* copy reported
        // invalid — the hazard class of Appendix C.3.2.
        if (r.written && r.spare.IsUser() && r.spare.key == lpn &&
            r.spare.seq < v.versions[i].seq) {
          gc_.ReportInvalid(old);
        }
      }
    }
  }
}

void GeckoFtl::OnRecoveryComplete(RecoveryReport* report) {
  // Persist everything the buffer-recovery steps re-derived (erase records
  // from BID, diff- and scan-identified invalidations). Without this, a
  // second power failure before the next natural flush would lose them,
  // and the `first write after durable horizon` test could no longer
  // re-detect the old erases — pre-erase validity bits would resurrect and
  // mark live pages invalid. A flush costs a handful of page writes.
  RecoveryStep& step = report->Add("flush re-derived Gecko buffer");
  IoCounters before = device_->stats().Snapshot();
  FlushMetadata();
  IoCounters delta = device_->stats().Snapshot() - before;
  step.page_writes = delta.TotalWrites();
  step.page_reads = delta.TotalReads();
}

}  // namespace gecko
