#include "ftl/recovery.h"

#include <algorithm>
#include <map>
#include <utility>

namespace gecko {

namespace {

/// Backward spare-area scan over user blocks (newest first): recreates up
/// to C mapping entries, bounded by 2*`scan_bound` spare reads. When
/// `report_duplicates` is set, older versions of already-seen lpns are
/// reported invalid (DESIGN.md deviation 2). Entries are inserted dirty,
/// with the uip/uncertain flags as requested (GeckoRec sets both;
/// baselines without a UIP concept set neither).
void BackwardScanRecoverEntries(FlashDevice* device, const BlockManager& blocks,
                                TranslationLayer* translation, GcEngine* gc,
                                uint64_t scan_bound, bool mark_uip,
                                bool mark_uncertain, bool report_duplicates,
                                RecoveryReport* report) {
  // GeckoRec step 6: recreate mapping entries for the most recently
  // updated logical pages by scanning user-block spare areas in reverse
  // write order. Checkpoints bound the scan to 2 * period spare reads
  // (Section 4.3).
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
  for (BlockId b : blocks.BlocksOfType(PageType::kUser)) {
    uint32_t written = device->PagesWritten(b);
    if (written == 0) continue;
    PageReadResult r = device->ReadSpare(PhysicalAddress{b, written - 1},
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
  const Geometry& g = device->geometry();
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
    uint32_t written = device->PagesWritten(ub.block);
    uint64_t last_read_seq = 0;
    for (uint32_t i = written; i-- > 0;) {
      if (budget == 0) {
        // Stopped mid-block: the unscanned prefix is strictly older than
        // the last page read (seqs ascend with page index in a block).
        if (last_read_seq > 0) horizon = std::max(horizon, last_read_seq - 1);
        break;
      }
      PhysicalAddress addr{ub.block, i};
      PageReadResult r = device->ReadSpare(addr, IoPurpose::kRecovery);
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
      if (report_duplicates) gc->ReportInvalid(older.addr);
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
  if (found.size() > translation->cache().capacity()) {
    found.erase(found.begin(), found.end() - translation->cache().capacity());
  }
  for (const auto& [lpn, copy] : found) {
    translation->RestoreEntry(
        lpn, MappingEntry{copy.addr, /*dirty=*/true, mark_uip, mark_uncertain});
  }
}

}  // namespace

FlashMetadataScan RecoverBlocksAndGmd(FlashDevice* device,
                                      BlockManager* blocks,
                                      TranslationTable* table,
                                      RecoveryReport* report) {
  const Geometry& g = device->geometry();
  FlashMetadataScan scan;
  RecoveryStep& bid_step = report->Add("block scan (BID)");
  scan.bid.assign(g.num_blocks, BlockManager::BidEntry{});
  for (BlockId b = 0; b < g.num_blocks; ++b) {
    PageReadResult r =
        device->ReadSpare(PhysicalAddress{b, 0}, IoPurpose::kRecovery);
    ++bid_step.spare_reads;
    BlockManager::BidEntry& e = scan.bid[b];
    if (!r.written) {
      e.type = PageType::kFree;
      continue;
    }
    e.type = r.spare.type;
    e.first_seq = r.spare.seq;
    e.temp = r.spare.temp;
    e.pages_written = device->PagesWritten(b);
  }
  blocks->RecoverFromBid(scan.bid);

  report->Add("GMD (translation-page spare scan)").spare_reads =
      table->RecoverGmd(blocks->BlocksOfType(PageType::kTranslation),
                        &scan.versions);
  std::vector<PhysicalAddress> live_translation;
  for (const auto& v : scan.versions) {
    if (v.current.IsValid()) live_translation.push_back(v.current);
  }
  blocks->RecoverMetadataLiveCounts(live_translation);
  return scan;
}

void RecoverDirtyEntries(const FtlConfig& config, FlashDevice* device,
                         const BlockManager& blocks,
                         TranslationLayer* translation, GcEngine* gc,
                         RecoveryReport* report) {
  if (config.battery) {
    report->Add("dirty mapping entries (battery)");
  } else if (config.DirtyCap() > 0) {
    BackwardScanRecoverEntries(device, blocks, translation, gc,
                               config.checkpoint_period, /*mark_uip=*/false,
                               /*mark_uncertain=*/true,
                               /*report_duplicates=*/false, report);
    RecoveryStep& step = report->Add("synchronize recovered entries");
    IoCounters before = device->stats().Snapshot();
    translation->SyncAllDirty();
    IoCounters delta = device->stats().Snapshot() - before;
    step.page_reads = delta.TotalReads();
    step.page_writes = delta.TotalWrites();
    step.spare_reads = delta.TotalSpareReads();
  } else {
    BackwardScanRecoverEntries(device, blocks, translation, gc,
                               config.checkpoint_period > 0
                                   ? config.checkpoint_period
                                   : config.cache_capacity,
                               /*mark_uip=*/true, /*mark_uncertain=*/true,
                               /*report_duplicates=*/true, report);
  }
}

void SweepDeadMetadataBlocks(const FtlConfig& config,
                             const FlashDevice& device,
                             const BlockManager& blocks, GcEngine* gc) {
  if (config.gc_policy != GcPolicy::kNeverCollectMetadata) return;
  for (BlockId b = 0; b < device.geometry().num_blocks; ++b) {
    PageType type = blocks.BlockType(b);
    if (type != PageType::kTranslation && type != PageType::kPvm) continue;
    if (blocks.IsActive(b) || blocks.IsPinned(b)) continue;
    if (blocks.MetadataLivePages(b) != 0) continue;
    if (device.PagesWritten(b) == 0) continue;
    gc->EraseBlock(b, type == PageType::kTranslation ? IoPurpose::kTranslation
                                                     : IoPurpose::kPvm);
  }
}

}  // namespace gecko
