#include "pvm/pvl.h"

#include <algorithm>

namespace gecko {

PageValidityLog::PageValidityLog(const Geometry& geometry, FlashDevice* device,
                                 PageAllocator* allocator)
    : geometry_(geometry),
      device_(device),
      allocator_(allocator),
      heads_(geometry.num_blocks),
      last_erase_seq_(geometry.num_blocks, 0) {
  // A record is (invalidated page address, prev pointer, timestamp):
  // 4 + 6 + 4 bytes, rounded to 16 for alignment in a real layout.
  records_per_page_ = geometry.page_bytes / 16;
  GECKO_CHECK_GE(records_per_page_, 2u);
  // X = 2 * D, where D is the maximum number of invalid pages that can
  // exist: the physical-minus-logical capacity difference (Appendix E).
  uint64_t d = geometry.TotalPages() - geometry.NumLogicalPages();
  max_records_ = 2 * d;
}

void PageValidityLog::BufferRecord(PhysicalAddress addr, uint64_t timestamp) {
  Record r;
  r.invalidated = addr;
  r.timestamp = timestamp;
  Head& head = heads_[addr.block];
  // A buffered predecessor is linked by its buffer index below, and
  // FlushBuffer turns that into its log position; otherwise the chain
  // continues at the head's log record.
  r.prev = head.in_buffer ? RecordRef{} : head.log_ref;
  uint32_t index = static_cast<uint32_t>(buffer_.size());
  buffer_.push_back(r);
  if (head.in_buffer) {
    // Stash predecessor's buffer index in the slot field temporarily.
    buffer_[index].prev.page_id = kNullPage;
    buffer_[index].prev.slot = head.buffer_index + 1;  // +1: 0 means none
  }
  head.in_buffer = true;
  head.buffer_index = index;
  if (buffer_.size() >= records_per_page_) FlushBuffer();
}

void PageValidityLog::FlushBuffer() {
  if (buffer_.empty()) return;
  LogPage page;
  page.id = next_page_id_++;
  // Resolve buffer-internal chain links now that slots are known.
  for (uint32_t i = 0; i < buffer_.size(); ++i) {
    Record r = buffer_[i];
    if (!r.prev.IsValid() && r.prev.slot != 0) {
      r.prev = RecordRef{page.id, r.prev.slot - 1};
    }
    page.records.push_back(r);
  }
  SpareArea spare;
  spare.type = PageType::kPvm;
  spare.key = static_cast<uint32_t>(page.id);
  spare.aux = 0;
  // A program fault re-places the log page transparently.
  page.addr = AllocateAndProgram(device_, allocator_, PageType::kPvm,
                                 kNoStream, spare, page.id, IoPurpose::kPvm)
                  .addr;
  total_records_ += page.records.size();

  // Update heads that pointed into the buffer.
  for (uint32_t i = 0; i < buffer_.size(); ++i) {
    Head& head = heads_[buffer_[i].invalidated.block];
    if (head.in_buffer && head.buffer_index == i) {
      head.in_buffer = false;
      head.log_ref = RecordRef{page.id, i};
    }
  }
  buffer_.clear();
  log_pages_.push_back(std::move(page));

  if (!cleaning_) {
    cleaning_ = true;
    while (total_records_ > max_records_ && log_pages_.size() > 1) {
      CleanOldestPage();
    }
    cleaning_ = false;
  }
}

void PageValidityLog::CleanOldestPage() {
  GECKO_CHECK(!log_pages_.empty());
  LogPage oldest = std::move(log_pages_.front());
  log_pages_.pop_front();
  total_records_ -= oldest.records.size();
  device_->ReadPage(oldest.addr, IoPurpose::kPvm);

  // Heads still pointing into the reclaimed page must be cut before the
  // page is reused; re-appended records become the new heads below.
  for (Head& head : heads_) {
    if (!head.in_buffer && head.log_ref.IsValid() &&
        head.log_ref.page_id == oldest.id) {
      head.log_ref = RecordRef{};
    }
  }
  for (const Record& r : oldest.records) {
    if (!RecordObsolete(r)) {
      // Still live: re-append with its original timestamp so the
      // obsolescence check keeps working after re-insertion.
      BufferRecord(r.invalidated, r.timestamp);
    }
  }
  allocator_->OnMetadataPageInvalidated(oldest.addr);
}

void PageValidityLog::RecordInvalidPage(PhysicalAddress addr) {
  GECKO_CHECK_LT(addr.block, geometry_.num_blocks);
  BufferRecord(addr, Tick());
}

void PageValidityLog::RecordErase(BlockId block) {
  GECKO_CHECK_LT(block, geometry_.num_blocks);
  // Erase needs no log record: the RAM-resident erase timestamp makes all
  // older records for the block obsolete, and the chain head is cut.
  // Buffered records for the block stay; the timestamp check filters
  // them.
  last_erase_seq_[block] = Tick();
  Head& head = heads_[block];
  head.in_buffer = false;
  head.log_ref = RecordRef{};
}

const PageValidityLog::LogPage* PageValidityLog::FindLogPage(
    uint64_t page_id) const {
  // The deque is ordered by id; binary search.
  auto it = std::lower_bound(
      log_pages_.begin(), log_pages_.end(), page_id,
      [](const LogPage& p, uint64_t id) { return p.id < id; });
  if (it == log_pages_.end() || it->id != page_id) return nullptr;
  return &*it;
}

Bitmap PageValidityLog::QueryInvalidPages(BlockId block) {
  GECKO_CHECK_LT(block, geometry_.num_blocks);
  Bitmap out(geometry_.pages_per_block);
  uint64_t erase_seq = last_erase_seq_[block];

  // Walk buffered records for this block first (no IO).
  const Head& head = heads_[block];
  RecordRef cursor;
  if (head.in_buffer) {
    // Buffered records chain among themselves via the temporary encoding;
    // simply scan the buffer (it is one page worth of records).
    for (const Record& r : buffer_) {
      if (r.invalidated.block == block && r.timestamp >= erase_seq) {
        out.Set(r.invalidated.page);
      }
    }
    // Continue into the log from the oldest buffered record's prev: find
    // the newest log-resident ref among buffered records of this block.
    for (const Record& r : buffer_) {
      if (r.invalidated.block == block && r.prev.IsValid()) {
        cursor = r.prev;
        break;  // buffered records share the same log-resident tail
      }
    }
  } else {
    cursor = head.log_ref;
  }

  // Walk the chain. Consecutive records on the same log page cost one
  // read; a hop to a different page costs another read. A dangling ref
  // into a reclaimed (erased) page ends the walk.
  uint64_t current_page = kNullPage;
  while (cursor.IsValid()) {
    if (cursor.page_id != current_page) {
      const LogPage* page = FindLogPage(cursor.page_id);
      if (page == nullptr) break;  // reclaimed page: chain ends
      device_->ReadPage(page->addr, IoPurpose::kPvm);
      current_page = cursor.page_id;
    }
    const LogPage* page = FindLogPage(cursor.page_id);
    GECKO_CHECK(page != nullptr);
    GECKO_CHECK_LT(cursor.slot, page->records.size());
    const Record& r = page->records[cursor.slot];
    if (r.timestamp < erase_seq) break;  // older records are all obsolete
    out.Set(r.invalidated.page);
    cursor = r.prev;
  }
  return out;
}

bool PageValidityLog::RelocatePage(PhysicalAddress addr) {
  for (LogPage& page : log_pages_) {
    if (page.addr == addr) {
      device_->ReadPage(addr, IoPurpose::kPvm);
      SpareArea spare;
      spare.type = PageType::kPvm;
      spare.key = static_cast<uint32_t>(page.id);
      PhysicalAddress fresh =
          AllocateAndProgram(device_, allocator_, PageType::kPvm, kNoStream,
                             spare, page.id, IoPurpose::kPvm)
              .addr;
      allocator_->OnMetadataPageInvalidated(addr);
      page.addr = fresh;
      return true;
    }
  }
  return false;
}

std::vector<uint32_t> PageValidityLog::InvalidCounts(RecoveryReport* report) {
  // Count unique invalid pages per block, filtering obsolete records.
  report->Add("BVC (from log scan)");
  std::vector<Bitmap> bits(geometry_.num_blocks);
  for (auto& b : bits) b = Bitmap(geometry_.pages_per_block);
  for (const LogPage& page : log_pages_) {
    for (const Record& r : page.records) {
      if (!RecordObsolete(r)) bits[r.invalidated.block].Set(r.invalidated.page);
    }
  }
  std::vector<uint32_t> counts(geometry_.num_blocks, 0);
  for (BlockId b = 0; b < geometry_.num_blocks; ++b) {
    counts[b] = static_cast<uint32_t>(bits[b].Count());
  }
  return counts;
}

uint64_t PageValidityLog::RamBytes() const {
  // Chain heads: 6 bytes (page + slot) per block; erase timestamps: 4
  // bytes per block; one page buffer.
  return heads_.size() * 6 + last_erase_seq_.size() * 4 +
         geometry_.page_bytes;
}

void PageValidityLog::ResetRamState() {
  for (Head& head : heads_) head = Head{};
  std::fill(last_erase_seq_.begin(), last_erase_seq_.end(), 0);
  buffer_.clear();
}

StoreRecovery PageValidityLog::Recover(const std::vector<BlockId>& pvm_blocks,
                                       RecoveryReport* report) {
  ResetRamState();
  StoreRecovery info;
  // Locate live log pages by spare scan, then read the whole log (the
  // recovery bottleneck the paper attributes to IB-FTL) to rebuild the
  // chain heads. Erase timestamps are recovered from the block spare
  // areas by the owning FTL; stand-alone recovery approximates them with
  // the device's last-erase bookkeeping.
  for (BlockId block : pvm_blocks) {
    for (uint32_t p = 0; p < geometry_.pages_per_block; ++p) {
      PageReadResult r =
          device_->ReadSpare(PhysicalAddress{block, p}, IoPurpose::kRecovery);
      ++info.spare_reads;
      if (!r.written) break;
    }
  }
  for (const LogPage& page : log_pages_) {
    device_->ReadPage(page.addr, IoPurpose::kRecovery);
    ++info.page_reads;
    info.live_pages.push_back(page.addr);
    for (uint32_t slot = 0; slot < page.records.size(); ++slot) {
      const Record& r = page.records[slot];
      Head& head = heads_[r.invalidated.block];
      // Pages are scanned oldest to newest, so the last writer wins.
      head.in_buffer = false;
      head.log_ref = RecordRef{page.id, slot};
      if (r.timestamp > clock_) clock_ = r.timestamp;
    }
  }
  // Per-block erase times come back from the device's persisted erase
  // sequence (stored in spare areas per Appendix D), scaled into tick
  // space; see Tick(). Scaled as the *end* of the erase's sequence
  // window (+1): records created in the same window — CurrentSeq() is
  // the next seq to assign, and the erase itself consumes it — carry
  // ticks >= LastEraseSeq * kTickStride, so scaling the erase to the
  // window start would resurrect them as current. Records that postdate
  // the erase reference pages written after it and therefore tick at
  // >= (LastEraseSeq + 1) * kTickStride, exactly the boundary.
  for (BlockId b = 0; b < geometry_.num_blocks; ++b) {
    last_erase_seq_[b] = (device_->LastEraseSeq(b) + 1) * kTickStride;
    if (last_erase_seq_[b] > clock_) clock_ = last_erase_seq_[b];
  }
  RecoveryStep& step = report->Add("PVL chain heads (full log scan)");
  step.spare_reads = info.spare_reads;
  step.page_reads = info.page_reads;
  return info;
}

}  // namespace gecko
