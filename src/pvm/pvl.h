// Page Validity Log: IB-FTL's scheme, extended with the cleaning
// mechanism the paper adds in Appendix E for a fair comparison.
//
// Invalidation records (invalidated page address + timestamp) accumulate
// in a one-page RAM buffer and are appended to a flash-resident log. Log
// records for pages of the same block are threaded into a linked chain
// whose head pointer lives in integrated RAM, so a GC query walks the
// chain, paying roughly one flash read per chain hop (consecutive records
// on the same log page are read together).
//
// Cleaning (Appendix E): each record carries its creation timestamp and
// RAM keeps each block's last-erase timestamp. The log is bounded to
// X = 2*D records, where D is the physical-minus-logical page difference
// (the maximum number of invalid pages the device can hold). When a flush
// pushes the log beyond X records, the oldest log page is reclaimed:
// records newer than their block's last erase are re-appended, obsolete
// ones are discarded. Chain pointers into reclaimed pages are tolerated:
// walks filter every record through the same timestamp check and treat
// erased log pages as chain ends.

#ifndef GECKOFTL_PVM_PVL_H_
#define GECKOFTL_PVM_PVL_H_

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "flash/flash_device.h"
#include "flash/page_allocator.h"
#include "pvm/page_validity_store.h"

namespace gecko {

class PageValidityLog : public PageValidityStore {
 public:
  PageValidityLog(const Geometry& geometry, FlashDevice* device,
                  PageAllocator* allocator);

  void RecordInvalidPage(PhysicalAddress addr) override;
  void RecordErase(BlockId block) override;
  Bitmap QueryInvalidPages(BlockId block) override;

  uint64_t RamBytes() const override;
  const char* Name() const override { return "pvl"; }

  uint64_t LogRecords() const { return total_records_; }
  uint64_t LogPages() const { return log_pages_.size(); }
  uint64_t MaxRecords() const { return max_records_; }

  /// Chain heads, erase timestamps and the buffer; the log persists.
  void ResetRamState() override;
  /// Recovery requires scanning the entire log (the paper's point about
  /// IB-FTL's recovery bottleneck): one page read per live log page.
  StoreRecovery Recover(const std::vector<BlockId>& pvm_blocks,
                        RecoveryReport* report) override;
  /// Derived from the records the recovery scan already read (no IO).
  std::vector<uint32_t> InvalidCounts(RecoveryReport* report) override;
  /// Relocates `addr` if it holds a live log page. Chain references use
  /// page ids, so they survive relocation.
  bool RelocatePage(PhysicalAddress addr) override;

 private:
  /// Position of a record in the log: which log page, which slot.
  struct RecordRef {
    uint64_t page_id = kNullPage;
    uint32_t slot = 0;
    bool IsValid() const { return page_id != kNullPage; }
  };
  static constexpr uint64_t kNullPage = ~uint64_t{0};

  struct Record {
    PhysicalAddress invalidated;
    uint64_t timestamp;  // device seq at record creation
    RecordRef prev;      // next-older record for the same block
  };

  struct LogPage {
    uint64_t id;
    PhysicalAddress addr;
    std::vector<Record> records;  // flash payload (persists across crash)
  };

  /// Strictly monotone logical clock for record/erase timestamps. Device
  /// sequence numbers alone can tie (several store operations may happen
  /// between device writes), which would make the obsolescence check
  /// ambiguous; ticks interleave a per-op counter under the device clock
  /// scaled by kTickStride, so ticks and scaled device erase sequences
  /// remain comparable after recovery.
  static constexpr uint64_t kTickStride = uint64_t{1} << 20;
  uint64_t Tick() {
    uint64_t floor = device_->CurrentSeq() * kTickStride;
    clock_ = clock_ + 1 > floor ? clock_ + 1 : floor;
    return clock_;
  }

  void BufferRecord(PhysicalAddress addr, uint64_t timestamp);
  void FlushBuffer();
  void CleanOldestPage();
  bool RecordObsolete(const Record& r) const {
    return r.timestamp < last_erase_seq_[r.invalidated.block];
  }
  const LogPage* FindLogPage(uint64_t page_id) const;

  Geometry geometry_;
  FlashDevice* device_;
  PageAllocator* allocator_;
  uint32_t records_per_page_;  // V_log
  uint64_t max_records_;       // X = 2 * D

  // RAM-resident (volatile): chain heads + per-block erase timestamps.
  // Heads may point into the buffer (slot in buffer_) or into the log.
  struct Head {
    bool in_buffer = false;
    uint32_t buffer_index = 0;
    RecordRef log_ref;
    bool IsValid() const { return in_buffer || log_ref.IsValid(); }
  };
  std::vector<Head> heads_;
  std::vector<uint64_t> last_erase_seq_;
  std::vector<Record> buffer_;

  // Flash-resident (persists across power failure).
  std::deque<LogPage> log_pages_;  // oldest first
  uint64_t next_page_id_ = 0;
  uint64_t total_records_ = 0;  // records in flash (excludes buffer)
  bool cleaning_ = false;       // guards re-entrant cleaning
  uint64_t clock_ = 0;          // see Tick()
};

}  // namespace gecko

#endif  // GECKOFTL_PVM_PVL_H_
