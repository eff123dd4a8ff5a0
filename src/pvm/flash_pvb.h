// Flash-resident Page Validity Bitmap: the scheme µ-FTL uses.
//
// The bitmap is partitioned into page-sized chunks stored in flash; a
// RAM-resident directory maps each chunk to its current flash page (chunk
// pages are themselves updated out of place). Every update is a
// read-modify-write of one chunk page — one flash read plus one flash
// write — which is exactly the write-amplification the paper's Section 5.1
// baseline exhibits. A GC query reads one chunk page.

#ifndef GECKOFTL_PVM_FLASH_PVB_H_
#define GECKOFTL_PVM_FLASH_PVB_H_

#include <vector>

#include "flash/flash_device.h"
#include "flash/page_allocator.h"
#include "pvm/page_validity_store.h"

namespace gecko {

class FlashPvb : public PageValidityStore {
 public:
  FlashPvb(const Geometry& geometry, FlashDevice* device,
           PageAllocator* allocator);

  void RecordInvalidPage(PhysicalAddress addr) override;
  /// Batched update: one chunk-page read-modify-write per *touched chunk*
  /// instead of one per address — the flash-PVB half of the batching
  /// contract of the request-oriented Ftl API.
  void RecordInvalidPages(const std::vector<PhysicalAddress>& addrs) override;
  void RecordErase(BlockId block) override;
  Bitmap QueryInvalidPages(BlockId block) override;

  uint64_t RamBytes() const override {
    // Chunk directory: 8 bytes (chunk id -> physical address) per chunk.
    return chunk_locations_.size() * 8;
  }

  const char* Name() const override { return "flash-pvb"; }

  uint32_t NumChunks() const {
    return static_cast<uint32_t>(chunk_locations_.size());
  }

  void ResetRamState() override;  // the directory; chunk contents persist
  /// Rebuilds the chunk directory by scanning the spare areas of the PVM
  /// blocks for the newest version of each chunk (one spare read per
  /// written page).
  StoreRecovery Recover(const std::vector<BlockId>& pvm_blocks,
                        RecoveryReport* report) override;
  /// Reads every chunk page (one charged read each).
  std::vector<uint32_t> InvalidCounts(RecoveryReport* report) override;
  /// Relocates `addr` if it holds the current version of some chunk.
  bool RelocatePage(PhysicalAddress addr) override;

 private:
  struct ChunkRef {
    uint32_t block;  // first block covered by this chunk
    uint32_t count;  // number of blocks covered
  };

  /// Which chunk holds the validity bits of `block`, and at what bit
  /// offset within the chunk.
  uint32_t ChunkOf(BlockId block) const { return block / blocks_per_chunk_; }
  uint32_t BitOffset(PhysicalAddress addr) const {
    return (addr.block % blocks_per_chunk_) * geometry_.pages_per_block +
           addr.page;
  }

  /// Reads chunk `c` (one flash read), applies `mutate`, writes the new
  /// version (one flash write), and retires the old page.
  template <typename Fn>
  void ReadModifyWrite(uint32_t c, Fn mutate);

  Geometry geometry_;
  FlashDevice* device_;
  PageAllocator* allocator_;
  uint32_t blocks_per_chunk_;
  /// Flash location of each chunk's current version (RAM directory).
  std::vector<PhysicalAddress> chunk_locations_;
  /// Chunk contents as laid out in flash. This models flash payload (the
  /// device stores tokens, not buffers) and therefore survives power
  /// failure; only chunk_locations_ is volatile.
  std::vector<Bitmap> chunk_bits_;
};

}  // namespace gecko

#endif  // GECKOFTL_PVM_FLASH_PVB_H_
