// Flash-resident page-associative translation table + Global Mapping
// Directory (Section 2; the DFTL scheme the paper adopts for GeckoFTL).
//
// The table is an array of mapping entries split into translation pages of
// P/4 entries each. Translation pages are updated out of place; the GMD in
// integrated RAM maps each translation-page id to its current flash
// location. Previous versions stay readable until their block is erased —
// GeckoFTL's buffer recovery diffs current against previous versions
// (Appendix C.2.2).

#ifndef GECKOFTL_FTL_TRANSLATION_TABLE_H_
#define GECKOFTL_FTL_TRANSLATION_TABLE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "flash/flash_device.h"
#include "flash/page_allocator.h"
#include "flash/types.h"

namespace gecko {

/// Id of a translation page: lpn / entries_per_page.
using TPageId = uint32_t;

class TranslationTable {
 public:
  TranslationTable(const Geometry& geometry, FlashDevice* device,
                   PageAllocator* allocator);

  uint32_t entries_per_page() const { return entries_per_page_; }
  uint32_t num_tpages() const { return num_tpages_; }
  TPageId TPageOf(Lpn lpn) const { return lpn / entries_per_page_; }

  /// Whether translation page `t` has ever been written to flash.
  bool Exists(TPageId t) const { return gmd_[t].IsValid(); }
  PhysicalAddress Location(TPageId t) const { return gmd_[t]; }

  /// Reads translation page `t` from flash (one charged page read) and
  /// returns its mapping array (always entries_per_page entries; unmapped
  /// slots are kNullAddress). If the page was never written, returns an
  /// all-kNullAddress array without performing any IO.
  std::vector<PhysicalAddress> ReadTPage(TPageId t, IoPurpose purpose);

  /// Single-entry lookup: one charged page read (or none if the
  /// translation page does not exist). Returns kNullAddress if unmapped.
  PhysicalAddress Lookup(Lpn lpn, IoPurpose purpose);

  /// Uncharged single-entry lookup against the current flash image: no
  /// device IO, no latency. Used to replay a parked miss whose charged
  /// translation-page read was already issued when its fetch was launched
  /// — by replay time the fetch has been paid for, and reading the
  /// *current* image (rather than a snapshot from issue time) is exactly
  /// right, since GC may have migrated the page meanwhile. Returns
  /// kNullAddress if unmapped or the translation page does not exist.
  PhysicalAddress PeekMapping(Lpn lpn) const;

  /// Writes a new version of translation page `t` (one charged page
  /// write), updates the GMD, invalidates the previous version through the
  /// allocator, and returns the old location (kNullAddress if none).
  PhysicalAddress CommitTPage(TPageId t,
                              std::vector<PhysicalAddress> mappings,
                              IoPurpose purpose);

  /// Migrates translation page `t` to a new location during GC of its
  /// block (read + write). Content is unchanged.
  void MigrateTPage(TPageId t, IoPurpose purpose);

  /// Reads a specific *version* of a translation page by flash address
  /// (used by recovery diffing). The address must hold a translation page.
  const std::vector<PhysicalAddress>& ReadVersion(PhysicalAddress addr,
                                                  IoPurpose purpose);

  uint64_t GmdRamBytes() const { return uint64_t{num_tpages_} * 8; }

  /// Drops stale version images on an erased block. Must be called before
  /// any block is erased by GC.
  void OnBlockErased(BlockId block);

  // --- Recovery ----------------------------------------------------------

  void ResetRamState();

  /// Rebuilds the GMD by scanning the spare areas of all pages in
  /// `translation_blocks` for the newest version of each translation page
  /// (GeckoRec step 2). Also reports every still-readable version of each
  /// translation page in write order; buffer recovery diffs consecutive
  /// versions newer than the durable horizon (Appendix C.2.2). Returns
  /// the number of spare reads.
  struct TPageVersion {
    PhysicalAddress addr = kNullAddress;
    uint64_t seq = 0;
  };
  struct TPageVersions {
    PhysicalAddress current = kNullAddress;
    uint64_t current_seq = 0;
    /// All readable versions, oldest first (current is the last element).
    std::vector<TPageVersion> versions;
  };
  uint64_t RecoverGmd(const std::vector<BlockId>& translation_blocks,
                      std::vector<TPageVersions>* versions);

 private:
  struct VersionImage {
    TPageId tpage;
    std::vector<PhysicalAddress> mappings;
  };

  Geometry geometry_;
  FlashDevice* device_;
  PageAllocator* allocator_;
  uint32_t entries_per_page_;
  uint32_t num_tpages_;
  /// GMD: current location of each translation page (volatile RAM).
  std::vector<PhysicalAddress> gmd_;
  /// Flash payload model: every written translation-page version, keyed by
  /// flat physical index. Persists across power failure; entries vanish
  /// when their block is erased.
  std::unordered_map<uint64_t, VersionImage> images_;
  /// Images per block: erasing a block with none (any user block) is free.
  std::vector<uint32_t> block_images_;
};

}  // namespace gecko

#endif  // GECKOFTL_FTL_TRANSLATION_TABLE_H_
