// Common interface for page-validity metadata structures.
//
// The four implementations correspond to the schemes compared in the paper
// (Section 5.3): a RAM-resident PVB (DFTL/LazyFTL), a flash-resident PVB
// (µ-FTL), IB-FTL's page-validity log, and Logarithmic Gecko (adapted in
// gecko_store.h). FTLs and the Section 5.1/5.2 experiments program against
// this interface, crash recovery included: each store drops and rebuilds
// its own RAM state, counts invalid pages for the BVC, and relocates its
// live flash pages when greedy GC collects one of its blocks.

#ifndef GECKOFTL_PVM_PAGE_VALIDITY_STORE_H_
#define GECKOFTL_PVM_PAGE_VALIDITY_STORE_H_

#include <cstdint>
#include <vector>

#include "flash/types.h"
#include "pvm/recovery_report.h"
#include "util/bitmap.h"

namespace gecko {

/// What a store's crash recovery found on flash.
struct StoreRecovery {
  uint64_t spare_reads = 0;
  uint64_t page_reads = 0;
  /// The store's live flash pages (the allocator rebuilds its metadata
  /// live counts from them).
  std::vector<PhysicalAddress> live_pages;
  /// False for a store with no flash copy of its RAM state (the RAM PVB):
  /// it comes back only if a battery saved it.
  bool in_flash = true;
};

/// Tracks which physical pages of user blocks are invalid.
class PageValidityStore {
 public:
  virtual ~PageValidityStore() = default;

  /// Records that the page at `addr` became invalid (an "update").
  virtual void RecordInvalidPage(PhysicalAddress addr) = 0;

  /// Records a batch of invalidations collected by one scatter-gather
  /// request. The default forwards one by one; stores with flash-resident
  /// structures override it to update each touched metadata page once per
  /// batch instead of once per address (the batching contract of the
  /// request-oriented Ftl API).
  virtual void RecordInvalidPages(const std::vector<PhysicalAddress>& addrs) {
    for (PhysicalAddress addr : addrs) RecordInvalidPage(addr);
  }

  /// Records that `block` was erased; all earlier records for it become
  /// obsolete.
  virtual void RecordErase(BlockId block) = 0;

  /// GC query: returns a B-bit bitmap, bit i set iff page i of `block` is
  /// recorded invalid.
  virtual Bitmap QueryInvalidPages(BlockId block) = 0;

  /// Current integrated-RAM footprint of the structure in bytes.
  virtual uint64_t RamBytes() const = 0;

  virtual const char* Name() const = 0;

  // --- Crash recovery ---------------------------------------------------

  /// Power failure: drops the RAM state; flash content persists.
  virtual void ResetRamState() = 0;

  /// Replaces the RAM state with what the store's own flash blocks
  /// (`pvm_blocks`) hold, adding the store's step to `report`. A RAM-only
  /// store keeps its RAM state: it has nothing in flash.
  virtual StoreRecovery Recover(const std::vector<BlockId>& pvm_blocks,
                                RecoveryReport* report) = 0;

  /// Per-block invalid-page counts for the BVC, once Recover has run,
  /// adding the store's step to `report`.
  virtual std::vector<uint32_t> InvalidCounts(RecoveryReport* report) = 0;

  /// Greedy GC of a metadata block: if `addr` holds a live page of this
  /// store, rewrites it elsewhere (read + write), retires `addr` and
  /// returns true.
  virtual bool RelocatePage(PhysicalAddress addr) = 0;
};

}  // namespace gecko

#endif  // GECKOFTL_PVM_PAGE_VALIDITY_STORE_H_
