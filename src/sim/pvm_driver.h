// Driver for the Section 5.1/5.2 experiments: exercises a page-validity
// store in isolation, without the translation-table machinery.
//
// The driver plays the role of a minimal page-associative FTL whose
// mapping table lives in driver RAM (free), so that all measured flash IO
// on the kPvm purpose is attributable to the store under test — exactly
// the apples-to-apples framing of Figure 9 ("we do not capture the entire
// write-amplification in the device ... to enable an apples to apples
// comparison between Logarithmic Gecko and a flash-resident PVB").
//
// As a built-in oracle, the driver tracks exact per-block invalid bitmaps
// and checks every GC query result against them, so every bench run is
// also a correctness check of the store.

#ifndef GECKOFTL_SIM_PVM_DRIVER_H_
#define GECKOFTL_SIM_PVM_DRIVER_H_

#include <cstdint>
#include <vector>

#include "flash/flash_device.h"
#include "flash/striped_free_pool.h"
#include "ftl/gc_victim_policy.h"
#include "pvm/page_validity_store.h"
#include "workload/workload.h"

namespace gecko {

class PvmDriver {
 public:
  /// The driver owns user blocks [0, user_blocks); the store's metadata
  /// region lies above (managed by the store's own allocator).
  /// `logical_ratio` fixes the logical space to ratio * user pages.
  PvmDriver(FlashDevice* device, PageValidityStore* store,
            uint32_t user_blocks, double logical_ratio);

  uint64_t num_lpns() const { return num_lpns_; }

  /// First write of every logical page (device fill).
  void Fill();

  /// Applies `count` updates drawn from `workload`, running GC as needed.
  void RunUpdates(uint64_t count, Workload& workload);

  uint64_t gc_operations() const { return gc_operations_; }
  uint64_t updates_issued() const { return updates_issued_; }

 private:
  void WriteLpn(Lpn lpn);
  void EnsureFreeBlocks();
  void CollectOne();
  bool IsActiveBlock(BlockId block) const;
  PhysicalAddress Allocate();

  FlashDevice* device_;
  PageValidityStore* store_;
  uint32_t user_blocks_;
  /// Shared victim-selection policy (same scan as BaseFtl's GC).
  GreedyVictimPolicy victim_policy_;
  uint64_t num_lpns_;
  std::vector<PhysicalAddress> mapping_;     // lpn -> ppa (driver RAM)
  std::vector<Lpn> reverse_;                 // flat ppa -> lpn
  std::vector<uint32_t> invalid_count_;      // exact, per user block
  std::vector<Bitmap> oracle_;               // exact invalid bitmaps
  StripedFreePool free_pool_;
  /// Channel-striped active blocks (one per channel) + round-robin cursor,
  /// mirroring BlockManager's policy.
  std::vector<PhysicalAddress> actives_;
  uint32_t next_slot_ = 0;
  uint64_t gc_operations_ = 0;
  uint64_t updates_issued_ = 0;
};

}  // namespace gecko

#endif  // GECKOFTL_SIM_PVM_DRIVER_H_
