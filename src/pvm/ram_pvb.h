// RAM-resident Page Validity Bitmap: the scheme DFTL and LazyFTL use.
//
// One bit per physical page, kept entirely in integrated RAM. Updates and
// queries cost no flash IO, but the RAM footprint is B*K/8 bytes (64 MB
// for the paper's 2 TB device) and the bitmap is lost on power failure —
// rebuilding it requires scanning the whole translation table.

#ifndef GECKOFTL_PVM_RAM_PVB_H_
#define GECKOFTL_PVM_RAM_PVB_H_

#include <vector>

#include "flash/geometry.h"
#include "pvm/page_validity_store.h"

namespace gecko {

class RamPvb : public PageValidityStore {
 public:
  explicit RamPvb(const Geometry& geometry)
      : geometry_(geometry), bits_(geometry.num_blocks) {
    for (auto& b : bits_) b = Bitmap(geometry.pages_per_block);
  }

  void RecordInvalidPage(PhysicalAddress addr) override {
    bits_[addr.block].Set(addr.page);
  }

  void RecordErase(BlockId block) override { bits_[block].Reset(); }

  Bitmap QueryInvalidPages(BlockId block) override { return bits_[block]; }

  uint64_t RamBytes() const override {
    return geometry_.TotalPages() / 8;  // one bit per physical page
  }

  const char* Name() const override { return "ram-pvb"; }

  /// Power failure wipes the bitmap; the owning FTL rebuilds it (by
  /// translation-table scan), or a battery saves it.
  void ResetRamState() override {
    for (auto& b : bits_) b.Reset();
  }

  /// No flash blocks to rebuild from.
  StoreRecovery Recover(const std::vector<BlockId>&,
                        RecoveryReport*) override {
    return StoreRecovery{0, 0, {}, /*in_flash=*/false};
  }

  /// Counting bits costs no flash IO.
  std::vector<uint32_t> InvalidCounts(RecoveryReport* report) override {
    report->Add("BVC (from RAM PVB)");
    std::vector<uint32_t> counts;
    for (const Bitmap& b : bits_) {
      counts.push_back(static_cast<uint32_t>(b.Count()));
    }
    return counts;
  }

  bool RelocatePage(PhysicalAddress) override { return false; }

 private:
  Geometry geometry_;
  std::vector<Bitmap> bits_;
};

}  // namespace gecko

#endif  // GECKOFTL_PVM_RAM_PVB_H_
