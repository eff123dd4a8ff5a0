// Adapter exposing Logarithmic Gecko behind the PageValidityStore
// interface, so the Section 5.1/5.2 experiments and the FTL framework can
// swap page-validity schemes uniformly.

#ifndef GECKOFTL_PVM_GECKO_STORE_H_
#define GECKOFTL_PVM_GECKO_STORE_H_

#include <utility>
#include <vector>

#include "core/log_gecko.h"
#include "pvm/page_validity_store.h"

namespace gecko {

class GeckoStore : public PageValidityStore {
 public:
  GeckoStore(const Geometry& geometry, const LogGeckoConfig& config,
             FlashDevice* device, PageAllocator* allocator)
      : device_(device), gecko_(geometry, config, device, allocator) {}

  void RecordInvalidPage(PhysicalAddress addr) override {
    gecko_.RecordInvalidPage(addr);
  }

  void RecordErase(BlockId block) override { gecko_.RecordErase(block); }

  Bitmap QueryInvalidPages(BlockId block) override {
    return gecko_.QueryInvalidPages(block);
  }

  uint64_t RamBytes() const override { return gecko_.RamBytes(); }

  const char* Name() const override { return "log-gecko"; }

  void ResetRamState() override { gecko_.ResetRamState(); }

  /// GeckoRec step 3: the run directories (Appendix C.1). The buffer is
  /// FTL-level work (Appendix C.2).
  StoreRecovery Recover(const std::vector<BlockId>& pvm_blocks,
                        RecoveryReport* report) override {
    gecko_.ResetRamState();
    LogGeckoRecoveryInfo info = gecko_.Recover(pvm_blocks);
    RecoveryStep& step = report->Add("Gecko run directories");
    step.spare_reads = info.spare_reads;
    step.page_reads = info.page_reads;
    return StoreRecovery{info.spare_reads, info.page_reads,
                         std::move(info.live_pages)};
  }

  /// GeckoRec step 5: scans Logarithmic Gecko.
  std::vector<uint32_t> InvalidCounts(RecoveryReport* report) override {
    RecoveryStep& step = report->Add("BVC (scan Logarithmic Gecko)");
    IoCounters before = device_->stats().Snapshot();
    std::vector<uint32_t> counts = gecko_.ReconstructInvalidCounts();
    step.page_reads = (device_->stats().Snapshot() - before).TotalReads();
    return counts;
  }

  /// Reachable only under GcPolicy::kGreedyAll (the Section 4.2
  /// ablation): GeckoFTL's own policy never collects metadata blocks.
  bool RelocatePage(PhysicalAddress addr) override {
    return gecko_.storage().RelocatePage(addr);
  }

  LogGecko& gecko() { return gecko_; }
  const LogGecko& gecko() const { return gecko_; }

 private:
  FlashDevice* device_;
  LogGecko gecko_;
};

}  // namespace gecko

#endif  // GECKOFTL_PVM_GECKO_STORE_H_
