// GeckoFTL: the paper's FTL (Section 4).
//
// Three innovations over the DFTL-style baseline machinery in BaseFtl:
//  1. Page-validity metadata lives in flash inside Logarithmic Gecko
//     (Section 3) instead of a PVB;
//  2. Metadata blocks are never GC victims — they are erased for free once
//     fully invalid (Section 4.2);
//  3. Dirty cached mapping entries are recovered by a checkpoint-bounded
//     backward scan and synchronized lazily *after* normal operation
//     resumes (Section 4.3, Appendix C), removing the recovery-time vs
//     write-amplification contention.

#ifndef GECKOFTL_FTL_GECKO_FTL_H_
#define GECKOFTL_FTL_GECKO_FTL_H_

#include "core/log_gecko.h"
#include "ftl/base_ftl.h"

namespace gecko {

class GeckoFtl : public BaseFtl {
 public:
  GeckoFtl(FlashDevice* device, const FtlConfig& config);

  const char* Name() const override { return "GeckoFTL"; }
  LogGecko& gecko() { return *gecko_; }

  /// The GeckoFTL default configuration: lazy UIP identification,
  /// metadata-aware GC, checkpoints every C cache operations, no battery,
  /// no dirty cap.
  static FtlConfig DefaultConfig(uint32_t cache_capacity);

 protected:
  /// GeckoRec step 4: the buffer (Appendix C.2), re-derived from the
  /// BID and the translation-page versions recovery scanned.
  void OnStoreRecovered(const FlashMetadataScan& scan,
                        RecoveryReport* report) override;
  void OnRecoveryComplete(RecoveryReport* report) override;
  void OnTranslationPageReplaced(TPageId tpage,
                                 PhysicalAddress old_addr) override;
  /// kFlush: the Gecko buffer is the FTL's remaining volatile state; a
  /// flush advances the durable horizon and releases translation-diff pins.
  void FlushMetadata() override;

 private:
  /// The Logarithmic Gecko inside store_.
  LogGecko* const gecko_;
};

}  // namespace gecko

#endif  // GECKOFTL_FTL_GECKO_FTL_H_
