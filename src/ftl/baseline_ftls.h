// The four state-of-the-art FTLs GeckoFTL is compared against in
// Section 5.3: DFTL, LazyFTL, µ-FTL, and IB-FTL.
//
// All four share BaseFtl's translation machinery and differ in (1) how
// they store page-validity metadata and (2) how they recover dirty cached
// mapping entries:
//
//            validity metadata     dirty-entry recovery
//   DFTL     RAM PVB               battery
//   LazyFTL  RAM PVB               dirty cap (10% C) + sync-before-resume
//   µ-FTL    flash PVB             battery
//   IB-FTL   page-validity log     dirty cap (10% C) + sync-before-resume
//
// All baselines identify invalid pages immediately (a write miss reads the
// translation page to find the before-image), use greedy GC over all
// blocks including metadata, and — for µ-FTL/IB-FTL — model the B-tree
// translation table with a page table whose RAM model differs only in the
// GMD term (see DESIGN.md §3).

#ifndef GECKOFTL_FTL_BASELINE_FTLS_H_
#define GECKOFTL_FTL_BASELINE_FTLS_H_

#include "ftl/base_ftl.h"

namespace gecko {

/// DFTL [22]: RAM-resident PVB, battery-backed recovery.
class DftlFtl : public BaseFtl {
 public:
  DftlFtl(FlashDevice* device, const FtlConfig& config);
  const char* Name() const override { return "DFTL"; }
  static FtlConfig DefaultConfig(uint32_t cache_capacity);

 protected:
  /// Charges reading back the battery's copy of the RAM PVB.
  void OnStoreRecovered(const FlashMetadataScan& scan,
                        RecoveryReport* report) override;
};

/// LazyFTL [26]: RAM-resident PVB, no battery; dirty entries capped at 10%
/// of the cache and synchronized before normal operation resumes.
class LazyFtl : public BaseFtl {
 public:
  LazyFtl(FlashDevice* device, const FtlConfig& config);
  const char* Name() const override { return "LazyFTL"; }
  static FtlConfig DefaultConfig(uint32_t cache_capacity);

 protected:
  /// Rebuilds the RAM PVB (and the BVC) by scanning every translation
  /// page: written pages not referenced by the table are invalid.
  void OnRecoveryComplete(RecoveryReport* report) override;
};

/// µ-FTL [24]: flash-resident PVB, battery-backed dirty-entry recovery.
class MuFtl : public BaseFtl {
 public:
  MuFtl(FlashDevice* device, const FtlConfig& config);
  const char* Name() const override { return "uFTL"; }
  static FtlConfig DefaultConfig(uint32_t cache_capacity);

  /// µ-FTL's B-tree keeps only the root resident, so its RAM leaves out
  /// the GMD term (DESIGN.md §3); the PVB chunk directory stays.
  uint64_t RamBytes() const override;
};

/// IB-FTL [18]: flash-resident page-validity log with RAM chain heads;
/// dirty entries capped and synchronized before normal operation resumes.
class IbFtl : public BaseFtl {
 public:
  IbFtl(FlashDevice* device, const FtlConfig& config);
  const char* Name() const override { return "IB-FTL"; }
  static FtlConfig DefaultConfig(uint32_t cache_capacity);
};

}  // namespace gecko

#endif  // GECKOFTL_FTL_BASELINE_FTLS_H_
