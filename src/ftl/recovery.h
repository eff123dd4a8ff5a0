// Power-failure recovery of the five FTLs (Section 4.3, Appendix C): the
// steps BaseFtl::CrashAndRecover runs in order, as free functions over the
// parts they rebuild. Each step adds its IO to the RecoveryReport.

#ifndef GECKOFTL_FTL_RECOVERY_H_
#define GECKOFTL_FTL_RECOVERY_H_

#include <vector>

#include "flash/flash_device.h"
#include "ftl/block_manager.h"
#include "ftl/ftl_config.h"
#include "ftl/gc_engine.h"
#include "ftl/translation_layer.h"
#include "ftl/translation_table.h"
#include "pvm/recovery_report.h"

namespace gecko {

/// What recovery's first two steps read off flash: the Blocks Information
/// Directory and every readable translation-page version. GeckoFTL's
/// buffer re-derivation (Appendix C.2) reads both.
struct FlashMetadataScan {
  std::vector<BlockManager::BidEntry> bid;
  std::vector<TranslationTable::TPageVersions> versions;
};

/// GeckoRec steps 1-2: one spare read per block gives its type and the
/// timestamp of its first page (the BID), from which `blocks` rebuilds;
/// then the GMD from the translation blocks' spare areas, whose current
/// pages are the translation blocks' live pages.
FlashMetadataScan RecoverBlocksAndGmd(FlashDevice* device,
                                      BlockManager* blocks,
                                      TranslationTable* table,
                                      RecoveryReport* report);

/// Steps 6-7: dirty mapping entries, by the scheme the config implies.
///   - battery (DFTL, µ-FTL): synchronized on residual power; nothing to
///     recover (Figure 13);
///   - dirty cap (LazyFTL, IB-FTL): a scan bounded by the checkpoint
///     period, then every recovered entry synchronized before normal
///     operation resumes — the recovery-time vs write-amplification
///     contention GeckoFTL removes;
///   - GeckoRec: a checkpoint-bounded scan whose entries stay dirty (UIP,
///     uncertain) and synchronize lazily after normal operation resumes;
///     duplicate copies the scan meets are reported invalid (DESIGN.md
///     deviation 2).
void RecoverDirtyEntries(const FtlConfig& config, FlashDevice* device,
                         const BlockManager& blocks,
                         TranslationLayer* translation, GcEngine* gc,
                         RecoveryReport* report);

/// Step 8: erases the fully-dead, non-active metadata blocks left over
/// (only under the policy that never collects metadata blocks).
void SweepDeadMetadataBlocks(const FtlConfig& config,
                             const FlashDevice& device,
                             const BlockManager& blocks, GcEngine* gc);

}  // namespace gecko

#endif  // GECKOFTL_FTL_RECOVERY_H_
