// Block lifecycle management (Figure 8 of the paper), channel-striped.
//
// Flash blocks are grouped by content type — user data, translation pages,
// and page-validity metadata — with one active append block *per channel*
// per group (stripe slots). Allocations round-robin across the slots, so
// consecutive pages of a scatter-gather batch land on distinct channels
// and the channel-parallel device completes them in max-per-channel time.
// With a one-channel geometry this degenerates to the paper's single
// active block per group.
//
// The free pool is kept per channel. When a slot needs a fresh block and
// its own channel's pool is empty, it steals from the richest channel:
// striping is best-effort, running out of space is not an option GC can't
// fix.
//
// The manager also tracks per-metadata-block live-page counts so that
// GeckoFTL's policy (Section 4.2) can erase a metadata block the moment
// its last page becomes invalid, and a pin set that protects blocks
// holding previous translation-page versions needed by buffer recovery
// (Appendix C.2.2).

#ifndef GECKOFTL_FTL_BLOCK_MANAGER_H_
#define GECKOFTL_FTL_BLOCK_MANAGER_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "flash/flash_device.h"
#include "flash/page_allocator.h"
#include "flash/striped_free_pool.h"
#include "ftl/bad_block_manager.h"

namespace gecko {

class BlockManager : public PageAllocator {
 public:
  /// `auto_erase_metadata` enables the Section 4.2 policy of erasing
  /// fully-invalid metadata blocks immediately (GeckoFTL). Greedy
  /// baselines leave them to the regular GC victim selection.
  BlockManager(FlashDevice* device, bool auto_erase_metadata);

  /// Grows the user group to `num_classes` sets of per-channel active
  /// blocks (hot/cold stream separation; ftl/hotness.h). Must be called
  /// before the first allocation. 1 — the construction default — keeps
  /// the classic single-pool layout bit-identically.
  void ConfigureTempClasses(uint32_t num_classes);
  uint32_t num_temp_classes() const { return temp_classes_; }

  /// Temperature class the user block was opened under (0 for metadata
  /// and free blocks). GC demotes a victim's survivors to one class
  /// colder than this.
  uint8_t BlockTemp(BlockId block) const { return block_temp_[block]; }

  // --- PageAllocator ----------------------------------------------------
  PhysicalAddress AllocatePage(PageType type, uint32_t stream = kNoStream,
                               uint8_t temp = 0) override;
  void OnMetadataPageInvalidated(PhysicalAddress addr) override;
  /// Feeds grown-bad bookkeeping; a block that crosses its fail budget is
  /// closed to further allocation (its active slot, if any, is vacated)
  /// and retired at its next EraseOrRetire.
  void OnProgramFailed(PhysicalAddress addr) override;

  /// Compact mode (GC): allocations prefer the fullest already-open
  /// active and open a fresh block only when every slot is full. This
  /// caps a collection's transient free-block demand at the 1-channel
  /// level — round-robin striping could open one block per channel per
  /// group before the victim's erase lands, starving the pool on small
  /// over-provisioning margins. Normal-path writes keep striping.
  void set_compact_mode(bool on) { compact_mode_ = on; }
  bool compact_mode() const { return compact_mode_; }

  /// Registers the one observer of block state (the GC engine's victim
  /// index): called with a block after its type, its active or pinned
  /// state, or its metadata live count changed. An empty function clears
  /// it.
  using BlockObserver = std::function<void(BlockId)>;
  void set_block_observer(BlockObserver observer) {
    observer_ = std::move(observer);
  }

  // --- Block bookkeeping -------------------------------------------------

  PageType BlockType(BlockId block) const { return block_type_[block]; }
  /// Whether `block` is any group's active append block (any stripe slot).
  /// O(1): GC victim scans ask this of every non-free block.
  bool IsActive(BlockId block) const { return active_refs_[block] != 0; }
  bool IsPinned(BlockId block) const { return pinned_.count(block) > 0; }
  uint32_t NumFreeBlocks() const { return free_pool_.size(); }
  /// Smallest the free pool has ever been right after a block was taken.
  /// Lifetime, including allocations made while recovery itself runs —
  /// tests that want a windowed view call ResetFreePoolLowWatermark()
  /// (e.g. after CrashAndRecover). The watermark tests use this to prove
  /// the maintenance plane never lets the pool hit zero.
  uint32_t FreePoolLowWatermark() const { return free_pool_low_; }
  void ResetFreePoolLowWatermark() { free_pool_low_ = ~0u; }
  uint32_t MetadataLivePages(BlockId block) const {
    return meta_live_[block];
  }

  /// Pins `block` against erasure until UnpinThrough releases it. Pins
  /// carry the device sequence at pin time; see Appendix C.2.2.
  void Pin(BlockId block, uint64_t seq);
  uint32_t NumPinned() const { return static_cast<uint32_t>(pinned_.size()); }
  /// Releases every pin taken at sequence <= `seq` (called once the Gecko
  /// buffer has flushed past that point).
  void UnpinThrough(uint64_t seq);

  /// Returns the erased `block` to the free pool (after GC).
  void OnBlockErased(BlockId block);

  /// Fault-aware erase: erases `block` and returns it to the free pool
  /// (true), unless the block is marked for retirement or the erase
  /// itself faults — then the block is retired in the medium, leaves the
  /// type maps as free-but-unusable, and never re-enters the pool
  /// (false). The single erase primitive all reclamation goes through.
  bool EraseOrRetire(BlockId block, IoPurpose purpose);

  /// Grown-bad bookkeeping (fail counts, retirement policy, counters).
  BadBlockManager& bad_blocks() { return bad_blocks_; }
  const BadBlockManager& bad_blocks() const { return bad_blocks_; }

  /// All non-free blocks of a given type (victim-selection candidates and
  /// recovery scan lists).
  std::vector<BlockId> BlocksOfType(PageType type) const;

  uint64_t metadata_blocks_erased() const { return metadata_blocks_erased_; }

  // --- Power-failure recovery -------------------------------------------

  /// Drops all volatile state.
  void ResetRamState();

  /// Step 1 of GeckoRec: rebuilds block types, the free pool, and active
  /// blocks from the Blocks Information Directory assembled by the FTL
  /// (block type + first-write seq per block, from one spare read each).
  /// Partially-written blocks resume as the active block of their group's
  /// stripe slot on their channel (at most one per slot survives normal
  /// operation: actives only retire when full; the newest wins when an
  /// abandoned partial lingers from an earlier crash or a cross-channel
  /// steal).
  struct BidEntry {
    PageType type = PageType::kFree;
    uint64_t first_seq = 0;
    uint32_t pages_written = 0;
    /// User blocks: temperature class from the first page's spare (every
    /// page of a user block shares its class). Restores block_temp_ and
    /// keys partial user blocks to their (class, channel) active slot.
    uint8_t temp = 0;
  };
  void RecoverFromBid(const std::vector<BidEntry>& bid);

  /// Restores metadata live counts from the set of live metadata pages
  /// (GMD targets, pinned previous versions, and live run/log/PVB pages).
  void RecoverMetadataLiveCounts(const std::vector<PhysicalAddress>& live);

 private:
  std::vector<PhysicalAddress>& ActivesFor(PageType type);
  /// Points active slot `slot` at `value`, keeping active_refs_ in step.
  /// Every change of a slot's block goes through here.
  void SetActive(PhysicalAddress& slot, PhysicalAddress value);
  void PushFreeBlock(BlockId block);
  /// Tells the observer, if any, that `block`'s state changed.
  void Changed(BlockId block) {
    if (observer_) observer_(block);
  }
  void MaybeEraseMetadataBlock(BlockId block);
  IoPurpose ErasePurposeFor(PageType type) const;

  FlashDevice* device_;
  bool auto_erase_metadata_;
  BadBlockManager bad_blocks_;
  uint32_t stripe_;  // slots per group = geometry.num_channels
  /// Temperature classes of the user group (metadata groups always have
  /// one). The user actives vector holds temp_classes_ * stripe_ slots,
  /// laid out class-major: slot = temp * stripe_ + channel.
  uint32_t temp_classes_ = 1;
  std::vector<PageType> block_type_;
  /// Per-block temperature class (user blocks; 0 otherwise).
  std::vector<uint8_t> block_temp_;
  std::vector<uint32_t> meta_live_;
  StripedFreePool free_pool_;
  /// Active append blocks, one vector of `stripe_` slots per group
  /// (temp_classes_ * stripe_ for the user group).
  std::array<std::vector<PhysicalAddress>, 4> actives_;
  /// Per block: how many active slots point at it (IsActive).
  std::vector<uint8_t> active_refs_;
  /// Round-robin cursor per metadata group (the user group keeps one
  /// cursor per temperature class below).
  std::array<uint32_t, 4> next_slot_{};
  /// Round-robin cursor per user temperature class.
  std::vector<uint32_t> user_next_slot_ = std::vector<uint32_t>(1, 0);
  bool compact_mode_ = false;
  std::map<BlockId, uint64_t> pinned_;  // block -> pin sequence
  uint64_t metadata_blocks_erased_ = 0;
  uint32_t free_pool_low_ = ~0u;
  BlockObserver observer_;
};

}  // namespace gecko

#endif  // GECKOFTL_FTL_BLOCK_MANAGER_H_
