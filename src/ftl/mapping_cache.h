// LRU cache of mapping entries (Figure 7 of the paper).
//
// Holds the recently-used part of the logical-to-physical translation
// table in integrated RAM. Entries carry three flags:
//   dirty     — newer than the flash-resident translation table;
//   uip       — an Unidentified Invalid Page exists: some flash page holds
//               a before-image of this logical page that has not yet been
//               reported to the page-validity store (Section 4.1);
//   uncertain — the entry was recreated during recovery and its dirty/uip
//               flags are assumed-true until a synchronization operation
//               verifies them (Appendix C.3).
//
// Entries live in a node slab reserved to the capacity at construction;
// it never reallocates, so a MappingEntry* returned by Find or Insert
// stays valid until that lpn is erased. An open-addressing
// index (a power-of-two table of at least 2C slots, linear probing,
// backward-shift deletion) maps lpn -> node, so every lookup, insert and
// erase is O(1). Intrusive prev/next links through the slab order
// entries by recency (LRU end first).
//
// Synchronization operations flush all dirty entries of one translation
// page together (footnote 6). A second pair of intrusive links chains the
// entries of each translation page (lpn / page_width) from a flat array of
// list heads indexed by page, so Insert and Erase keep the chains in O(1)
// and DirtyInPage visits only that page's cached entries, however wide
// the page and however large the cache.
//
// Checkpoints (Section 4.3) are tracked by a per-entry dirtying epoch
// rather than symbols in the LRU queue; see TakeCheckpoint.

#ifndef GECKOFTL_FTL_MAPPING_CACHE_H_
#define GECKOFTL_FTL_MAPPING_CACHE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "flash/types.h"
#include "util/check.h"

namespace gecko {

/// One cached mapping entry.
struct MappingEntry {
  PhysicalAddress ppa;
  bool dirty = false;
  bool uip = false;
  bool uncertain = false;
  /// Checkpoint epoch in which the entry was last dirtied (maintained by
  /// MappingCache::MarkDirty). Checkpoints synchronize entries dirtied
  /// before the previous checkpoint.
  uint64_t dirty_epoch = 0;
};

class MappingCache {
 public:
  /// `page_width` is the number of mappings per translation page: lpn l
  /// belongs to page l / page_width.
  MappingCache(uint32_t capacity, uint32_t page_width);

  /// Looks up `lpn` and refreshes its recency. Returns nullptr on miss.
  MappingEntry* Find(Lpn lpn);

  /// Looks up without touching recency (used by GC's UIP check, which
  /// inspects the cache rather than using it).
  const MappingEntry* Peek(Lpn lpn) const;

  /// Whether `lpn` is cached, without touching recency.
  bool Contains(Lpn lpn) const { return Peek(lpn) != nullptr; }

  /// Inserts a new entry at MRU. The caller must have made room first
  /// (while NeedsEviction(): evict). Aborts if `lpn` is already present.
  MappingEntry* Insert(Lpn lpn, const MappingEntry& entry);

  bool NeedsEviction() const { return size_ >= capacity_; }

  /// Returns the least-recently-used lpn without removing it.
  Lpn PeekLru() const;

  /// Hotness-weighted eviction (hot/cold stream separation): installs a
  /// scorer (higher = hotter) and the number of LRU-end entries
  /// PeekEvictionVictim scans for the coldest candidate. Unset scorer or
  /// depth <= 1 keeps pure LRU. Orthogonal to the checkpoint-epoch aging
  /// of TakeCheckpoint, which keys off dirtying epochs, not LRU position.
  using EvictionScorer = std::function<uint64_t(Lpn)>;
  void SetEvictionPolicy(EvictionScorer scorer, uint32_t scan_depth) {
    scorer_ = std::move(scorer);
    scan_depth_ = scan_depth;
  }

  /// The eviction candidate: the LRU entry under pure LRU; with a scorer,
  /// the coldest of the `scan_depth` least-recently-used entries (ties
  /// break toward LRU). The MRU entry is never a candidate: a just-
  /// inserted entry (e.g. a coalesced miss fill about to be read through)
  /// must survive at least until the next cache operation, whatever its
  /// hotness.
  Lpn PeekEvictionVictim() const;

  /// Removes `lpn` from the cache.
  void Erase(Lpn lpn);

  /// Dirty entries of translation page `page`, in lpn order — the entries
  /// one synchronization operation flushes together. Visits only the
  /// page's cached entries.
  std::vector<Lpn> DirtyInPage(uint32_t page) const;
  /// Every dirty entry, in lpn order.
  std::vector<Lpn> DirtyLpns() const;

  /// Oldest dirty entry in LRU order (for the dirty-entry cap of LazyFTL
  /// and IB-FTL). Returns false if there are no dirty entries.
  bool OldestDirty(Lpn* out) const;

  /// Takes a checkpoint (Section 4.3): returns the dirty lpns whose last
  /// *update* predates the previous checkpoint, in lpn order, which the
  /// caller must synchronize, and advances the checkpoint epoch.
  ///
  /// The paper describes this as a backward walk of the LRU queue between
  /// two checkpoint symbols. That formulation bounds staleness by *use*
  /// recency, which is only equivalent when every cache touch is an
  /// update; under mixed read/write workloads a frequently-read dirty
  /// entry would stay in front of the symbol forever and never be
  /// synchronized, breaking the 2-checkpoint recovery-scan bound
  /// (DESIGN.md §3). Tracking the dirtying epoch per entry restores the
  /// guarantee with the same O(C)-per-checkpoint cost.
  std::vector<Lpn> TakeCheckpoint();

  /// Marks an entry dirty, stamping the current checkpoint epoch. All
  /// dirtying must go through here (or Insert with dirty=true).
  void MarkDirty(MappingEntry* entry) {
    if (!entry->dirty) {
      entry->dirty = true;
      ++dirty_count_;
    }
    entry->dirty_epoch = epoch_;
  }

  uint64_t epoch() const { return epoch_; }

  /// Advances the checkpoint epoch without taking a checkpoint, so every
  /// currently-dirty entry becomes due at the *next* TakeCheckpoint
  /// instead of the one after. Recovery uses this on the entries it
  /// re-inserts from the backward scan: they are not freshly dirtied
  /// work, they are the pre-crash instance's un-checkpointed backlog, and
  /// granting them a full extra period would let crash churn outrun the
  /// scan's coverage.
  void AdvanceEpoch() { ++epoch_; }

  uint32_t size() const { return size_; }
  uint32_t capacity() const { return capacity_; }
  uint32_t dirty_count() const { return dirty_count_; }

  /// Bumps down the dirty counter; callers invoke this when clearing an
  /// entry's dirty flag (dirtying goes through MarkDirty).
  void NoteCleaned() {
    GECKO_CHECK_GT(dirty_count_, 0u);
    --dirty_count_;
  }

  /// Drops everything (power failure).
  void Reset();

  /// All lpns currently cached, in LRU-to-MRU order (used by battery-
  /// backed shutdown sync and by tests).
  std::vector<Lpn> LruToMruOrder() const;

 private:
  static constexpr uint32_t kNil = std::numeric_limits<uint32_t>::max();
  /// Runs of 8 consecutive lpns hash together (8 slots = 64 bytes).
  static constexpr uint32_t kRunBits = 3;

  struct Node {
    MappingEntry entry;
    Lpn lpn = 0;
    uint32_t prev = kNil;  // toward LRU
    uint32_t next = kNil;  // toward MRU; the free-list link once erased
    uint32_t page_prev = kNil;  // the chain of lpn's translation page
    uint32_t page_next = kNil;
  };
  /// One index slot; node == kNil marks it empty.
  struct Slot {
    Lpn lpn = 0;
    uint32_t node = kNil;
  };

  uint32_t Home(Lpn lpn) const;
  /// The index slot holding `lpn`, or the empty slot that ends its probe.
  uint32_t Probe(Lpn lpn) const;
  void EraseSlot(uint32_t slot);
  void Unlink(uint32_t n);
  void LinkAtMru(uint32_t n);
  uint32_t PageOf(Lpn lpn) const { return lpn / page_width_; }
  void LinkToPage(uint32_t n);
  void UnlinkFromPage(uint32_t n);

  uint32_t capacity_;
  uint32_t page_width_;
  std::vector<Node> nodes_;  // slab, reserved to capacity_
  std::vector<Slot> index_;
  uint32_t mask_ = 0;   // index_.size() - 1
  uint32_t shift_ = 0;  // 64 - log2(index_.size() >> kRunBits)
  uint32_t lru_ = kNil;
  uint32_t mru_ = kNil;
  uint32_t free_ = kNil;  // erased nodes, linked through Node::next
  /// Head node of each translation page's chain (kNil: none cached),
  /// grown on demand to the highest page inserted.
  std::vector<uint32_t> page_head_;
  uint32_t size_ = 0;
  uint32_t dirty_count_ = 0;
  uint64_t epoch_ = 1;
  EvictionScorer scorer_;    // unset = pure LRU eviction
  uint32_t scan_depth_ = 1;  // LRU-end entries scanned per eviction
};

}  // namespace gecko

#endif  // GECKOFTL_FTL_MAPPING_CACHE_H_
