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
// The cache is a tree (std::map) so synchronization operations can range-
// scan all entries belonging to one translation page (footnote 6). An
// intrusive LRU list orders entries by recency and can carry checkpoint
// symbols (Section 4.3): dummy nodes marking where a checkpoint happened.

#ifndef GECKOFTL_FTL_MAPPING_CACHE_H_
#define GECKOFTL_FTL_MAPPING_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <map>
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
  explicit MappingCache(uint32_t capacity) : capacity_(capacity) {
    GECKO_CHECK_GT(capacity, 0u);
  }

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

  /// Insert that tolerates the entry already being present: returns the
  /// existing entry untouched (no recency refresh, no overwrite) when
  /// `lpn` is cached, otherwise inserts at MRU like Insert. Used by batched
  /// and replayed miss fills, where an earlier extent of the same group
  /// (or an interleaved request) may have populated the lpn already. The
  /// caller must still have made room first when the lpn is absent.
  MappingEntry* InsertIfAbsent(Lpn lpn, const MappingEntry& entry);

  bool NeedsEviction() const { return entries_.size() >= capacity_; }

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

  /// Dirty entries whose lpn lies in [lo, hi] — the entries one
  /// synchronization operation flushes together.
  std::vector<Lpn> DirtyInRange(Lpn lo, Lpn hi) const;
  /// Every dirty entry, in lpn order.
  std::vector<Lpn> DirtyLpns() const {
    return DirtyInRange(0, std::numeric_limits<Lpn>::max());
  }

  /// Oldest dirty entry in LRU order (for the dirty-entry cap of LazyFTL
  /// and IB-FTL). Returns false if there are no dirty entries.
  bool OldestDirty(Lpn* out) const;

  /// Takes a checkpoint (Section 4.3): returns the dirty lpns whose last
  /// *update* predates the previous checkpoint, which the caller must
  /// synchronize, and advances the checkpoint epoch.
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

  uint32_t size() const { return static_cast<uint32_t>(entries_.size()); }
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
  using LruList = std::list<Lpn>;

  struct Node {
    MappingEntry entry;
    LruList::iterator lru_it;
  };

  void Touch(std::map<Lpn, Node>::iterator it);

  uint32_t capacity_;
  std::map<Lpn, Node> entries_;
  LruList lru_;  // front = LRU, back = MRU
  uint32_t dirty_count_ = 0;
  uint64_t epoch_ = 1;
  EvictionScorer scorer_;    // unset = pure LRU eviction
  uint32_t scan_depth_ = 1;  // LRU-end entries scanned per eviction
};

}  // namespace gecko

#endif  // GECKOFTL_FTL_MAPPING_CACHE_H_
