#include "ftl/mapping_cache.h"

#include <algorithm>
#include <list>
#include <map>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "tests/ftl/ftl_test_util.h"
#include "util/random.h"

namespace gecko {
namespace {

/// Mappings per translation page in these tests: small, so a few lpns span
/// several pages.
constexpr uint32_t kPageWidth = 8;

MappingEntry E(uint32_t block, bool dirty = false, bool uip = false) {
  return MappingEntry{PhysicalAddress{block, 0}, dirty, uip, false};
}

TEST(MappingCacheTest, InsertAndFind) {
  MappingCache cache(4, kPageWidth);
  cache.Insert(10, E(1));
  MappingEntry* e = cache.Find(10);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->ppa.block, 1u);
  EXPECT_EQ(cache.Find(11), nullptr);
}

TEST(MappingCacheTest, LruOrderFollowsAccess) {
  MappingCache cache(3, kPageWidth);
  cache.Insert(1, E(1));
  cache.Insert(2, E(2));
  cache.Insert(3, E(3));
  EXPECT_EQ(cache.PeekLru(), 1u);
  cache.Find(1);  // touch
  EXPECT_EQ(cache.PeekLru(), 2u);
}

TEST(MappingCacheTest, PeekDoesNotTouch) {
  MappingCache cache(3, kPageWidth);
  cache.Insert(1, E(1));
  cache.Insert(2, E(2));
  cache.Peek(1);
  EXPECT_EQ(cache.PeekLru(), 1u);
}

TEST(MappingCacheTest, NeedsEvictionAtCapacity) {
  MappingCache cache(2, kPageWidth);
  EXPECT_FALSE(cache.NeedsEviction());
  cache.Insert(1, E(1));
  cache.Insert(2, E(2));
  EXPECT_TRUE(cache.NeedsEviction());
  cache.Erase(1);
  EXPECT_FALSE(cache.NeedsEviction());
}

TEST(MappingCacheTest, DirtyCountTracksFlags) {
  MappingCache cache(4, kPageWidth);
  cache.Insert(1, E(1, /*dirty=*/true));
  cache.Insert(2, E(2, /*dirty=*/false));
  EXPECT_EQ(cache.dirty_count(), 1u);
  MappingEntry* e = cache.Find(2);
  cache.MarkDirty(e);
  EXPECT_EQ(cache.dirty_count(), 2u);
  cache.MarkDirty(e);  // idempotent
  EXPECT_EQ(cache.dirty_count(), 2u);
  e->dirty = false;
  cache.NoteCleaned();
  EXPECT_EQ(cache.dirty_count(), 1u);
  cache.Erase(1);  // erasing a dirty entry decrements
  EXPECT_EQ(cache.dirty_count(), 0u);
}

TEST(MappingCacheTest, DirtyInPageSelectsByPageInLpnOrder) {
  MappingCache cache(8, kPageWidth);
  // Page 1 holds lpns 8..15; inserted out of lpn order.
  cache.Insert(12, E(1, true));
  cache.Insert(9, E(2, true));
  cache.Insert(11, E(3, false));
  cache.Insert(20, E(4, true));
  cache.Insert(15, E(5, true));
  cache.Insert(7, E(6, true));
  EXPECT_EQ(cache.DirtyInPage(1), (std::vector<Lpn>{9, 12, 15}));
  EXPECT_EQ(cache.DirtyInPage(2), (std::vector<Lpn>{20}));
  EXPECT_EQ(cache.DirtyInPage(0), (std::vector<Lpn>{7}));
  EXPECT_TRUE(cache.DirtyInPage(3).empty());
  EXPECT_TRUE(cache.DirtyInPage(1000).empty());  // beyond any cached page
  // An erased entry leaves its page's chain, from the middle or the head.
  cache.Erase(9);
  EXPECT_EQ(cache.DirtyInPage(1), (std::vector<Lpn>{12, 15}));
  cache.Erase(15);
  EXPECT_EQ(cache.DirtyInPage(1), (std::vector<Lpn>{12}));
  cache.Erase(12);
  cache.Erase(11);
  EXPECT_TRUE(cache.DirtyInPage(1).empty());
  EXPECT_EQ(cache.DirtyLpns(), (std::vector<Lpn>{7, 20}));
}

TEST(MappingCacheTest, OldestDirtySkipsCleanEntries) {
  MappingCache cache(4, kPageWidth);
  cache.Insert(1, E(1, false));
  cache.Insert(2, E(2, true));
  cache.Insert(3, E(3, true));
  Lpn out;
  ASSERT_TRUE(cache.OldestDirty(&out));
  EXPECT_EQ(out, 2u);
}

TEST(MappingCacheTest, OldestDirtyFalseWhenAllClean) {
  MappingCache cache(4, kPageWidth);
  cache.Insert(1, E(1, false));
  Lpn out;
  EXPECT_FALSE(cache.OldestDirty(&out));
}

TEST(MappingCacheTest, CheckpointReturnsStaleDirtyEntries) {
  // An entry dirtied in epoch e is synchronized by the checkpoint closing
  // epoch e+1 at the latest — the 2-period bound of Section 4.3.
  MappingCache cache(8, kPageWidth);
  cache.Insert(1, E(1, true));
  cache.Insert(2, E(2, true));
  // Both were dirtied in the current epoch: not yet stale.
  EXPECT_TRUE(cache.TakeCheckpoint().empty());

  // Entry 1 is *updated* after the checkpoint; entry 2 is not (a read
  // touch does not refresh its dirty epoch).
  cache.MarkDirty(cache.Find(1));
  cache.Find(2);  // read touch only
  std::vector<Lpn> second = cache.TakeCheckpoint();
  // Only entry 2 was dirtied before the current epoch began.
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0], 2u);
  // One more period with no updates: entry 1 goes stale too.
  std::vector<Lpn> third = cache.TakeCheckpoint();
  ASSERT_EQ(third.size(), 2u);  // 1 and the still-dirty 2
}

TEST(MappingCacheTest, ReadTouchesDoNotShieldDirtyEntriesFromCheckpoints) {
  // The deviation documented in DESIGN.md: a frequently-read dirty entry
  // must still be picked up by the next checkpoint, or the recovery scan
  // bound breaks.
  MappingCache cache(8, kPageWidth);
  cache.Insert(7, E(1, true));
  cache.TakeCheckpoint();
  for (int i = 0; i < 10; ++i) cache.Find(7);  // reads keep it MRU
  std::vector<Lpn> stale = cache.TakeCheckpoint();
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0], 7u);
}

TEST(MappingCacheTest, ResetClearsEverything) {
  MappingCache cache(4, kPageWidth);
  cache.Insert(1, E(1, true));
  cache.TakeCheckpoint();
  cache.Reset();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.dirty_count(), 0u);
  EXPECT_EQ(cache.Find(1), nullptr);
}

TEST(MappingCacheTest, LruToMruOrderIsComplete) {
  MappingCache cache(4, kPageWidth);
  cache.Insert(5, E(1));
  cache.Insert(6, E(2));
  cache.Find(5);
  std::vector<Lpn> order = cache.LruToMruOrder();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 6u);
  EXPECT_EQ(order[1], 5u);
}

TEST(MappingCacheTest, ContainsDoesNotTouchLru) {
  MappingCache cache(3, kPageWidth);
  cache.Insert(1, E(1));
  cache.Insert(2, E(2));
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(9));
  // Contains is a Peek: lpn 1 is still the LRU victim.
  EXPECT_EQ(cache.PeekLru(), 1u);
}

// The FtlCounters::cache_misses split: a batched read with N misses on
// one translation page performs one fetch (miss_fetches) and N-1
// coalesced joins (miss_joins), and on a read-only workload over written
// translation pages the split is exhaustive.
TEST(MappingCacheMissSplitTest, BatchedReadSplitsFetchesFromJoins) {
  FlashDevice device(FtlTestGeometry());
  auto ftl = MakeFtl("DFTL", &device, 4);
  // Populate tpages 0 and 1, then fill the 4-entry cache with tpage-1
  // mappings so lpns 0..5 all miss.
  for (Lpn l = 0; l < 8; ++l) ASSERT_TRUE(ftl->Write(l, 100 + l).ok());
  for (Lpn l = 128; l < 132; ++l) ASSERT_TRUE(ftl->Write(l, 100 + l).ok());
  ASSERT_TRUE(ftl->Flush().ok());
  for (Lpn l = 128; l < 132; ++l) {
    uint64_t got = 0;
    ASSERT_TRUE(ftl->Read(l, &got).ok());
  }

  const FtlCounters before = ftl->counters();
  IoRequest request = IoRequest::Read({0, 1, 2, 3, 4, 5});
  IoResult result;
  ASSERT_TRUE(ftl->Submit(request, &result).ok());
  ASSERT_TRUE(result.AllOk());
  for (int i = 0; i < 6; ++i) EXPECT_EQ(result.payloads[i], 100u + i);

  const FtlCounters& after = ftl->counters();
  EXPECT_EQ(after.cache_misses, before.cache_misses + 6);
  EXPECT_EQ(after.miss_fetches, before.miss_fetches + 1);
  EXPECT_EQ(after.miss_joins, before.miss_joins + 5);
  // The split is exhaustive here: every one of the six misses either
  // fetched or joined.
  EXPECT_EQ(after.cache_misses - before.cache_misses,
            (after.miss_fetches - before.miss_fetches) +
                (after.miss_joins - before.miss_joins));
}

TEST(MappingCacheEvictionPolicyTest, DefaultsToPureLru) {
  MappingCache cache(4, kPageWidth);
  cache.Insert(1, E(1));
  cache.Insert(2, E(2));
  cache.Insert(3, E(3));
  // No scorer installed: the victim IS the LRU entry.
  EXPECT_EQ(cache.PeekEvictionVictim(), cache.PeekLru());
  cache.Find(1);
  EXPECT_EQ(cache.PeekEvictionVictim(), 2u);
}

TEST(MappingCacheEvictionPolicyTest, ScorerPicksColdestWithinScanDepth) {
  MappingCache cache(8, kPageWidth);
  // Hotness oracle: lpn 2 is scorching, everything else cold.
  cache.SetEvictionPolicy([](Lpn lpn) { return lpn == 2 ? 100u : lpn; },
                          /*scan_depth=*/4);
  for (Lpn lpn = 1; lpn <= 6; ++lpn) cache.Insert(lpn, E(lpn));
  // LRU->MRU is 1..6; the scan window is {1,2,3,4}; coldest is 1.
  EXPECT_EQ(cache.PeekEvictionVictim(), 1u);
  cache.Find(1);  // 1 leaves the window; now {2,3,4,5} -> 3 (2 is hot)
  EXPECT_EQ(cache.PeekEvictionVictim(), 3u);
}

TEST(MappingCacheEvictionPolicyTest, TiesBreakTowardLru) {
  MappingCache cache(8, kPageWidth);
  cache.SetEvictionPolicy([](Lpn) { return 7u; }, /*scan_depth=*/4);
  for (Lpn lpn = 1; lpn <= 5; ++lpn) cache.Insert(lpn, E(lpn));
  // Uniform scores degenerate to pure LRU.
  EXPECT_EQ(cache.PeekEvictionVictim(), 1u);
}

TEST(MappingCacheEvictionPolicyTest, DepthOneKeepsPureLruEvenWithScorer) {
  MappingCache cache(4, kPageWidth);
  cache.SetEvictionPolicy([](Lpn lpn) { return 100 - lpn; },
                          /*scan_depth=*/1);
  cache.Insert(1, E(1));
  cache.Insert(2, E(2));
  EXPECT_EQ(cache.PeekEvictionVictim(), 1u);
}

TEST(MappingCacheEvictionPolicyTest, MruEntryIsNeverTheVictim) {
  // The satellite regression: a coalesced miss-join fetches a mapping,
  // inserts it at MRU, and the very next cache operation (the hit that
  // reads through it) may first need an eviction. The just-fetched entry
  // must not be the victim, even when the scorer says it is by far the
  // coldest entry in the cache.
  MappingCache cache(3, kPageWidth);
  cache.SetEvictionPolicy([](Lpn lpn) { return lpn == 30 ? 0u : 50u; },
                          /*scan_depth=*/8);  // depth > size: whole window
  cache.Insert(10, E(1));
  cache.Insert(20, E(2));
  cache.Insert(30, E(3));  // the miss fill, at MRU, score 0 (ice cold)
  ASSERT_TRUE(cache.NeedsEviction());
  Lpn victim = cache.PeekEvictionVictim();
  EXPECT_NE(victim, 30u);
  EXPECT_EQ(victim, 10u);  // older entries tie at 50: LRU-most wins
  cache.Erase(victim);
  // The fetched mapping survives to serve its hit.
  EXPECT_NE(cache.Find(30), nullptr);
}

TEST(MappingCacheEvictionPolicyTest, MissJoinThenHitSurvivesFullCache) {
  // End-to-end shape of the replayed miss fill under a full cache, in
  // both eviction modes: fill the cache, make room, insert the fetched
  // entry, then verify a subsequent eviction round never takes the
  // fetched entry out from under the hit that is about to consume it.
  for (bool hotness_mode : {false, true}) {
    MappingCache cache(4, kPageWidth);
    if (hotness_mode) {
      // Adversarial scorer: the fetched lpn (99) is the coldest possible.
      cache.SetEvictionPolicy([](Lpn lpn) { return lpn == 99 ? 0u : 10u; },
                              /*scan_depth=*/4);
    }
    for (Lpn lpn = 1; lpn <= 4; ++lpn) cache.Insert(lpn, E(lpn));
    while (cache.NeedsEviction()) cache.Erase(cache.PeekEvictionVictim());
    MappingEntry* fetched = cache.Insert(99, E(9));
    ASSERT_NE(fetched, nullptr);
    ASSERT_TRUE(cache.NeedsEviction());
    EXPECT_NE(cache.PeekEvictionVictim(), 99u) << "hotness=" << hotness_mode;
    cache.Erase(cache.PeekEvictionVictim());
    EXPECT_NE(cache.Find(99), nullptr) << "hotness=" << hotness_mode;
  }
}

TEST(MappingCacheDeathTest, DoubleInsertAborts) {
  MappingCache cache(4, kPageWidth);
  cache.Insert(1, E(1));
  EXPECT_DEATH(cache.Insert(1, E(2)), "already cached");
}

TEST(MappingCacheDeathTest, InsertBeyondCapacityAborts) {
  MappingCache cache(1, kPageWidth);
  cache.Insert(1, E(1));
  EXPECT_DEATH(cache.Insert(2, E(2)), "eviction");
}

TEST(MappingCacheTest, EntryPointerSurvivesOtherInsertsAndErases) {
  // Callers hold a MappingEntry* across cache operations on other lpns;
  // the node slab never moves a live entry, even when erased nodes are
  // reused and the cache runs at capacity.
  constexpr uint32_t kCapacity = 64;
  MappingCache cache(kCapacity, kPageWidth);
  MappingEntry* kept = cache.Insert(1000, E(7, /*dirty=*/true));
  MappingEntry* other = cache.Insert(1001, E(8));
  for (Lpn lpn = 0; cache.size() < kCapacity; ++lpn) cache.Insert(lpn, E(lpn));
  for (Lpn lpn = 0; lpn < kCapacity - 2; lpn += 2) cache.Erase(lpn);
  for (Lpn lpn = 2000; cache.size() < kCapacity; ++lpn) {
    cache.Insert(lpn, E(lpn));
  }
  ASSERT_TRUE(cache.NeedsEviction());
  EXPECT_EQ(cache.Find(1000), kept);
  EXPECT_EQ(cache.Peek(1001), other);
  EXPECT_EQ(kept->ppa.block, 7u);
  EXPECT_TRUE(kept->dirty);
  EXPECT_EQ(other->ppa.block, 8u);
  kept->uip = true;  // writes through the pointer reach later lookups
  EXPECT_TRUE(cache.Peek(1000)->uip);
}

// Reference model: the cache's contract in its most direct form, a std::map
// keyed by lpn plus a std::list in recency order. The differential test
// below holds MappingCache to this model's observable behaviour.
class ReferenceCache {
 public:
  explicit ReferenceCache(uint32_t capacity) : capacity_(capacity) {}

  MappingEntry* Find(Lpn lpn) {
    auto it = entries_.find(lpn);
    if (it == entries_.end()) return nullptr;
    lru_.splice(lru_.end(), lru_, it->second.lru_it);
    return &it->second.entry;
  }
  const MappingEntry* Peek(Lpn lpn) const {
    auto it = entries_.find(lpn);
    return it == entries_.end() ? nullptr : &it->second.entry;
  }
  bool Contains(Lpn lpn) const { return Peek(lpn) != nullptr; }
  MappingEntry* Insert(Lpn lpn, const MappingEntry& entry) {
    lru_.push_back(lpn);
    auto [it, inserted] =
        entries_.emplace(lpn, Node{entry, std::prev(lru_.end())});
    if (entry.dirty) {
      ++dirty_count_;
      it->second.entry.dirty_epoch = epoch_;
    }
    return &it->second.entry;
  }
  bool NeedsEviction() const { return entries_.size() >= capacity_; }
  void SetEvictionPolicy(MappingCache::EvictionScorer scorer,
                         uint32_t scan_depth) {
    scorer_ = std::move(scorer);
    scan_depth_ = scan_depth;
  }
  Lpn PeekEvictionVictim() const {
    if (!scorer_ || scan_depth_ <= 1 || lru_.size() < 2) return lru_.front();
    uint64_t limit = lru_.size() - 1;
    if (scan_depth_ < limit) limit = scan_depth_;
    Lpn victim = lru_.front();
    uint64_t best = scorer_(victim);
    auto it = lru_.begin();
    for (uint64_t i = 1; i < limit; ++i) {
      ++it;
      uint64_t score = scorer_(*it);
      if (score < best) {
        best = score;
        victim = *it;
      }
    }
    return victim;
  }
  void Erase(Lpn lpn) {
    auto it = entries_.find(lpn);
    if (it->second.entry.dirty) --dirty_count_;
    lru_.erase(it->second.lru_it);
    entries_.erase(it);
  }
  std::vector<Lpn> DirtyInPage(uint32_t page) const {
    const uint64_t lo = uint64_t{page} * kPageWidth;
    std::vector<Lpn> out;
    for (auto it = entries_.lower_bound(static_cast<Lpn>(lo));
         it != entries_.end() && it->first < lo + kPageWidth; ++it) {
      if (it->second.entry.dirty) out.push_back(it->first);
    }
    return out;
  }
  std::vector<Lpn> DirtyLpns() const {
    std::vector<Lpn> out;
    for (const auto& [lpn, node] : entries_) {
      if (node.entry.dirty) out.push_back(lpn);
    }
    return out;
  }
  /// Every translation page holding a cached entry, ascending.
  std::vector<uint32_t> CachedPages() const {
    std::vector<uint32_t> pages;
    for (const auto& [lpn, node] : entries_) {
      const uint32_t page = lpn / kPageWidth;
      if (pages.empty() || pages.back() != page) pages.push_back(page);
    }
    return pages;
  }
  bool OldestDirty(Lpn* out) const {
    for (Lpn lpn : lru_) {
      if (entries_.at(lpn).entry.dirty) {
        *out = lpn;
        return true;
      }
    }
    return false;
  }
  std::vector<Lpn> TakeCheckpoint() {
    std::vector<Lpn> stale;
    for (const auto& [lpn, node] : entries_) {
      if (node.entry.dirty && node.entry.dirty_epoch < epoch_) {
        stale.push_back(lpn);
      }
    }
    ++epoch_;
    return stale;
  }
  void MarkDirty(MappingEntry* entry) {
    if (!entry->dirty) {
      entry->dirty = true;
      ++dirty_count_;
    }
    entry->dirty_epoch = epoch_;
  }
  void AdvanceEpoch() { ++epoch_; }
  void NoteCleaned() { --dirty_count_; }
  void Reset() {
    entries_.clear();
    lru_.clear();
    dirty_count_ = 0;
    epoch_ = 1;
  }
  uint64_t epoch() const { return epoch_; }
  uint32_t size() const { return static_cast<uint32_t>(entries_.size()); }
  uint32_t dirty_count() const { return dirty_count_; }
  std::vector<Lpn> LruToMruOrder() const {
    return std::vector<Lpn>(lru_.begin(), lru_.end());
  }

 private:
  struct Node {
    MappingEntry entry;
    std::list<Lpn>::iterator lru_it;
  };
  uint32_t capacity_;
  std::map<Lpn, Node> entries_;
  std::list<Lpn> lru_;  // front = LRU
  uint32_t dirty_count_ = 0;
  uint64_t epoch_ = 1;
  MappingCache::EvictionScorer scorer_;
  uint32_t scan_depth_ = 1;
};

void ExpectSameEntry(const MappingEntry* got, const MappingEntry* want) {
  ASSERT_EQ(got == nullptr, want == nullptr);
  if (got == nullptr) return;
  EXPECT_EQ(got->ppa.block, want->ppa.block);
  EXPECT_EQ(got->ppa.page, want->ppa.page);
  EXPECT_EQ(got->dirty, want->dirty);
  EXPECT_EQ(got->uip, want->uip);
  EXPECT_EQ(got->uncertain, want->uncertain);
  EXPECT_EQ(got->dirty_epoch, want->dirty_epoch);
}

// Compares everything the FTL reads back in bulk: recency order, the
// eviction and dirty-cap candidates, and the dirty query of every page that
// holds a cached entry, of the page after the last one and of `page`.
void ExpectSameBulkState(const MappingCache& cache, const ReferenceCache& ref,
                         uint32_t page) {
  ASSERT_EQ(cache.LruToMruOrder(), ref.LruToMruOrder());
  EXPECT_EQ(cache.epoch(), ref.epoch());
  Lpn got = 0;
  Lpn want = 0;
  ASSERT_EQ(cache.OldestDirty(&got), ref.OldestDirty(&want));
  EXPECT_EQ(got, want);
  if (ref.size() > 0) {
    EXPECT_EQ(cache.PeekEvictionVictim(), ref.PeekEvictionVictim());
  }
  std::vector<uint32_t> pages = ref.CachedPages();
  if (!pages.empty()) pages.push_back(pages.back() + 1);
  pages.push_back(page);
  for (uint32_t p : pages) {
    EXPECT_EQ(cache.DirtyInPage(p), ref.DirtyInPage(p)) << "page " << p;
  }
  EXPECT_EQ(cache.DirtyLpns(), ref.DirtyLpns());
}

uint64_t TestScore(Lpn lpn) { return (uint64_t{lpn} * 2654435761u) % 7; }

/// (capacity, whether a hotness scorer drives eviction).
using DifferentialParam = std::tuple<uint32_t, bool>;

class MappingCacheDifferentialTest
    : public ::testing::TestWithParam<DifferentialParam> {};

TEST_P(MappingCacheDifferentialTest, MatchesReferenceModel) {
  const auto [capacity, scored] = GetParam();
  const uint64_t seed = FuzzSeed(14);
  GECKO_TRACE_FUZZ_SEED(seed);
  Rng rng(seed);
  MappingCache cache(capacity, kPageWidth);
  ReferenceCache ref(capacity);
  if (scored) {
    cache.SetEvictionPolicy(TestScore, /*scan_depth=*/8);
    ref.SetEvictionPolicy(TestScore, /*scan_depth=*/8);
  }
  // Four lpns per cache slot, so lookups both hit and miss and a page's
  // chain holds a few entries; one in eight of them in a far region, so the
  // page heads grow by a jump as well as one page at a time.
  const uint64_t space = 4 * uint64_t{capacity} + 16;
  constexpr Lpn kFar = Lpn{1} << 20;
  auto pick = [&] {
    uint64_t r = rng.Uniform(space);
    return static_cast<Lpn>(r % 8 == 7 ? kFar + r : r);
  };
  auto random_entry = [&] {
    MappingEntry e;
    e.ppa = PhysicalAddress{static_cast<BlockId>(rng.Uniform(4096)),
                            static_cast<uint32_t>(rng.Uniform(64))};
    e.dirty = rng.Bernoulli(0.5);
    e.uip = rng.Bernoulli(0.3);
    e.uncertain = rng.Bernoulli(0.1);
    e.dirty_epoch = rng.Uniform(8);
    return e;
  };
  // Evicts like BaseFtl: erase PeekEvictionVictim until there is room.
  auto make_room = [&] {
    while (ref.NeedsEviction()) {
      ASSERT_TRUE(cache.NeedsEviction());
      const Lpn victim = ref.PeekEvictionVictim();
      ASSERT_EQ(cache.PeekEvictionVictim(), victim);
      cache.Erase(victim);
      ref.Erase(victim);
    }
    ASSERT_FALSE(cache.NeedsEviction());
  };

  constexpr int kOps = 100000;
  for (int op = 0; op < kOps; ++op) {
    SCOPED_TRACE(::testing::Message() << "op " << op);
    const Lpn lpn = pick();
    const uint64_t kind = rng.Uniform(100);
    if (kind < 30) {  // Insert (a Find when already cached)
      if (ref.Contains(lpn)) {
        ExpectSameEntry(cache.Find(lpn), ref.Find(lpn));
      } else {
        make_room();
        const MappingEntry e = random_entry();
        ExpectSameEntry(cache.Insert(lpn, e), ref.Insert(lpn, e));
      }
    } else if (kind < 50) {
      ExpectSameEntry(cache.Find(lpn), ref.Find(lpn));
    } else if (kind < 60) {
      ExpectSameEntry(cache.Peek(lpn), ref.Peek(lpn));
      EXPECT_EQ(cache.Contains(lpn), ref.Contains(lpn));
    } else if (kind < 70) {
      // A miss fill: insert only when absent.
      const MappingEntry e = random_entry();
      if (!ref.Contains(lpn)) {
        make_room();
        ExpectSameEntry(cache.Insert(lpn, e), ref.Insert(lpn, e));
      }
    } else if (kind < 80) {
      if (ref.Contains(lpn)) {
        cache.Erase(lpn);
        ref.Erase(lpn);
      }
    } else if (kind < 88) {
      MappingEntry* got = cache.Find(lpn);
      MappingEntry* want = ref.Find(lpn);
      ASSERT_EQ(got == nullptr, want == nullptr);
      if (got != nullptr) {
        cache.MarkDirty(got);
        ref.MarkDirty(want);
      }
    } else if (kind < 94) {  // a synchronization cleaning one entry
      MappingEntry* got = cache.Find(lpn);
      MappingEntry* want = ref.Find(lpn);
      ASSERT_EQ(got == nullptr, want == nullptr);
      if (got != nullptr && want->dirty) {
        got->dirty = want->dirty = false;
        got->uip = want->uip = false;
        cache.NoteCleaned();
        ref.NoteCleaned();
      }
    } else if (kind < 97) {
      ASSERT_EQ(cache.TakeCheckpoint(), ref.TakeCheckpoint());
    } else if (kind < 99) {
      cache.AdvanceEpoch();
      ref.AdvanceEpoch();
    } else if (rng.Uniform(200) == 0) {
      cache.Reset();
      ref.Reset();
    }
    if (HasFatalFailure()) return;
    ASSERT_EQ(cache.size(), ref.size());
    ASSERT_EQ(cache.dirty_count(), ref.dirty_count());
    if (op % 293 == 0) {
      ExpectSameBulkState(cache, ref, pick() / kPageWidth);
      if (HasFatalFailure() || HasNonfatalFailure()) return;
    }
  }
}

std::string DifferentialParamName(
    const ::testing::TestParamInfo<DifferentialParam>& info) {
  return "Cap" + std::to_string(std::get<0>(info.param)) +
         (std::get<1>(info.param) ? "_Scored" : "_Lru");
}

INSTANTIATE_TEST_SUITE_P(Capacities, MappingCacheDifferentialTest,
                         ::testing::Combine(::testing::Values(1u, 3u, 64u,
                                                              1024u),
                                            ::testing::Bool()),
                         DifferentialParamName);

}  // namespace
}  // namespace gecko
