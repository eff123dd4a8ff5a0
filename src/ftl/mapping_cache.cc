#include "ftl/mapping_cache.h"

#include <algorithm>

namespace gecko {

MappingCache::MappingCache(uint32_t capacity, uint32_t page_width)
    : capacity_(capacity), page_width_(page_width) {
  GECKO_CHECK_GT(capacity, 0u);
  GECKO_CHECK_GT(page_width, 0u);
  GECKO_CHECK_LT(capacity, 1u << 30);
  uint32_t bits = kRunBits + 1;
  while ((1u << bits) < 2 * capacity) ++bits;
  index_.assign(size_t{1} << bits, Slot{});
  mask_ = (1u << bits) - 1;
  shift_ = 64 - (bits - kRunBits);
  nodes_.reserve(capacity);
}

uint32_t MappingCache::Home(Lpn lpn) const {
  // Fibonacci hashing of the lpn's run of 2^kRunBits consecutive lpns; the
  // run's lpns get consecutive home slots, so the lookups of a request's
  // consecutive lpns share cache lines instead of touching one each.
  const uint64_t run = ((lpn >> kRunBits) * 0x9E3779B97F4A7C15ull) >> shift_;
  return static_cast<uint32_t>(run << kRunBits) |
         (lpn & ((1u << kRunBits) - 1));
}

uint32_t MappingCache::Probe(Lpn lpn) const {
  // The table is at most half full, so every probe meets an empty slot.
  uint32_t i = Home(lpn);
  while (index_[i].node != kNil && index_[i].lpn != lpn) i = (i + 1) & mask_;
  return i;
}

void MappingCache::Unlink(uint32_t n) {
  Node& node = nodes_[n];
  (node.prev == kNil ? lru_ : nodes_[node.prev].next) = node.next;
  (node.next == kNil ? mru_ : nodes_[node.next].prev) = node.prev;
}

void MappingCache::LinkAtMru(uint32_t n) {
  Node& node = nodes_[n];
  node.prev = mru_;
  node.next = kNil;
  (mru_ == kNil ? lru_ : nodes_[mru_].next) = n;
  mru_ = n;
}

void MappingCache::LinkToPage(uint32_t n) {
  Node& node = nodes_[n];
  const uint32_t page = PageOf(node.lpn);
  if (page >= page_head_.size()) page_head_.resize(uint64_t{page} + 1, kNil);
  node.page_prev = kNil;
  node.page_next = page_head_[page];
  if (node.page_next != kNil) nodes_[node.page_next].page_prev = n;
  page_head_[page] = n;
}

void MappingCache::UnlinkFromPage(uint32_t n) {
  const Node& node = nodes_[n];
  (node.page_prev == kNil ? page_head_[PageOf(node.lpn)]
                          : nodes_[node.page_prev].page_next) = node.page_next;
  if (node.page_next != kNil) nodes_[node.page_next].page_prev = node.page_prev;
}

MappingEntry* MappingCache::Find(Lpn lpn) {
  const Slot& slot = index_[Probe(lpn)];
  if (slot.node == kNil) return nullptr;
  if (slot.node != mru_) {
    Unlink(slot.node);
    LinkAtMru(slot.node);
  }
  return &nodes_[slot.node].entry;
}

const MappingEntry* MappingCache::Peek(Lpn lpn) const {
  const Slot& slot = index_[Probe(lpn)];
  return slot.node == kNil ? nullptr : &nodes_[slot.node].entry;
}

MappingEntry* MappingCache::Insert(Lpn lpn, const MappingEntry& entry) {
  uint32_t slot = Probe(lpn);
  GECKO_CHECK(index_[slot].node == kNil) << "lpn " << lpn << " already cached";
  GECKO_CHECK(!NeedsEviction()) << "insert without prior eviction";
  uint32_t n = free_;
  if (n != kNil) {
    free_ = nodes_[n].next;
  } else {
    // Within the reserved capacity: the slab never reallocates.
    n = static_cast<uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  Node& node = nodes_[n];
  node.entry = entry;
  node.lpn = lpn;
  LinkAtMru(n);
  LinkToPage(n);
  index_[slot] = Slot{lpn, n};
  ++size_;
  if (entry.dirty) {
    ++dirty_count_;
    node.entry.dirty_epoch = epoch_;
  }
  return &node.entry;
}

void MappingCache::EraseSlot(uint32_t hole) {
  // Backward-shift deletion: pull each later entry of the probe run into
  // the hole if the hole lies on its probe path, so no tombstones remain.
  for (uint32_t i = (hole + 1) & mask_; index_[i].node != kNil;
       i = (i + 1) & mask_) {
    if (((i - Home(index_[i].lpn)) & mask_) >= ((i - hole) & mask_)) {
      index_[hole] = index_[i];
      hole = i;
    }
  }
  index_[hole] = Slot{};
}

Lpn MappingCache::PeekLru() const {
  GECKO_CHECK(size_ > 0) << "PeekLru on empty cache";
  return nodes_[lru_].lpn;
}

Lpn MappingCache::PeekEvictionVictim() const {
  GECKO_CHECK(size_ > 0) << "PeekEvictionVictim on empty cache";
  if (!scorer_ || scan_depth_ <= 1 || size_ < 2) return nodes_[lru_].lpn;
  // Scan up to scan_depth_ entries from the LRU end — but never the MRU
  // entry (see the header: a just-inserted miss fill must survive its
  // first use). Ties keep the least-recently-used candidate, so a
  // uniformly-cold window degenerates to pure LRU.
  uint32_t limit = std::min(scan_depth_, size_ - 1);
  uint32_t n = lru_;
  Lpn victim = nodes_[n].lpn;
  uint64_t best = scorer_(victim);
  for (uint32_t i = 1; i < limit; ++i) {
    n = nodes_[n].next;
    uint64_t score = scorer_(nodes_[n].lpn);
    if (score < best) {
      best = score;
      victim = nodes_[n].lpn;
    }
  }
  return victim;
}

void MappingCache::Erase(Lpn lpn) {
  uint32_t slot = Probe(lpn);
  uint32_t n = index_[slot].node;
  GECKO_CHECK(n != kNil) << "erase of uncached lpn " << lpn;
  if (nodes_[n].entry.dirty) {
    GECKO_CHECK_GT(dirty_count_, 0u);
    --dirty_count_;
  }
  Unlink(n);
  UnlinkFromPage(n);
  nodes_[n].next = free_;
  free_ = n;
  --size_;
  EraseSlot(slot);
}

std::vector<Lpn> MappingCache::DirtyInPage(uint32_t page) const {
  std::vector<Lpn> dirty;
  if (page >= page_head_.size()) return dirty;
  uint32_t visited = 0;
  for (uint32_t n = page_head_[page]; n != kNil; n = nodes_[n].page_next) {
    // A chain holds at most every cached entry; more means a corrupt link.
    GECKO_CHECK_LE(++visited, size_) << "page " << page << " chain loops";
    if (nodes_[n].entry.dirty) dirty.push_back(nodes_[n].lpn);
  }
  // A page's chain runs in insertion order, newest first.
  std::sort(dirty.begin(), dirty.end());
  return dirty;
}

std::vector<Lpn> MappingCache::DirtyLpns() const {
  std::vector<Lpn> out;
  for (uint32_t n = lru_; n != kNil; n = nodes_[n].next) {
    if (nodes_[n].entry.dirty) out.push_back(nodes_[n].lpn);
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool MappingCache::OldestDirty(Lpn* out) const {
  for (uint32_t n = lru_; n != kNil; n = nodes_[n].next) {
    if (nodes_[n].entry.dirty) {
      *out = nodes_[n].lpn;
      return true;
    }
  }
  return false;
}

std::vector<Lpn> MappingCache::TakeCheckpoint() {
  // Entries dirtied before the current epoch began have gone a full
  // checkpoint period without an update: synchronize them now so the
  // recovery backward scan stays bounded (Section 4.3).
  std::vector<Lpn> stale;
  for (uint32_t n = lru_; n != kNil; n = nodes_[n].next) {
    const MappingEntry& entry = nodes_[n].entry;
    if (entry.dirty && entry.dirty_epoch < epoch_) {
      stale.push_back(nodes_[n].lpn);
    }
  }
  std::sort(stale.begin(), stale.end());
  ++epoch_;
  return stale;
}

void MappingCache::Reset() {
  // Only the pages of cached entries have heads to clear.
  for (uint32_t n = lru_; n != kNil; n = nodes_[n].next) {
    page_head_[PageOf(nodes_[n].lpn)] = kNil;
  }
  nodes_.clear();  // keeps the reserved capacity
  std::fill(index_.begin(), index_.end(), Slot{});
  lru_ = mru_ = free_ = kNil;
  size_ = 0;
  dirty_count_ = 0;
  epoch_ = 1;
}

std::vector<Lpn> MappingCache::LruToMruOrder() const {
  std::vector<Lpn> out;
  out.reserve(size_);
  for (uint32_t n = lru_; n != kNil; n = nodes_[n].next) {
    out.push_back(nodes_[n].lpn);
  }
  return out;
}

}  // namespace gecko
