// Set of integer ids in [0, universe) with O(1) insert and erase and a
// smallest-member query in O(log64 universe): a tree of bit words whose
// bottom level holds one bit per id and whose every higher level holds one
// bit per non-empty word below, up to a single root word.
//
// The GC engine's greedy victim index keeps one per channel, keyed by
// (valid pages, block), so the channel's best greedy candidate is the
// smallest member.

#ifndef GECKOFTL_UTIL_ORDERED_ID_SET_H_
#define GECKOFTL_UTIL_ORDERED_ID_SET_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace gecko {

class OrderedIdSet {
 public:
  static constexpr uint32_t kNone = ~uint32_t{0};

  explicit OrderedIdSet(uint32_t universe) : universe_(universe) {
    uint64_t words = (uint64_t{universe} + 63) / 64;
    do {
      words = std::max<uint64_t>(words, 1);
      levels_.emplace_back(words, 0);
      words = (words + 63) / 64;
    } while (levels_.back().size() > 1);
  }

  void Insert(uint32_t id) {
    GECKO_CHECK_LT(id, universe_);
    for (std::vector<uint64_t>& level : levels_) {
      uint64_t& word = level[id / 64];
      const bool was_empty = word == 0;
      word |= uint64_t{1} << (id % 64);
      if (!was_empty) return;  // the levels above already see this word
      id /= 64;
    }
  }

  void Erase(uint32_t id) {
    GECKO_CHECK_LT(id, universe_);
    for (std::vector<uint64_t>& level : levels_) {
      uint64_t& word = level[id / 64];
      word &= ~(uint64_t{1} << (id % 64));
      if (word != 0) return;  // the word stays non-empty above
      id /= 64;
    }
  }

  /// The smallest member, or kNone when the set is empty.
  uint32_t First() const {
    if (levels_.back()[0] == 0) return kNone;
    uint64_t id = 0;
    for (size_t l = levels_.size(); l-- > 0;) {
      id = id * 64 + std::countr_zero(levels_[l][id]);
    }
    return static_cast<uint32_t>(id);
  }

  void Clear() {
    for (std::vector<uint64_t>& level : levels_) {
      std::fill(level.begin(), level.end(), uint64_t{0});
    }
  }

 private:
  uint32_t universe_;
  /// levels_[0] has one bit per id; levels_.back() is the one-word root.
  std::vector<std::vector<uint64_t>> levels_;
};

}  // namespace gecko

#endif  // GECKOFTL_UTIL_ORDERED_ID_SET_H_
