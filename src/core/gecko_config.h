// Tuning knobs for Logarithmic Gecko (Figure 2 symbols T, S, V).

#ifndef GECKOFTL_CORE_GECKO_CONFIG_H_
#define GECKOFTL_CORE_GECKO_CONFIG_H_

#include <cstdint>

#include "flash/geometry.h"
#include "util/check.h"

namespace gecko {

/// How merge cascades are executed.
enum class MergePolicy : uint8_t {
  /// Merge exactly two runs whenever a level holds two; cascades rewrite
  /// lower-level entries multiple times (the basic Section 3 policy).
  kTwoWay,
  /// Foresee the cascade and merge the whole chain of levels at once,
  /// saving ~1/T of the merge writes (Appendix A).
  kMultiWay,
};

/// Configuration for LogGecko.
struct LogGeckoConfig {
  /// T: size ratio between adjacent levels. Minimum 2. T controls the
  /// update-cost vs GC-query-cost trade-off; Section 5.1 finds T=2 optimal.
  uint32_t size_ratio = 2;

  /// S: entry-partitioning factor (Section 3.3). A Gecko entry's B-bit
  /// bitmap is split into S sub-entries of B/S bits each, so a buffered
  /// update only stores the chunk it touched. S must divide B. S=1 means
  /// no partitioning; the recommended balance is S = B / kKeyBits.
  uint32_t partition_factor = 1;

  /// Key size in bits. The sub-entry index is packed into the key field
  /// (as in the paper's S=4, B=128 example), so partitioning adds no bits.
  static constexpr uint32_t kKeyBits = 32;

  MergePolicy merge_policy = MergePolicy::kTwoWay;

  /// Bits per chunk carried by one (sub-)entry.
  uint32_t ChunkBits(const Geometry& g) const {
    GECKO_CHECK_EQ(g.pages_per_block % partition_factor, 0u)
        << "partition factor S must divide block size B";
    return g.pages_per_block / partition_factor;
  }

  /// Serialized size of one (sub-)entry in bits: key + chunk + erase flag.
  uint32_t EntryBits(const Geometry& g) const {
    return kKeyBits + ChunkBits(g) + 1;
  }

  /// V: number of (sub-)entries that fit into one flash page — also the
  /// buffer capacity, since the buffer is one page (Section 3).
  uint32_t EntriesPerPage(const Geometry& g) const {
    uint32_t v = g.page_bytes * 8 / EntryBits(g);
    GECKO_CHECK_GE(v, 2u) << "page too small for Gecko entries";
    return v;
  }

  /// The paper's recommended partitioning: S = B / kKeyBits, clamped to
  /// [1, B] and rounded down to a divisor of B (Section 3.3).
  static uint32_t RecommendedPartitionFactor(const Geometry& g) {
    uint32_t s = g.pages_per_block / kKeyBits;
    if (s < 1) s = 1;
    while (g.pages_per_block % s != 0) --s;
    return s;
  }

  void Validate(const Geometry& g) const {
    GECKO_CHECK_GE(size_ratio, 2u);
    GECKO_CHECK_GE(partition_factor, 1u);
    GECKO_CHECK_LE(partition_factor, g.pages_per_block);
    GECKO_CHECK_EQ(g.pages_per_block % partition_factor, 0u)
        << "partition factor S must divide block size B";
    EntriesPerPage(g);  // checks V >= 2
  }
};

}  // namespace gecko

#endif  // GECKOFTL_CORE_GECKO_CONFIG_H_
