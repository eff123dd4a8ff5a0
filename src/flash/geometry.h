// Device geometry: the architectural parameters of Figure 2 in the paper,
// extended with the channel/die topology of real very-large devices.

#ifndef GECKOFTL_FLASH_GEOMETRY_H_
#define GECKOFTL_FLASH_GEOMETRY_H_

#include <cstdint>

#include "util/check.h"

namespace gecko {

/// Index of one flash channel (an independent bus with its own latency
/// clock; see flash/channel_queue.h).
using ChannelId = uint32_t;

/// Architectural parameters of a simulated flash device. Symbols follow the
/// paper: K blocks, B pages per block, P bytes per page, R the ratio of
/// logical to physical capacity (over-provisioning = 1 - R).
///
/// Channels: a very large device is built from `num_channels` independent
/// channels. Blocks are interleaved across channels (block k lives on
/// channel k mod num_channels), so consecutive block allocations naturally
/// land on distinct channels. Operations on different channels proceed in
/// parallel; the dies on one channel share its bus and therefore its
/// latency clock (bus-limited model), so the die count changes no timing.
struct Geometry {
  uint32_t num_blocks = 1024;       // K
  uint32_t pages_per_block = 128;   // B
  uint32_t page_bytes = 4096;       // P
  double logical_ratio = 0.7;       // R
  uint32_t num_channels = 1;        // independent parallel channels

  uint64_t TotalPages() const {
    return uint64_t{num_blocks} * pages_per_block;
  }

  uint64_t PhysicalBytes() const { return TotalPages() * page_bytes; }

  /// Number of logical pages exposed to the application (R * K * B).
  uint64_t NumLogicalPages() const {
    return static_cast<uint64_t>(TotalPages() * logical_ratio);
  }

  /// Spare area size; physically adjacent to each page and 32x smaller [1].
  uint32_t SpareBytes() const { return page_bytes / 32; }

  /// Mapping entries per translation page (4-byte physical addresses).
  uint32_t MappingEntriesPerTranslationPage() const { return page_bytes / 4; }

  /// Number of translation pages needed to map the logical space.
  uint64_t NumTranslationPages() const {
    uint32_t per_page = MappingEntriesPerTranslationPage();
    return (NumLogicalPages() + per_page - 1) / per_page;
  }

  /// Translation table size in bytes (4 * K * B * R in the paper).
  uint64_t TranslationTableBytes() const { return NumLogicalPages() * 4; }

  /// Channel hosting `block` (block-interleaved striping). Dies on one
  /// channel share its bus and therefore its latency clock, so placement
  /// is decided at channel granularity only.
  ChannelId ChannelOf(uint32_t block) const { return block % num_channels; }

  void Validate() const {
    GECKO_CHECK_GT(num_blocks, 0u);
    GECKO_CHECK_GT(pages_per_block, 0u);
    GECKO_CHECK_GE(page_bytes, 64u);
    GECKO_CHECK_GT(logical_ratio, 0.0);
    GECKO_CHECK_LT(logical_ratio, 1.0);
    GECKO_CHECK_GE(num_channels, 1u);
    GECKO_CHECK_LE(num_channels, num_blocks);
  }

  /// The paper's running example (Figure 2): a 2 TB device.
  static Geometry PaperScale() {
    Geometry g;
    g.num_blocks = 1u << 22;      // K = 2^22
    g.pages_per_block = 1u << 7;  // B = 2^7
    g.page_bytes = 1u << 12;      // P = 2^12
    g.logical_ratio = 0.7;
    g.num_channels = 16;          // modern enterprise-card topology
    return g;
  }

  /// Small geometry suitable for unit tests and fast simulations.
  static Geometry TestScale() {
    Geometry g;
    g.num_blocks = 256;
    g.pages_per_block = 32;
    g.page_bytes = 1024;
    g.logical_ratio = 0.7;
    return g;
  }
};

}  // namespace gecko

#endif  // GECKOFTL_FLASH_GEOMETRY_H_
