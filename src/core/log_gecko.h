// Logarithmic Gecko: the paper's central contribution (Section 3).
//
// A write-optimized replacement for the Page Validity Bitmap. Updates
// (page invalidations) and erases are absorbed by a one-page RAM buffer;
// the buffer flushes to sorted runs in flash, organized into levels with
// geometrically increasing sizes (ratio T). Runs within reach of each
// other are merged like an LSM-tree, so a GC query costs O(log_T(K/V))
// flash reads while an update costs O((T/V)·log_T(K/V)) amortized IOs —
// sub-constant, since V >> T·log_T(K/V).
//
// Volatile state (buffer, run directories, level lists) is lost on power
// failure and rebuilt by Recover(); persistent state lives in RunStorage.

#ifndef GECKOFTL_CORE_LOG_GECKO_H_
#define GECKOFTL_CORE_LOG_GECKO_H_

#include <cstdint>
#include <map>
#include <vector>

#include "core/gecko_config.h"
#include "core/gecko_entry.h"
#include "core/run_storage.h"
#include "flash/flash_device.h"
#include "flash/page_allocator.h"

namespace gecko {

/// Internal operation counters for the Section 5.1 experiments, which
/// report the IOs caused by updates (flush + merge) separately from the
/// IOs caused by GC queries.
struct LogGeckoStats {
  uint64_t updates = 0;          // RecordInvalidPage calls
  uint64_t erases = 0;           // RecordErase calls
  uint64_t queries = 0;          // QueryInvalidPages calls
  uint64_t flushes = 0;
  uint64_t merges = 0;
  uint64_t flush_writes = 0;     // flash writes from buffer flushes
  uint64_t merge_reads = 0;      // flash reads from merge inputs
  uint64_t merge_writes = 0;     // flash writes from merge outputs
  uint64_t query_reads = 0;      // flash reads from GC queries

  uint64_t UpdatePathWrites() const { return flush_writes + merge_writes; }

  LogGeckoStats operator-(const LogGeckoStats& o) const;
};

/// Result of recovering Logarithmic Gecko's volatile state (Appendix C.1).
struct LogGeckoRecoveryInfo {
  uint64_t spare_reads = 0;   // locating runs in the scanned blocks
  uint64_t page_reads = 0;    // preamble + postambles of live runs
  uint32_t live_runs = 0;
  /// Every flash page belonging to a live run (for allocator/BVC rebuild).
  std::vector<PhysicalAddress> live_pages;
};

/// The Logarithmic Gecko structure. Not thread-safe.
class LogGecko {
 public:
  LogGecko(const Geometry& geometry, const LogGeckoConfig& config,
           FlashDevice* device, PageAllocator* allocator);

  LogGecko(const LogGecko&) = delete;
  LogGecko& operator=(const LogGecko&) = delete;

  // --- Updates (Algorithms 1 and 2) -----------------------------------

  /// Records that the page at `addr` became invalid.
  void RecordInvalidPage(PhysicalAddress addr);

  /// Records that `block` was erased: all pre-erase entries for it become
  /// obsolete. Inserts erase-flagged (sub-)entries, *replacing* any bits
  /// already buffered for the block (see DESIGN.md deviation 1).
  void RecordErase(BlockId block);

  // --- GC queries (Section 3.1) ----------------------------------------

  /// Returns a B-bit bitmap: bit i set means page i of `block` is invalid.
  /// Searches the buffer, then runs from newest to oldest, stopping per
  /// sub-entry chain at the first erase flag.
  Bitmap QueryInvalidPages(BlockId block);

  // --- Maintenance ------------------------------------------------------

  /// Forces a buffer flush (used by tests and checkpoints).
  void Flush();

  // --- Recovery (Appendix C.1) -----------------------------------------

  /// Drops all volatile state, as power failure would.
  void ResetRamState();

  /// Rebuilds level lists and run directories by scanning the spare areas
  /// of `pvm_blocks`, reading the newest complete run's preamble for the
  /// live-run snapshot, and reading each live run's postamble.
  LogGeckoRecoveryInfo Recover(const std::vector<BlockId>& pvm_blocks);

  /// Device sequence number up to which all recorded invalidations are
  /// durable in flash (used by the FTL's buffer recovery, Appendix C.2).
  uint64_t DurableSeq() const { return durable_seq_; }

  /// Reconstructs the per-block invalid-page counts by scanning all live
  /// runs and the buffer (GeckoRec step 5). Charges one read per run page.
  std::vector<uint32_t> ReconstructInvalidCounts();

  // --- Introspection ----------------------------------------------------

  uint32_t NumLevels() const;
  uint32_t NumLiveRuns() const;
  uint64_t FlashPages() const { return storage_.TotalFlashPages(); }
  size_t BufferedEntries() const { return buffer_.size(); }
  uint32_t BufferCapacity() const { return entries_per_page_; }
  /// RAM footprint: buffer page(s) + run directories (Appendix B).
  uint64_t RamBytes() const;
  const LogGeckoStats& stats() const { return stats_; }
  const LogGeckoConfig& config() const { return config_; }
  RunStorage& storage() { return storage_; }

  /// Live run ids ordered newest to oldest (levels ascending, newest first
  /// within a level). Exposed for tests and recovery checks.
  std::vector<RunId> LiveRunsNewestFirst() const;

 private:
  GeckoEntry& GetOrCreateBuffered(GeckoKey key);
  void MaybeFlush();
  void MaybeMerge();
  /// Merges `participants` (newest first); returns merged entries.
  std::vector<GeckoEntry> MergeEntries(
      const std::vector<const RunImage*>& participants, bool is_bottom);
  void InsertRun(RunId id, uint32_t level, uint64_t creation_seq);
  void RemoveRun(RunId id, uint32_t level);
  uint32_t LevelForPages(uint64_t pages) const;
  std::vector<RunId> CurrentLiveRuns() const;
  bool IsOldestLiveRun(RunId id) const;
  /// Max flush_cover_seq over a set of runs (durability propagation).
  uint64_t MaxFlushCover(const std::vector<const RunImage*>& runs) const;

  Geometry geometry_;
  LogGeckoConfig config_;
  FlashDevice* device_;
  RunStorage storage_;
  uint32_t entries_per_page_;  // V
  uint32_t chunk_bits_;        // B / S

  // Volatile (lost on power failure):
  std::map<GeckoKey, GeckoEntry> buffer_;
  struct LiveRun {
    RunId id;
    uint64_t creation_seq;
  };
  /// levels_[i] = runs at level i, oldest first.
  std::vector<std::vector<LiveRun>> levels_;
  /// Durability horizon: invalidations recorded at device seq <= this are
  /// in flash. Advanced by flushes; preserved through merges via the
  /// flush-cover sequence embedded in each run's preamble.
  uint64_t durable_seq_ = 0;

  LogGeckoStats stats_;
};

}  // namespace gecko

#endif  // GECKOFTL_CORE_LOG_GECKO_H_
