// Flash-resident run storage for Logarithmic Gecko.
//
// A run is an immutable, sorted sequence of Gecko entries serialized into
// flash pages, framed by a preamble page (run id, level, and a snapshot of
// the run ids that are live once this run commits) and a postamble page
// holding a copy of the run directory (Appendix C.1). Every data page's
// spare area records the owning run id and the page's index within the run
// so a crash-recovery scan can locate runs and check their completeness.
//
// RunStorage is the *persistent* half of Logarithmic Gecko: its contents
// model what is physically in flash and therefore survive power failure.
// The volatile half (levels, run directories, buffer) lives in LogGecko
// and is rebuilt from RunStorage + spare-area scans after a crash.

#ifndef GECKOFTL_CORE_RUN_STORAGE_H_
#define GECKOFTL_CORE_RUN_STORAGE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "core/gecko_entry.h"
#include "flash/flash_device.h"
#include "flash/page_allocator.h"

namespace gecko {

using RunId = uint64_t;

/// Spare-area `aux` markers distinguishing the pages of a run. Data pages
/// use aux = page index within the run (small values), so markers sit at
/// the top of the range.
inline constexpr uint32_t kRunPreambleAux = 0xFFFFFFF0;
inline constexpr uint32_t kRunPostambleAux = 0xFFFFFFF1;

/// RAM-resident index of one run: for each data page, its address and the
/// first key it holds (Figure 2's "run directories").
struct RunDirectory {
  std::vector<PhysicalAddress> pages;
  std::vector<GeckoKey> first_keys;  // parallel to `pages`

  /// Index of the first page that may contain keys >= `key`.
  size_t LowerBoundPage(GeckoKey key) const;

  uint64_t RamBytes() const { return pages.size() * 8; }  // key + address
};

/// Immutable description of a run as laid out in flash.
struct RunImage {
  RunId id = 0;
  uint32_t level = 0;
  uint64_t creation_seq = 0;  // device seq of the preamble write
  std::vector<GeckoEntry> entries;
  RunDirectory directory;
  PhysicalAddress preamble;
  PhysicalAddress postamble;
  /// Run ids live at the moment this run committed (including this run).
  /// The newest complete run's snapshot defines the whole structure during
  /// recovery; see DESIGN.md §6.2.
  std::vector<RunId> live_snapshot;
  /// Device sequence up to which buffered invalidations are covered by this
  /// run's content: the creation seq for flush-produced runs, the max of
  /// the inputs' covers for merge outputs. Stored in the preamble so that
  /// recovery can bound how far back the buffer must be reconstructed
  /// (Appendix C.2).
  uint64_t flush_cover_seq = 0;

  uint32_t NumDataPages() const {
    return static_cast<uint32_t>(directory.pages.size());
  }
  uint32_t NumFlashPages() const { return NumDataPages() + 2; }
};

/// Writes, reads, and discards runs. One instance per Logarithmic Gecko.
class RunStorage {
 public:
  RunStorage(FlashDevice* device, PageAllocator* allocator,
             uint32_t entries_per_page);

  /// Serializes `entries` (sorted by key) as a new run at `level`.
  /// `live_after` is the set of run ids that are live once this run
  /// commits; it is embedded in the preamble for crash recovery, together
  /// with `flush_cover_seq` (0 means "use my own creation seq": the run is
  /// a fresh buffer flush). Charges one flash write per page (preamble +
  /// data pages + postamble).
  const RunImage& WriteRun(uint32_t level, std::vector<GeckoEntry> entries,
                           std::vector<RunId> live_after,
                           uint64_t flush_cover_seq = 0);

  /// Reads the data page at `page_index` of `run` and appends the entries
  /// whose keys fall in [lo, hi] to `out`. Charges one flash read.
  void ReadPageEntries(const RunImage& run, size_t page_index, GeckoKey lo,
                       GeckoKey hi, std::vector<GeckoEntry>* out);

  /// Reads all entries of `run`, charging one flash read per data page.
  /// Used by merges and by BVC reconstruction during recovery. The entries
  /// are the run image's own, valid until the run is discarded.
  const std::vector<GeckoEntry>& ReadAllEntries(const RunImage& run);

  /// Discards a superseded run: releases its image and tells the allocator
  /// its pages are obsolete (so fully-invalid Gecko blocks can be erased).
  void DiscardRun(RunId id);

  /// Relocates the run page at `addr` to a fresh location (read + write),
  /// retiring the old page. Used when a greedy GC policy collects a Gecko
  /// block (baseline configurations; GeckoFTL's own policy never does).
  /// Moving a data page also rewrites the postamble so the persisted run
  /// directory stays accurate for recovery. The run's logical creation
  /// sequence lives in the preamble payload and is unaffected, so recovery
  /// ordering survives relocation. Returns false if `addr` belongs to no
  /// live run.
  bool RelocatePage(PhysicalAddress addr);

  /// Reads a run's preamble page (one flash read) and returns its image if
  /// the run is complete. Returns nullptr for unknown/incomplete runs.
  const RunImage* ReadPreamble(RunId id, IoPurpose purpose);

  const RunImage* Find(RunId id) const;

  uint64_t next_run_id() const { return next_run_id_; }

  /// Total data+framing pages across live images (space accounting).
  uint64_t TotalFlashPages() const;

 private:
  FlashDevice* device_;
  PageAllocator* allocator_;
  uint32_t entries_per_page_;
  std::map<RunId, RunImage> images_;
  RunId next_run_id_ = 1;
};

}  // namespace gecko

#endif  // GECKOFTL_CORE_RUN_STORAGE_H_
