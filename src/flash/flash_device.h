// Simulated NAND flash device: the substrate every FTL in this repository
// runs on (our EagleTree-equivalent; see DESIGN.md §3 for the substitution
// rationale).
//
// The device enforces the NAND idiosyncrasies of Section 2 of the paper:
//   (1) reads and writes happen at page granularity;
//   (2) a page cannot be rewritten until its block is erased;
//   (3) blocks wear out (erase counters are tracked);
//   (4) writes within a block must be sequential;
//   (5) reads and writes have asymmetric latencies (LatencyModel).
//
// Pages carry a 64-bit payload token instead of real 4 KB buffers. The
// token is enough to verify end-to-end data integrity (no FTL may ever
// return the wrong token for a logical page), while letting simulations
// model terabyte-scale metadata behaviour in megabytes of host RAM.
//
// Channel parallelism: the device is striped across Geometry::num_channels
// independent channels (block k lives on channel k mod num_channels), each
// a busy-until clock with a FIFO of parked ops (flash/channel_queue.h).
// Data effects always commit synchronously in program order; the channels
// model *time*. Every op takes one path: it is stamped on its channel and
// parked. Outside a batch window it retires at once, which reproduces the
// serial single-unit model exactly. Inside a BeginBatch()/EndBatch()
// window, ops stay parked until the window closes (or AdvanceTo reaches
// them) and the window completes in max-per-channel time — the mechanism
// by which a striped scatter-gather batch gets N-channel speedup.
//
// Power failure: flash contents (payloads + spare areas + erase counters)
// persist; only FTL RAM structures are lost. The device itself therefore
// needs no power-failure hook; FTLs expose CrashAndRecover() on top of it.

#ifndef GECKOFTL_FLASH_FLASH_DEVICE_H_
#define GECKOFTL_FLASH_FLASH_DEVICE_H_

#include <cstdint>
#include <vector>

#include "flash/channel_queue.h"
#include "flash/fault_model.h"
#include "flash/geometry.h"
#include "flash/io_stats.h"
#include "flash/latency.h"
#include "flash/spare_area.h"
#include "flash/types.h"

namespace gecko {

/// Result of reading a page (payload + spare + whether it was programmed).
/// `media_error` means the medium could not return trustworthy data: an
/// uncorrectable (hard) read fault, a page a program fault marked bad, or
/// a page in a retired block. On media_error the payload is zeroed and
/// must not be used; the spare is returned as stored (a bad page's spare
/// still carries its stamped seq, which recovery scans may use for
/// ordering but never for content).
struct PageReadResult {
  bool written = false;
  uint64_t payload = 0;
  SpareArea spare;
  bool media_error = false;
};

/// Result of a program attempt. `ok == false` means the medium failed the
/// program: the page is consumed (write pointer advanced, page marked bad)
/// and the caller must re-place the data on a fresh page. `seq` is the
/// global sequence number the attempt consumed either way.
struct ProgramResult {
  bool ok = true;
  uint64_t seq = 0;
};

/// Simulated NAND flash device. Not thread-safe; one per simulation.
class FlashDevice {
 public:
  /// Builds a device with `geometry.num_channels` channel queues, all
  /// sharing one latency model, and an optional media-fault plane (the
  /// default FaultConfig is a perfect medium). Factory-bad blocks from the
  /// config are retired before first use. Aborts on an invalid geometry.
  FlashDevice(const Geometry& geometry, LatencyModel latency = LatencyModel(),
              FaultConfig faults = FaultConfig());

  FlashDevice(const FlashDevice&) = delete;
  FlashDevice& operator=(const FlashDevice&) = delete;

  /// The device's immutable architectural parameters.
  const Geometry& geometry() const { return geometry_; }
  /// IO accounting: op counts per purpose, simulated time, and per-channel
  /// busy time / queue depth.
  IoStats& stats() { return stats_; }
  const IoStats& stats() const { return stats_; }

  /// Channel hosting `block` (block-interleaved striping).
  ChannelId ChannelOf(BlockId block) const {
    return geometry_.ChannelOf(block);
  }
  uint32_t num_channels() const { return geometry_.num_channels; }

  /// Simulated time at which channel `c` finishes its last accepted op.
  /// GC victim selection breaks score ties toward the channel whose clock
  /// is furthest behind (the longest-idle one).
  double ChannelBusyUntilUs(ChannelId c) const {
    return channels_.busy_until_us(c);
  }

  /// Total simulated time channel `c` has sat idle between ops (reported
  /// through FtlExperiment::Channels as background-GC headroom).
  double ChannelIdleUs(ChannelId c) const {
    return channels_.channel(c).idle_us();
  }

  // --- Async submission/completion pipeline ------------------------------

  /// Opens a batch window: subsequent ops park on their channel queues
  /// instead of draining immediately, so ops on distinct channels overlap
  /// in simulated time. Windows nest (BaseFtl::Submit opens one around
  /// each request; GC triggered inside rides the same window); only the
  /// outermost EndBatch() drains.
  void BeginBatch();

  /// What one drained batch window cost: its makespan (max-per-channel,
  /// not sum) and the flash ops it retired.
  using BatchResult = ChannelArray::RetireResult;

  /// Closes the innermost batch window. The outermost close retires every
  /// queued op and advances the simulated clock by the window's makespan.
  /// Inner closes return a zeroed BatchResult.
  BatchResult EndBatch();

  /// Whether a batch window is open.
  bool in_batch() const { return batch_depth_ > 0; }

  /// Reactor tick: retires every queued op that completes at or before
  /// `until_us` (charging its channel's stats) and advances the clock to
  /// max(now, until_us), leaving later ops queued.
  /// Unlike EndBatch(), the batch window — if any — stays open; the async
  /// engine uses this to let time pass while requests are still in
  /// flight. A no-op on the clock when `until_us` is in the past;
  /// +infinity drains everything, as the outermost EndBatch() does.
  BatchResult AdvanceTo(double until_us);

  // --- Op attribution scope ----------------------------------------------
  // The async engine services one request at a time through the
  // synchronous FTL code, inside a long-lived batch window. To learn when
  // *that request* completes on the simulated device, it brackets the
  // servicing in an op scope: every op submitted inside the scope updates
  // the scope's op count and latest completion time. Scopes do not nest.

  struct OpScope {
    uint64_t ops = 0;             // flash ops submitted inside the scope
    double last_complete_us = 0;  // completion time of the latest one
  };

  void BeginOpScope();
  OpScope EndOpScope();

  /// Simulated device clock in microseconds (mirrors stats().elapsed_us()
  /// up to stats Reset()).
  double now_us() const { return channels_.now_us(); }

  // --- Page operations ----------------------------------------------------
  // Each op charges its IoStats count at submission. Timing: outside a
  // batch window the op also completes immediately (clock += latency);
  // inside a window it completes at EndBatch().

  /// Programs the next free page of `addr.block`; `addr.page` must equal the
  /// block's write pointer (sequential-programming rule). The device stamps
  /// `spare.seq` with a fresh global sequence number and `spare.erase_count`
  /// with the block's wear counter, then returns that sequence number.
  uint64_t WritePage(PhysicalAddress addr, SpareArea spare, uint64_t payload,
                     IoPurpose purpose);

  /// Fault-aware program. Identical to WritePage on success; on an injected
  /// program fault the page is consumed and marked bad (it reads back as
  /// media_error until the block is erased) and `ok == false` — the caller
  /// must re-place the data on a freshly allocated page (see
  /// AllocateAndProgram in flash/page_allocator.h). WritePage itself aborts
  /// on a program fault, so code that cannot re-place must not run with
  /// program faults enabled.
  ProgramResult ProgramPage(PhysicalAddress addr, SpareArea spare,
                            uint64_t payload, IoPurpose purpose);

  /// Reads a full page (payload + spare). Charged one page read. The data
  /// is returned immediately even inside a batch window (data effects are
  /// synchronous; the channel queue models when the read *completes*).
  PageReadResult ReadPage(PhysicalAddress addr, IoPurpose purpose);

  /// Reads only the spare area (~32x cheaper than a page read). Reading the
  /// spare of an unprogrammed page returns written=false with a blank spare,
  /// which is how recovery scans detect free pages/blocks.
  PageReadResult ReadSpare(PhysicalAddress addr, IoPurpose purpose);

  /// Erases a block: all pages become free, the wear counter increments.
  /// Aborts on an injected erase fault; fault-tolerant callers use
  /// TryEraseBlock.
  void EraseBlock(BlockId block, IoPurpose purpose);

  /// Fault-aware erase. Returns true on success (identical to EraseBlock).
  /// On an injected erase fault the block is permanently retired — a grown
  /// bad block: pages cleared, no further programs or erases accepted —
  /// and false is returned. The op's channel time is charged either way.
  bool TryEraseBlock(BlockId block, IoPurpose purpose);

  /// Permanently retires `block` (grown bad): pages cleared, write pointer
  /// reset, all further programs/erases refused. Used for factory-bad
  /// blocks and by the FTL when a block exceeds its program-fail budget.
  void RetireBlock(BlockId block);

  /// Whether `block` has been retired (factory-marked or grown bad).
  bool IsBadBlock(BlockId block) const;

  /// Number of retired blocks (factory + grown).
  uint32_t NumBadBlocks() const { return num_bad_blocks_; }

  /// The fault oracle (mutable so tests can arm targeted triggers).
  FaultModel& fault_model() { return faults_; }
  const FaultModel& fault_model() const { return faults_; }

  // --- Introspection (no IO charge; used by tests, invariant checks, and
  // --- RAM-resident FTL bookkeeping that mirrors what firmware would know).

  /// Number of pages programmed in `block` since its last erase.
  uint32_t PagesWritten(BlockId block) const;

  /// Whether `addr` holds a programmed (not-yet-erased) page.
  bool IsWritten(PhysicalAddress addr) const;

  /// ReadSpare's result without charging the op: introspection for debug
  /// oracles, which must not move channel clocks or draw from the fault
  /// model of the run they check.
  PageReadResult PeekSpare(PhysicalAddress addr) const;

  /// Lifetime erase count of `block`.
  uint32_t EraseCount(BlockId block) const;

  /// Total erases across the device (the wear-leveling global counter).
  uint64_t GlobalEraseCount() const { return global_erase_count_; }

  /// Current global write sequence number (monotone "timestamp").
  uint64_t CurrentSeq() const { return next_seq_; }

  /// Sequence number at which `block` was last erased (0 if never).
  uint64_t LastEraseSeq(BlockId block) const;

  /// Sequence number of the last page programmed into `block` (0 if none
  /// since the last erase). Firmware tracks this in RAM for free (8 bytes
  /// per block); cost-benefit GC uses it as the block's data age.
  uint64_t LastProgramSeq(BlockId block) const;

  /// Flat page index of `addr` (block-major), for dense per-page arrays.
  uint64_t FlatIndex(PhysicalAddress addr) const {
    return uint64_t{addr.block} * geometry_.pages_per_block + addr.page;
  }

 private:
  struct PageRecord {
    bool written = false;
    uint64_t payload = 0;
    SpareArea spare;
    bool bad = false;  // program fault consumed this page; reads media_error
  };

  struct BlockRecord {
    uint32_t write_pointer = 0;   // next page offset to program
    uint32_t erase_count = 0;
    uint64_t last_erase_seq = 0;  // global seq when last erased
    uint64_t last_program_seq = 0;  // global seq of the newest page (0: none)
    bool retired = false;         // grown/factory bad: refuses program+erase
  };

  void CheckAddress(PhysicalAddress addr) const;

  /// Parks one op on `block`'s channel: charges the queue-depth stats,
  /// feeds the open op scope, and retires the op at once unless a batch
  /// window is open.
  void SubmitOp(FlashOpKind kind, BlockId block);

  /// Charges `retries` extra read ops on `block`'s channel (the latency
  /// cost of absorbing a transient read fault).
  void ChargeReadRetries(BlockId block, uint32_t retries);

  Geometry geometry_;
  IoStats stats_;
  ChannelArray channels_;
  FaultModel faults_;
  std::vector<PageRecord> pages_;
  std::vector<BlockRecord> blocks_;
  uint32_t num_bad_blocks_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t global_erase_count_ = 0;
  uint32_t batch_depth_ = 0;
  bool op_scope_open_ = false;
  OpScope op_scope_;
};

}  // namespace gecko

#endif  // GECKOFTL_FLASH_FLASH_DEVICE_H_
