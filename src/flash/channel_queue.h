// Channel-parallel submission/completion pipeline for the flash device.
//
// Real very-large devices get their bandwidth from many independent
// channels, not from faster cells (LFTL's parallel request queues; FMMU's
// map-management pipeline). This module models that: every channel owns a
// latency clock and an op queue; operations submitted to distinct channels
// overlap in simulated time, while operations on one channel serialize in
// submission order.
//
// The pipeline is a *timing* model layered over a functionally synchronous
// simulator: data effects (page programming, erases) are committed by
// FlashDevice at submission, in program order, so FTL logic never observes
// reordering; what the queues decide is when each op *completes* on the
// simulated clock. A batch of submissions therefore finishes in
// max-per-channel time instead of sum-of-ops time, which is exactly the
// speedup a channel-striped allocation policy buys.
//
// Lifecycle of one operation:
//   1. Submit(): a FlashSubmission record is stamped with submit/start/
//      complete times (start = max(device clock, channel busy-until)) and
//      parked on its channel's queue.
//   2. Drain(): all parked submissions retire in global completion-time
//      order — a merge of the channel FIFOs, each already in that order —
//      handed to a callback one by one, and the device clock advances to
//      the batch makespan end. FlashDevice drains after every
//      op outside a batch window (serial semantics, identical to the
//      pre-channel model) and once per window inside
//      BeginBatch()/EndBatch().

#ifndef GECKOFTL_FLASH_CHANNEL_QUEUE_H_
#define GECKOFTL_FLASH_CHANNEL_QUEUE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

#include "flash/geometry.h"
#include "flash/io_stats.h"  // IoPurpose
#include "flash/latency.h"
#include "flash/types.h"

namespace gecko {

/// The four physical operations a channel services.
enum class FlashOpKind : uint8_t {
  kPageWrite = 0,
  kPageRead,
  kSpareRead,
  kErase,
};

/// Submission record of one in-flight flash operation: identity, target,
/// and its simulated timeline. `start_us - submit_us` is queueing delay
/// behind earlier ops on the same channel; `complete_us - start_us` is the
/// op's service latency.
struct FlashSubmission {
  uint64_t id = 0;             // globally unique, in submission order
  ChannelId channel = 0;
  FlashOpKind kind = FlashOpKind::kPageRead;
  PhysicalAddress addr = kNullAddress;  // {block, 0} for erases
  IoPurpose purpose = IoPurpose::kOther;
  double submit_us = 0;        // device clock when submitted
  double start_us = 0;         // when the channel began servicing it
  double complete_us = 0;      // when the channel finished it

  /// Pure service time on the channel (excludes queueing delay).
  double ServiceUs() const { return complete_us - start_us; }
  /// End-to-end latency as the host sees it (includes queueing delay).
  double LatencyUs() const { return complete_us - submit_us; }
};

/// One flash channel: a FIFO op queue in front of a busy-until latency
/// clock. Not shared across devices.
class ChannelQueue {
 public:
  ChannelQueue(ChannelId id, LatencyModel latency);

  /// Stamps one operation's timeline against the channel clock: start =
  /// max(now_us, busy-until), complete = start + service latency, and
  /// the channel stays busy until the completion. Does not park.
  FlashSubmission Stamp(uint64_t id, FlashOpKind kind, PhysicalAddress addr,
                        IoPurpose purpose, double now_us);

  /// Stamps and parks one operation on the queue. Returns the stamped
  /// submission record (stable until it is drained).
  const FlashSubmission& Submit(uint64_t id, FlashOpKind kind,
                                PhysicalAddress addr, IoPurpose purpose,
                                double now_us);

  /// Operations parked and not yet drained.
  size_t depth() const { return pending_.size(); }

  /// Simulated time at which the channel finishes its last accepted op.
  double busy_until_us() const { return busy_until_us_; }

  /// Total simulated time this channel has sat idle between ops: the sum,
  /// over every stamped op, of the gap between the channel going quiet
  /// and the op's submission. Experiments report it (ChannelReport) as
  /// the headroom background collection can exploit; victim selection's
  /// channel preference uses busy_until_us(), not this accumulator.
  double idle_us() const { return idle_us_; }

  /// Service latency of `kind` under this channel's latency model.
  double LatencyFor(FlashOpKind kind) const;

  /// The oldest parked op, its completion time (+infinity when none) and
  /// its removal. One busy-until clock keeps the FIFO in (complete_us, id)
  /// order, so ChannelArray merges the channels without sorting.
  const FlashSubmission& front() const { return pending_.front(); }
  double front_us() const { return front_us_; }
  void PopFront() {
    pending_.pop_front();
    front_us_ = pending_.empty() ? std::numeric_limits<double>::infinity()
                                 : pending_.front().complete_us;
  }

 private:
  ChannelId id_;
  LatencyModel latency_;
  std::deque<FlashSubmission> pending_;
  double front_us_ = std::numeric_limits<double>::infinity();
  double busy_until_us_ = 0;
  double idle_us_ = 0;
};

/// All channels of one device plus the device-wide simulated clock.
class ChannelArray {
 public:
  ChannelArray(uint32_t num_channels, LatencyModel latency);

  uint32_t num_channels() const {
    return static_cast<uint32_t>(channels_.size());
  }
  const ChannelQueue& channel(ChannelId c) const { return channels_[c]; }

  /// Device-wide simulated clock; advances only at Drain().
  double now_us() const { return now_us_; }

  /// Submits one op on channel `c` at the current clock. Returns the
  /// stamped record (valid until the next Drain()).
  const FlashSubmission& Submit(ChannelId c, FlashOpKind kind,
                                PhysicalAddress addr, IoPurpose purpose);

  /// Serial fast lane: stamps one op on channel `c` and completes it
  /// immediately, advancing the clock to its completion — equivalent to
  /// Submit + Drain of a single op, without parking or sorting. Only
  /// valid while no submissions are parked.
  FlashSubmission SubmitImmediate(ChannelId c, FlashOpKind kind,
                                  PhysicalAddress addr, IoPurpose purpose);

  /// Current queue depth of channel `c` (submitted, not yet drained).
  size_t depth(ChannelId c) const { return channels_[c].depth(); }

  /// Simulated time at which channel `c` finishes its last accepted op.
  /// Between drains every channel's busy-until is at or below now_us();
  /// ordering across channels still identifies the longest-idle one —
  /// victim selection breaks score ties toward it (gc_victim_policy.h).
  double busy_until_us(ChannelId c) const {
    return channels_[c].busy_until_us();
  }

  /// Highest queue depth any channel reached since the last Drain() —
  /// the per-batch watermark reported in DrainResult. IoStats keeps the
  /// separate *lifetime* watermark.
  uint32_t max_depth_since_drain() const { return max_depth_since_drain_; }

  struct DrainResult {
    double elapsed_us = 0;      // clock advance: the batch's makespan
    uint64_t ops = 0;           // submissions retired
    uint32_t max_queue_depth = 0;  // deepest any channel got this batch
  };

  /// Retires every parked submission in global completion-time order
  /// and advances the clock to the completion of the last one.
  /// `completed`, if non-null, receives the retired records in the same
  /// order. Draining an empty pipeline is a no-op.
  DrainResult Drain(std::vector<FlashSubmission>* completed = nullptr) {
    return DrainUntil(std::numeric_limits<double>::infinity(), completed);
  }

  /// Partial drain for reactor-style hosts: retires only the submissions
  /// that complete at or before `until_us` (global completion-time order)
  /// and advances the clock to max(now, until_us) — never backwards, and
  /// not past `until_us` even if later ops are still parked. Unlike
  /// Drain(), the per-batch depth watermark is left accumulating: the
  /// "batch" is still open from the pipeline's point of view.
  DrainResult DrainUntil(double until_us,
                         std::vector<FlashSubmission>* completed = nullptr) {
    return Retire(until_us, [completed](const FlashSubmission& sub) {
      if (completed != nullptr) completed->push_back(sub);
    });
  }

  /// DrainUntil(until_us), or Drain() at +infinity, handing each retired op
  /// to `on_retire(const FlashSubmission&)`. It merges the channel FIFOs,
  /// each already in (complete_us, id) order, so nothing is sorted; ties
  /// (equal-latency ops on different channels) go to the earlier one.
  template <typename OnRetire>
  DrainResult Retire(double until_us, OnRetire&& on_retire) {
    const bool all = std::isinf(until_us);
    DrainResult result;
    result.max_queue_depth = max_depth_since_drain_;
    if (all) max_depth_since_drain_ = 0;
    double last_us = now_us_;
    for (;;) {
      ChannelQueue* next = nullptr;
      double next_us = all ? std::numeric_limits<double>::max() : until_us;
      for (ChannelQueue& ch : channels_) {
        const double us = ch.front_us();
        if (us < next_us ||
            (us == next_us &&
             (next == nullptr || ch.front().id < next->front().id))) {
          next = &ch;
          next_us = us;
        }
      }
      if (next == nullptr) break;
      last_us = next_us;
      on_retire(next->front());
      next->PopFront();
      ++result.ops;
    }
    const double finish = std::max(now_us_, all ? last_us : until_us);
    result.elapsed_us = finish - now_us_;
    now_us_ = finish;
    return result;
  }

 private:
  std::vector<ChannelQueue> channels_;
  double now_us_ = 0;
  uint64_t next_id_ = 1;
  uint32_t max_depth_since_drain_ = 0;
};

}  // namespace gecko

#endif  // GECKOFTL_FLASH_CHANNEL_QUEUE_H_
