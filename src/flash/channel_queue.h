// Channel-parallel timing model for the flash device.
//
// Real very-large devices get their bandwidth from many independent
// channels, not from faster cells (LFTL's parallel request queues; FMMU's
// map-management pipeline). This module models that: every channel is a
// busy-until clock in front of a FIFO of parked ops; operations submitted
// to distinct channels overlap in simulated time, while operations on one
// channel serialize in submission order.
//
// The channels are a *timing* model layered over a functionally
// synchronous simulator: data effects (page programming, erases) are
// committed by FlashDevice at submission, in program order, so FTL logic
// never observes reordering; what the channels decide is when each op
// *completes* on the simulated clock. A batch of submissions therefore
// finishes in max-per-channel time instead of sum-of-ops time, which is
// exactly the speedup a channel-striped allocation policy buys.
//
// Lifecycle of one operation:
//   1. Submit(): the op starts at max(device clock, channel busy-until),
//      completes one service latency later, and its (completion, service)
//      pair is parked on its channel's FIFO. One busy-until clock keeps
//      each FIFO in completion order.
//   2. Retire(until): every channel pops the due prefix of its FIFO,
//      handing each op's service time to a callback, and the device clock
//      moves to `until` — or, at +infinity, to the last completion.
//      FlashDevice retires each op as it is submitted outside a batch
//      window (serial semantics, identical to the pre-channel model) and
//      once per window inside BeginBatch()/EndBatch().

#ifndef GECKOFTL_FLASH_CHANNEL_QUEUE_H_
#define GECKOFTL_FLASH_CHANNEL_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "flash/geometry.h"  // ChannelId
#include "flash/latency.h"

namespace gecko {

/// The four physical operations a channel services.
enum class FlashOpKind : uint8_t {
  kPageWrite = 0,
  kPageRead,
  kSpareRead,
  kErase,
};

/// One flash channel: a busy-until latency clock and the FIFO of ops it
/// has accepted but not yet retired. Not shared across devices.
class ChannelQueue {
 public:
  explicit ChannelQueue(LatencyModel latency) : latency_(latency) {}

  /// Parks one op submitted at `now_us`: it starts at max(now_us,
  /// busy-until), occupies the channel for its service latency, and the
  /// channel stays busy until it completes. Returns the completion time.
  double Submit(FlashOpKind kind, double now_us);

  /// Pops the parked ops that complete at or before `until_us`, oldest
  /// first, calling `on_retire(complete_us, service_us)` for each.
  template <typename OnRetire>
  void PopDue(double until_us, OnRetire&& on_retire) {
    size_t i = head_;
    for (; i < parked_.size() && parked_[i].complete_us <= until_us; ++i) {
      on_retire(parked_[i].complete_us, parked_[i].service_us);
    }
    if (i == head_) return;
    head_ = i;
    // Drop the retired prefix once it fills half the storage. The
    // capacity stays, so a warm channel never allocates.
    if (2 * head_ >= parked_.size()) {
      parked_.erase(parked_.begin(), parked_.begin() + head_);
      head_ = 0;
    }
  }

  /// Ops parked and not yet retired.
  size_t depth() const { return parked_.size() - head_; }

  /// Simulated time at which the channel finishes its last accepted op.
  double busy_until_us() const { return busy_until_us_; }

  /// Total simulated time this channel has sat idle between ops: the sum,
  /// over every submitted op, of the gap between the channel going quiet
  /// and the op's submission. Experiments report it (ChannelReport) as
  /// the headroom background collection can exploit; victim selection's
  /// channel preference uses busy_until_us(), not this accumulator.
  double idle_us() const { return idle_us_; }

 private:
  struct Parked {
    double complete_us;
    // complete_us - start as rounded on the clock, which can differ from
    // the latency in the last bit; IoStats sums exactly these values.
    double service_us;
  };

  /// Service latency of `kind` under this channel's latency model.
  double LatencyFor(FlashOpKind kind) const;

  LatencyModel latency_;
  std::vector<Parked> parked_;  // the FIFO is parked_[head_..]
  size_t head_ = 0;
  double busy_until_us_ = 0;
  double idle_us_ = 0;
};

/// All channels of one device plus the device-wide simulated clock.
class ChannelArray {
 public:
  ChannelArray(uint32_t num_channels, LatencyModel latency);

  const ChannelQueue& channel(ChannelId c) const { return channels_[c]; }

  /// Device-wide simulated clock; advances only at Retire().
  double now_us() const { return now_us_; }

  /// Parks one op on channel `c` at the current clock. Returns its
  /// completion time.
  double Submit(ChannelId c, FlashOpKind kind);

  /// Current queue depth of channel `c` (submitted, not yet retired).
  size_t depth(ChannelId c) const { return channels_[c].depth(); }

  /// Simulated time at which channel `c` finishes its last accepted op.
  /// With nothing parked every channel's busy-until is at or below
  /// now_us(); ordering across channels still identifies the longest-idle
  /// one — victim selection breaks score ties toward it
  /// (gc_victim_policy.h).
  double busy_until_us(ChannelId c) const {
    return channels_[c].busy_until_us();
  }

  struct RetireResult {
    double elapsed_us = 0;  // clock advance: the makespan at +infinity
    uint64_t ops = 0;       // ops retired
  };

  /// Retires every parked op that completes at or before `until_us`,
  /// channel by channel in FIFO order, calling `on_retire(channel,
  /// service_us)` for each. The clock moves to max(now, until_us) — never
  /// backwards, and not past `until_us` even if later ops stay parked —
  /// or, when `until_us` is +infinity, to the completion of the last op.
  template <typename OnRetire>
  RetireResult Retire(double until_us, OnRetire&& on_retire) {
    const bool all = until_us == std::numeric_limits<double>::infinity();
    RetireResult result;
    double last_us = now_us_;
    for (ChannelId c = 0; c < channels_.size(); ++c) {
      channels_[c].PopDue(until_us, [&](double complete_us, double service_us) {
        last_us = std::max(last_us, complete_us);
        ++result.ops;
        on_retire(c, service_us);
      });
    }
    const double finish = std::max(now_us_, all ? last_us : until_us);
    result.elapsed_us = finish - now_us_;
    now_us_ = finish;
    return result;
  }

 private:
  std::vector<ChannelQueue> channels_;
  double now_us_ = 0;
};

}  // namespace gecko

#endif  // GECKOFTL_FLASH_CHANNEL_QUEUE_H_
