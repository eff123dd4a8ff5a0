#include "flash/channel_queue.h"

#include "util/check.h"

namespace gecko {

double ChannelQueue::LatencyFor(FlashOpKind kind) const {
  switch (kind) {
    case FlashOpKind::kPageWrite: return latency_.page_write_us;
    case FlashOpKind::kPageRead: return latency_.page_read_us;
    case FlashOpKind::kSpareRead: return latency_.spare_read_us;
    case FlashOpKind::kErase: return latency_.erase_us;
  }
  return 0;
}

double ChannelQueue::Submit(FlashOpKind kind, double now_us) {
  const double start_us = std::max(now_us, busy_until_us_);
  // Idle accounting: the gap between the channel going quiet and this op
  // arriving is time the channel had nothing to do.
  if (start_us > busy_until_us_) idle_us_ += start_us - busy_until_us_;
  const double complete_us = start_us + LatencyFor(kind);
  busy_until_us_ = complete_us;
  parked_.push_back(Parked{complete_us, complete_us - start_us});
  return complete_us;
}

ChannelArray::ChannelArray(uint32_t num_channels, LatencyModel latency) {
  GECKO_CHECK_GE(num_channels, 1u);
  channels_.assign(num_channels, ChannelQueue(latency));
}

double ChannelArray::Submit(ChannelId c, FlashOpKind kind) {
  GECKO_CHECK_LT(c, channels_.size());
  return channels_[c].Submit(kind, now_us_);
}

}  // namespace gecko
