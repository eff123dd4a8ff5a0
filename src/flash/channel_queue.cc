#include "flash/channel_queue.h"

#include <algorithm>

#include "util/check.h"

namespace gecko {

ChannelQueue::ChannelQueue(ChannelId id, LatencyModel latency)
    : id_(id), latency_(latency) {}

double ChannelQueue::LatencyFor(FlashOpKind kind) const {
  switch (kind) {
    case FlashOpKind::kPageWrite: return latency_.page_write_us;
    case FlashOpKind::kPageRead: return latency_.page_read_us;
    case FlashOpKind::kSpareRead: return latency_.spare_read_us;
    case FlashOpKind::kErase: return latency_.erase_us;
  }
  return 0;
}

FlashSubmission ChannelQueue::Stamp(uint64_t id, FlashOpKind kind,
                                    PhysicalAddress addr, IoPurpose purpose,
                                    double now_us) {
  FlashSubmission sub;
  sub.id = id;
  sub.channel = id_;
  sub.kind = kind;
  sub.addr = addr;
  sub.purpose = purpose;
  sub.submit_us = now_us;
  sub.start_us = std::max(now_us, busy_until_us_);
  // Idle accounting: the gap between the channel going quiet and this op
  // arriving is time the channel had nothing to do.
  if (sub.start_us > busy_until_us_) idle_us_ += sub.start_us - busy_until_us_;
  sub.complete_us = sub.start_us + LatencyFor(kind);
  busy_until_us_ = sub.complete_us;
  return sub;
}

const FlashSubmission& ChannelQueue::Submit(uint64_t id, FlashOpKind kind,
                                            PhysicalAddress addr,
                                            IoPurpose purpose, double now_us) {
  pending_.push_back(Stamp(id, kind, addr, purpose, now_us));
  if (pending_.size() == 1) front_us_ = pending_.back().complete_us;
  return pending_.back();
}

ChannelArray::ChannelArray(uint32_t num_channels, LatencyModel latency) {
  GECKO_CHECK_GE(num_channels, 1u);
  channels_.reserve(num_channels);
  for (ChannelId c = 0; c < num_channels; ++c) {
    channels_.emplace_back(c, latency);
  }
}

const FlashSubmission& ChannelArray::Submit(ChannelId c, FlashOpKind kind,
                                            PhysicalAddress addr,
                                            IoPurpose purpose) {
  GECKO_CHECK_LT(c, channels_.size());
  const FlashSubmission& sub =
      channels_[c].Submit(next_id_++, kind, addr, purpose, now_us_);
  uint32_t depth = static_cast<uint32_t>(channels_[c].depth());
  if (depth > max_depth_since_drain_) max_depth_since_drain_ = depth;
  return sub;
}

FlashSubmission ChannelArray::SubmitImmediate(ChannelId c, FlashOpKind kind,
                                              PhysicalAddress addr,
                                              IoPurpose purpose) {
  GECKO_CHECK_LT(c, channels_.size());
  FlashSubmission sub = channels_[c].Stamp(next_id_++, kind, addr, purpose,
                                           now_us_);
  now_us_ = std::max(now_us_, sub.complete_us);
  return sub;
}

}  // namespace gecko
