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
  return pending_.back();
}

void ChannelQueue::TakePending(std::vector<FlashSubmission>* out) {
  out->insert(out->end(), pending_.begin(), pending_.end());
  pending_.clear();
}

void ChannelQueue::TakeCompletedUntil(double until_us,
                                      std::vector<FlashSubmission>* out) {
  while (!pending_.empty() && pending_.front().complete_us <= until_us) {
    out->push_back(pending_.front());
    pending_.pop_front();
  }
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

namespace {
// Retirement order: global completion time; ties (e.g. equal-latency ops
// started together on different channels) break by submission id so the
// order is deterministic.
void SortByCompletion(std::vector<FlashSubmission>* subs) {
  std::sort(subs->begin(), subs->end(),
            [](const FlashSubmission& a, const FlashSubmission& b) {
              if (a.complete_us != b.complete_us) {
                return a.complete_us < b.complete_us;
              }
              return a.id < b.id;
            });
}
}  // namespace

ChannelArray::DrainResult ChannelArray::Drain(
    std::vector<FlashSubmission>* completed) {
  std::vector<FlashSubmission> pending;
  for (ChannelQueue& ch : channels_) ch.TakePending(&pending);

  DrainResult result;
  result.max_queue_depth = max_depth_since_drain_;
  max_depth_since_drain_ = 0;
  if (pending.empty()) return result;

  SortByCompletion(&pending);

  double finish = now_us_;
  for (const FlashSubmission& sub : pending) {
    finish = std::max(finish, sub.complete_us);
    if (completed != nullptr) completed->push_back(sub);
    ++result.ops;
  }
  result.elapsed_us = finish - now_us_;
  now_us_ = finish;
  return result;
}

ChannelArray::DrainResult ChannelArray::DrainUntil(
    double until_us, std::vector<FlashSubmission>* completed) {
  std::vector<FlashSubmission> due;
  for (ChannelQueue& ch : channels_) ch.TakeCompletedUntil(until_us, &due);
  SortByCompletion(&due);

  DrainResult result;
  result.max_queue_depth = max_depth_since_drain_;  // still accumulating
  result.ops = due.size();
  if (completed != nullptr) {
    completed->insert(completed->end(), due.begin(), due.end());
  }
  double finish = std::max(now_us_, until_us);
  result.elapsed_us = finish - now_us_;
  now_us_ = finish;
  return result;
}

}  // namespace gecko
