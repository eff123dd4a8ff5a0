#include "ftl/async_engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "util/check.h"

namespace gecko {
namespace {

/// Latency-accounting class of a request op.
RequestClass RequestClassOf(IoOp op) {
  switch (op) {
    case IoOp::kWrite: return RequestClass::kWrite;
    case IoOp::kRead: return RequestClass::kRead;
    case IoOp::kTrim: return RequestClass::kTrim;
    case IoOp::kFlush: return RequestClass::kFlush;
  }
  return RequestClass::kWrite;
}

}  // namespace

AsyncEngine::AsyncEngine(AsyncHost* host, FlashDevice* device,
                         uint32_t queue_depth)
    : host_(host), device_(device), queue_depth_(queue_depth) {
  GECKO_CHECK_GT(queue_depth, 0u);
  ResizeTable(64);
}

Status AsyncEngine::Validate(const IoRequest& request) {
  if (request.op == IoOp::kFlush) {
    if (!request.extents.empty()) {
      return Status::InvalidArgument("flush requests carry no extents");
    }
    return Status::Ok();
  }
  if (request.extents.empty()) {
    return Status::InvalidArgument("request has no extents");
  }
  return Status::Ok();
}

Status AsyncEngine::Submit(const IoRequest& request, CompletionCb on_complete) {
  Status invalid = Validate(request);
  if (!invalid.ok()) return invalid;
  if (in_flight() >= queue_depth_) {
    device_->stats().OnHostQueueFull();
    return Status::QueueFull("host submission queue at its in-flight cap");
  }

  const uint32_t s = slots_.Acquire();
  Slot& r = slots_[s];
  r.seq = next_seq_++;
  r.request.op = request.op;
  r.request.extents.assign(request.extents.begin(), request.extents.end());
  r.on_complete = std::move(on_complete);
  r.result.Clear();
  r.cls = RequestClassOf(r.request.op);
  r.submit_us = device_->now_us();
  r.flash_ops = 0;
  r.dispatched = false;
  r.unresolved = 0;
  r.keys.clear();
  host_->DependencyKeys(r.request, &r.keys);
  r.prev = tail_;
  r.next = kNone;
  (tail_ == kNone ? head_ : slots_[tail_].next) = s;
  tail_ = s;
  ++in_flight_;
  ClaimKeys(r);
  ++stats_.admitted;
  device_->stats().OnHostAdmit();

  if (Grantable(s)) {
    Dispatch(s);
  } else {
    ++stats_.parked;
    ++parked_;
  }
  return Status::Ok();
}

bool AsyncEngine::Grantable(uint32_t s) const {
  const Slot& r = slots_[s];
  // The global key's claim list is the admission list itself: a shared
  // claim waits only for an earlier flush, so it walks the list only while
  // one is in flight, and a flush stops at the first earlier holder.
  if (r.global == Global::kExclusive ||
      (r.global == Global::kShared && flushes_ > 0)) {
    for (uint32_t e = head_; e != s; e = slots_[e].next) {
      const Global g = slots_[e].global;
      if (g == Global::kExclusive || (g != Global::kNone &&
                                      r.global == Global::kExclusive)) {
        return false;
      }
    }
  }
  for (const DepKey& key : r.keys) {
    for (const Claim& claim : table_[Probe(key)].claims) {
      if (claim.seq >= r.seq) break;  // FIFO: only earlier claims block
      if (claim.exclusive || key.exclusive) return false;
    }
  }
  return true;
}

void AsyncEngine::ClaimKeys(Slot& r) {
  r.global = Global::kNone;
  size_t kept = 0;
  for (size_t k = 0; k < r.keys.size(); ++k) {
    const DepKey key = r.keys[k];
    if (key.space == DepKey::Space::kGlobal) {
      r.global = std::max(r.global,
                          key.exclusive ? Global::kExclusive : Global::kShared);
      continue;
    }
    r.keys[kept++] = key;
    uint32_t b = Probe(key);
    if (!table_[b].used) {
      if (2 * (table_used_ + 1) > table_.size()) {
        ResizeTable(2 * table_.size());
        b = Probe(key);
      }
      table_[b].used = true;
      table_[b].space = key.space;
      table_[b].id = key.id;
      ++table_used_;
    }
    table_[b].claims.push_back(Claim{r.seq, key.exclusive});
  }
  r.keys.resize(kept);
  if (r.global == Global::kExclusive) ++flushes_;
}

void AsyncEngine::ReleaseKeys(const Slot& r) {
  for (const DepKey& key : r.keys) {
    const uint32_t b = Probe(key);
    GECKO_CHECK(table_[b].used);
    std::vector<Claim>& claims = table_[b].claims;
    claims.erase(std::find_if(claims.begin(), claims.end(),
                              [&r](const Claim& c) { return c.seq == r.seq; }));
    if (claims.empty()) EraseBucket(b);
  }
  if (r.global == Global::kExclusive) --flushes_;
}

uint32_t AsyncEngine::Home(DepKey::Space space, uint64_t id) const {
  // Fibonacci hashing of the id, the space folded into its top bits.
  const uint64_t h = (id ^ (uint64_t{static_cast<uint8_t>(space)} << 62)) *
                     0x9E3779B97F4A7C15ull;
  return static_cast<uint32_t>(h >> table_shift_);
}

uint32_t AsyncEngine::Probe(const DepKey& key) const {
  // The table is at most half full, so every probe meets an empty bucket.
  const uint32_t mask = static_cast<uint32_t>(table_.size() - 1);
  uint32_t i = Home(key.space, key.id);
  while (table_[i].used &&
         (table_[i].id != key.id || table_[i].space != key.space)) {
    i = (i + 1) & mask;
  }
  return i;
}

void AsyncEngine::EraseBucket(uint32_t hole) {
  // Backward-shift deletion: pull each later bucket of the probe run into
  // the hole if the hole lies on its probe path. Swapping hands the
  // hole's empty claim list, capacity and all, down the run.
  const uint32_t mask = static_cast<uint32_t>(table_.size() - 1);
  for (uint32_t i = (hole + 1) & mask; table_[i].used; i = (i + 1) & mask) {
    const uint32_t home = Home(table_[i].space, table_[i].id);
    if (((i - home) & mask) >= ((i - hole) & mask)) {
      std::swap(table_[hole], table_[i]);
      hole = i;
    }
  }
  table_[hole].used = false;
  --table_used_;
}

void AsyncEngine::ResizeTable(size_t buckets) {
  std::vector<Bucket> old = std::move(table_);
  table_.assign(buckets, Bucket{});
  table_shift_ = 64 - std::countr_zero(buckets);
  for (Bucket& b : old) {
    if (b.used) {
      table_[Probe(DepKey{b.space, b.id, false})] = std::move(b);
    }
  }
}

void AsyncEngine::Unlink(uint32_t s) {
  Slot& r = slots_[s];
  (r.prev == kNone ? head_ : slots_[r.prev].next) = r.next;
  (r.next == kNone ? tail_ : slots_[r.next].prev) = r.prev;
  --in_flight_;
  ++held_;
}

void AsyncEngine::FreeSlot(uint32_t s) {
  slots_[s].on_complete = nullptr;  // drop the callback's captures
  slots_.Release(s);
  --held_;
}

void AsyncEngine::FreeFetch(uint32_t f) {
  fetches_[f].waiters.clear();
  fetches_.Release(f);
}

void AsyncEngine::CheckQuiescent() const {
  GECKO_CHECK(in_flight_ == 0 && parked_ == 0);
  GECKO_CHECK(table_used_ == 0 && flushes_ == 0)
      << "lock table holds claims with nothing in flight";
  GECKO_CHECK_EQ(slots_.free.size() + held_, slots_.items.size())
      << "slot leaked";
  GECKO_CHECK(completion_heap_.empty() && fetch_heap_.empty())
      << "completion or translation fetch left pending";
}

void AsyncEngine::Dispatch(uint32_t s) {
  Slot& r = slots_[s];
  // The engine holds one long-lived batch window while anything is in
  // flight, so every dispatched request's ops park on the channel queues
  // and overlap with the other in-flight requests' ops.
  if (!pipeline_open_) {
    device_->BeginBatch();
    pipeline_open_ = true;
  }
  sink_.parked.clear();
  device_->BeginOpScope();
  host_->ExecuteRequest(r.request, &r.result, &sink_);
  FlashDevice::OpScope scope = device_->EndOpScope();
  r.flash_ops = scope.ops;
  // A request that touched no flash (e.g. a trim of never-written pages)
  // completes instantly, at the clock it was serviced on.
  r.complete_us =
      scope.ops > 0 ? scope.last_complete_us : device_->now_us();
  r.dispatched = true;
  ++stats_.dispatched;
  if (sink_.parked.empty()) {
    completion_heap_.push(Event{r.complete_us, r.seq, s});
  } else {
    // Missed extents wait on their translation fetches; the request joins
    // the completion heap only once the last of them has been replayed.
    ParkMisses(s);
  }
}

void AsyncEngine::ParkMisses(uint32_t s) {
  Slot& r = slots_[s];
  for (const MissSink::ParkedMiss& miss : sink_.parked) {
    if (miss.tpage >= fetch_of_tpage_.size()) {
      fetch_of_tpage_.resize(miss.tpage + 1, kNone);
    }
    uint32_t f = fetch_of_tpage_[miss.tpage];
    if (f == kNone) {
      // First miss of this translation page: issue the one coalesced
      // fetch, in its own op scope (the dispatch scope has ended; scopes
      // do not nest) so its device-time completion is captured.
      device_->BeginOpScope();
      host_->IssueMappingFetch(miss.tpage);
      FlashDevice::OpScope scope = device_->EndOpScope();
      double fetch_done_us =
          scope.ops > 0 ? scope.last_complete_us : device_->now_us();
      r.flash_ops += scope.ops;
      f = fetches_.Acquire();
      fetches_[f].tpage = miss.tpage;
      fetch_of_tpage_[miss.tpage] = f;
      fetch_heap_.push(Event{fetch_done_us, miss.tpage, f});
      device_->stats().OnMissFetchIssued();
    } else {
      // A fetch of this page is already in flight: coalesce onto it.
      host_->NoteCoalescedMiss();
      device_->stats().OnCoalescedMiss();
    }
    fetches_[f].waiters.push_back(
        Waiter{r.seq, s, miss.extent, device_->now_us()});
    ++r.unresolved;
    ++stats_.parked_extents;
  }
}

uint64_t AsyncEngine::ProcessDueFetches() {
  uint64_t retired = 0;
  while (!fetch_heap_.empty() && fetch_heap_.top().us <= device_->now_us()) {
    const uint32_t f = fetch_heap_.top().index;
    GECKO_CHECK_EQ(fetches_[f].tpage, fetch_heap_.top().order);
    fetch_heap_.pop();
    // Unindex before replaying: a replay must never observe (or join) a
    // fetch that has already completed.
    fetch_of_tpage_[fetches_[f].tpage] = kNone;
    device_->stats().OnMissFetchDone();
    for (const Waiter& w : fetches_[f].waiters) {
      Slot& r = slots_[w.slot];
      GECKO_CHECK_EQ(r.seq, w.seq);
      // Replay in its own op scope: the data read is stamped *now*, after
      // the fetch completed — the causality the old inline path violated.
      device_->BeginOpScope();
      host_->ResolveParkedExtent(r.request, &r.result, w.extent);
      FlashDevice::OpScope scope = device_->EndOpScope();
      r.flash_ops += scope.ops;
      double done_us =
          scope.ops > 0 ? scope.last_complete_us : device_->now_us();
      if (done_us > r.complete_us) r.complete_us = done_us;
      device_->stats().OnMissStall(device_->now_us() - w.park_us);
      ++stats_.replayed_extents;
      GECKO_CHECK_GT(r.unresolved, 0u);
      if (--r.unresolved == 0) {
        completion_heap_.push(Event{r.complete_us, r.seq, w.slot});
      }
    }
    FreeFetch(f);
    ++retired;
  }
  return retired;
}

void AsyncEngine::DispatchGrantableParked() {
  if (parked_ == 0) return;
  // Admission order; dispatching one cannot un-grant another (claims are
  // made at admission and only released at completion), so one pass is
  // enough.
  for (uint32_t s = head_; s != kNone; s = slots_[s].next) {
    if (!slots_[s].dispatched && Grantable(s)) {
      --parked_;
      Dispatch(s);
    }
  }
}

uint64_t AsyncEngine::FireDueCompletions() {
  uint64_t fired = 0;
  while (!completion_heap_.empty() &&
         completion_heap_.top().us <= device_->now_us()) {
    const uint32_t s = completion_heap_.top().index;
    Slot& r = slots_[s];
    GECKO_CHECK_EQ(r.seq, completion_heap_.top().order);
    completion_heap_.pop();
    Unlink(s);
    ReleaseKeys(r);
    ++stats_.completed;
    device_->stats().OnHostComplete();
    // One latency sample per request with flash work, identical to the
    // old per-request batch-window makespan: after a barrier, submit_us
    // is the window-open clock and complete_us the makespan end.
    if (r.flash_ops > 0) {
      device_->stats().OnRequestLatency(r.cls, r.complete_us - r.submit_us);
    }
    // Unblock dependents before the callback: a parked zero-op request
    // released here completes at the current clock and fires within this
    // same loop.
    DispatchGrantableParked();
    AsyncCompletion done;
    done.submit_us = r.submit_us;
    done.complete_us = r.complete_us;
    done.flash_ops = r.flash_ops;
    // The slot stays held while the callback reads its result: a callback
    // may submit, and that request must take another slot.
    if (r.on_complete) r.on_complete(r.result, done);
    FreeSlot(s);
    ++fired;
  }
  return fired;
}

uint64_t AsyncEngine::Poll() {
  // Retire channel ops due at the current clock (a no-op if the host has
  // already advanced the device), replay the parked extents of fetches
  // that are now due — a replay with no flash work can make its request
  // due immediately — then harvest due request completions.
  if (pipeline_open_) device_->AdvanceTo(device_->now_us());
  ProcessDueFetches();
  return FireDueCompletions();
}

uint64_t AsyncEngine::DrainAll() {
  if (!pipeline_open_) {
    GECKO_CHECK(!device_->in_batch())
        << "DrainAsync inside a caller-managed batch window";
  }
  // Event loop: hop the device clock to the next pending event — the
  // earliest dispatched completion or due translation fetch — replay and
  // fire, repeat. The engine window stays open throughout so replayed
  // data reads keep overlapping with still-undue requests; an in-flight
  // queue with no pending event would be a dependency deadlock, which the
  // admission-order claim discipline makes impossible.
  uint64_t fired = 0;
  while (in_flight_ > 0) {
    double next_us = NextCompletionUs();
    GECKO_CHECK(!std::isinf(next_us)) << "async drain made no progress";
    device_->AdvanceTo(next_us);
    ProcessDueFetches();
    fired += FireDueCompletions();
  }
  if (pipeline_open_) {
    // Every op submitted on behalf of a completed request retires at or
    // before the request's completion, so the queues are already dry;
    // EndBatch just closes the window without moving the clock.
    device_->EndBatch();
    pipeline_open_ = false;
  }
  GECKO_CHECK(!device_->in_batch())
      << "DrainAsync inside a caller-managed batch window";
  CheckQuiescent();
  return fired;
}

uint64_t AsyncEngine::AbortAll() {
  // Close the window first: ops already submitted by dispatched requests
  // have physically landed (the simulator commits data effects at
  // submission — the moral equivalent of commands completing on device
  // capacitance), so they retire into the stats like any other ops.
  if (pipeline_open_) {
    device_->EndBatch();
    pipeline_open_ = false;
  }
  while (!completion_heap_.empty()) completion_heap_.pop();
  for (uint32_t s = head_; s != kNone; s = slots_[s].next) {
    ReleaseKeys(slots_[s]);
  }
  // Translation fetches die with the power: their charged reads landed in
  // the stats like any dispatched op, but the parked extents they were
  // servicing never replay — each aborts with its request below. Zero the
  // in-flight gauge fetch by fetch so it balances its Issued calls.
  while (!fetch_heap_.empty()) {
    const uint32_t f = fetch_heap_.top().index;
    fetch_heap_.pop();
    stats_.aborted_parked_extents += fetches_[f].waiters.size();
    device_->stats().OnMissFetchDone();
    fetch_of_tpage_[fetches_[f].tpage] = kNone;
    FreeFetch(f);
  }
  // Detach the in-flight list: a callback may submit, and its request
  // joins a fresh one.
  uint32_t dying = head_;
  head_ = tail_ = kNone;
  held_ += in_flight_;
  in_flight_ = 0;
  parked_ = 0;

  uint64_t aborted = 0;
  while (dying != kNone) {
    const uint32_t s = dying;
    Slot& r = slots_[s];
    dying = r.next;
    ++stats_.aborted;
    device_->stats().OnHostComplete();
    if (r.on_complete) {
      IoResult result;
      result.status = Status::Aborted("power failure with request in flight");
      AsyncCompletion done;
      done.submit_us = r.submit_us;
      done.complete_us = 0;  // never completed
      done.flash_ops = r.flash_ops;
      r.on_complete(result, done);
    }
    FreeSlot(s);
    ++aborted;
  }
  if (in_flight_ == 0) CheckQuiescent();
  return aborted;
}

double AsyncEngine::NextCompletionUs() const {
  // The next engine event is the earlier of the next dispatched-request
  // completion and the next translation-fetch completion: open-loop
  // drivers advance the clock to this instant, and a fetch's replays are
  // what eventually make its requests complete.
  double next_us = std::numeric_limits<double>::infinity();
  if (!completion_heap_.empty()) next_us = completion_heap_.top().us;
  if (!fetch_heap_.empty() && fetch_heap_.top().us < next_us) {
    next_us = fetch_heap_.top().us;
  }
  return next_us;
}

}  // namespace gecko
