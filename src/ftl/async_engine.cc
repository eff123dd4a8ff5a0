#include "ftl/async_engine.h"

#include <cmath>
#include <limits>

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

Status AsyncEngine::Submit(IoRequest&& request, CompletionCb on_complete) {
  // Validation and the depth check precede any move, so a refused request
  // is left untouched in the caller's hands for resubmission.
  Status invalid = Validate(request);
  if (!invalid.ok()) return invalid;
  if (in_flight() >= queue_depth_) {
    device_->stats().OnHostQueueFull();
    return Status::QueueFull("host submission queue at its in-flight cap");
  }

  const uint64_t seq = next_seq_++;
  Inflight& r = requests_[seq];
  r.seq = seq;
  r.request = std::move(request);
  r.on_complete = std::move(on_complete);
  r.cls = RequestClassOf(r.request.op);
  r.submit_us = device_->now_us();
  r.keys = host_->DependencyKeys(r.request);
  ClaimKeys(r);
  ++stats_.admitted;
  device_->stats().OnHostAdmit();

  if (Grantable(r)) {
    Dispatch(r);
  } else {
    ++stats_.parked;
  }
  return Status::Ok();
}

bool AsyncEngine::Grantable(const Inflight& r) const {
  for (const DepKey& key : r.keys) {
    auto it = key_claims_.find({static_cast<uint8_t>(key.space), key.id});
    if (it == key_claims_.end()) continue;
    for (const Claim& claim : it->second) {
      if (claim.seq >= r.seq) break;  // FIFO: only earlier claims block
      if (claim.exclusive || key.exclusive) return false;
    }
  }
  return true;
}

void AsyncEngine::ClaimKeys(const Inflight& r) {
  for (const DepKey& key : r.keys) {
    key_claims_[{static_cast<uint8_t>(key.space), key.id}].push_back(
        Claim{r.seq, key.exclusive});
  }
}

void AsyncEngine::ReleaseKeys(const Inflight& r) {
  for (const DepKey& key : r.keys) {
    auto it = key_claims_.find({static_cast<uint8_t>(key.space), key.id});
    GECKO_CHECK(it != key_claims_.end());
    std::deque<Claim>& claims = it->second;
    for (auto c = claims.begin(); c != claims.end(); ++c) {
      if (c->seq == r.seq) {
        claims.erase(c);
        break;
      }
    }
    if (claims.empty()) key_claims_.erase(it);
  }
}

void AsyncEngine::Dispatch(Inflight& r) {
  // The engine holds one long-lived batch window while anything is in
  // flight, so every dispatched request's ops park on the channel queues
  // and overlap with the other in-flight requests' ops.
  if (!pipeline_open_) {
    device_->BeginBatch();
    pipeline_open_ = true;
  }
  MissSink sink;
  device_->BeginOpScope();
  host_->ExecuteRequest(r.request, &r.result, &sink);
  FlashDevice::OpScope scope = device_->EndOpScope();
  r.flash_ops = scope.ops;
  // A request that touched no flash (e.g. a trim of never-written pages)
  // completes instantly, at the clock it was serviced on.
  r.complete_us =
      scope.ops > 0 ? scope.last_complete_us : device_->now_us();
  r.dispatched = true;
  ++stats_.dispatched;
  if (sink.parked.empty()) {
    completion_heap_.push({r.complete_us, r.seq});
  } else {
    // Missed extents wait on their translation fetches; the request joins
    // the completion heap only once the last of them has been replayed.
    ParkMisses(r, sink);
  }
}

void AsyncEngine::ParkMisses(Inflight& r, const MissSink& sink) {
  for (const MissSink::ParkedMiss& miss : sink.parked) {
    auto it = ongoing_fetches_.find(miss.tpage);
    if (it == ongoing_fetches_.end()) {
      // First miss of this translation page: issue the one coalesced
      // fetch, in its own op scope (the dispatch scope has ended; scopes
      // do not nest) so its device-time completion is captured.
      device_->BeginOpScope();
      host_->IssueMappingFetch(miss.tpage);
      FlashDevice::OpScope scope = device_->EndOpScope();
      double fetch_done_us =
          scope.ops > 0 ? scope.last_complete_us : device_->now_us();
      r.flash_ops += scope.ops;
      it = ongoing_fetches_.emplace(miss.tpage, MappingFetch{}).first;
      it->second.complete_us = fetch_done_us;
      fetch_heap_.push({fetch_done_us, miss.tpage});
      device_->stats().OnMissFetchIssued();
    } else {
      // A fetch of this page is already in flight: coalesce onto it.
      host_->NoteCoalescedMiss();
      device_->stats().OnCoalescedMiss();
    }
    it->second.waiters.push_back(Waiter{r.seq, miss.extent, device_->now_us()});
    ++r.unresolved;
    ++stats_.parked_extents;
  }
}

uint64_t AsyncEngine::ProcessDueFetches() {
  uint64_t retired = 0;
  while (!fetch_heap_.empty() &&
         fetch_heap_.top().first <= device_->now_us()) {
    const uint64_t tpage = fetch_heap_.top().second;
    fetch_heap_.pop();
    auto it = ongoing_fetches_.find(tpage);
    GECKO_CHECK(it != ongoing_fetches_.end());
    MappingFetch fetch = std::move(it->second);
    // Erase before replaying: a replay must never observe (or join) a
    // fetch that has already completed.
    ongoing_fetches_.erase(it);
    device_->stats().OnMissFetchDone();
    for (const Waiter& w : fetch.waiters) {
      auto rit = requests_.find(w.seq);
      GECKO_CHECK(rit != requests_.end());
      Inflight& r = rit->second;
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
        completion_heap_.push({r.complete_us, r.seq});
      }
    }
    ++retired;
  }
  return retired;
}

void AsyncEngine::DispatchGrantableParked() {
  // Admission order; dispatching one cannot un-grant another (claims are
  // made at admission and only released at completion), so one pass is
  // enough.
  for (auto& [seq, r] : requests_) {
    if (!r.dispatched && Grantable(r)) Dispatch(r);
  }
}

uint64_t AsyncEngine::FireDueCompletions() {
  uint64_t fired = 0;
  while (!completion_heap_.empty() &&
         completion_heap_.top().first <= device_->now_us()) {
    const uint64_t seq = completion_heap_.top().second;
    completion_heap_.pop();
    auto it = requests_.find(seq);
    GECKO_CHECK(it != requests_.end());
    Inflight r = std::move(it->second);
    requests_.erase(it);

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
    if (r.on_complete) {
      AsyncCompletion done;
      done.submit_us = r.submit_us;
      done.complete_us = r.complete_us;
      done.flash_ops = r.flash_ops;
      r.on_complete(r.result, done);
    }
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
  while (!requests_.empty()) {
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
  completion_heap_ = {};
  key_claims_.clear();
  // Translation fetches die with the power: their charged reads landed in
  // the stats like any dispatched op, but the parked extents they were
  // servicing never replay — each aborts with its request below. Zero the
  // in-flight gauge fetch by fetch so it balances its Issued calls.
  fetch_heap_ = {};
  for (const auto& [tpage, fetch] : ongoing_fetches_) {
    (void)tpage;
    stats_.aborted_parked_extents += fetch.waiters.size();
    device_->stats().OnMissFetchDone();
  }
  ongoing_fetches_.clear();
  std::map<uint64_t, Inflight> dying;
  dying.swap(requests_);

  uint64_t aborted = 0;
  for (auto& [seq, r] : dying) {
    (void)seq;
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
    ++aborted;
  }
  return aborted;
}

double AsyncEngine::NextCompletionUs() const {
  // The next engine event is the earlier of the next dispatched-request
  // completion and the next translation-fetch completion: open-loop
  // drivers advance the clock to this instant, and a fetch's replays are
  // what eventually make its requests complete.
  double next_us = std::numeric_limits<double>::infinity();
  if (!completion_heap_.empty()) next_us = completion_heap_.top().first;
  if (!fetch_heap_.empty() && fetch_heap_.top().first < next_us) {
    next_us = fetch_heap_.top().first;
  }
  return next_us;
}

}  // namespace gecko
