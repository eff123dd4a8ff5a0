#include "ftl/sharded_ftl.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "ftl/async_engine.h"
#include "util/check.h"

namespace gecko {

/// Per-request fan-out/join state, a pooled record reused across
/// requests (ownership: see sharded_ftl.h). The per-sub vectors have one
/// slot per shard; only the first `split.num_subs` are live. Workers write
/// DISJOINT slots of sub_results/sub_start_us/sub_complete_us (slot =
/// their sub index); the last completer — the one whose `remaining`
/// decrement hits zero — joins. The acq_rel decrement makes every other
/// worker's slot writes visible to the joiner.
struct ShardedFtl::RequestState {
  SplitRequest split;
  std::vector<IoResult> sub_results;
  /// Shard clock when each sub began executing (+inf if it aborted).
  std::vector<double> sub_start_us;
  std::vector<double> sub_complete_us;
  /// The queue node of each sub slot.
  std::unique_ptr<ShardMsg[]> nodes;
  IoResult result;  // the joined result
  CompletionCb on_complete;
  std::atomic<uint32_t> remaining{0};
  std::atomic<bool> aborted{false};
  bool sync = false;
  std::binary_semaphore done{0};     // sync path: released by the joiner
  std::optional<double> arrival_us;  // SubmitAsyncAt's stamp
  uint32_t pool_index = 0;
  /// Between AcquireState and ReleaseState. A pool hides reuse from
  /// ASan, so a record reused before its join is caught here instead.
  bool in_use = false;
};

namespace {

ShardMap BuildShardMap(const ShardedFtlOptions& options) {
  Geometry slice =
      ShardedFtl::ShardGeometry(options.geometry, options.num_shards);
  uint64_t inner_lpns = slice.NumLogicalPages();
  GECKO_CHECK_GT(inner_lpns, 0u);
  // The striping unit is one translation page's worth of mapping entries
  // (the LFTL rule: one chunk's mappings live on one shard-private
  // translation page), clamped to the shard size.
  const uint64_t chunk =
      std::min<uint64_t>(slice.MappingEntriesPerTranslationPage(), inner_lpns);
  ShardMap map;
  map.num_shards = options.num_shards;
  map.chunk_lpns = chunk;
  // Round the per-shard space down to whole chunks so the valid global
  // LPN range is exactly [0, TotalLpns()) — a ragged final chunk would
  // make usable capacity non-contiguous. The identity single-shard map
  // forwards everything, so no rounding there (bit-identical range
  // checks stay with the inner FTL).
  map.lpns_per_shard = options.num_shards == 1
                           ? inner_lpns
                           : (inner_lpns / chunk) * chunk;
  return map;
}

}  // namespace

Geometry ShardedFtl::ShardGeometry(const Geometry& total,
                                   uint32_t num_shards) {
  GECKO_CHECK_GE(num_shards, 1u);
  GECKO_CHECK_EQ(total.num_blocks % num_shards, 0u);
  Geometry slice = total;
  slice.num_blocks = total.num_blocks / num_shards;
  if (num_shards <= total.num_channels) {
    GECKO_CHECK_EQ(total.num_channels % num_shards, 0u);
    slice.num_channels = total.num_channels / num_shards;
  } else {
    slice.num_channels = 1;
  }
  slice.Validate();
  return slice;
}

ShardedFtl::ShardedFtl(const ShardedFtlOptions& options, FtlFactory factory)
    : router_(BuildShardMap(options)),
      max_inflight_(options.num_shards * options.config.async_queue_depth) {
  GECKO_CHECK(factory != nullptr);
  GECKO_CHECK_GE(max_inflight_, 1u);
  Geometry slice = ShardGeometry(options.geometry, options.num_shards);
  shards_.reserve(options.num_shards);
  for (uint32_t s = 0; s < options.num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    FaultConfig shard_faults = options.faults;
    shard_faults.seed = options.faults.seed + s;
    shard->device =
        std::make_unique<FlashDevice>(slice, options.latency, shard_faults);
    shard->ftl = factory(shard->device.get(), options.config);
    GECKO_CHECK(shard->ftl != nullptr);
    shards_.push_back(std::move(shard));
  }
  name_ = "Sharded[" + std::to_string(options.num_shards) + "] " +
          shards_[0]->ftl->Name();
  // Workers start only after every shard is fully built: the worker
  // thread owns its shard's device/ftl from here on.
  for (uint32_t s = 0; s < options.num_shards; ++s) {
    shards_[s]->worker = std::thread(&ShardedFtl::WorkerLoop, this, s);
  }
}

ShardedFtl::~ShardedFtl() {
  DrainAsync();
  for (auto& shard : shards_) {
    if (!shard->worker.joinable()) continue;
    // The stop node stays here until its worker has exited.
    ShardMsg stop;
    stop.kind = ShardMsg::Kind::kStop;
    shard->queue.Push(&stop);
    shard->worker.join();
  }
}

Status ShardedFtl::Submit(IoRequest& request, IoResult* result) {
  return SubmitInternal(request, CompletionCb(), /*sync=*/true,
                        /*arrival_us=*/std::nullopt, result);
}

Status ShardedFtl::SubmitAsync(IoRequest&& request, CompletionCb on_complete) {
  return SubmitInternal(request, std::move(on_complete), /*sync=*/false,
                        /*arrival_us=*/std::nullopt, nullptr);
}

Status ShardedFtl::SubmitAsyncAt(IoRequest&& request, double arrival_us,
                                 CompletionCb on_complete) {
  return SubmitInternal(request, std::move(on_complete), /*sync=*/false,
                        arrival_us, nullptr);
}

Status ShardedFtl::SubmitInternal(IoRequest& request, CompletionCb on_complete,
                                  bool sync, std::optional<double> arrival_us,
                                  IoResult* sync_result) {
  Status valid = AsyncEngine::Validate(request);
  if (!valid.ok()) return valid;

  if (sync) {
    // Synchronous submitters block until their own join; they bypass the
    // async cap (they self-throttle) but still count as in flight so
    // DrainAsync covers them.
    inflight_.fetch_add(1, std::memory_order_acq_rel);
  } else {
    uint32_t admitted = inflight_.fetch_add(1, std::memory_order_acq_rel);
    if (admitted >= max_inflight_) {
      inflight_.fetch_sub(1, std::memory_order_acq_rel);
      stat_queue_full_.fetch_add(1, std::memory_order_relaxed);
      return Status::QueueFull("sharded in-flight cap reached");
    }
  }
  stat_requests_.fetch_add(1, std::memory_order_relaxed);

  RequestState* state = AcquireState();
  router_.Split(request, &state->split);
  state->on_complete = std::move(on_complete);
  state->sync = sync;
  state->arrival_us = arrival_us;
  state->aborted.store(false, std::memory_order_relaxed);
  const uint32_t num_subs = static_cast<uint32_t>(state->split.num_subs);
  std::fill_n(state->sub_start_us.begin(), num_subs,
              std::numeric_limits<double>::infinity());
  std::fill_n(state->sub_complete_us.begin(), num_subs, 0.0);
  if (state->split.op == IoOp::kFlush) {
    stat_flush_barriers_.fetch_add(1, std::memory_order_relaxed);
  }

  if (num_subs == 0) {
    // Every extent was resolved by the router (all out of range): the
    // request completes inline on the submitter thread.
    state->remaining.store(1, std::memory_order_release);
    CompleteOne(state);
  } else {
    // `remaining` is published BEFORE any push: a worker can only
    // decrement after popping a message, and every pop happens-after its
    // push, so the joiner runs strictly after this store and after every
    // push below — nobody returns `state` to the pool during this loop.
    state->remaining.store(static_cast<uint32_t>(num_subs),
                           std::memory_order_release);
    stat_sub_requests_.fetch_add(num_subs, std::memory_order_relaxed);
    for (uint32_t i = 0; i < num_subs; ++i) {
      ShardMsg& msg = state->nodes[i];
      msg.kind = ShardMsg::Kind::kSub;
      msg.request = state;
      msg.index = i;
      msg.arrival_us = arrival_us.value_or(0);
      shards_[state->split.subs[i].shard]->queue.Push(&msg);
    }
  }

  if (sync) {
    state->done.acquire();  // joined result is published by the release
    if (sync_result != nullptr) *sync_result = state->result;
    ReleaseState(state);
  }
  return Status::Ok();
}

ShardedFtl::RequestState* ShardedFtl::AcquireState() {
  RequestState* state;
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    const uint32_t i = pool_.Acquire();
    state = &pool_[i];
    GECKO_CHECK(!state->in_use) << "request record reused before its join";
    state->in_use = true;
    state->pool_index = i;
  }
  if (state->nodes == nullptr) {
    const uint32_t n = num_shards();
    state->sub_results.resize(n);
    state->sub_start_us.resize(n);
    state->sub_complete_us.resize(n);
    state->nodes = std::make_unique<ShardMsg[]>(n);
  }
  return state;
}

void ShardedFtl::ReleaseState(RequestState* state) {
  state->on_complete = nullptr;  // drop the callback's captures
  std::lock_guard<std::mutex> lock(pool_mu_);
  GECKO_CHECK(state->in_use) << "request record released twice";
  state->in_use = false;
  pool_.Release(state->pool_index);
}

void ShardedFtl::WorkerLoop(uint32_t shard_index) {
  Shard& shard = *shards_[shard_index];
  for (;;) {
    const ShardMsg& msg = *static_cast<const ShardMsg*>(shard.queue.WaitPop());
    switch (msg.kind) {
      case ShardMsg::Kind::kStop:
        return;
      case ShardMsg::Kind::kSub:
        ExecuteSub(shard, msg);
        break;
      case ShardMsg::Kind::kControl:
        HandleControl(shard, msg);
        break;
    }
  }
}

void ShardedFtl::ExecuteSub(Shard& shard, const ShardMsg& msg) {
  RequestState* state = msg.request;
  GECKO_CHECK(state->in_use) << "sub of a request record already returned";
  const uint32_t index = msg.index;
  SplitRequest::Sub& sub = state->split.subs[index];
  IoResult& result = state->sub_results[index];
  if (shard.aborting.load(std::memory_order_acquire)) {
    // Crash in progress: every queued sub between the flag and the
    // kCrash message aborts exactly once (it is one queue message).
    result.Clear();
    result.status = Status::Aborted("power failure during fan-out");
    result.extent_status.assign(sub.request.extents.size(),
                                Status::Aborted("power failure"));
    state->aborted.store(true, std::memory_order_release);
    ++shard.subs_aborted;
    stat_aborted_subs_.fetch_add(1, std::memory_order_relaxed);
  } else {
    if (msg.arrival_us > shard.device->now_us()) {
      shard.device->AdvanceTo(msg.arrival_us);
    }
    // The worker reads only its own shard's clock.
    state->sub_start_us[index] = shard.device->now_us();
    Status executed = shard.ftl->Submit(sub.request, &result);
    if (!executed.ok()) result.status = executed;
    state->sub_complete_us[index] = shard.device->now_us();
    ++shard.subs_executed;
  }
  CompleteOne(state);  // `msg` and `state` may be reused from here on
}

void ShardedFtl::CompleteOne(RequestState* state) {
  if (state->remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  // Last completer: all slots are visible (acq_rel above); join them.
  ShardRouter::Join(state->split, state->sub_results, &state->result);
  const uint32_t num_subs = static_cast<uint32_t>(state->split.num_subs);
  bool aborted = state->aborted.load(std::memory_order_acquire);
  AsyncCompletion done;
  if (state->arrival_us.has_value()) {
    done.submit_us = *state->arrival_us;
  } else {
    // Unstamped: the request started when its earliest sub did (0 when
    // no sub executed).
    double first = std::numeric_limits<double>::infinity();
    for (uint32_t i = 0; i < num_subs; ++i) {
      first = std::min(first, state->sub_start_us[i]);
    }
    done.submit_us = std::isinf(first) ? 0 : first;
  }
  if (!aborted) {
    double complete_us = done.submit_us;
    for (uint32_t i = 0; i < num_subs; ++i) {
      complete_us = std::max(complete_us, state->sub_complete_us[i]);
    }
    done.complete_us = complete_us;
  }
  // Inner subs execute through the synchronous path; per-request flash-op
  // attribution is not tracked across shards (done.flash_ops stays 0).
  stat_completed_.fetch_add(1, std::memory_order_relaxed);
  if (aborted) {
    stat_aborted_requests_.fetch_add(1, std::memory_order_relaxed);
  }
  const bool sync = state->sync;
  if (!sync) {
    if (state->on_complete) state->on_complete(state->result, done);
    ReleaseState(state);
  }
  unreported_completions_.fetch_add(1, std::memory_order_relaxed);
  // The acq_rel decrement publishes this completion's writes to
  // DrainAsync's acquire load; only the last one can wake it.
  if (inflight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    inflight_.notify_all();
  }
  if (sync) state->done.release();  // the submitter owns `state` from here
}

void ShardedFtl::HandleControl(Shard& shard, const ShardMsg& msg) {
  ControlRendezvous* rendezvous = msg.rendezvous;
  switch (msg.control) {
    case ControlOp::kCrash:
      rendezvous->reports[msg.index] = shard.ftl->CrashAndRecover();
      // Recovery done: later subs on this shard execute normally.
      shard.aborting.store(false, std::memory_order_release);
      break;
    case ControlOp::kForceGc:
      rendezvous->values[msg.index] = shard.ftl->ForceGc() ? 1 : 0;
      break;
    case ControlOp::kIdleTick:
      rendezvous->values[msg.index] = shard.ftl->IdleTick();
      break;
  }
  rendezvous->Arrive();
}

void ShardedFtl::Broadcast(ControlOp op, ControlRendezvous* rendezvous) {
  uint32_t n = num_shards();
  rendezvous->pending = n;
  rendezvous->reports.resize(n);
  rendezvous->values.assign(n, 0);
  stat_control_broadcasts_.fetch_add(1, std::memory_order_relaxed);
  // One node per shard, alive until every worker has arrived.
  std::vector<ShardMsg> msgs(n);
  for (uint32_t s = 0; s < n; ++s) {
    ShardMsg& msg = msgs[s];
    msg.kind = ShardMsg::Kind::kControl;
    msg.control = op;
    msg.index = s;
    msg.rendezvous = rendezvous;
    shards_[s]->queue.Push(&msg);
  }
  rendezvous->Wait();
}

uint64_t ShardedFtl::Poll() {
  return unreported_completions_.exchange(0, std::memory_order_relaxed);
}

uint64_t ShardedFtl::DrainAsync() {
  for (uint32_t n = inflight_.load(std::memory_order_acquire); n != 0;
       n = inflight_.load(std::memory_order_acquire)) {
    inflight_.wait(n, std::memory_order_acquire);
  }
  return unreported_completions_.exchange(0, std::memory_order_relaxed);
}

uint32_t ShardedFtl::InFlightRequests() const {
  return inflight_.load(std::memory_order_acquire);
}

RecoveryReport ShardedFtl::CrashAndRecover() {
  std::lock_guard<std::mutex> control(control_mu_);
  // Flag first (release), THEN enqueue the crash message: per-producer
  // FIFO guarantees every sub this thread pushed earlier drains before
  // the kCrash, and the acquire load in ExecuteSub sees the flag for all
  // of them — each aborts exactly once.
  for (auto& shard : shards_) {
    shard->aborting.store(true, std::memory_order_release);
  }
  ControlRendezvous rendezvous;
  Broadcast(ControlOp::kCrash, &rendezvous);
  if (shards_.size() == 1) return std::move(rendezvous.reports[0]);
  // Merge step-wise: every shard runs the same FTL, so reports align.
  RecoveryReport merged;
  for (const RecoveryReport& report : rendezvous.reports) {
    for (size_t i = 0; i < report.steps.size(); ++i) {
      if (i >= merged.steps.size()) merged.Add(report.steps[i].name);
      RecoveryStep& step = merged.steps[i];
      step.spare_reads += report.steps[i].spare_reads;
      step.page_reads += report.steps[i].page_reads;
      step.page_writes += report.steps[i].page_writes;
    }
  }
  return merged;
}

uint64_t ShardedFtl::RamBytes() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->ftl->RamBytes();
  return total;
}

bool ShardedFtl::ForceGc() {
  std::lock_guard<std::mutex> control(control_mu_);
  ControlRendezvous rendezvous;
  Broadcast(ControlOp::kForceGc, &rendezvous);
  bool all = true;
  for (uint64_t ran : rendezvous.values) all = all && ran != 0;
  return all;
}

uint64_t ShardedFtl::IdleTick() {
  std::lock_guard<std::mutex> control(control_mu_);
  ControlRendezvous rendezvous;
  Broadcast(ControlOp::kIdleTick, &rendezvous);
  uint64_t steps = 0;
  for (uint64_t v : rendezvous.values) steps += v;
  return steps;
}

const FtlCounters& ShardedFtl::counters() const {
  merged_counters_ = FtlCounters();
  for (const auto& shard : shards_) {
    merged_counters_.Merge(shard->ftl->counters());
  }
  return merged_counters_;
}

bool ShardedFtl::IsDegraded() const {
  // Any-shard semantics: each shard degrades (and fails its writes)
  // independently without stalling its siblings; the front end reports
  // the device as degraded as soon as one shard is.
  for (const auto& shard : shards_) {
    if (shard->ftl->IsDegraded()) return true;
  }
  return false;
}

const char* ShardedFtl::Name() const { return name_.c_str(); }

ShardedFtlStats ShardedFtl::stats() const {
  ShardedFtlStats s;
  s.requests = stat_requests_.load(std::memory_order_relaxed);
  s.sub_requests = stat_sub_requests_.load(std::memory_order_relaxed);
  s.completed_requests = stat_completed_.load(std::memory_order_relaxed);
  s.aborted_requests = stat_aborted_requests_.load(std::memory_order_relaxed);
  s.aborted_sub_requests =
      stat_aborted_subs_.load(std::memory_order_relaxed);
  s.flush_barriers = stat_flush_barriers_.load(std::memory_order_relaxed);
  s.queue_full_rejections =
      stat_queue_full_.load(std::memory_order_relaxed);
  s.control_broadcasts =
      stat_control_broadcasts_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace gecko
