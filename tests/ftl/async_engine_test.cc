// AsyncEngine on its own: a scripted AsyncHost drives the engine on a small
// FlashDevice, with no FTL around it. Each scripted request claims chosen
// LPN, translation-page and global keys, reads a few flash pages, parks
// extents on translation fetches and may submit again from its callback. A
// reference lock table — the per-key FIFO rule, the global key included —
// checks every dispatch, the callback order and the engine's counters after
// every admission and completion.

#include "ftl/async_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <map>
#include <new>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/random.h"

// Counts every heap allocation of this test binary, so a case can check
// that the engine's steady state allocates nothing. Not inlined, so the
// compiler does not pair a new-expression with the free() inside.
namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Sanitizer runtimes replace the array forms separately.
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return operator new(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace gecko {
namespace {

Geometry SmallGeometry() {
  Geometry g;
  g.num_blocks = 32;
  g.pages_per_block = 8;
  g.page_bytes = 512;
  g.num_channels = 4;
  return g;
}

/// Translation pages below this id are fetched with one flash read; the
/// others' fetches complete on the clock they were issued at.
constexpr uint64_t kReadFetchPages = 4;
constexpr uint64_t kTPages = 8;

/// What one scripted request claims and does.
struct Script {
  IoOp op = IoOp::kRead;
  std::vector<DepKey> keys;
  uint32_t dispatch_reads = 0;   // flash reads when dispatched
  std::vector<uint64_t> misses;  // translation page of each parked extent
  bool replay_reads = false;     // each replay reads a page too
  bool resubmit = false;         // its callback submits the next request
};

/// Extent 0 completes at dispatch; extent e > 0 parks on misses[e - 1].
/// Payloads identify the request, so a result can be checked against it.
IoRequest RequestFor(const Script& s, size_t id) {
  if (s.op == IoOp::kFlush) return IoRequest::Flush();
  IoRequest r(s.op);
  for (size_t e = 0; e <= s.misses.size(); ++e) r.Add(e, id * 100 + e);
  return r;
}

/// The per-key FIFO lock table the engine used to keep as a map of
/// deques: a request is grantable when each of its keys is compatible
/// with every earlier claim on that key.
class ReferenceLocks {
 public:
  void Claim(uint64_t seq, const std::vector<DepKey>& keys) {
    for (const DepKey& k : keys) claims_[Id(k)].push_back({seq, k.exclusive});
  }
  bool Grantable(uint64_t seq, const std::vector<DepKey>& keys) const {
    for (const DepKey& k : keys) {
      auto it = claims_.find(Id(k));
      if (it == claims_.end()) continue;
      for (const auto& [claim_seq, exclusive] : it->second) {
        if (claim_seq >= seq) break;
        if (exclusive || k.exclusive) return false;
      }
    }
    return true;
  }
  void Release(uint64_t seq, const std::vector<DepKey>& keys) {
    for (const DepKey& k : keys) {
      auto it = claims_.find(Id(k));
      ASSERT_NE(it, claims_.end());
      auto c = std::find_if(it->second.begin(), it->second.end(),
                            [seq](const auto& cl) { return cl.first == seq; });
      ASSERT_NE(c, it->second.end());
      it->second.erase(c);
      if (it->second.empty()) claims_.erase(it);
    }
  }
  bool empty() const { return claims_.empty(); }

 private:
  static std::pair<int, uint64_t> Id(const DepKey& k) {
    return {static_cast<int>(k.space), k.id};
  }
  std::map<std::pair<int, uint64_t>, std::deque<std::pair<uint64_t, bool>>>
      claims_;
};

/// The engine, its device, the scripted host and the reference model. With
/// `checking` off the host only services requests, allocating nothing once
/// every slot address is known.
class Harness : public AsyncHost {
 public:
  Harness(std::vector<Script> scripts, uint32_t queue_depth, bool checking)
      : device_(SmallGeometry()),
        engine_(this, &device_, queue_depth),
        scripts_(std::move(scripts)),
        state_(scripts_.size()),
        checking_(checking) {
    requests_.reserve(scripts_.size());
    for (size_t id = 0; id < scripts_.size(); ++id) {
      requests_.push_back(RequestFor(scripts_[id], id));
    }
  }

  AsyncEngine& engine() { return engine_; }
  size_t submitted() const { return next_; }
  bool AllSubmitted() const { return next_ == scripts_.size(); }
  uint64_t callbacks() const { return completed_ + aborted_; }

  /// Submits the next scripted request; false when none is left or the
  /// queue is full.
  bool SubmitNext() {
    if (AllSubmitted()) return false;
    const size_t id = next_;
    admitting_ = id;
    const bool outer = in_submit_;
    in_submit_ = true;
    Status s = engine_.Submit(
        std::move(requests_[id]),
        [this, id](const IoResult& result, const AsyncCompletion& done) {
          OnComplete(id, result, done);
        });
    in_submit_ = outer;
    if (s.code() == StatusCode::kQueueFull) return false;
    EXPECT_TRUE(s.ok()) << s.ToString();
    ++next_;
    ++ref_.admitted;
    if (!state_[id].dispatched) ++ref_.parked;
    if (checking_) {
      locks_.Claim(id, scripts_[id].keys);
      inflight_.insert(id);
      Check();
    }
    return true;
  }

  /// Moves the clock to the next engine event, or halfway there, and polls.
  void Advance(Rng& rng) {
    const double next = engine_.NextCompletionUs();
    if (!std::isinf(next)) {
      const double now = device_.now_us();
      device_.AdvanceTo(rng.Bernoulli(0.5) ? next : now + (next - now) / 2);
    }
    engine_.Poll();
    Check();
  }

  void DrainAll() {
    engine_.DrainAll();
    EXPECT_EQ(engine_.in_flight(), 0u);
    EXPECT_EQ(engine_.ongoing_fetch_count(), 0u);
    EXPECT_TRUE(locks_.empty());
    Check();
  }

  /// Power failure: every in-flight request's callback fires with kAborted
  /// in admission order, and the parked extents die with their fetches.
  void AbortAll() {
    std::vector<size_t> dying(inflight_.begin(), inflight_.end());
    for (size_t id : dying) {
      locks_.Release(id, scripts_[id].keys);
      ref_.aborted_parked_extents += state_[id].unresolved;
    }
    inflight_.clear();
    ready_.clear();
    waiting_.clear();
    aborting_ = true;
    abort_log_.clear();
    EXPECT_EQ(engine_.AbortAll(), dying.size());
    aborting_ = false;
    EXPECT_EQ(abort_log_, dying);
    Check();
  }

  // --- AsyncHost -----------------------------------------------------------

  void DependencyKeys(const IoRequest& request,
                      std::vector<DepKey>* keys) override {
    EXPECT_TRUE(keys->empty());
    id_of_[&request] = admitting_;
    const Script& s = scripts_[admitting_];
    keys->insert(keys->end(), s.keys.begin(), s.keys.end());
  }

  void ExecuteRequest(IoRequest& request, IoResult* result,
                      MissSink* sink) override {
    const size_t id = id_of_.at(&request);
    const Script& s = scripts_[id];
    State& st = state_[id];
    EXPECT_FALSE(st.dispatched) << "request " << id << " dispatched twice";
    st.dispatched = true;
    ++ref_.dispatched;
    if (checking_) dispatches_.push_back(id);
    st.complete_us = device_.now_us();
    for (uint32_t k = 0; k < s.dispatch_reads; ++k) {
      st.complete_us = std::max(st.complete_us, Read(id + k));
    }
    if (s.op != IoOp::kFlush) {
      // Resized, not assigned: a stale result left in the slot would show.
      result->extent_status.resize(request.extents.size());
      result->payloads.resize(request.extents.size());
      result->payloads[0] = request.extents[0].payload;
    }
    for (size_t e = 0; e < s.misses.size(); ++e) {
      sink->parked.push_back(MissSink::ParkedMiss{s.misses[e], e + 1});
      if (checking_ && waiting_[s.misses[e]]++ > 0) ++expected_coalesced_;
    }
    st.unresolved = static_cast<uint32_t>(s.misses.size());
    ref_.parked_extents += s.misses.size();
    // Dispatched outside Submit means released by a completion whose
    // callback has not run yet: it joined the heap after that pop.
    if (st.unresolved == 0) MakeReady(id, /*fresh=*/!in_submit_);
  }

  void IssueMappingFetch(uint64_t tpage) override {
    if (tpage < kReadFetchPages) Read(tpage);
  }

  void ResolveParkedExtent(IoRequest& request, IoResult* result,
                           size_t extent) override {
    const size_t id = id_of_.at(&request);
    State& st = state_[id];
    double done = device_.now_us();
    if (scripts_[id].replay_reads) done = std::max(done, Read(id + extent));
    st.complete_us = std::max(st.complete_us, done);
    result->payloads[extent] = request.extents[extent].payload;
    ++ref_.replayed_extents;
    if (checking_) --waiting_[scripts_[id].misses[extent - 1]];
    EXPECT_GT(st.unresolved, 0u);
    if (--st.unresolved == 0) MakeReady(id, /*fresh=*/false);
  }

  void NoteCoalescedMiss() override { ++coalesced_; }

 private:
  struct State {
    bool dispatched = false;
    bool fresh = false;
    double complete_us = 0;
    uint32_t unresolved = 0;
  };

  /// Reads a page on block `x` and returns when the read completes.
  double Read(uint64_t x) {
    const BlockId block = static_cast<BlockId>(x % SmallGeometry().num_blocks);
    device_.ReadPage(PhysicalAddress{block, 0}, IoPurpose::kUserRead);
    return device_.ChannelBusyUntilUs(device_.ChannelOf(block));
  }

  void MakeReady(size_t id, bool fresh) {
    if (!checking_) return;
    state_[id].fresh = fresh;
    ready_.insert(id);
  }

  bool Before(size_t a, size_t b) const {
    if (state_[a].complete_us != state_[b].complete_us) {
      return state_[a].complete_us < state_[b].complete_us;
    }
    return a < b;
  }

  void OnComplete(size_t id, const IoResult& result,
                  const AsyncCompletion& done) {
    const Script& s = scripts_[id];
    if (result.status.code() == StatusCode::kAborted) {
      EXPECT_TRUE(aborting_);
      ++aborted_;
      ++ref_.aborted;
      if (checking_) abort_log_.push_back(id);
    } else {
      EXPECT_TRUE(result.status.ok()) << result.status.ToString();
      ++completed_;
      ++ref_.completed;
      if (checking_) {
        // The popped request is the earliest (complete_us, seq) of those
        // that were due when it was popped.
        EXPECT_EQ(ready_.count(id), 1u) << "request " << id;
        EXPECT_FALSE(state_[id].fresh);
        EXPECT_EQ(done.complete_us, state_[id].complete_us);
        EXPECT_LE(done.complete_us, device_.now_us());
        for (size_t other : ready_) {
          if (other != id && !state_[other].fresh) {
            EXPECT_FALSE(Before(other, id))
                << "request " << other << " was due before " << id;
          }
        }
        for (size_t other : ready_) state_[other].fresh = false;
        ready_.erase(id);
        inflight_.erase(id);
        locks_.Release(id, s.keys);
        Check();
      }
      ExpectOwnResult(id, result);
    }
    if (s.resubmit && SubmitNext()) {
      // The callback's result is its own slot's, not the new request's.
      ExpectOwnResult(id, result);
    }
  }

  void ExpectOwnResult(size_t id, const IoResult& result) {
    if (!checking_ || result.status.code() == StatusCode::kAborted) return;
    const Script& s = scripts_[id];
    if (s.op == IoOp::kFlush) {
      EXPECT_TRUE(result.extent_status.empty() && result.payloads.empty())
          << "request " << id << " sees a stale result";
      return;
    }
    ASSERT_EQ(result.payloads.size(), s.misses.size() + 1) << id;
    ASSERT_EQ(result.extent_status.size(), s.misses.size() + 1) << id;
    for (size_t e = 0; e < result.payloads.size(); ++e) {
      EXPECT_EQ(result.payloads[e], id * 100 + e) << "request " << id;
    }
  }

  /// Every in-flight request is dispatched exactly when the reference
  /// grants it, dispatches since the last check went in admission order,
  /// and the engine's counters match the model's.
  void Check() {
    if (!checking_) return;
    for (size_t id : inflight_) {
      EXPECT_EQ(state_[id].dispatched,
                locks_.Grantable(id, scripts_[id].keys))
          << "request " << id;
    }
    EXPECT_TRUE(std::is_sorted(dispatches_.begin(), dispatches_.end()));
    dispatches_.clear();
    const AsyncEngineStats& e = engine_.stats();
    EXPECT_EQ(e.admitted, ref_.admitted);
    EXPECT_EQ(e.parked, ref_.parked);
    EXPECT_EQ(e.dispatched, ref_.dispatched);
    EXPECT_EQ(e.completed, ref_.completed);
    EXPECT_EQ(e.aborted, ref_.aborted);
    EXPECT_EQ(e.parked_extents, ref_.parked_extents);
    EXPECT_EQ(e.replayed_extents, ref_.replayed_extents);
    EXPECT_EQ(e.aborted_parked_extents, ref_.aborted_parked_extents);
    EXPECT_EQ(engine_.in_flight(), inflight_.size());
    EXPECT_EQ(coalesced_, expected_coalesced_);
    uint32_t fetching = 0;
    for (const auto& [tpage, n] : waiting_) fetching += n > 0 ? 1 : 0;
    EXPECT_EQ(engine_.ongoing_fetch_count(), fetching);
  }

  FlashDevice device_;
  AsyncEngine engine_;
  std::vector<Script> scripts_;
  std::vector<IoRequest> requests_;
  std::vector<State> state_;
  bool checking_;
  size_t next_ = 0;
  size_t admitting_ = 0;
  bool in_submit_ = false;
  bool aborting_ = false;
  std::unordered_map<const IoRequest*, size_t> id_of_;
  uint64_t completed_ = 0;
  uint64_t aborted_ = 0;
  uint64_t coalesced_ = 0;
  // The reference model (checking only).
  ReferenceLocks locks_;
  AsyncEngineStats ref_;
  std::set<size_t> inflight_;
  std::set<size_t> ready_;
  std::vector<size_t> dispatches_;
  std::vector<size_t> abort_log_;
  std::map<uint64_t, uint32_t> waiting_;  // parked extents per tpage
  uint64_t expected_coalesced_ = 0;
};

/// Reads and writes over 12 lpns and 4 translation pages, with an
/// exclusive global key for one request in 16 (a flush) and no global key
/// for one in 8 of the rest; about half touch no flash at dispatch.
std::vector<Script> RandomScripts(Rng& rng, size_t n, bool zero_op) {
  std::vector<Script> scripts(n);
  for (Script& s : scripts) {
    if (!zero_op && !rng.Bernoulli(0.5)) {
      s.dispatch_reads = 1 + static_cast<uint32_t>(rng.Uniform(2));
    }
    s.resubmit = !zero_op && rng.Bernoulli(0.3);
    if (rng.Uniform(16) == 0) {
      s.op = IoOp::kFlush;
      s.keys.push_back(DepKey::Global(/*exclusive=*/true));
      continue;
    }
    s.op = rng.Bernoulli(0.5) ? IoOp::kRead : IoOp::kWrite;
    if (rng.Uniform(8) != 0) s.keys.push_back(DepKey::Global(false));
    for (uint64_t k = rng.Uniform(4); k > 0; --k) {
      s.keys.push_back(
          DepKey{DepKey::Space::kLpn, rng.Uniform(12), rng.Bernoulli(0.4)});
    }
    for (uint64_t k = rng.Uniform(3); k > 0; --k) {
      s.keys.push_back(DepKey{DepKey::Space::kTranslationPage, rng.Uniform(4),
                              rng.Bernoulli(0.3)});
    }
    for (uint64_t k = rng.Uniform(3); k > 0; --k) {
      s.misses.push_back(zero_op ? kReadFetchPages + rng.Uniform(4)
                                 : rng.Uniform(kTPages));
    }
    s.replay_reads = !zero_op && rng.Bernoulli(0.3);
  }
  return scripts;
}

class AsyncEngineScriptTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AsyncEngineScriptTest, MatchesTheReferenceLockTable) {
  Rng rng(GetParam());
  const uint32_t queue_depth = 1 + static_cast<uint32_t>(rng.Uniform(8));
  Harness h(RandomScripts(rng, 400, /*zero_op=*/false), queue_depth,
            /*checking=*/true);
  while (!h.AllSubmitted() || h.engine().in_flight() > 0) {
    const uint64_t action = rng.Uniform(40);
    if (action < 20 && h.engine().in_flight() < queue_depth &&
        !h.AllSubmitted()) {
      h.SubmitNext();
    } else if (action == 38) {
      h.DrainAll();
    } else if (action == 39) {
      h.AbortAll();
    } else {
      h.Advance(rng);
    }
    if (::testing::Test::HasFailure()) return;
  }
  h.DrainAll();
  EXPECT_EQ(h.callbacks(), 400u);
  const AsyncEngineStats& s = h.engine().stats();
  if (queue_depth > 1) {
    EXPECT_GT(s.parked, 0u);
  }
  EXPECT_GT(s.aborted, 0u);
  EXPECT_EQ(s.parked_extents, s.replayed_extents + s.aborted_parked_extents);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AsyncEngineScriptTest,
                         ::testing::Range<uint64_t>(1, 25));

/// Runs the first `n` scripts to completion: zero-op requests and zero-op
/// fetches, so the clock never moves and a Poll on a full queue always
/// fires the oldest request at least.
void RunZeroOp(Harness* h, size_t n) {
  while (h->submitted() < n) {
    if (h->engine().in_flight() < h->engine().queue_depth()) {
      h->SubmitNext();
    } else if (h->engine().Poll() == 0) {
      ADD_FAILURE() << "a full queue made no progress";
      return;
    }
  }
  h->engine().DrainAll();
}

TEST(AsyncEngineAllocationTest, WarmEngineAllocatesNothing) {
  // Two passes of one script from the same empty engine state: the first
  // warms the pools, the table and the heaps; the second must reuse them.
  constexpr size_t kRequests = 10000;
  Rng rng(29);
  std::vector<Script> scripts = RandomScripts(rng, kRequests, /*zero_op=*/true);
  const std::vector<Script> again = scripts;
  scripts.insert(scripts.end(), again.begin(), again.end());
  Harness h(std::move(scripts), 4, /*checking=*/false);
  RunZeroOp(&h, kRequests);
  const AsyncEngineStats warm = h.engine().stats();
  ASSERT_GT(warm.parked, 0u);
  ASSERT_GT(warm.parked_extents, 0u);

  const uint64_t before = g_allocations.load();
  RunZeroOp(&h, 2 * kRequests);
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(h.engine().stats().completed, 2 * kRequests);
  EXPECT_EQ(h.engine().stats().parked, 2 * warm.parked);
  EXPECT_EQ(h.engine().stats().parked_extents, 2 * warm.parked_extents);
}

}  // namespace
}  // namespace gecko
