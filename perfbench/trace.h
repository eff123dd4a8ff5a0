// Host-time spans recorded by the benchmark around its calls into each
// layer (RequestStream::Next, SubmitAsync, Poll, AdvanceTo, ...).
//
// A span holds its name, start and end, the span that was open when it
// began (its parent) and the request it served. Spans stay in memory and
// are written out when the run ends. A span's self time is its duration
// minus the durations of its children, so a Poll span's self time excludes
// the completion callbacks it fired and those callbacks' self time
// excludes the next request's Next and SubmitAsync.
//
// Spans opened with Begin/End must nest (one thread, LIFO). Spans measured
// on another thread — completion callbacks of the sharded front end fire
// on its worker threads — are added afterwards with AddDetached and have
// no parent; their request id ties them to the submitting spans.

#ifndef GECKOFTL_PERFBENCH_TRACE_H_
#define GECKOFTL_PERFBENCH_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "util/check.h"

namespace perfbench {

enum class SpanName : uint8_t {
  kNext = 0,     // RequestStream::Next
  kSubmit,       // Ftl::SubmitAsync on GeckoFtl
  kPoll,         // Ftl::Poll
  kAdvance,      // FlashDevice::AdvanceTo
  kComplete,     // the benchmark's completion callback
  kShardSubmit,  // ShardedFtl::SubmitAsyncAt (router split + MPSC push)
  kSlotWait,     // submitter blocked until its reused slot completes
  kRecover,      // Ftl::CrashAndRecover
  kFill,         // set-up: filling every logical page
  kWarmup,       // set-up: warm-up traffic before the measured phase
  kCount,
};

inline const char* SpanNameStr(SpanName n) {
  static constexpr const char* kNames[] = {
      "next", "submit_async", "poll", "advance_to", "complete",
      "shard_submit_async_at", "slot_wait", "crash_and_recover", "fill",
      "warmup"};
  return kNames[static_cast<int>(n)];
}

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class Tracer {
 public:
  static constexpr int32_t kNoParent = -1;

  struct Span {
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    uint64_t request = 0;
    int32_t parent = kNoParent;
    SpanName name = SpanName::kNext;
  };

  /// Calls and summed self time of every span with one name.
  struct Totals {
    uint64_t calls = 0;
    double self_ns = 0;
    double total_ns = 0;
    double SelfPerCallNs() const { return calls ? self_ns / calls : 0.0; }
  };

  int32_t Begin(SpanName name, uint64_t request) {
    Span s;
    s.name = name;
    s.request = request;
    s.parent = open_.empty() ? kNoParent : open_.back();
    s.start_ns = NowNs();
    spans_.push_back(s);
    const int32_t index = static_cast<int32_t>(spans_.size() - 1);
    open_.push_back(index);
    return index;
  }

  void End(int32_t index) {
    GECKO_CHECK(!open_.empty() && open_.back() == index)
        << "spans must close in LIFO order";
    open_.pop_back();
    spans_[index].end_ns = NowNs();
  }

  void AddDetached(SpanName name, uint64_t request, uint64_t start_ns,
                   uint64_t end_ns) {
    Span s;
    s.name = name;
    s.request = request;
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    spans_.push_back(s);
  }

  std::array<Totals, static_cast<int>(SpanName::kCount)> Summarize() const {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    }
    for (const Span& s : spans_) {
      if (s.parent != kNoParent) {
        self[s.parent] -= static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    std::array<Totals, static_cast<int>(SpanName::kCount)> totals{};
    for (size_t i = 0; i < spans_.size(); ++i) {
      Totals& t = totals[static_cast<int>(spans_[i].name)];
      ++t.calls;
      t.self_ns += self[i];
      t.total_ns += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    }
    return totals;
  }

  /// Writes one tab-separated line per span (times relative to the first
  /// span's start). Returns false if the file cannot be written.
  bool WriteTsv(const char* path) const {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) return false;
    const uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "index\tname\tstart_ns\tend_ns\tparent\trequest\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%s\t%llu\t%llu\t%d\t%llu\n", i,
                   SpanNameStr(s.name),
                   static_cast<unsigned long long>(s.start_ns - origin),
                   static_cast<unsigned long long>(s.end_ns - origin),
                   s.parent, static_cast<unsigned long long>(s.request));
    }
    return std::fclose(f) == 0;
  }

  size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a no-op when `tracer` is null (the untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanName name, uint64_t request = 0)
      : tracer_(tracer),
        index_(tracer ? tracer->Begin(name, request) : Tracer::kNoParent) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_;
};

}  // namespace perfbench

#endif  // GECKOFTL_PERFBENCH_TRACE_H_
