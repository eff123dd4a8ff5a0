// Deterministic trace record/replay.
//
// A Trace captures the exact lpn sequence one generator produced so an
// experiment can be replayed bit-for-bit against a different FTL or
// configuration — the standard way to hold the workload fixed while
// sweeping a design parameter.

#ifndef GECKOFTL_WORKLOAD_TRACE_H_
#define GECKOFTL_WORKLOAD_TRACE_H_

#include <cstdint>
#include <vector>

#include "util/check.h"
#include "workload/workload.h"

namespace gecko {

/// A recorded lpn sequence.
class Trace {
 public:
  Trace() = default;

  /// Captures `count` addresses from `source`.
  static Trace Record(Workload& source, uint64_t count) {
    Trace t;
    t.lpns_.reserve(count);
    for (uint64_t i = 0; i < count; ++i) t.lpns_.push_back(source.NextLpn());
    return t;
  }

  void Append(Lpn lpn) { lpns_.push_back(lpn); }
  uint64_t size() const { return lpns_.size(); }
  Lpn at(uint64_t i) const {
    GECKO_CHECK_LT(i, lpns_.size());
    return lpns_[i];
  }
  const std::vector<Lpn>& lpns() const { return lpns_; }

 private:
  std::vector<Lpn> lpns_;
};

}  // namespace gecko

#endif  // GECKOFTL_WORKLOAD_TRACE_H_
