// Per-page shadow of what the FTL must return, for the benchmark's output
// check.
//
// The shadow is updated in admission order. GeckoFTL's async engine
// serializes same-page conflicts in that order (and the sharded front end
// services each shard's queue in FIFO order), so a read must return the
// shadow's value as of the read's admission: callers capture it with At()
// when they submit and pass it to CheckRead() when the read completes.
//
// A wrong payload, a lost write or a resurrected trim is corruption: the
// check prints the page and the seed and exits non-zero. Any other
// unexpected extent status is a failure, counted by the caller; the page's
// content is then unknown, so later reads of it count as failures instead
// of corruption.

#ifndef GECKOFTL_PERFBENCH_SHADOW_H_
#define GECKOFTL_PERFBENCH_SHADOW_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "ftl/io_request.h"
#include "sim/ftl_experiment.h"

namespace perfbench {

class Shadow {
 public:
  struct Expect {
    uint64_t payload = 0;
    bool trimmed = false;
  };

  /// Every page starts with the fill's payload (FtlExperiment::Fill).
  /// `context` (workload and seed) is printed with any corruption report.
  Shadow(uint64_t num_lpns, std::string context)
      : payload_(num_lpns),
        trimmed_(num_lpns, 0),
        context_(std::move(context)) {
    for (uint64_t lpn = 0; lpn < num_lpns; ++lpn) {
      payload_[lpn] =
          gecko::FtlExperiment::Token(static_cast<gecko::Lpn>(lpn), 0);
    }
  }

  uint64_t size() const { return payload_.size(); }

  Expect At(gecko::Lpn lpn) const {
    return Expect{payload_[lpn], trimmed_[lpn] != 0};
  }

  /// Applies an admitted write or trim (extents in order: last one wins).
  void Admit(const gecko::IoRequest& request) {
    for (const gecko::IoExtent& e : request.extents) {
      if (request.op == gecko::IoOp::kWrite) {
        payload_[e.lpn] = e.payload;
        trimmed_[e.lpn] = 0;
      } else if (request.op == gecko::IoOp::kTrim) {
        trimmed_[e.lpn] = 1;
      }
    }
  }

  /// A write or trim of `lpn` ended with an unexpected status.
  void MarkFailed(gecko::Lpn lpn) { failed_pages_.insert(lpn); }
  bool failed(gecko::Lpn lpn) const { return failed_pages_.count(lpn) != 0; }

  /// Checks one completed read extent against the value captured at its
  /// admission. Returns false for a failed extent; exits on corruption.
  bool CheckRead(gecko::Lpn lpn, const Expect& expect,
                 const gecko::Status& status, uint64_t payload) const {
    const bool found = status.ok();
    const bool not_found = status.code() == gecko::StatusCode::kNotFound;
    if (!found && !not_found) return false;
    const char* what = nullptr;
    if (expect.trimmed && found) {
      what = "resurrected trim";
    } else if (!expect.trimmed && not_found) {
      what = "lost write";
    } else if (found && payload != expect.payload) {
      what = "wrong payload";
    }
    if (what == nullptr) return true;
    if (failed(lpn)) return false;
    std::fflush(stdout);
    std::fprintf(stderr,
                 "OUTPUT CHECK FAILED: %s at lpn %llu (%s): expected %s "
                 "%016llx, got %s %016llx\n",
                 what, static_cast<unsigned long long>(lpn), context_.c_str(),
                 expect.trimmed ? "trimmed" : "payload",
                 static_cast<unsigned long long>(expect.payload),
                 found ? "payload" : "NotFound",
                 static_cast<unsigned long long>(payload));
    std::fflush(stderr);
    std::_Exit(1);
  }

  /// Test hook: makes the shadow disagree with the device at `lpn`.
  void Corrupt(gecko::Lpn lpn) {
    if (trimmed_[lpn]) {
      trimmed_[lpn] = 0;
    } else {
      payload_[lpn] ^= 1;
    }
  }

 private:
  std::vector<uint64_t> payload_;
  std::vector<uint8_t> trimmed_;
  std::unordered_set<gecko::Lpn> failed_pages_;
  std::string context_;
};

}  // namespace perfbench

#endif  // GECKOFTL_PERFBENCH_SHADOW_H_
