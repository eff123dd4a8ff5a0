// Minimal Status type for error reporting without exceptions.
//
// Modeled on the absl::Status / rocksdb::Status idiom: functions that can
// fail in ways the caller should handle return Status;
// programming errors abort via GECKO_CHECK.

#ifndef GECKOFTL_UTIL_STATUS_H_
#define GECKOFTL_UTIL_STATUS_H_

#include <string>
#include <utility>

#include "util/check.h"

namespace gecko {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfSpace,
  kFailedPrecondition,
  kCorruption,
  /// Async admission refused: the host-side submission queue is at its
  /// configured in-flight cap. The request was not consumed; resubmit
  /// after draining completions (backpressure, not an error state).
  kQueueFull,
  /// An in-flight async request was cancelled before completing — e.g. a
  /// power failure hit while it was queued or executing. Its effects are
  /// indeterminate, like an NVMe command outstanding at reset.
  kAborted,
  /// The flash medium failed the operation: an uncorrectable (hard) read
  /// fault that survived the retry budget, or a read of a page retired by
  /// a program/erase fault. Distinct from kCorruption, which means the
  /// FTL's own metadata is inconsistent.
  kIoError,
};

/// Name of a StatusCode enumerator. Exhaustive: no default case, so adding
/// an enumerator without a name is a -Wswitch warning (error under
/// GECKO_WERROR), not silent garbage at runtime.
inline const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kOutOfSpace: return "OUT_OF_SPACE";
    case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
    case StatusCode::kCorruption: return "CORRUPTION";
    case StatusCode::kQueueFull: return "QUEUE_FULL";
    case StatusCode::kAborted: return "ABORTED";
    case StatusCode::kIoError: return "IO_ERROR";
  }
  return "UNKNOWN";  // Unreachable for in-range values.
}

/// Result of an operation that can fail. Cheap to copy when OK.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string m) {
    return Status(StatusCode::kInvalidArgument, std::move(m));
  }
  static Status NotFound(std::string m) {
    return Status(StatusCode::kNotFound, std::move(m));
  }
  static Status OutOfSpace(std::string m) {
    return Status(StatusCode::kOutOfSpace, std::move(m));
  }
  static Status FailedPrecondition(std::string m) {
    return Status(StatusCode::kFailedPrecondition, std::move(m));
  }
  static Status Corruption(std::string m) {
    return Status(StatusCode::kCorruption, std::move(m));
  }
  static Status QueueFull(std::string m) {
    return Status(StatusCode::kQueueFull, std::move(m));
  }
  static Status Aborted(std::string m) {
    return Status(StatusCode::kAborted, std::move(m));
  }
  static Status IoError(std::string m) {
    return Status(StatusCode::kIoError, std::move(m));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const {
    if (ok()) return "OK";
    return std::string(StatusCodeName(code_)) + ": " + message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

}  // namespace gecko

#endif  // GECKOFTL_UTIL_STATUS_H_
