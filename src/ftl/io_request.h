// Batched scatter-gather I/O requests: the host-facing vocabulary of the
// Ftl interface.
//
// Real FTLs service multi-page queued requests rather than single-page
// calls (LFTL's parallel request queues, FMMU's request-batched map
// management). An IoRequest carries one operation and a vector of
// {lpn, payload} extents; Ftl::Submit services the whole request, letting
// the FTL amortize translation-table and page-validity-store updates
// across the batch — once per touched metadata page instead of once per
// logical page. kTrim is the one host command that exercises the
// page-validity machinery without writing user data; kFlush drains all
// volatile FTL state onto flash.

#ifndef GECKOFTL_FTL_IO_REQUEST_H_
#define GECKOFTL_FTL_IO_REQUEST_H_

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "flash/types.h"
#include "util/status.h"

namespace gecko {

/// Host-visible operation kinds.
enum class IoOp : uint8_t {
  kWrite = 0,  // write each extent's payload to its lpn (out of place)
  kRead,       // read each extent's lpn into the result's payload slot
  kTrim,       // discard: invalidate each lpn; later reads are NotFound
  kFlush,      // make all volatile FTL state durable (no extents)
};

/// One logical page touched by a request. `payload` is the data to write
/// for kWrite and ignored for kRead/kTrim (read data comes back through
/// IoResult::payloads, keeping the request reusable across retries).
struct IoExtent {
  Lpn lpn = 0;
  uint64_t payload = 0;
};

/// A batched scatter-gather request: one operation over many extents.
/// Extents may target arbitrary, non-contiguous lpns; duplicates are
/// allowed and resolve in submission order (last writer wins).
struct IoRequest {
  IoOp op = IoOp::kWrite;
  std::vector<IoExtent> extents;

  IoRequest() = default;
  explicit IoRequest(IoOp o) : op(o) {}

  /// Builds a write request from ready-made {lpn, payload} extents.
  static IoRequest Write(std::vector<IoExtent> e) {
    IoRequest r(IoOp::kWrite);
    r.extents = std::move(e);
    return r;
  }
  /// Builds a read request over `lpns` (results come back in
  /// IoResult::payloads, parallel to the extents).
  static IoRequest Read(std::initializer_list<Lpn> lpns) {
    return FromLpns(IoOp::kRead, lpns.begin(), lpns.end());
  }
  static IoRequest Read(const std::vector<Lpn>& lpns) {
    return FromLpns(IoOp::kRead, lpns.begin(), lpns.end());
  }
  /// Builds a trim (discard) request over `lpns`.
  static IoRequest Trim(std::initializer_list<Lpn> lpns) {
    return FromLpns(IoOp::kTrim, lpns.begin(), lpns.end());
  }
  static IoRequest Trim(const std::vector<Lpn>& lpns) {
    return FromLpns(IoOp::kTrim, lpns.begin(), lpns.end());
  }
  /// Builds a flush request (must stay extent-free to be well-formed).
  static IoRequest Flush() { return IoRequest(IoOp::kFlush); }

  /// Appends one extent; chainable (`r.Add(1, x).Add(9, y)`). `payload`
  /// is meaningful for kWrite only.
  IoRequest& Add(Lpn lpn, uint64_t payload = 0) {
    extents.push_back(IoExtent{lpn, payload});
    return *this;
  }

  /// Number of extents carried.
  size_t size() const { return extents.size(); }
  /// Whether the request carries no extents (invalid except for kFlush).
  bool empty() const { return extents.empty(); }

 private:
  template <typename It>
  static IoRequest FromLpns(IoOp op, It begin, It end) {
    IoRequest r(op);
    for (It it = begin; it != end; ++it) r.extents.push_back(IoExtent{*it, 0});
    return r;
  }
};

/// Outcome of one submitted request. `status` reports whether the request
/// was executed at all (malformed requests fail as a whole); per-extent
/// outcomes — e.g. NotFound for a read of a never-written or trimmed
/// page, InvalidArgument for an out-of-range lpn — land in
/// `extent_status`, parallel to the request's extents.
struct IoResult {
  /// Whole-request outcome; non-OK means nothing was executed.
  Status status;
  /// Per-extent outcomes, parallel to the request's extents.
  std::vector<Status> extent_status;
  /// Read results, parallel to the extents (kRead only; slots of failed
  /// extents stay 0).
  std::vector<uint64_t> payloads;

  /// Resets to an empty OK result, keeping the vectors' capacity.
  void Clear() {
    status = Status::Ok();
    extent_status.clear();
    payloads.clear();
  }

  /// True iff the request executed and every extent succeeded.
  bool AllOk() const {
    if (!status.ok()) return false;
    for (const Status& s : extent_status) {
      if (!s.ok()) return false;
    }
    return true;
  }

  /// First non-OK status, or OK (convenience for single-extent callers).
  Status FirstError() const {
    if (!status.ok()) return status;
    for (const Status& s : extent_status) {
      if (!s.ok()) return s;
    }
    return Status::Ok();
  }
};

}  // namespace gecko

#endif  // GECKOFTL_FTL_IO_REQUEST_H_
