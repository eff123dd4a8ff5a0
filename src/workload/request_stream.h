// Turns an lpn-level Workload into a stream of batched IoRequests — the
// shape real hosts submit (queued multi-page requests with an occasional
// TRIM mix, as in filesystem discard batching).
//
// Each call to Next() emits one request. Write batches carry `batch_size`
// extents drawn from the wrapped workload, with payloads derived from a
// deterministic version counter so replays are bit-for-bit reproducible.
// With a non-zero trim fraction, each drawn lpn becomes a pending discard
// instead of a write with that probability; pending discards are emitted
// as one kTrim request before the next write batch, mirroring how hosts
// coalesce discards between write bursts.

#ifndef GECKOFTL_WORKLOAD_REQUEST_STREAM_H_
#define GECKOFTL_WORKLOAD_REQUEST_STREAM_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "ftl/io_request.h"
#include "util/check.h"
#include "util/random.h"
#include "workload/workload.h"

namespace gecko {

class RequestStream {
 public:
  struct Options {
    uint32_t batch_size = 8;
    /// Probability that a drawn lpn is discarded instead of rewritten.
    double trim_fraction = 0.0;
    /// Probability that an emitted request is a kRead batch over lpns
    /// drawn from the workload instead of a kWrite batch (reads of
    /// never-written lpns come back NotFound; callers that mix reads
    /// should fill first). Async QD sweeps use the mix to exercise the
    /// shared-claim dependency path alongside exclusive writes.
    double read_fraction = 0.0;
    /// Per-instance RNG seed: two streams with the same seed (and
    /// workload behaviour) emit identical request sequences; the Rng is
    /// documented not-thread-safe, so every thread needs its own stream
    /// (see Fork).
    uint64_t seed = 42;
    /// Starting value of the payload version counter. Fork() gives each
    /// child a disjoint version range so tokens from different submitter
    /// threads can never collide, even on the same lpn.
    uint64_t version_base = 0;
    /// When `workload.num_lpns > 0` the stream builds and OWNS its own
    /// generator from this spec (seeded deterministically from `seed`,
    /// through a separate derivation so address draws and shape decisions
    /// never share an RNG stream). Default (num_lpns == 0): the
    /// external-Workload* constructor.
    WorkloadSpec workload;
  };

  /// Derives child `i`'s seed from a parent seed (splitmix64 finalizer —
  /// nearby children get uncorrelated streams).
  static uint64_t ForkSeed(uint64_t seed, uint32_t child) {
    uint64_t x = seed + (uint64_t{child} + 1) * 0x9E3779B97F4A7C15ull;
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return x;
  }

  RequestStream(Workload* workload, const Options& options)
      : workload_(workload),
        options_(options),
        rng_(options.seed),
        version_(options.version_base) {
    CheckOptions(options);
  }

  /// Owned-workload mode: the stream builds its own generator from
  /// `options.workload` (which must have num_lpns > 0). The generator's
  /// seed comes from a separate splitmix64 derivation of `options.seed`,
  /// so address draws and the stream's shape decisions (trim/read coin
  /// flips) never consume from the same RNG sequence — changing
  /// trim_fraction does not perturb which lpns are drawn.
  explicit RequestStream(const Options& options)
      : owned_(MakeWorkload(options.workload,
                            ForkSeed(options.seed, kWorkloadSeedChild))),
        workload_(owned_.get()),
        options_(options),
        rng_(options.seed),
        version_(options.version_base) {
    GECKO_CHECK_GT(options.workload.num_lpns, 0u)
        << "owned-workload mode needs a WorkloadSpec";
    CheckOptions(options);
  }

  /// Builds submitter thread `child`'s independent deterministic stream:
  /// same shape options, a ForkSeed-derived seed, and a disjoint payload
  /// version range. `workload` must be the child thread's own instance
  /// (Rng is not thread-safe; nothing may be shared across threads).
  RequestStream Fork(uint32_t child, Workload* workload) const {
    Options options = options_;
    options.seed = ForkSeed(options_.seed, child);
    options.version_base =
        options_.version_base + (uint64_t{child} + 1) * (uint64_t{1} << 40);
    return RequestStream(workload, options);
  }

  /// Deterministic payload token for (lpn, version); the i-th write the
  /// stream emits carries version `version_base + i`. Fills and tests use
  /// the same token through FtlExperiment::Token.
  static uint64_t PayloadToken(Lpn lpn, uint64_t version) {
    uint64_t x = (uint64_t{lpn} << 32) ^ (version * 0x9E3779B97F4A7C15ull);
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 33;
    return x;
  }

  /// Emits the next request: a pending kTrim batch if discards have
  /// accumulated, else (with probability `read_fraction`) a kRead batch,
  /// otherwise a kWrite batch of `batch_size` extents.
  IoRequest Next() {
    if (!pending_trims_.empty()) {
      IoRequest trim = IoRequest::Trim(pending_trims_);
      ops_emitted_ += pending_trims_.size();
      pending_trims_.clear();
      return trim;
    }
    if (options_.read_fraction > 0.0 &&
        rng_.Bernoulli(options_.read_fraction)) {
      IoRequest read(IoOp::kRead);
      while (read.extents.size() < options_.batch_size) {
        read.Add(workload_->NextLpn());
      }
      ops_emitted_ += read.extents.size();
      return read;
    }
    IoRequest write(IoOp::kWrite);
    while (write.extents.size() < options_.batch_size) {
      Lpn lpn = workload_->NextLpn();
      if (options_.trim_fraction > 0.0 &&
          rng_.Bernoulli(options_.trim_fraction)) {
        pending_trims_.push_back(lpn);
        if (pending_trims_.size() >= options_.batch_size) break;
        continue;
      }
      write.Add(lpn, PayloadToken(lpn, ++version_));
    }
    if (write.extents.empty()) return Next();  // all draws became trims
    ops_emitted_ += write.extents.size();
    return write;
  }

  uint64_t ops_emitted() const { return ops_emitted_; }
  const Options& options() const { return options_; }

  /// The generator this stream draws from (owned or external).
  Workload* workload() const { return workload_; }

 private:
  /// Child index reserved for deriving an owned workload's seed from the
  /// stream seed. Far above any realistic submitter-thread count, so a
  /// workload seed can never collide with a forked child's stream seed.
  static constexpr uint32_t kWorkloadSeedChild = 0x40000000u;

  static void CheckOptions(const Options& options) {
    GECKO_CHECK_GT(options.batch_size, 0u);
    GECKO_CHECK_GE(options.trim_fraction, 0.0);
    GECKO_CHECK_LE(options.trim_fraction, 1.0);
    GECKO_CHECK_GE(options.read_fraction, 0.0);
    GECKO_CHECK_LE(options.read_fraction, 1.0);
  }

  std::unique_ptr<Workload> owned_;  // null in external-Workload* mode
  Workload* workload_;
  Options options_;
  Rng rng_;
  std::vector<Lpn> pending_trims_;
  uint64_t version_ = 0;
  uint64_t ops_emitted_ = 0;
};

}  // namespace gecko

#endif  // GECKOFTL_WORKLOAD_REQUEST_STREAM_H_
