// Workload generators for the experiments.
//
// The paper's evaluation uses uniformly random page updates (an
// adversarial pattern for Logarithmic Gecko's buffer, Section 5.1); the
// other distributions support the extension experiments and examples.

#ifndef GECKOFTL_WORKLOAD_WORKLOAD_H_
#define GECKOFTL_WORKLOAD_WORKLOAD_H_

#include <cstdint>
#include <memory>

#include "flash/types.h"
#include "util/random.h"

namespace gecko {

/// A stream of logical page addresses to update.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual Lpn NextLpn() = 0;
  virtual const char* Name() const = 0;
};

/// Uniformly random updates over [0, num_lpns).
class UniformWorkload : public Workload {
 public:
  UniformWorkload(uint64_t num_lpns, uint64_t seed)
      : num_lpns_(num_lpns), rng_(seed) {}
  Lpn NextLpn() override { return static_cast<Lpn>(rng_.Uniform(num_lpns_)); }
  const char* Name() const override { return "uniform"; }

 private:
  uint64_t num_lpns_;
  Rng rng_;
};

/// Round-robin sequential updates.
class SequentialWorkload : public Workload {
 public:
  explicit SequentialWorkload(uint64_t num_lpns) : num_lpns_(num_lpns) {}
  Lpn NextLpn() override {
    Lpn out = static_cast<Lpn>(next_);
    next_ = (next_ + 1) % num_lpns_;
    return out;
  }
  const char* Name() const override { return "sequential"; }

 private:
  uint64_t num_lpns_;
  uint64_t next_ = 0;
};

/// Zipf-skewed updates (hot pages updated far more often).
class ZipfWorkload : public Workload {
 public:
  ZipfWorkload(uint64_t num_lpns, double theta, uint64_t seed)
      : zipf_(num_lpns, theta), rng_(seed) {}
  Lpn NextLpn() override { return static_cast<Lpn>(zipf_.Next(rng_)); }
  const char* Name() const override { return "zipf"; }

 private:
  ZipfGenerator zipf_;
  Rng rng_;
};

/// Hot/cold: `hot_fraction` of the address space receives
/// `hot_access_fraction` of the updates (the classic 20/80-style skew).
class HotColdWorkload : public Workload {
 public:
  HotColdWorkload(uint64_t num_lpns, double hot_fraction,
                  double hot_access_fraction, uint64_t seed)
      : num_lpns_(num_lpns),
        hot_lpns_(static_cast<uint64_t>(num_lpns * hot_fraction)),
        hot_access_fraction_(hot_access_fraction),
        rng_(seed) {
    if (hot_lpns_ == 0) hot_lpns_ = 1;
  }
  Lpn NextLpn() override {
    if (rng_.Bernoulli(hot_access_fraction_)) {
      return static_cast<Lpn>(rng_.Uniform(hot_lpns_));
    }
    uint64_t cold = num_lpns_ - hot_lpns_;
    if (cold == 0) return static_cast<Lpn>(rng_.Uniform(num_lpns_));
    return static_cast<Lpn>(hot_lpns_ + rng_.Uniform(cold));
  }
  const char* Name() const override { return "hot-cold"; }

 private:
  uint64_t num_lpns_;
  uint64_t hot_lpns_;
  double hot_access_fraction_;
  Rng rng_;
};

/// Value-type description of a workload, so request streams (and their
/// forks) can build their own private generator instances instead of
/// sharing one Workload* across threads. `num_lpns == 0` means "no spec":
/// the stream falls back to an externally supplied Workload*.
struct WorkloadSpec {
  enum class Kind { kUniform, kZipf, kHotCold };
  Kind kind = Kind::kUniform;
  uint64_t num_lpns = 0;
  /// Zipf skew parameter (kZipf only). ~0.99 matches the classic YCSB
  /// default; >= 1.2 is heavily skewed.
  double zipf_theta = 0.99;
  /// Hot-set knobs (kHotCold only): `hot_fraction` of the address space
  /// receives `hot_access_fraction` of the updates.
  double hot_fraction = 0.1;
  double hot_access_fraction = 0.9;

  static WorkloadSpec Uniform(uint64_t num_lpns) {
    return {Kind::kUniform, num_lpns, 0.99, 0.1, 0.9};
  }
  static WorkloadSpec Zipf(uint64_t num_lpns, double theta) {
    return {Kind::kZipf, num_lpns, theta, 0.1, 0.9};
  }
  static WorkloadSpec HotCold(uint64_t num_lpns, double hot_fraction,
                              double hot_access_fraction) {
    return {Kind::kHotCold, num_lpns, 0.99, hot_fraction,
            hot_access_fraction};
  }
};

/// Instantiates the generator a spec describes.
inline std::unique_ptr<Workload> MakeWorkload(const WorkloadSpec& spec,
                                              uint64_t seed) {
  switch (spec.kind) {
    case WorkloadSpec::Kind::kZipf:
      return std::make_unique<ZipfWorkload>(spec.num_lpns, spec.zipf_theta,
                                            seed);
    case WorkloadSpec::Kind::kHotCold:
      return std::make_unique<HotColdWorkload>(
          spec.num_lpns, spec.hot_fraction, spec.hot_access_fraction, seed);
    case WorkloadSpec::Kind::kUniform:
      break;
  }
  return std::make_unique<UniformWorkload>(spec.num_lpns, seed);
}

}  // namespace gecko

#endif  // GECKOFTL_WORKLOAD_WORKLOAD_H_
