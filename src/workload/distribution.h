// Request distributions for workload generation. The paper's mixed
// workloads use YCSB's Uniform distribution only (Section IV.C); Zipfian
// and Latest are provided as extensions so skewed-access behaviour (hot
// ARTs, lock contention on popular prefixes) can be studied too.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace hart::workload {

enum class DistKind { kUniform, kZipfian, kLatest };

inline const char* dist_name(DistKind d) {
  switch (d) {
    case DistKind::kUniform: return "Uniform";
    case DistKind::kZipfian: return "Zipfian";
    default: return "Latest";
  }
}

/// Zipfian generator over [0, n) using the Gray/Jim-Gray rejection method
/// (the same algorithm YCSB uses), theta = 0.99 by default. Supports a
/// changing item count: next_below(n) re-derives constants lazily when n
/// changes, at a cost proportional to the change (cheap for churn mixes
/// whose live count moves by one per insert or delete).
class ZipfianGen {
 public:
  explicit ZipfianGen(double theta = 0.99) : theta_(theta) {}

  uint64_t next_below(uint64_t n, common::Rng& rng) {
    if (n == 0) return 0;
    if (n != n_) recompute(n);
    const double u = rng.next_double();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    return static_cast<uint64_t>(
        static_cast<double>(n) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  }

  /// zeta(n, theta) for the last n drawn below (0 before the first draw).
  [[nodiscard]] double zeta() const { return zetan_; }

 private:
  void recompute(uint64_t n) {
    // Incremental zeta, O(|n - n_|) either way: add the new terms on a
    // grow, subtract the dropped ones on a shrink. The dropped terms are
    // summed first so the subtraction loses no more precision than the
    // additions did.
    double delta = 0;
    for (uint64_t i = std::min(n, n_); i < std::max(n, n_); ++i)
      delta += 1.0 / std::pow(static_cast<double>(i + 1), theta_);
    zetan_ += n > n_ ? delta : -delta;
    n_ = n;
    alpha_ = 1.0 / (1.0 - theta_);
    const double zeta2 = 1.0 + std::pow(0.5, theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta_)) /
           (1.0 - zeta2 / zetan_);
  }

  double theta_;
  uint64_t n_ = 0;
  double zetan_ = 0;
  double alpha_ = 0;
  double eta_ = 0;
};

/// Pick an index in [0, n) under the given distribution. For kLatest, the
/// *highest* indices (most recently inserted) are the hottest — implemented
/// as n-1 minus a Zipfian draw, as in YCSB.
class RequestDist {
 public:
  explicit RequestDist(DistKind kind, double theta = 0.99)
      : kind_(kind), zipf_(theta) {}

  uint64_t next_below(uint64_t n, common::Rng& rng) {
    if (n <= 1) return 0;
    switch (kind_) {
      case DistKind::kUniform: return rng.next_below(n);
      case DistKind::kZipfian: {
        const uint64_t v = zipf_.next_below(n, rng);
        return v < n ? v : n - 1;
      }
      default: {
        const uint64_t v = zipf_.next_below(n, rng);
        return n - 1 - (v < n ? v : n - 1);
      }
    }
  }

  [[nodiscard]] DistKind kind() const { return kind_; }

 private:
  DistKind kind_;
  ZipfianGen zipf_;
};

}  // namespace hart::workload
