#include "geom/pruning_region.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"

namespace gpssn {

double Dot(std::span<const double> a, std::span<const double> b) {
  GPSSN_CHECK(a.size() == b.size());
  const size_t n = a.size();
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  size_t f = 0;
  for (; f + 4 <= n; f += 4) {
    l0 += a[f] * b[f];
    l1 += a[f + 1] * b[f + 1];
    l2 += a[f + 2] * b[f + 2];
    l3 += a[f + 3] * b[f + 3];
  }
  // Tail terms keep their lanes, which equals zero padding.
  if (f < n) l0 += a[f] * b[f];
  if (f + 1 < n) l1 += a[f + 1] * b[f + 1];
  if (f + 2 < n) l2 += a[f + 2] * b[f + 2];
  return (l0 + l1) + (l2 + l3);
}

namespace {

double SquaredDistance(std::span<const double> a, std::span<const double> b) {
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

// Squared min/max distance from the box [lb, ub] to point p.
double BoxMinSq(std::span<const double> lb, std::span<const double> ub,
                std::span<const double> p) {
  double s = 0.0;
  for (size_t i = 0; i < p.size(); ++i) {
    double d = 0.0;
    if (p[i] < lb[i]) d = lb[i] - p[i];
    else if (p[i] > ub[i]) d = p[i] - ub[i];
    s += d * d;
  }
  return s;
}

double BoxMaxSq(std::span<const double> lb, std::span<const double> ub,
                std::span<const double> p) {
  double s = 0.0;
  for (size_t i = 0; i < p.size(); ++i) {
    const double d = std::max(std::abs(p[i] - lb[i]), std::abs(p[i] - ub[i]));
    s += d * d;
  }
  return s;
}

}  // namespace

PruningRegion::PruningRegion(std::span<const double> anchor, double gamma)
    : b_(anchor.begin(), anchor.end()), gamma_(gamma) {
  norm2_ = Dot(anchor, anchor);
  case1_ = norm2_ >= gamma_;
  b_prime_.resize(b_.size());
  if (norm2_ > 0.0) {
    // B' = B * (2γ − ||w||²) / ||w||², the reflection of B across the
    // pruning hyperplane (dist(A,B) == dist(A,B')).
    const double scale = (2.0 * gamma_ - norm2_) / norm2_;
    for (size_t i = 0; i < b_.size(); ++i) b_prime_[i] = b_[i] * scale;
  }
}

bool PruningRegion::PrunesVector(std::span<const double> x) const {
  return Dot(x, b_) < gamma_;
}

bool PruningRegion::PrunesVectorMirror(std::span<const double> x) const {
  if (norm2_ == 0.0) {
    // Degenerate anchor: the score is identically 0.
    return gamma_ > 0.0;
  }
  const double to_bprime = SquaredDistance(x, b_prime_);
  const double to_b = SquaredDistance(x, b_);
  return case1_ ? (to_bprime < to_b) : (to_bprime > to_b);
}

bool PruningRegion::PrunesBox(std::span<const double> lb,
                              std::span<const double> ub) const {
  GPSSN_CHECK(lb.size() == b_.size() && ub.size() == b_.size());
  // Anchor entries are non-negative, so the box corner with the largest dot
  // product is ub.
  return Dot(ub, b_) < gamma_;
}

bool PruningRegion::PrunesBoxMirror(std::span<const double> lb,
                                    std::span<const double> ub) const {
  GPSSN_CHECK(lb.size() == b_.size() && ub.size() == b_.size());
  if (norm2_ == 0.0) return gamma_ > 0.0;
  if (case1_) {
    return BoxMaxSq(lb, ub, b_prime_) < BoxMinSq(lb, ub, b_);
  }
  return BoxMinSq(lb, ub, b_prime_) > BoxMaxSq(lb, ub, b_);
}

}  // namespace gpssn
