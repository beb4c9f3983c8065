// Copyright 2026 The gpssn Authors.
//
// The user pruning region PR(u) of Section 3.2. Given an anchor user with
// interest vector w and the interest-score threshold γ, a candidate vector x
// can be pruned iff Interest_Score = x·w < γ — geometrically, iff x lies in
// the half-space on the origin side of the hyperplane perpendicular to w at
// the point A with dist(O, A) = γ / ||w||.
//
// The paper operationalizes the test via the point B = w and its mirror
// point B' = w · (2γ − ||w||²) / ||w||² (so that A is the midpoint of BB'):
//   Case 1 (||w||² ≥ γ):  prune x iff dist(x, B') <  dist(x, B)
//   Case 2 (||w||² <  γ):  prune x iff dist(x, B') >  dist(x, B)
// Both are implemented here (and property-tested to coincide with the dot-
// product condition). For index nodes (Lemma 8) the interest-vector MBR
// [lb_w, ub_w] is tested: the exact test uses the box corner maximizing the
// dot product; the paper-literal mirror test compares maxdist/mindist of the
// box against B and B' and is conservative (never prunes a non-prunable box).

#ifndef GPSSN_GEOM_PRUNING_REGION_H_
#define GPSSN_GEOM_PRUNING_REGION_H_

#include <span>
#include <vector>

namespace gpssn {

/// Half-space pruning region for the interest-score threshold test.
class PruningRegion {
 public:
  /// Builds PR(anchor) for threshold `gamma`. `anchor` entries must be
  /// non-negative (interest probabilities). A zero anchor vector yields a
  /// region that prunes everything when gamma > 0.
  PruningRegion(std::span<const double> anchor, double gamma);

  /// Exact condition: x·w < γ (Lemma 3 / Corollary 1).
  bool PrunesVector(std::span<const double> x) const;

  /// Paper-literal mirror-point condition (Case 1 / Case 2). Equivalent to
  /// PrunesVector for every x; exposed for validation and fidelity tests.
  bool PrunesVectorMirror(std::span<const double> x) const;

  /// Exact node test for Lemma 8: true iff EVERY vector in the box
  /// [lb, ub] is pruned, i.e. max over the box of x·w is < γ. Since w >= 0
  /// the maximizing corner is `ub`.
  bool PrunesBox(std::span<const double> lb, std::span<const double> ub) const;

  /// Paper-literal node test: maxdist(box, B') < mindist(box, B) in Case 1
  /// (or with roles swapped in Case 2). Sufficient but not necessary;
  /// PrunesBoxMirror(...) implies PrunesBox(...).
  bool PrunesBoxMirror(std::span<const double> lb,
                       std::span<const double> ub) const;

  double gamma() const { return gamma_; }
  bool is_case1() const { return case1_; }
  const std::vector<double>& b() const { return b_; }
  const std::vector<double>& b_prime() const { return b_prime_; }

 private:
  std::vector<double> b_;        // == anchor vector w.
  std::vector<double> b_prime_;  // Mirror point across the hyperplane.
  double gamma_;
  double norm2_;  // ||w||^2
  bool case1_;    // ||w||^2 >= gamma
};

/// Dot product of two equal-length vectors, summed in the 4-lane order
/// that defines Interest_Score (core/scores.h): term f goes to lane f mod 4,
/// each lane adds its terms in ascending f, and the lanes combine as
/// (l0 + l1) + (l2 + l3). Eq. 1 is this function, so the box test above
/// bounds every member's score exactly: rounding is monotone, and the `ub`
/// corner's terms are each at least the member's.
double Dot(std::span<const double> a, std::span<const double> b);

}  // namespace gpssn

#endif  // GPSSN_GEOM_PRUNING_REGION_H_
