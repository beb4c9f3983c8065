// Copyright 2026 The gpssn Authors.
//
// Pivot selection (Algorithm 1 of the paper): a random-restart swap local
// search that gradually improves the pivot set under a cost model. The cost
// model scores a pivot set by the expected TIGHTNESS of the triangle-
// inequality lower bound over a sample of object pairs:
//
//   Cost(P) = Σ_pairs  lb_P(a, b) / dist(a, b)        (∈ [0, 1] per pair)
//
// — exactly the "tighter distance lower bound" objective Section 3.2 states.
// Candidates are drawn from a random pool whose distances to the sample
// endpoints are precomputed, so each swap evaluation is O(|pool| · pairs).
// On the road side each candidate's Dijkstra stops once every endpoint has
// settled, and each pair's once its far end has; on the social side two
// bit-parallel BFS sweeps (MultiSourceHops) cover every candidate and every
// pair. Both return the labels one full search per source would, so the
// pivots do not depend on how the distances were gathered.

#ifndef GPSSN_INDEX_PIVOT_SELECT_H_
#define GPSSN_INDEX_PIVOT_SELECT_H_

#include <cstdint>
#include <vector>

#include "roadnet/road_graph.h"
#include "socialnet/social_graph.h"

namespace gpssn {

/// Algorithm 1's sizes are fixed (pivot_select.cc): a pool of 48 candidates
/// (widened to the pivots asked for, capped at the graph), 64 sampled pairs,
/// and 3 restarts of 96 swap attempts each. Only the seed is the caller's.
struct PivotSelectOptions {
  uint64_t seed = 1;
};

/// Selects h road-network pivot vertices via Algorithm 1 (maximizing
/// Cost_RN). Falls back to random pivots when h >= pool size.
std::vector<VertexId> SelectRoadPivots(const RoadNetwork& graph, int h,
                                       const PivotSelectOptions& options);

/// Selects l social-network pivot users via Algorithm 1 (maximizing
/// Cost_SN over hop distances).
std::vector<UserId> SelectSocialPivots(const SocialNetwork& graph, int l,
                                       const PivotSelectOptions& options);

/// Measures the average lower-bound tightness of a ROAD pivot set over
/// `sample_pairs` random vertex pairs (1.0 = bound always exact). Used by
/// the pivot-selection ablation benchmark and tests.
double MeasureRoadPivotTightness(const RoadNetwork& graph,
                                 const std::vector<VertexId>& pivots,
                                 int sample_pairs, uint64_t seed);

/// As above for SOCIAL pivots over hop distances.
double MeasureSocialPivotTightness(const SocialNetwork& graph,
                                   const std::vector<UserId>& pivots,
                                   int sample_pairs, uint64_t seed);

}  // namespace gpssn

#endif  // GPSSN_INDEX_PIVOT_SELECT_H_
