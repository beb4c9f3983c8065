#include "index/pivot_select.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/macros.h"
#include "common/rng.h"
#include "roadnet/shortest_path.h"
#include "socialnet/bfs.h"

namespace gpssn {

namespace {

// Algorithm 1's sizes: the random candidate pool pivots are drawn from, the
// sampled object pairs the cost model scores, the outer restarts
// (global_iter) and the swap attempts per restart (swap_iter).
constexpr int kCandidatePool = 48;
constexpr int kSamplePairs = 64;
constexpr int kGlobalIter = 3;
constexpr int kSwapIter = 96;

// Generic Algorithm 1 over a precomputed candidate/sample geometry:
//   cand_dist[c][e]: distance from candidate c to sample endpoint e
//   pair_dist[s]:    true distance of sample pair s = (2s, 2s+1)
// Distances may be infinity (unreachable); such terms are skipped.
struct SelectionProblem {
  std::vector<std::vector<double>> cand_dist;
  std::vector<double> pair_dist;
};

double CostOf(const SelectionProblem& problem, const std::vector<int>& pivots) {
  double total = 0.0;
  const size_t pairs = problem.pair_dist.size();
  for (size_t s = 0; s < pairs; ++s) {
    const double true_dist = problem.pair_dist[s];
    if (!std::isfinite(true_dist) || true_dist <= 0.0) continue;
    double lb = 0.0;
    for (int c : pivots) {
      const double da = problem.cand_dist[c][2 * s];
      const double db = problem.cand_dist[c][2 * s + 1];
      if (!std::isfinite(da) || !std::isfinite(db)) continue;
      lb = std::max(lb, std::abs(da - db));
    }
    total += std::min(lb / true_dist, 1.0);
  }
  return total;
}

// Algorithm 1: random restarts, each followed by swap local search.
std::vector<int> RunLocalSearch(const SelectionProblem& problem, int k,
                                Rng* rng) {
  const int pool = static_cast<int>(problem.cand_dist.size());
  GPSSN_CHECK(k <= pool);
  double global_cost = -std::numeric_limits<double>::infinity();
  std::vector<int> global_best;
  for (int restart = 0; restart < kGlobalIter; ++restart) {
    // Random initial pivot set P (line 3 of Algorithm 1).
    std::vector<int> in_set;
    std::vector<bool> is_pivot(pool, false);
    for (size_t idx : rng->SampleWithoutReplacement(pool, k)) {
      in_set.push_back(static_cast<int>(idx));
      is_pivot[idx] = true;
    }
    double local_cost = CostOf(problem, in_set);
    // Swap a pivot with a non-pivot; accept improvements (lines 6-13).
    for (int iter = 0; iter < kSwapIter; ++iter) {
      if (k == pool) break;
      const int pos = static_cast<int>(rng->NextBounded(k));
      int replacement;
      do {
        replacement = static_cast<int>(rng->NextBounded(pool));
      } while (is_pivot[replacement]);
      const int old = in_set[pos];
      in_set[pos] = replacement;
      const double new_cost = CostOf(problem, in_set);
      if (new_cost > local_cost) {
        local_cost = new_cost;
        is_pivot[old] = false;
        is_pivot[replacement] = true;
      } else {
        in_set[pos] = old;
      }
    }
    if (local_cost > global_cost) {  // Lines 14-16.
      global_cost = local_cost;
      global_best = in_set;
    }
  }
  return global_best;
}

// The sample every Algorithm 1 run scores against: `pairs` pairs of
// random vertices or users, pair s joining endpoints 2s and 2s + 1.
template <typename Id>
std::vector<Id> SampleEndpoints(int num_ids, int pairs, Rng* rng) {
  GPSSN_CHECK(pairs >= 0);
  std::vector<Id> endpoints(2 * static_cast<size_t>(pairs));
  for (auto& e : endpoints) e = static_cast<Id>(rng->NextBounded(num_ids));
  return endpoints;
}

// Road distances of the sample. A search stops once the vertices it is read
// at have settled; until then it takes the full search's steps, so each
// label keeps its bits. Every search keeps its direction: one from the
// other end sums the weights in another order.
SelectionProblem RoadProblem(const RoadNetwork& graph,
                             const std::vector<VertexId>& candidates,
                             const std::vector<VertexId>& endpoints) {
  SelectionProblem problem;
  DijkstraEngine engine(&graph);
  problem.cand_dist.resize(candidates.size());
  for (size_t c = 0; c < candidates.size(); ++c) {
    engine.RunWithTargets({{candidates[c], 0.0}}, kInfDistance, endpoints);
    for (VertexId e : endpoints) {
      problem.cand_dist[c].push_back(engine.Distance(e));
    }
  }
  for (size_t s = 0; 2 * s < endpoints.size(); ++s) {
    problem.pair_dist.push_back(
        engine.VertexToVertex(endpoints[2 * s], endpoints[2 * s + 1]));
  }
  return problem;
}

// Hop distances of the sample, from two multi-source sweeps: candidates to
// endpoints, and each pair's first endpoint to the second ones.
SelectionProblem SocialProblem(const SocialNetwork& graph,
                               const std::vector<UserId>& candidates,
                               const std::vector<UserId>& endpoints) {
  auto hops_or_inf = [](int hops) {
    return hops == kUnreachableHops ? std::numeric_limits<double>::infinity()
                                    : static_cast<double>(hops);
  };
  SelectionProblem problem;
  for (const auto& row : MultiSourceHops(graph, candidates, endpoints)) {
    auto& dist = problem.cand_dist.emplace_back();
    for (int hops : row) dist.push_back(hops_or_inf(hops));
  }
  std::vector<UserId> firsts, seconds;
  for (size_t e = 0; e < endpoints.size(); e += 2) {
    firsts.push_back(endpoints[e]);
    seconds.push_back(endpoints[e + 1]);
  }
  const auto pair_hops = MultiSourceHops(graph, firsts, seconds);
  for (size_t s = 0; s < firsts.size(); ++s) {
    problem.pair_dist.push_back(hops_or_inf(pair_hops[s][s]));
  }
  return problem;
}

// Average lower-bound tightness of all candidates together over the sample
// pairs with a finite, positive distance.
double Tightness(const SelectionProblem& problem) {
  std::vector<int> all(problem.cand_dist.size());
  std::iota(all.begin(), all.end(), 0);
  const auto counted = std::count_if(
      problem.pair_dist.begin(), problem.pair_dist.end(),
      [](double d) { return std::isfinite(d) && d > 0.0; });
  return counted > 0 ? CostOf(problem, all) / static_cast<double>(counted)
                     : 0.0;
}

}  // namespace

std::vector<VertexId> SelectRoadPivots(const RoadNetwork& graph, int h,
                                       const PivotSelectOptions& options) {
  GPSSN_CHECK(h >= 1 && h <= graph.num_vertices());
  Rng rng(options.seed);
  const int pool = std::min(std::max(kCandidatePool, h), graph.num_vertices());
  std::vector<VertexId> candidates;
  for (size_t idx : rng.SampleWithoutReplacement(graph.num_vertices(), pool)) {
    candidates.push_back(static_cast<VertexId>(idx));
  }
  const auto endpoints =
      SampleEndpoints<VertexId>(graph.num_vertices(), kSamplePairs, &rng);
  const SelectionProblem problem = RoadProblem(graph, candidates, endpoints);
  std::vector<VertexId> out;
  for (int c : RunLocalSearch(problem, h, &rng)) {
    out.push_back(candidates[c]);
  }
  return out;
}

std::vector<UserId> SelectSocialPivots(const SocialNetwork& graph, int l,
                                       const PivotSelectOptions& options) {
  GPSSN_CHECK(l >= 1 && l <= graph.num_users());
  Rng rng(options.seed ^ 0x9e37ULL);
  const int pool = std::min(std::max(kCandidatePool, l), graph.num_users());
  std::vector<UserId> candidates;
  for (size_t idx : rng.SampleWithoutReplacement(graph.num_users(), pool)) {
    candidates.push_back(static_cast<UserId>(idx));
  }
  const auto endpoints =
      SampleEndpoints<UserId>(graph.num_users(), kSamplePairs, &rng);
  const SelectionProblem problem = SocialProblem(graph, candidates, endpoints);
  std::vector<UserId> out;
  for (int c : RunLocalSearch(problem, l, &rng)) {
    out.push_back(candidates[c]);
  }
  return out;
}

double MeasureRoadPivotTightness(const RoadNetwork& graph,
                                 const std::vector<VertexId>& pivots,
                                 int sample_pairs, uint64_t seed) {
  Rng rng(seed);
  const auto endpoints =
      SampleEndpoints<VertexId>(graph.num_vertices(), sample_pairs, &rng);
  return Tightness(RoadProblem(graph, pivots, endpoints));
}

double MeasureSocialPivotTightness(const SocialNetwork& graph,
                                   const std::vector<UserId>& pivots,
                                   int sample_pairs, uint64_t seed) {
  Rng rng(seed);
  const auto endpoints =
      SampleEndpoints<UserId>(graph.num_users(), sample_pairs, &rng);
  return Tightness(SocialProblem(graph, pivots, endpoints));
}

}  // namespace gpssn
