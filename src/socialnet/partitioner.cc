#include "socialnet/partitioner.h"

#include <numeric>
#include <unordered_map>

#include "common/macros.h"
#include "common/rng.h"

namespace gpssn {

namespace {

// Boundary-refinement passes per uncoarsening level.
constexpr int kRefinementPasses = 3;
// Coarsening stops once the graph has at most this many times the number
// of cells.
constexpr int kCoarsenStopFactor = 4;

// Weighted working graph used across coarsening levels.
struct LevelGraph {
  // CSR adjacency with edge weights.
  std::vector<int> offsets;
  std::vector<int> neighbors;
  std::vector<int64_t> edge_weights;
  std::vector<int64_t> vertex_weights;
  // Mapping of this level's vertices down to the next-finer level is kept
  // by the caller (coarse id per fine vertex).

  int num_vertices() const {
    return static_cast<int>(vertex_weights.size());
  }
};

LevelGraph FromSocialNetwork(const SocialNetwork& g) {
  LevelGraph lg;
  const int m = g.num_users();
  lg.vertex_weights.assign(m, 1);
  lg.offsets.assign(m + 1, 0);
  for (UserId u = 0; u < m; ++u) {
    lg.offsets[u + 1] = lg.offsets[u] + g.Degree(u);
  }
  lg.neighbors.resize(lg.offsets[m]);
  lg.edge_weights.assign(lg.offsets[m], 1);
  for (UserId u = 0; u < m; ++u) {
    int pos = lg.offsets[u];
    for (UserId v : g.Friends(u)) lg.neighbors[pos++] = v;
  }
  return lg;
}

// Heavy-edge matching: visit vertices in random order; match each unmatched
// vertex with its unmatched neighbor of maximum edge weight.
std::vector<int> HeavyEdgeMatching(const LevelGraph& g, Rng* rng,
                                   int* num_coarse) {
  const int n = g.num_vertices();
  std::vector<int> match(n, -1);
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng->Shuffle(&order);
  for (int u : order) {
    if (match[u] >= 0) continue;
    int best = -1;
    int64_t best_w = -1;
    for (int i = g.offsets[u]; i < g.offsets[u + 1]; ++i) {
      const int v = g.neighbors[i];
      if (v == u || match[v] >= 0) continue;
      if (g.edge_weights[i] > best_w) {
        best_w = g.edge_weights[i];
        best = v;
      }
    }
    if (best >= 0) {
      match[u] = best;
      match[best] = u;
    } else {
      match[u] = u;  // Stays single.
    }
  }
  // Assign coarse ids: one per matched pair / singleton.
  std::vector<int> coarse(n, -1);
  int next = 0;
  for (int u = 0; u < n; ++u) {
    if (coarse[u] >= 0) continue;
    coarse[u] = next;
    if (match[u] != u) coarse[match[u]] = next;
    ++next;
  }
  *num_coarse = next;
  return coarse;
}

// Contracts `g` along `coarse` (fine id -> coarse id).
LevelGraph Contract(const LevelGraph& g, const std::vector<int>& coarse,
                    int num_coarse) {
  LevelGraph cg;
  cg.vertex_weights.assign(num_coarse, 0);
  const int n = g.num_vertices();
  for (int u = 0; u < n; ++u) cg.vertex_weights[coarse[u]] += g.vertex_weights[u];

  // Accumulate coarse adjacency via per-coarse-vertex hash maps.
  std::vector<std::unordered_map<int, int64_t>> acc(num_coarse);
  for (int u = 0; u < n; ++u) {
    const int cu = coarse[u];
    for (int i = g.offsets[u]; i < g.offsets[u + 1]; ++i) {
      const int cv = coarse[g.neighbors[i]];
      if (cu == cv) continue;  // Internal edge disappears.
      acc[cu][cv] += g.edge_weights[i];
    }
  }
  cg.offsets.assign(num_coarse + 1, 0);
  for (int c = 0; c < num_coarse; ++c) {
    cg.offsets[c + 1] = cg.offsets[c] + static_cast<int>(acc[c].size());
  }
  cg.neighbors.resize(cg.offsets[num_coarse]);
  cg.edge_weights.resize(cg.offsets[num_coarse]);
  for (int c = 0; c < num_coarse; ++c) {
    int pos = cg.offsets[c];
    for (const auto& [v, w] : acc[c]) {
      cg.neighbors[pos] = v;
      cg.edge_weights[pos] = w;
      ++pos;
    }
  }
  return cg;
}

// Greedy region growing into k cells balanced by vertex weight.
std::vector<int> InitialPartition(const LevelGraph& g, int k, Rng* rng) {
  const int n = g.num_vertices();
  const int64_t total =
      std::accumulate(g.vertex_weights.begin(), g.vertex_weights.end(),
                      static_cast<int64_t>(0));
  const int64_t target = (total + k - 1) / k;
  std::vector<int> cell(n, -1);
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng->Shuffle(&order);

  int current = 0;
  int64_t current_weight = 0;
  std::vector<int> frontier;
  size_t seed_cursor = 0;
  auto next_seed = [&]() -> int {
    while (seed_cursor < order.size() && cell[order[seed_cursor]] >= 0) {
      ++seed_cursor;
    }
    return seed_cursor < order.size() ? order[seed_cursor] : -1;
  };
  int assigned = 0;
  while (assigned < n) {
    if (frontier.empty()) {
      const int seed = next_seed();
      if (seed < 0) break;
      cell[seed] = current;
      current_weight += g.vertex_weights[seed];
      ++assigned;
      frontier.push_back(seed);
    }
    // BFS growth.
    for (size_t head = 0; head < frontier.size() && current_weight < target;
         ++head) {
      const int u = frontier[head];
      for (int i = g.offsets[u]; i < g.offsets[u + 1]; ++i) {
        const int v = g.neighbors[i];
        if (cell[v] >= 0) continue;
        cell[v] = current;
        current_weight += g.vertex_weights[v];
        ++assigned;
        frontier.push_back(v);
        if (current_weight >= target) break;
      }
    }
    if (current_weight >= target || frontier.empty() ||
        assigned == n) {
      // Close this cell and open the next (unless everything is placed).
      if (assigned < n && current < k - 1) {
        ++current;
        current_weight = 0;
      }
      frontier.clear();
    } else {
      // Frontier exhausted by inner loop but weight not reached: grow from a
      // fresh seed into the SAME cell (disconnected remainder).
      frontier.clear();
    }
  }
  // Safety: anything left (shouldn't happen) goes to the last cell.
  for (int u = 0; u < n; ++u) {
    if (cell[u] < 0) cell[u] = k - 1;
  }
  return cell;
}

// One boundary-refinement sweep: move vertices to the adjacent cell with the
// highest cut-gain, respecting the balance ceiling. Returns #moves.
int RefinePass(const LevelGraph& g, int64_t max_cell_weight,
               std::vector<int>* cell, std::vector<int64_t>* cell_weight) {
  const int n = g.num_vertices();
  int moves = 0;
  std::unordered_map<int, int64_t> link;  // cell -> edge weight to it.
  for (int u = 0; u < n; ++u) {
    const int cu = (*cell)[u];
    link.clear();
    for (int i = g.offsets[u]; i < g.offsets[u + 1]; ++i) {
      link[(*cell)[g.neighbors[i]]] += g.edge_weights[i];
    }
    const int64_t internal = link.count(cu) ? link[cu] : 0;
    int best_cell = cu;
    int64_t best_gain = 0;
    for (const auto& [c, w] : link) {
      if (c == cu) continue;
      const int64_t gain = w - internal;
      if (gain > best_gain &&
          (*cell_weight)[c] + g.vertex_weights[u] <= max_cell_weight) {
        best_gain = gain;
        best_cell = c;
      }
    }
    if (best_cell != cu) {
      (*cell)[u] = best_cell;
      (*cell_weight)[cu] -= g.vertex_weights[u];
      (*cell_weight)[best_cell] += g.vertex_weights[u];
      ++moves;
    }
  }
  return moves;
}

}  // namespace

PartitionResult PartitionSocialNetwork(const SocialNetwork& graph,
                                       int target_cell_size, uint64_t seed) {
  GPSSN_CHECK(target_cell_size >= 1);
  const int m = graph.num_users();
  PartitionResult result;
  if (m == 0) return result;
  // ceil(m / target) for m >= 1, without overflowing at a huge target.
  const int k = (m - 1) / target_cell_size + 1;
  result.num_cells = k;
  if (k == 1) {
    result.cell.assign(m, 0);
    result.cut_edges = 0;
    return result;
  }

  Rng rng(seed);

  // --- Coarsening phase.
  std::vector<LevelGraph> levels;
  std::vector<std::vector<int>> projections;  // fine -> coarse per level.
  levels.push_back(FromSocialNetwork(graph));
  while (levels.back().num_vertices() > kCoarsenStopFactor * k) {
    int num_coarse = 0;
    std::vector<int> coarse = HeavyEdgeMatching(levels.back(), &rng, &num_coarse);
    if (num_coarse >= levels.back().num_vertices() * 9 / 10) break;  // Stalled.
    levels.push_back(Contract(levels.back(), coarse, num_coarse));
    projections.push_back(std::move(coarse));
  }

  // --- Initial partition on the coarsest level.
  std::vector<int> cell = InitialPartition(levels.back(), k, &rng);

  // --- Uncoarsening with refinement.
  const int64_t total_weight = m;
  const int64_t max_cell_weight = static_cast<int64_t>(
      (1.0 + kPartitionBalanceSlack) * total_weight / k) + 1;
  for (int level = static_cast<int>(levels.size()) - 1; level >= 0; --level) {
    const LevelGraph& g = levels[level];
    std::vector<int64_t> cell_weight(k, 0);
    for (int u = 0; u < g.num_vertices(); ++u) {
      cell_weight[cell[u]] += g.vertex_weights[u];
    }
    for (int pass = 0; pass < kRefinementPasses; ++pass) {
      if (RefinePass(g, max_cell_weight, &cell, &cell_weight) == 0) break;
    }
    if (level > 0) {
      // Project to the finer level.
      const std::vector<int>& proj = projections[level - 1];
      std::vector<int> fine_cell(proj.size());
      for (size_t u = 0; u < proj.size(); ++u) fine_cell[u] = cell[proj[u]];
      cell = std::move(fine_cell);
    }
  }

  result.cell = std::move(cell);
  result.cut_edges = ComputeEdgeCut(graph, result.cell);
  return result;
}

int64_t ComputeEdgeCut(const SocialNetwork& graph,
                       const std::vector<int>& cell) {
  int64_t cut = 0;
  for (UserId u = 0; u < graph.num_users(); ++u) {
    for (UserId v : graph.Friends(u)) {
      if (u < v && cell[u] != cell[v]) ++cut;
    }
  }
  return cut;
}

}  // namespace gpssn
