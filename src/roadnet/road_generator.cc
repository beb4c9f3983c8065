#include "roadnet/road_generator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "common/macros.h"
#include "geom/point.h"

namespace gpssn {

namespace {

// How many nearest neighbors of each vertex are candidate edges.
constexpr int kCandidateNeighbors = 6;

// Uniform grid over the data space for nearest-neighbor candidate lookup.
class PointGrid {
 public:
  PointGrid(const std::vector<Point>& points, double space, int cells)
      : points_(points), space_(space), cells_(cells), buckets_(cells * cells) {
    for (size_t i = 0; i < points.size(); ++i) {
      buckets_[CellOf(points[i])].push_back(static_cast<int>(i));
    }
  }

  // k nearest neighbors of point i (excluding i), by expanding grid rings.
  std::vector<int> Knn(int i, int k) const {
    const Point& p = points_[i];
    const int cx = ClampCell(p.x), cy = ClampCell(p.y);
    std::vector<std::pair<double, int>> found;
    for (int ring = 0; ring < cells_; ++ring) {
      const int lo_x = std::max(0, cx - ring), hi_x = std::min(cells_ - 1, cx + ring);
      const int lo_y = std::max(0, cy - ring), hi_y = std::min(cells_ - 1, cy + ring);
      for (int y = lo_y; y <= hi_y; ++y) {
        for (int x = lo_x; x <= hi_x; ++x) {
          // Only the boundary of the ring is new.
          if (ring > 0 && x > lo_x && x < hi_x && y > lo_y && y < hi_y) continue;
          for (int j : buckets_[y * cells_ + x]) {
            if (j == i) continue;
            found.emplace_back(SquaredDistance(p, points_[j]), j);
          }
        }
      }
      // Stop once we have enough candidates and the next ring cannot
      // contain anything closer than the current k-th best.
      if (static_cast<int>(found.size()) >= k) {
        std::nth_element(found.begin(), found.begin() + (k - 1), found.end());
        const double kth = found[k - 1].first;
        const double ring_guard = ring * (space_ / cells_);
        if (kth <= ring_guard * ring_guard) break;
      }
      if (lo_x == 0 && lo_y == 0 && hi_x == cells_ - 1 && hi_y == cells_ - 1) {
        break;  // Whole grid scanned.
      }
    }
    const int take = std::min<int>(k, static_cast<int>(found.size()));
    std::partial_sort(found.begin(), found.begin() + take, found.end());
    std::vector<int> out(take);
    for (int t = 0; t < take; ++t) out[t] = found[t].second;
    return out;
  }

 private:
  int ClampCell(double v) const {
    int c = static_cast<int>(v / space_ * cells_);
    return std::clamp(c, 0, cells_ - 1);
  }
  int CellOf(const Point& p) const {
    return ClampCell(p.y) * cells_ + ClampCell(p.x);
  }

  const std::vector<Point>& points_;
  double space_;
  int cells_;
  std::vector<std::vector<int>> buckets_;
};

class UnionFind {
 public:
  explicit UnionFind(int n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  int Find(int x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  bool Union(int a, int b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return false;
    parent_[a] = b;
    return true;
  }

 private:
  std::vector<int> parent_;
};

}  // namespace

RoadNetwork GenerateRoadNetwork(const RoadGenOptions& options) {
  GPSSN_CHECK(options.num_vertices >= 2);
  GPSSN_CHECK(options.avg_degree > 0.0);
  Rng rng(options.seed);
  const int n = options.num_vertices;

  std::vector<Point> points(n);
  for (Point& p : points) {
    p = Point{rng.UniformDouble(0.0, options.space_size),
              rng.UniformDouble(0.0, options.space_size)};
  }

  const int cells = std::max(1, static_cast<int>(std::sqrt(n / 2.0)));
  PointGrid grid(points, options.space_size, cells);

  // Candidate edges: union of kNN links, sorted by length.
  struct Candidate {
    double len;
    int a, b;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(static_cast<size_t>(n) * kCandidateNeighbors);
  for (int i = 0; i < n; ++i) {
    for (int j : grid.Knn(i, kCandidateNeighbors)) {
      if (i < j) {
        candidates.push_back(
            Candidate{EuclideanDistance(points[i], points[j]), i, j});
      } else {
        candidates.push_back(
            Candidate{EuclideanDistance(points[j], points[i]), j, i});
      }
    }
  }
  std::sort(candidates.begin(), candidates.end(), [](const auto& x, const auto& y) {
    if (x.len != y.len) return x.len < y.len;
    if (x.a != y.a) return x.a < y.a;
    return x.b < y.b;
  });
  candidates.erase(std::unique(candidates.begin(), candidates.end(),
                               [](const auto& x, const auto& y) {
                                 return x.a == y.a && x.b == y.b;
                               }),
                   candidates.end());

  RoadNetworkBuilder builder;
  for (const Point& p : points) builder.AddVertex(p);

  // Pass 1 (Kruskal): spanning forest over the candidate set — short edges
  // first, so the skeleton looks like a road network, not a random graph.
  UnionFind uf(n);
  const int target_edges =
      std::max(n - 1, static_cast<int>(options.avg_degree * n / 2.0));
  int added = 0;
  for (const Candidate& c : candidates) {
    if (uf.Union(c.a, c.b)) {
      GPSSN_CHECK(builder.AddEdge(c.a, c.b).ok());
      ++added;
    }
  }

  // Pass 2: stitch any remaining components (kNN graph of a uniform point
  // set is almost always connected; this is a safety net). Link each
  // component's representative to its nearest vertex in another component.
  {
    std::vector<int> reps;
    for (int i = 0; i < n; ++i) {
      if (uf.Find(i) == i) reps.push_back(i);
    }
    for (size_t r = 1; r < reps.size(); ++r) {
      // Nearest vertex of the first component to this rep.
      int best = -1;
      double best_d = std::numeric_limits<double>::infinity();
      for (int i = 0; i < n; ++i) {
        if (uf.Find(i) == uf.Find(reps[r])) continue;
        const double d = SquaredDistance(points[reps[r]], points[i]);
        if (d < best_d) {
          best_d = d;
          best = i;
        }
      }
      if (best >= 0 && uf.Union(reps[r], best)) {
        GPSSN_CHECK(builder.AddEdge(reps[r], best).ok());
        ++added;
      }
    }
  }

  // Pass 3: densify with the shortest unused candidates until the target
  // edge count (≈ avg_degree · n / 2) is reached.
  for (const Candidate& c : candidates) {
    if (added >= target_edges) break;
    if (builder.HasEdge(c.a, c.b)) continue;
    GPSSN_CHECK(builder.AddEdge(c.a, c.b).ok());
    ++added;
  }

  return builder.Build();
}

}  // namespace gpssn
