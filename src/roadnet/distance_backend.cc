#include "roadnet/distance_backend.h"

#include <algorithm>
#include <cstdint>

#include "common/macros.h"

namespace gpssn {

namespace {

// ---------------------------------------------------------------- Dijkstra

/// Reference engine: bounded Dijkstra + PoiLocator. SourceToTargets is one
/// bounded run from the source followed by per-target label reads — the
/// exact operation sequence the seed query path performed inline, so the
/// default backend is bit-exact with it.
class DijkstraDistanceEngine final : public DistanceEngine {
 public:
  DijkstraDistanceEngine(const RoadNetwork* graph,
                         const std::vector<Poi>* pois)
      : graph_(graph), engine_(graph), locator_(graph, pois) {}

  std::vector<std::pair<PoiId, double>> BallWithDistances(
      const EdgePosition& center, double radius) override {
    return locator_.BallWithDistances(center, radius, &engine_);
  }

  void SetTargets(std::span<const EdgePosition> targets) override {
    targets_.assign(targets.begin(), targets.end());
  }

  void SourceToTargets(const EdgePosition& source, double bound,
                       double* out) override {
    engine_.RunFromPosition(source, bound);
    for (size_t i = 0; i < targets_.size(); ++i) {
      double d = engine_.DistanceToPosition(targets_[i]);
      d = std::min(d, SameEdgeDistance(*graph_, source, targets_[i]));
      out[i] = d <= bound ? d : kInfDistance;
    }
  }

 private:
  const RoadNetwork* graph_;
  DijkstraEngine engine_;
  PoiLocator locator_;
  std::vector<EdgePosition> targets_;
};

class DijkstraBackend final : public DistanceBackend {
 public:
  DijkstraBackend(const RoadNetwork* graph, const std::vector<Poi>* pois)
      : graph_(graph), pois_(pois) {
    GPSSN_CHECK(graph != nullptr && pois != nullptr);
  }

  std::unique_ptr<DistanceEngine> CreateEngine() const override {
    return std::make_unique<DijkstraDistanceEngine>(graph_, pois_);
  }

 private:
  const RoadNetwork* graph_;
  const std::vector<Poi>* pois_;
};

// -------------------------------------------------------------- CH buckets

/// CH bucket many-to-many engine. SetTargets runs one upward Dijkstra per
/// target (seeding both endpoints of its edge) and records (target, dist)
/// pairs in a bucket at every settled vertex. SourceToTargets then runs a
/// single upward search from the source and, at each settled vertex v,
/// combines its label with v's bucket entries: because the hierarchy
/// preserves shortest paths, min over meeting vertices of
/// d_up(source, v) + d_up(target, v) is the exact road distance (one
/// forward frontier amortizes over ALL targets instead of paying one
/// bidirectional query each).
class ChDistanceEngine final : public DistanceEngine {
 public:
  ChDistanceEngine(const ContractionHierarchy* ch,
                   const std::vector<Poi>* pois)
      : ch_(ch),
        graph_(&ch->graph()),
        dijkstra_(graph_),
        locator_(graph_, pois) {
    const int n = graph_->num_vertices();
    dist_.resize(n, kInfDistance);
    stamp_.resize(n, 0);
    buckets_.resize(n);
  }

  std::vector<std::pair<PoiId, double>> BallWithDistances(
      const EdgePosition& center, double radius) override {
    return locator_.BallWithDistances(center, radius, &dijkstra_);
  }

  void SetTargets(std::span<const EdgePosition> targets) override {
    // Clear the previous target set's buckets.
    for (VertexId v : bucketed_) buckets_[v].clear();
    bucketed_.clear();
    targets_.assign(targets.begin(), targets.end());
    for (size_t j = 0; j < targets_.size(); ++j) {
      const EdgePosition& t = targets_[j];
      const VertexId u = graph_->edge_u(t.edge);
      const VertexId v = graph_->edge_v(t.edge);
      UpwardSearch({{u, graph_->OffsetTo(t, u)}, {v, graph_->OffsetTo(t, v)}},
                   kInfDistance, [&](VertexId w, double d) {
                     if (buckets_[w].empty()) bucketed_.push_back(w);
                     buckets_[w].emplace_back(static_cast<int32_t>(j), d);
                   });
    }
  }

  void SourceToTargets(const EdgePosition& source, double bound,
                       double* out) override {
    // Same-edge shortcut: a path between positions on one edge need not
    // pass either endpoint.
    for (size_t j = 0; j < targets_.size(); ++j) {
      out[j] = SameEdgeDistance(*graph_, source, targets_[j]);
    }
    const VertexId u = graph_->edge_u(source.edge);
    const VertexId v = graph_->edge_v(source.edge);
    // Forward labels above `bound` cannot open a candidate <= bound
    // (bucket distances are nonnegative), so the search prunes at it.
    UpwardSearch(
        {{u, graph_->OffsetTo(source, u)}, {v, graph_->OffsetTo(source, v)}},
        bound, [&](VertexId w, double d) {
          for (const auto& [j, td] : buckets_[w]) {
            const double cand = d + td;
            if (cand < out[j]) out[j] = cand;
          }
        });
    for (size_t j = 0; j < targets_.size(); ++j) {
      if (out[j] > bound) out[j] = kInfDistance;
    }
  }

 private:
  /// Dijkstra over the upward graph from `seeds`, invoking `on_settled`
  /// with every vertex's final upward label. Labels above `bound` are
  /// neither settled nor relaxed.
  template <typename Fn>
  void UpwardSearch(std::initializer_list<std::pair<VertexId, double>> seeds,
                    double bound, Fn&& on_settled) {
    ++generation_;
    if (generation_ == 0) {  // Stamp wrap-around: hard reset.
      std::fill(stamp_.begin(), stamp_.end(), 0);
      generation_ = 1;
    }
    heap_.clear();
    auto greater = [](const std::pair<double, VertexId>& a,
                      const std::pair<double, VertexId>& b) {
      return a.first > b.first;
    };
    auto relax = [&](VertexId w, double d) {
      if (d > bound) return;
      if (stamp_[w] == generation_ && dist_[w] <= d) return;
      dist_[w] = d;
      stamp_[w] = generation_;
      heap_.emplace_back(d, w);
      std::push_heap(heap_.begin(), heap_.end(), greater);
    };
    for (const auto& [w, d] : seeds) relax(w, d);
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), greater);
      const auto [d, w] = heap_.back();
      heap_.pop_back();
      if (stamp_[w] != generation_ || d > dist_[w]) continue;  // Stale.
      on_settled(w, d);
      for (const auto& arc : ch_->up(w)) relax(arc.to, d + arc.weight);
    }
  }

  const ContractionHierarchy* ch_;
  const RoadNetwork* graph_;
  DijkstraEngine dijkstra_;  // Radius-bounded ball queries.
  PoiLocator locator_;

  // Upward-search arena (shared by target and source searches).
  std::vector<double> dist_;
  std::vector<uint32_t> stamp_;
  uint32_t generation_ = 0;
  std::vector<std::pair<double, VertexId>> heap_;

  // Target buckets: per-vertex (target index, backward upward distance).
  std::vector<EdgePosition> targets_;
  std::vector<std::vector<std::pair<int32_t, double>>> buckets_;
  std::vector<VertexId> bucketed_;  // Vertices with non-empty buckets.
};

class ChBackend final : public DistanceBackend {
 public:
  ChBackend(const RoadNetwork* graph, const std::vector<Poi>* pois,
            const ChOptions& options)
      : pois_(pois), ch_(options) {
    GPSSN_CHECK(graph != nullptr && pois != nullptr);
    ch_.Build(graph);
  }

  // Engines point into ch_.
  GPSSN_DISALLOW_COPY_AND_MOVE(ChBackend);

  std::unique_ptr<DistanceEngine> CreateEngine() const override {
    return std::make_unique<ChDistanceEngine>(&ch_, pois_);
  }

 private:
  const std::vector<Poi>* pois_;
  ContractionHierarchy ch_;
};

}  // namespace

std::unique_ptr<DistanceBackend> MakeDijkstraBackend(
    const RoadNetwork* graph, const std::vector<Poi>* pois) {
  return std::make_unique<DijkstraBackend>(graph, pois);
}

std::unique_ptr<DistanceBackend> MakeChBackend(const RoadNetwork* graph,
                                               const std::vector<Poi>* pois,
                                               const ChOptions& options) {
  return std::make_unique<ChBackend>(graph, pois, options);
}

}  // namespace gpssn
