#include "roadnet/distance_backend.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/macros.h"
#include "roadnet/search_heap.h"

namespace gpssn {

namespace {

// ---------------------------------------------------------------- Dijkstra

/// Reference engine: bounded Dijkstra + PoiLocator. SourceToTargets is one
/// bounded run from the source followed by per-target label reads — the
/// exact operation sequence the seed query path performed inline, so the
/// default backend is bit-exact with it. A target reads only its edge's
/// endpoint labels, so the run stops once every endpoint has settled: a
/// settled label is final, so the early exit keeps every bit.
///
/// A grown row is the same search made resumable (incremental network
/// expansion: Papadias et al., VLDB 2003). Each open row keeps its own
/// frontier heap and settled bitset, and a settle writes its label plus
/// the offset into the entry of every target at that vertex. A vertex is
/// pushed once per settled neighbour that reaches it, and the heap skips
/// the stale entries, so no label array is needed: a vertex settles at the
/// least label(u) + w over the neighbours u settled before it, the label
/// the reference search gives it. Every relaxation enters the heap, the
/// bound only stops the pops, so every unsettled vertex's label is at
/// least the least heap key. An entry is therefore final once both its
/// endpoints have settled, or once it is at most that key (an unsettled
/// endpoint cannot lower the min), and it is proven > bound once that key
/// exceeds the bound.
class DijkstraDistanceEngine final : public DistanceEngine {
 public:
  DijkstraDistanceEngine(const RoadNetwork* graph,
                         const std::vector<Poi>* pois)
      : graph_(graph), engine_(graph), locator_(graph, pois) {
    endpoint_of_.resize(graph->num_vertices(), -1);
    first_on_edge_.resize(graph->num_edges(), -1);
  }

  std::vector<std::pair<PoiId, double>> BallWithDistances(
      const EdgePosition& center, double radius) override {
    return locator_.BallWithDistances(center, radius, &engine_);
  }

  void SetTargets(std::span<const EdgePosition> targets) override {
    for (VertexId w : endpoints_) endpoint_of_[w] = -1;
    for (const EdgePosition& t : targets_) first_on_edge_[t.edge] = -1;
    targets_.assign(targets.begin(), targets.end());
    endpoints_.clear();
    for (const EdgePosition& t : targets_) {
      endpoints_.push_back(graph_->edge_u(t.edge));
      endpoints_.push_back(graph_->edge_v(t.edge));
    }
    std::sort(endpoints_.begin(), endpoints_.end());
    endpoints_.erase(std::unique(endpoints_.begin(), endpoints_.end()),
                     endpoints_.end());
    // The targets at each endpoint, as a CSR over the endpoint list: count,
    // sum, then fill.
    at_begin_.assign(endpoints_.size() + 1, 0);
    for (size_t i = 0; i < endpoints_.size(); ++i) {
      endpoint_of_[endpoints_[i]] = static_cast<int32_t>(i);
    }
    ends_.clear();
    next_on_edge_.clear();
    for (size_t j = 0; j < targets_.size(); ++j) {
      const EdgePosition& t = targets_[j];
      const VertexId u = graph_->edge_u(t.edge);
      const VertexId v = graph_->edge_v(t.edge);
      ends_.push_back({u, v});
      ++at_begin_[endpoint_of_[u] + 1];
      ++at_begin_[endpoint_of_[v] + 1];
      next_on_edge_.push_back(first_on_edge_[t.edge]);
      first_on_edge_[t.edge] = static_cast<int32_t>(j);
    }
    for (size_t i = 1; i < at_begin_.size(); ++i) {
      at_begin_[i] += at_begin_[i - 1];
    }
    at_.resize(at_begin_.back());
    at_fill_.assign(at_begin_.begin(), at_begin_.end() - 1);
    for (size_t j = 0; j < targets_.size(); ++j) {
      const EdgePosition& t = targets_[j];
      for (const VertexId w : {ends_[j].u, ends_[j].v}) {
        at_[at_fill_[endpoint_of_[w]]++] = {static_cast<int32_t>(j),
                                            graph_->OffsetTo(t, w)};
      }
    }
    open_rows_ = 0;
  }

  void SourceToTargets(const EdgePosition& source, double bound,
                       double* out) override {
    if (targets_.empty()) return;
    engine_.RunFromPosition(source, bound, endpoints_);
    settled_ += engine_.Settled().size();
    for (size_t i = 0; i < targets_.size(); ++i) {
      double d = engine_.DistanceToPosition(targets_[i]);
      d = std::min(d, SameEdgeDistance(*graph_, source, targets_[i]));
      out[i] = d <= bound ? d : kInfDistance;
    }
  }

  int32_t OpenRow(const EdgePosition& source, double* dists) override {
    if (open_rows_ == rows_.size()) {
      rows_.emplace_back();
      rows_.back().settled.resize(
          (static_cast<size_t>(graph_->num_vertices()) + 63) / 64);
      rows_.back().heap.Reserve(kRowHeapReserve);
    }
    Row& row = rows_[open_rows_];
    row.heap.clear();
    std::fill(row.settled.begin(), row.settled.end(), 0);
    const VertexId u = graph_->edge_u(source.edge);
    const VertexId v = graph_->edge_v(source.edge);
    row.heap.Push(graph_->OffsetTo(source, u), u);
    row.heap.Push(graph_->OffsetTo(source, v), v);
    // Same-edge shortcut: a path between positions on one edge need not
    // pass either endpoint.
    for (int32_t j = first_on_edge_[source.edge]; j >= 0;
         j = next_on_edge_[j]) {
      dists[j] = std::min(dists[j],
                          SameEdgeDistance(*graph_, source, targets_[j]));
    }
    return static_cast<int32_t>(open_rows_++);
  }

  void GrowRow(int32_t handle, std::span<const int32_t> wanted, double bound,
               double* dists) override {
    GPSSN_DCHECK(handle >= 0 && static_cast<size_t>(handle) < open_rows_);
    Row& row = rows_[static_cast<size_t>(handle)];
    for (const int32_t j : wanted) {
      const Ends& e = ends_[static_cast<size_t>(j)];
      while (!(row.IsSettled(e.u) && row.IsSettled(e.v))) {
        const double least = row.heap.TopKey();  // +inf once empty.
        if (dists[j] <= least || least > bound) break;
        Settle(&row, dists);
      }
    }
  }

  double RowDecidedBound(int32_t handle) const override {
    GPSSN_DCHECK(handle >= 0 && static_cast<size_t>(handle) < open_rows_);
    // Every bound below the least key is one that key exceeds.
    const double least = rows_[static_cast<size_t>(handle)].heap.TopKey();
    return least == kInfDistance ? kInfDistance
                                 : std::nextafter(least, -kInfDistance);
  }

  uint64_t vertices_settled() const override { return settled_; }

 private:
  /// A target's edge endpoints.
  struct Ends {
    VertexId u = kInvalidVertex;
    VertexId v = kInvalidVertex;
  };
  /// A target at an endpoint, with the endpoint's offset to it.
  struct AtEndpoint {
    int32_t target = -1;
    double offset = 0.0;
  };
  /// Room a new pooled row's heap starts with, so a cold row allocates it
  /// once: a frontier holds tens of entries (DESIGN.md §9), and a grown
  /// row pushes a vertex once per settled neighbour.
  static constexpr size_t kRowHeapReserve = 64;
  /// One open row's search state.
  struct Row {
    SearchHeap heap;
    std::vector<uint64_t> settled;  // One bit per vertex.

    bool IsSettled(VertexId w) const {
      return (settled[static_cast<size_t>(w) >> 6] >> (w & 63) & 1u) != 0;
    }
  };

  /// Pops the row's least entry and, unless it is stale, settles its
  /// vertex: writes its targets' entries and relaxes its arcs. The heap
  /// must not be empty.
  void Settle(Row* row, double* dists) {
    const auto [d, w] = row->heap.Pop();
    uint64_t& word = row->settled[static_cast<size_t>(w) >> 6];
    const uint64_t bit = uint64_t{1} << (w & 63);
    if ((word & bit) != 0) return;  // Stale.
    word |= bit;
    ++settled_;
    if (const int32_t e = endpoint_of_[w]; e >= 0) {
      for (uint32_t i = at_begin_[e]; i < at_begin_[e + 1]; ++i) {
        double& entry = dists[at_[i].target];
        entry = std::min(entry, d + at_[i].offset);
      }
    }
    for (const RoadArc& arc : graph_->Neighbors(w)) {
      if (!row->IsSettled(arc.to)) row->heap.Push(d + arc.weight, arc.to);
    }
  }

  const RoadNetwork* graph_;
  DijkstraEngine engine_;
  PoiLocator locator_;
  std::vector<EdgePosition> targets_;
  std::vector<VertexId> endpoints_;  // The targets' edge endpoints, unique.
  std::vector<Ends> ends_;           // Per target.
  // The targets at each endpoint: endpoint_of_ maps a vertex to its place
  // in endpoints_ (-1 elsewhere), and at_[at_begin_[i], at_begin_[i + 1])
  // lists endpoint i's targets.
  std::vector<int32_t> endpoint_of_;
  std::vector<uint32_t> at_begin_;
  std::vector<uint32_t> at_fill_;  // SetTargets' next free place per list.
  std::vector<AtEndpoint> at_;
  // The targets on each edge, as a list: the first per edge (-1 for none)
  // and the next per target.
  std::vector<int32_t> first_on_edge_;
  std::vector<int32_t> next_on_edge_;
  // Row search states: rows_[0, open_rows_) are open; the rest wait for
  // reuse with their storage.
  std::vector<Row> rows_;
  size_t open_rows_ = 0;
  uint64_t settled_ = 0;
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

// ------------------------------------------------------------ CH sweeps

/// CH one-to-many engine, by one restricted downward sweep per source
/// (RPHAST: Delling, Goldberg and Werneck, ATMOS 2011). SetTargets marks
/// the upward closure of the targets' edge endpoints, every vertex an
/// upward path from one reaches, and lists it in descending rank with its
/// upward arcs renumbered into the list. SourceToTargets runs one upward
/// search from the source, seeds the closure with its labels, then passes
/// once over the list: each vertex takes the min of its seed and d(y) + w
/// over its upward arcs, whose heads rank higher and so are final. Because
/// the hierarchy preserves shortest paths, an endpoint's value is the exact
/// road distance. The closure is closed under upward arcs, so a vertex's
/// value depends on the source and that vertex alone, not on the other
/// targets registered with it. A row is one such sweep: its sweep costs the
/// same at any radius, so the row's first growth fills every entry under
/// that growth's bound, and a growth under a bound no larger finds every
/// entry decided.
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
    slot_.resize(n, -1);
    marked_.resize((static_cast<size_t>(n) + 63) / 64, 0);
    first_on_edge_.resize(graph_->num_edges(), -1);
  }

  std::vector<std::pair<PoiId, double>> BallWithDistances(
      const EdgePosition& center, double radius) override {
    return locator_.BallWithDistances(center, radius, &dijkstra_);
  }

  void SetTargets(std::span<const EdgePosition> targets) override {
    for (VertexId w : closure_) slot_[w] = -1;
    for (const EdgePosition& t : targets_) first_on_edge_[t.edge] = -1;
    closure_.clear();
    rows_.clear();
    // Mark the upward closure by rank, in one traversal: the rank bitmap
    // is the visited set, and reading it off top-down lists the closure
    // in descending rank.
    auto mark = [&](VertexId w) {
      const auto r = static_cast<uint32_t>(ch_->rank(w));
      uint64_t& word = marked_[r >> 6];
      const uint64_t bit = uint64_t{1} << (r & 63u);
      if ((word & bit) != 0) return;
      word |= bit;
      stack_.push_back(w);
    };
    for (const EdgePosition& t : targets) {
      mark(graph_->edge_u(t.edge));
      mark(graph_->edge_v(t.edge));
    }
    while (!stack_.empty()) {
      const VertexId w = stack_.back();
      stack_.pop_back();
      for (const auto& arc : ch_->up(w)) mark(arc.to);
    }
    for (size_t i = marked_.size(); i-- > 0;) {
      for (uint64_t word = marked_[i]; word != 0;) {
        const int b = 63 - std::countl_zero(word);
        word ^= uint64_t{1} << b;
        const VertexId w = ch_->vertex_at_rank(static_cast<int>(i * 64) + b);
        slot_[w] = static_cast<int32_t>(closure_.size());
        closure_.push_back(w);
      }
      marked_[i] = 0;
    }
    arc_begin_.clear();
    arcs_.clear();
    for (VertexId w : closure_) {
      arc_begin_.push_back(static_cast<uint32_t>(arcs_.size()));
      for (const auto& arc : ch_->up(w)) {
        arcs_.push_back({slot_[arc.to], arc.weight});
      }
    }
    arc_begin_.push_back(static_cast<uint32_t>(arcs_.size()));
    sweep_.resize(closure_.size());

    targets_.assign(targets.begin(), targets.end());
    ends_.clear();
    next_on_edge_.clear();
    for (size_t j = 0; j < targets_.size(); ++j) {
      const EdgePosition& t = targets_[j];
      const VertexId u = graph_->edge_u(t.edge);
      const VertexId v = graph_->edge_v(t.edge);
      ends_.push_back({slot_[u], slot_[v], graph_->OffsetTo(t, u),
                       graph_->OffsetTo(t, v)});
      next_on_edge_.push_back(first_on_edge_[t.edge]);
      first_on_edge_[t.edge] = static_cast<int32_t>(j);
    }
  }

  void SourceToTargets(const EdgePosition& source, double bound,
                       double* out) override {
    Sweep</*kKeepLower=*/false>(source, bound, out);
  }

  int32_t OpenRow(const EdgePosition& source, double* /*dists*/) override {
    rows_.push_back({source, -kInfDistance});
    return static_cast<int32_t>(rows_.size() - 1);
  }

  void GrowRow(int32_t handle, std::span<const int32_t> /*wanted*/,
               double bound, double* dists) override {
    GPSSN_DCHECK(handle >= 0 && static_cast<size_t>(handle) < rows_.size());
    ChRow& row = rows_[static_cast<size_t>(handle)];
    if (bound <= row.filled_under) return;
    row.filled_under = bound;
    Sweep</*kKeepLower=*/true>(row.source, bound, dists);
  }

  double RowDecidedBound(int32_t handle) const override {
    GPSSN_DCHECK(handle >= 0 && static_cast<size_t>(handle) < rows_.size());
    return rows_[static_cast<size_t>(handle)].filled_under;
  }

  uint64_t vertices_settled() const override { return settled_; }

 private:
  /// An open row: its source, and the bound its sweep last ran under
  /// (-kInfDistance before the first).
  struct ChRow {
    EdgePosition source;
    double filled_under = -kInfDistance;
  };
  /// A closure vertex's upward arc, its head as a closure slot.
  struct SweepArc {
    int32_t head = -1;
    double weight = 0.0;
  };
  /// A target's edge endpoints, as closure slots, and its offsets to them.
  struct TargetEnds {
    int32_t u = -1;
    int32_t v = -1;
    double u_offset = 0.0;
    double v_offset = 0.0;
  };

  /// SourceToTargets' sweep, writing target j's distance (kInfDistance
  /// above `bound`) into out[j]. With kKeepLower an entry keeps its value
  /// where that is lower: a grown row's entries may start at distances its
  /// caller already knew.
  template <bool kKeepLower>
  void Sweep(const EdgePosition& source, double bound, double* out) {
    if (ends_.empty()) return;
    std::fill(sweep_.begin(), sweep_.end(), kInfDistance);
    SeedFrom(source, bound);
    for (size_t i = 0; i < closure_.size(); ++i) {
      double d = sweep_[i];
      for (uint32_t a = arc_begin_[i]; a < arc_begin_[i + 1]; ++a) {
        d = std::min(d, sweep_[arcs_[a].head] + arcs_[a].weight);
      }
      sweep_[i] = d;
    }
    for (size_t j = 0; j < ends_.size(); ++j) {
      const TargetEnds& e = ends_[j];
      double d = std::min(sweep_[e.u] + e.u_offset, sweep_[e.v] + e.v_offset);
      d = d <= bound ? d : kInfDistance;
      out[j] = kKeepLower ? std::min(out[j], d) : d;
    }
    // Same-edge shortcut: a path between positions on one edge need not
    // pass either endpoint.
    for (int32_t j = first_on_edge_[source.edge]; j >= 0;
         j = next_on_edge_[j]) {
      const double d = SameEdgeDistance(*graph_, source, targets_[j]);
      if (d <= bound) out[j] = std::min(out[j], d);
    }
  }

  /// Dijkstra over the upward graph from both ends of `source`'s edge,
  /// writing each settled vertex's final label into its closure slot.
  /// Labels above `bound` are neither settled nor relaxed: no path through
  /// them can reach a target within `bound` (arc weights are nonnegative).
  void SeedFrom(const EdgePosition& source, double bound) {
    ++generation_;
    if (generation_ == 0) {  // Stamp wrap-around: hard reset.
      std::fill(stamp_.begin(), stamp_.end(), 0);
      generation_ = 1;
    }
    heap_.clear();
    auto relax = [&](VertexId w, double d) {
      if (d > bound) return;
      if (stamp_[w] == generation_ && dist_[w] <= d) return;
      dist_[w] = d;
      stamp_[w] = generation_;
      heap_.Push(d, w);
    };
    const VertexId u = graph_->edge_u(source.edge);
    const VertexId v = graph_->edge_v(source.edge);
    relax(u, graph_->OffsetTo(source, u));
    relax(v, graph_->OffsetTo(source, v));
    uint64_t settled = 0;
    while (!heap_.empty()) {
      const auto [d, w] = heap_.Pop();
      if (d > dist_[w]) continue;  // Stale.
      ++settled;
      if (slot_[w] >= 0) sweep_[slot_[w]] = d;
      for (const auto& arc : ch_->up(w)) relax(arc.to, d + arc.weight);
    }
    settled_ += settled;
  }

  const ContractionHierarchy* ch_;
  const RoadNetwork* graph_;
  DijkstraEngine dijkstra_;  // Radius-bounded ball queries.
  PoiLocator locator_;

  // Source-side upward search arena.
  std::vector<double> dist_;
  std::vector<uint32_t> stamp_;
  uint32_t generation_ = 0;
  SearchHeap heap_;

  // The registered targets' upward closure, in descending rank: slot_ maps
  // a vertex to its place in closure_ (-1 outside it), and the closure's
  // upward arcs are a CSR over slots. marked_ (one bit per rank, all zero
  // between calls) and stack_ serve SetTargets' traversal.
  std::vector<VertexId> closure_;
  std::vector<int32_t> slot_;
  std::vector<uint32_t> arc_begin_;
  std::vector<SweepArc> arcs_;
  std::vector<double> sweep_;  // Per slot: the current source's distance.
  std::vector<uint64_t> marked_;
  std::vector<VertexId> stack_;
  std::vector<EdgePosition> targets_;
  std::vector<TargetEnds> ends_;
  // The targets on each edge, as a list: the first per edge (-1 for none)
  // and the next per target.
  std::vector<int32_t> first_on_edge_;
  std::vector<int32_t> next_on_edge_;
  std::vector<ChRow> rows_;  // Open rows, closed by SetTargets.
  uint64_t settled_ = 0;
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
