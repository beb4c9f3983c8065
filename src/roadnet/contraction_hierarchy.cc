#include "roadnet/contraction_hierarchy.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"

namespace gpssn {

namespace {

// One directed half of a remaining-graph edge during construction.
struct BuildArc {
  VertexId to = kInvalidVertex;
  double weight = 0.0;
};

// An undirected remaining-graph edge, accumulated for the final upward
// graph. all_edges keeps every inserted value (later improvements append
// again); the final per-(lo, hi) minimum wins.
struct EdgeRec {
  VertexId u = kInvalidVertex;
  VertexId v = kInvalidVertex;
  double weight = 0.0;
};

// Small bounded one-to-many Dijkstra over the remaining (uncontracted)
// graph used for witness searches. One search per contraction neighbour
// serves every pair that neighbour participates in, so simulating a
// degree-d contraction costs d searches instead of d^2/2. Owns stamped
// arenas sized once per build.
//
// It keeps std::push_heap / std::pop_heap, not the road searches'
// SearchHeap (roadnet/search_heap.h). Unlike a plain search, what it
// returns depends on the pop order among equal keys: the settle limit
// counts pops, and a vertex's hop count comes from whichever equal-length
// path reaches it first. Another heap could find other witnesses, and so
// build other shortcuts.
class WitnessSearch {
 public:
  explicit WitnessSearch(int n)
      : dist_(n, kInfDistance),
        hops_(n, 0),
        stamp_(n, 0),
        target_bound_(n, 0.0),
        target_stamp_(n, 0) {}

  /// Searches from `source` in the remaining graph with `skip` removed
  /// (and, when `excluded` is non-empty, every flagged vertex removed —
  /// the round's whole selected set). Each target carries its own
  /// acceptance bound (the through-v weight of its pair); the search stops
  /// once every target holds a label within its bound, the settle budget
  /// runs out, or all keys exceed the largest bound. Read results with
  /// Label(): any returned label is a genuine path length, so accepting
  /// `Label(b) <= through` is always sound — budget exhaustion only means
  /// "no witness found", which conservatively adds a shortcut.
  void Run(const std::vector<std::vector<BuildArc>>& adj,
           const std::vector<uint8_t>& contracted,
           const std::vector<uint8_t>& excluded, VertexId source,
           const std::vector<std::pair<VertexId, double>>& targets,
           VertexId skip, int hop_limit, int settle_limit) {
    ++generation_;
    if (generation_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0);
      std::fill(target_stamp_.begin(), target_stamp_.end(), 0);
      generation_ = 1;
    }
    heap_.clear();
    double bound = 0.0;
    int remaining = 0;
    for (const auto& [t, b] : targets) {
      target_stamp_[t] = generation_;
      target_bound_[t] = b;
      bound = std::max(bound, b);
      ++remaining;
    }
    dist_[source] = 0.0;
    hops_[source] = 0;
    stamp_[source] = generation_;
    heap_.push_back({0.0, source});
    int settled = 0;
    const bool has_excluded = !excluded.empty();
    auto greater = [](const std::pair<double, VertexId>& a,
                      const std::pair<double, VertexId>& b) {
      return a.first > b.first;
    };
    while (!heap_.empty() && remaining > 0) {
      std::pop_heap(heap_.begin(), heap_.end(), greater);
      const auto [d, v] = heap_.back();
      heap_.pop_back();
      if (stamp_[v] != generation_ || d > dist_[v]) continue;
      if (d > bound) break;
      if (++settled > settle_limit) break;
      if (hops_[v] >= hop_limit) continue;
      for (const BuildArc& arc : adj[v]) {
        const VertexId to = arc.to;
        if (to == skip || contracted[to] != 0) continue;
        if (has_excluded && excluded[to] != 0) continue;
        const double nd = d + arc.weight;
        if (nd > bound) continue;
        if (stamp_[to] != generation_ || nd < dist_[to]) {
          if (target_stamp_[to] == generation_ && nd <= target_bound_[to] &&
              !(stamp_[to] == generation_ && dist_[to] <= target_bound_[to])) {
            --remaining;  // Target newly satisfied by this label.
          }
          dist_[to] = nd;
          hops_[to] = hops_[v] + 1;
          stamp_[to] = generation_;
          heap_.push_back({nd, to});
          std::push_heap(heap_.begin(), heap_.end(), greater);
        }
      }
    }
  }

  /// Best path label the last Run assigned to `v` (kInfDistance if none).
  double Label(VertexId v) const {
    return stamp_[v] == generation_ ? dist_[v] : kInfDistance;
  }

 private:
  std::vector<double> dist_;
  std::vector<int> hops_;
  std::vector<uint32_t> stamp_;
  std::vector<double> target_bound_;
  std::vector<uint32_t> target_stamp_;
  uint32_t generation_ = 0;
  std::vector<std::pair<double, VertexId>> heap_;
};

// A shortcut to insert, produced by a contraction simulation.
struct ShortcutRec {
  VertexId a = kInvalidVertex;
  VertexId b = kInvalidVertex;
  double weight = 0.0;
};

// Round-based independent-set contraction.
class ChBuilder {
 public:
  ChBuilder(const RoadNetwork& g, const ChOptions& options)
      : g_(g), options_(options), n_(g.num_vertices()), witness_(n_) {}

  void Run();

  std::vector<int32_t> rank;
  std::vector<int64_t> up_offsets;
  std::vector<ContractionHierarchy::UpArc> up_arcs;
  int num_shortcuts = 0;
  int rounds = 0;

 private:
  int UncontractedDegree(VertexId v) const {
    int degree = 0;
    for (const BuildArc& arc : adj_[v]) {
      if (contracted_[arc.to] == 0) ++degree;
    }
    return degree;
  }

  // (priority, id) lexicographic order decides local minima; ids break
  // ties, so keys are distinct and every round selects at least the
  // global minimum among alive vertices.
  bool KeyLess(VertexId a, VertexId b) const {
    if (priority_[a] != priority_[b]) return priority_[a] < priority_[b];
    return a < b;
  }

  bool IsLocalMinimum(VertexId v) const {
    for (const BuildArc& arc : adj_[v]) {
      if (contracted_[arc.to] == 0 && KeyLess(arc.to, v)) return false;
    }
    return true;
  }

  /// Simulates contracting `v`: counts the shortcuts it would need and
  /// (when `out` != nullptr) records them. With `exclude_selected`, the
  /// witness searches treat the round's whole selected set as removed.
  /// Runs ONE one-to-many witness search per neighbour (targets = the
  /// later neighbours, each bounded by its pair's through-v weight), so
  /// the cost is linear rather than quadratic in the degree.
  int SimulateContraction(VertexId v, bool exclude_selected,
                          std::vector<ShortcutRec>* out) {
    neighbors_.clear();
    for (const BuildArc& arc : adj_[v]) {
      if (contracted_[arc.to] == 0) neighbors_.emplace_back(arc.to, arc.weight);
    }
    int count = 0;
    for (size_t i = 0; i + 1 < neighbors_.size(); ++i) {
      const auto [a, wa] = neighbors_[i];
      targets_.clear();
      for (size_t j = i + 1; j < neighbors_.size(); ++j) {
        targets_.emplace_back(neighbors_[j].first, wa + neighbors_[j].second);
      }
      // The settle budget covers the whole one-to-many search. Scale it
      // with the target count but cap the scaling: witness paths between
      // neighbours of one vertex are short, so a modest multiple of the
      // per-pair budget almost always suffices, while an uncapped product
      // makes every witness FAILURE (the case that inserts a shortcut)
      // pay for a huge exhaustive ball. Priority-only simulations (out ==
      // nullptr) just need an estimate and get a tighter cap.
      const int scale =
          std::min(static_cast<int>(targets_.size()), out != nullptr ? 4 : 2);
      witness_.Run(adj_, contracted_,
                   exclude_selected ? selected_flag_ : no_flags_, a, targets_,
                   v, options_.witness_hop_limit,
                   options_.witness_settle_limit * scale);
      for (size_t j = i + 1; j < neighbors_.size(); ++j) {
        const auto [b, wb] = neighbors_[j];
        const double through = wa + wb;
        if (witness_.Label(b) <= through) continue;  // Witness: no shortcut.
        ++count;
        if (out != nullptr) out->push_back(ShortcutRec{a, b, through});
      }
    }
    return count;
  }

  /// Inserts (or improves) the directed half (from -> to) of a shortcut.
  /// Returns true when the adjacency changed.
  bool RelaxAdj(VertexId from, VertexId to, double weight) {
    for (BuildArc& arc : adj_[from]) {
      if (arc.to != to) continue;
      if (weight < arc.weight) {
        arc.weight = weight;
        return true;
      }
      return false;
    }
    adj_[from].push_back(BuildArc{to, weight});
    return true;
  }

  void MarkDirty(VertexId v) {
    if (dirty_flag_[v] == 0) dirty_flag_[v] = 1;
  }

  void BuildUpwardGraph();

  const RoadNetwork& g_;
  const ChOptions& options_;
  const int n_;

  std::vector<std::vector<BuildArc>> adj_;
  std::vector<EdgeRec> all_edges_;
  std::vector<uint8_t> contracted_;
  std::vector<uint8_t> selected_flag_;
  std::vector<uint8_t> no_flags_;  // Empty: witness excludes nothing extra.
  std::vector<uint8_t> dirty_flag_;
  std::vector<int> deleted_neighbors_;
  std::vector<int> priority_;
  std::vector<VertexId> alive_;
  std::vector<VertexId> dirty_;
  std::vector<VertexId> selected_;
  std::vector<std::vector<ShortcutRec>> round_shortcuts_;
  WitnessSearch witness_;
  std::vector<std::pair<VertexId, double>> neighbors_;
  std::vector<std::pair<VertexId, double>> targets_;
};

// Vertices above this remaining degree get an approximate priority
// (assume every pair needs a shortcut) instead of a full contraction
// simulation. Such vertices sit in the dense late-contraction core where
// (a) simulation is quadratic in the degree and (b) the approximation is
// the dominant term anyway, so selection order barely changes while
// priority recomputation stops being the build bottleneck on grid-like
// networks.
constexpr int kPrioritySimulationDegreeCap = 16;

void ChBuilder::Run() {
  rank.assign(n_, -1);
  adj_.assign(n_, {});
  for (EdgeId e = 0; e < g_.num_edges(); ++e) {
    const VertexId u = g_.edge_u(e), v = g_.edge_v(e);
    const double w = g_.edge_weight(e);
    // The builder rejects self-loops and parallel edges, so every (u, v)
    // appears exactly once — original arcs carry the exact edge weight.
    adj_[u].push_back(BuildArc{v, w});
    adj_[v].push_back(BuildArc{u, w});
  }
  all_edges_.reserve(static_cast<size_t>(g_.num_edges()) * 2);
  for (VertexId u = 0; u < n_; ++u) {
    for (const BuildArc& arc : adj_[u]) {
      if (u < arc.to) {
        all_edges_.push_back(EdgeRec{u, arc.to, arc.weight});
      }
    }
  }

  contracted_.assign(n_, 0);
  selected_flag_.assign(n_, 0);
  dirty_flag_.assign(n_, 0);
  deleted_neighbors_.assign(n_, 0);
  priority_.assign(n_, 0);

  alive_.resize(n_);
  for (VertexId v = 0; v < n_; ++v) alive_[v] = v;
  dirty_ = alive_;

  int next_rank = 0;
  while (next_rank < n_) {
    ++rounds;

    // Phase A: recompute priorities of vertices whose neighbourhood
    // changed last round (all vertices in round 1).
    for (const VertexId v : dirty_) {
      const int degree = UncontractedDegree(v);
      const int needed = degree > kPrioritySimulationDegreeCap
                             ? degree * (degree - 1) / 2
                             : SimulateContraction(v, false, nullptr);
      priority_[v] = needed - degree + deleted_neighbors_[v];
    }

    // Phase B: independent set = alive vertices that are local minima of
    // (priority, id) among their alive neighbours. IsLocalMinimum reads
    // nothing selection writes, so selecting in the same pass is safe.
    selected_.clear();
    for (const VertexId v : alive_) {
      if (IsLocalMinimum(v)) {
        selected_.push_back(v);
        selected_flag_[v] = 1;
      }
    }
    // The alive vertex with the globally smallest key is always a local
    // minimum, so every round makes progress.
    GPSSN_CHECK(!selected_.empty());

    // Phase C: simulate every selected contraction against the
    // round-start graph. Witness searches skip the whole selected set, so
    // each witness path survives the entire round.
    round_shortcuts_.resize(selected_.size());
    for (size_t i = 0; i < selected_.size(); ++i) {
      round_shortcuts_[i].clear();
      SimulateContraction(selected_[i], true, &round_shortcuts_[i]);
    }

    // Phase D: apply in id order (selected_ is id-ascending).
    for (const VertexId v : selected_) {
      contracted_[v] = 1;
      rank[v] = next_rank++;
    }
    for (size_t i = 0; i < selected_.size(); ++i) {
      const VertexId v = selected_[i];
      for (const BuildArc& arc : adj_[v]) {
        if (contracted_[arc.to] == 0) {
          ++deleted_neighbors_[arc.to];
          MarkDirty(arc.to);
        }
      }
      for (const ShortcutRec& sc : round_shortcuts_[i]) {
        const bool fresh = RelaxAdj(sc.a, sc.b, sc.weight);
        RelaxAdj(sc.b, sc.a, sc.weight);
        if (fresh) {
          all_edges_.push_back(EdgeRec{sc.a, sc.b, sc.weight});
          ++num_shortcuts;
        }
        MarkDirty(sc.a);
        MarkDirty(sc.b);
      }
      selected_flag_[v] = 0;
    }

    // Refresh the alive and dirty lists (id order keeps everything
    // deterministic). Dirty vertices compact their adjacency — every
    // vertex next to something contracted this round IS dirty, so after
    // this loop no live list carries dead entries and witness searches
    // never scan them. Contracted vertices release their lists outright.
    std::vector<VertexId> next_alive;
    next_alive.reserve(alive_.size() - selected_.size());
    dirty_.clear();
    for (const VertexId v : alive_) {
      if (contracted_[v] != 0) {
        dirty_flag_[v] = 0;
        std::vector<BuildArc>().swap(adj_[v]);
        continue;
      }
      next_alive.push_back(v);
      if (dirty_flag_[v] != 0) {
        dirty_.push_back(v);
        dirty_flag_[v] = 0;
        std::erase_if(adj_[v], [this](const BuildArc& arc) {
          return contracted_[arc.to] != 0;
        });
      }
    }
    alive_ = std::move(next_alive);
  }

  BuildUpwardGraph();
}

void ChBuilder::BuildUpwardGraph() {
  // Every surviving edge points from the lower-ranked to the higher-ranked
  // endpoint; keep the minimum weight per (from, to). Among exact ties the
  // stable sort keeps the earliest insertion, so the arrays do not depend
  // on the sort implementation.
  for (EdgeRec& rec : all_edges_) {
    if (rank[rec.u] > rank[rec.v]) std::swap(rec.u, rec.v);
  }
  std::stable_sort(all_edges_.begin(), all_edges_.end(),
                   [](const EdgeRec& a, const EdgeRec& b) {
                     if (a.u != b.u) return a.u < b.u;
                     if (a.v != b.v) return a.v < b.v;
                     return a.weight < b.weight;
                   });
  up_offsets.assign(n_ + 1, 0);
  size_t kept = 0;
  for (size_t i = 0; i < all_edges_.size(); ++i) {
    if (i > 0 && all_edges_[i].u == all_edges_[i - 1].u &&
        all_edges_[i].v == all_edges_[i - 1].v) {
      continue;  // Dominated duplicate of the same vertex pair.
    }
    all_edges_[kept++] = all_edges_[i];
    ++up_offsets[all_edges_[i].u + 1];
  }
  all_edges_.resize(kept);
  for (VertexId v = 0; v < n_; ++v) up_offsets[v + 1] += up_offsets[v];
  up_arcs.resize(kept);
  std::vector<int64_t> cursor(up_offsets.begin(), up_offsets.end() - 1);
  for (const EdgeRec& rec : all_edges_) {
    up_arcs[cursor[rec.u]++] = ContractionHierarchy::UpArc{rec.v, rec.weight};
  }
}

}  // namespace

ContractionHierarchy::ContractionHierarchy(ChOptions options)
    : options_(options) {}

void ContractionHierarchy::Build(const RoadNetwork* graph) {
  GPSSN_CHECK(graph != nullptr);
  graph_ = graph;
  ChBuilder builder(*graph, options_);
  builder.Run();
  num_shortcuts_ = builder.num_shortcuts;
  build_rounds_ = builder.rounds;
  rank_ = std::move(builder.rank);
  by_rank_.resize(rank_.size());
  for (size_t v = 0; v < rank_.size(); ++v) {
    by_rank_[rank_[v]] = static_cast<VertexId>(v);
  }
  up_offsets_ = std::move(builder.up_offsets);
  up_arcs_ = std::move(builder.up_arcs);
}

}  // namespace gpssn
