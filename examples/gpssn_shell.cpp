// Interactive GP-SSN shell: load or generate a spatial-social network, then
// issue queries and inspect results from a prompt. Reads commands from
// stdin (scriptable: `echo "gen UNI 0.05\nquery 10 3" | gpssn_shell`).
//
// Commands:
//   gen <BriCal|GowCol|UNI|ZIPF> <scale>   generate + index a dataset
//   load <path>                            load a saved .gpssn file + index
//   save <path>                            write a database snapshot
//   restore <path>                         load a database snapshot
//   stat                                   dataset statistics
//   tune [percentile]                      data-driven (gamma, theta, r)
//   set <gamma|theta|r|metric> <value>     set query parameters
//   query <issuer> <tau> [k]               run a (top-k) GP-SSN query
//   baseline <issuer> <tau>                estimate the Baseline cost
//   addpoi <edge> <t> <kw...>              open a new facility (dynamic)
//   help / quit

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "common/timer.h"
#include "gpssn/gpssn.h"

using namespace gpssn;

namespace {

void PrintHelp() {
  std::printf(
      "commands:\n"
      "  gen <BriCal|GowCol|UNI|ZIPF> <scale>\n"
      "  load <path>\n"
      "  stat\n"
      "  tune [percentile]\n"
      "  set <gamma|theta|r|metric> <value>   (metric: dot | jaccard | "
      "hamming)\n"
      "  query <issuer> <tau> [k]\n"
      "  baseline <issuer> <tau>\n"
      "  addpoi <edge> <t in [0,1]> <keyword...>\n"
      "  save <path> | restore <path>         (database snapshots)\n"
      "  help | quit\n");
}

bool IsDataset(const std::string& name) {
  return name == "BriCal" || name == "GowCol" || name == "UNI" ||
         name == "ZIPF";
}

// `name` must satisfy IsDataset.
SpatialSocialNetwork Generate(const std::string& name, double scale) {
  if (name == "BriCal") return MakeRealLike(BriCalOptions(scale));
  if (name == "GowCol") return MakeRealLike(GowColOptions(scale));
  SyntheticSsnOptions options;
  options.distribution =
      name == "ZIPF" ? Distribution::kZipf : Distribution::kUniform;
  options.num_road_vertices = std::max(64, static_cast<int>(20000 * scale));
  options.num_pois = std::max(32, static_cast<int>(10000 * scale));
  options.num_users = std::max(64, static_cast<int>(30000 * scale));
  return MakeSynthetic(options);
}

// The finite number `text` spells in full, if it spells one.
std::optional<double> ParseNumber(const std::string& text) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

std::optional<InterestMetric> ParseMetric(const std::string& name) {
  if (name == "dot") return InterestMetric::kDotProduct;
  if (name == "jaccard") return InterestMetric::kJaccard;
  if (name == "hamming") return InterestMetric::kHamming;
  return std::nullopt;
}

const char* MetricName(InterestMetric metric) {
  switch (metric) {
    case InterestMetric::kDotProduct:
      return "dot";
    case InterestMetric::kJaccard:
      return "jaccard";
    case InterestMetric::kHamming:
      return "hamming";
  }
  return "?";
}

}  // namespace

int main() {
  std::unique_ptr<GpssnDatabase> db;
  GpssnQuery defaults;  // gamma/theta/radius/metric carried between queries.
  std::printf("gpssn shell — type 'help' for commands\n");
  std::string line;
  while (std::printf("> "), std::fflush(stdout), std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd)) continue;
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "help") {
      PrintHelp();
      continue;
    }
    if (cmd == "gen") {
      std::string name;
      double scale = 0.05;
      if (!(in >> name >> scale) || scale <= 0 || scale > 1) {
        std::printf("usage: gen <BriCal|GowCol|UNI|ZIPF> <scale in (0,1]>\n");
        continue;
      }
      if (!IsDataset(name)) {
        std::printf("unknown dataset '%s' (BriCal|GowCol|UNI|ZIPF)\n",
                    name.c_str());
        continue;
      }
      std::printf("generating %s at scale %.3f and building indexes...\n",
                  name.c_str(), scale);
      WallTimer timer;
      db = std::make_unique<GpssnDatabase>(Generate(name, scale));
      std::printf("ready in %.2f s (%d users, %d POIs)\n",
                  timer.ElapsedSeconds(), db->ssn().num_users(),
                  db->ssn().num_pois());
      continue;
    }
    if (cmd == "load") {
      std::string path;
      if (!(in >> path)) {
        std::printf("usage: load <path>\n");
        continue;
      }
      auto loaded = LoadSsn(path);
      const Status indexable =
          loaded.ok() ? CheckPivotCounts(*loaded, GpssnBuildOptions{})
                      : loaded.status();
      if (!indexable.ok()) {
        std::printf("load failed: %s\n", indexable.ToString().c_str());
        continue;
      }
      db = std::make_unique<GpssnDatabase>(std::move(loaded).value());
      std::printf("loaded and indexed (%d users, %d POIs)\n",
                  db->ssn().num_users(), db->ssn().num_pois());
      continue;
    }
    if (cmd == "restore") {
      std::string path;
      if (!(in >> path)) {
        std::printf("usage: restore <path>\n");
        continue;
      }
      WallTimer timer;
      auto restored = LoadSnapshot(path);
      if (!restored.ok()) {
        std::printf("restore failed: %s\n",
                    restored.status().ToString().c_str());
        continue;
      }
      db = std::move(restored).value();
      std::printf("restored in %.2f s (%d users, %d POIs)\n",
                  timer.ElapsedSeconds(), db->ssn().num_users(),
                  db->ssn().num_pois());
      continue;
    }
    if (db == nullptr) {
      std::printf(
          "no dataset loaded — use 'gen', 'load' or 'restore' first\n");
      continue;
    }
    if (cmd == "stat") {
      const SsnStats stats = ComputeStats(db->ssn());
      std::printf("|V(Gs)|=%d deg=%.2f  |V(Gr)|=%d deg=%.2f  POIs=%d d=%d\n",
                  stats.social_vertices, stats.social_avg_degree,
                  stats.road_vertices, stats.road_avg_degree, stats.num_pois,
                  stats.num_topics);
      continue;
    }
    if (cmd == "tune") {
      TuningOptions options;
      in >> options.percentile;
      if (options.percentile <= 0 || options.percentile >= 1) {
        options.percentile = 0.5;
      }
      ParameterSuggestion s = SuggestParameters(db->ssn(), options);
      // Keep r inside the index's precomputed envelope [r_min, r_max].
      const auto& poi_options = db->poi_index().options();
      const double clamped =
          std::clamp(s.radius, poi_options.r_min, poi_options.r_max);
      if (clamped != s.radius) {
        std::printf("(radius %.3f clamped to the index envelope "
                    "[%.2f, %.2f])\n",
                    s.radius, poi_options.r_min, poi_options.r_max);
        s.radius = clamped;
      }
      std::printf("suggested: gamma=%.3f theta=%.3f r=%.3f "
                  "(use 'set' to adopt)\n",
                  s.gamma, s.theta, s.radius);
      continue;
    }
    if (cmd == "set") {
      std::string key, value;
      if (!(in >> key >> value)) {
        std::printf("usage: set <gamma|theta|r|metric> <value>\n");
        continue;
      }
      if (key == "metric") {
        const std::optional<InterestMetric> metric = ParseMetric(value);
        if (!metric.has_value()) {
          std::printf("unknown metric '%s' (dot|jaccard|hamming)\n",
                      value.c_str());
          continue;
        }
        defaults.metric = *metric;
      } else {
        double* field = key == "gamma"   ? &defaults.gamma
                        : key == "theta" ? &defaults.theta
                        : key == "r"     ? &defaults.radius
                                         : nullptr;
        if (field == nullptr) {
          std::printf("unknown parameter '%s'\n", key.c_str());
          continue;
        }
        const std::optional<double> number = ParseNumber(value);
        if (!number.has_value()) {
          std::printf("'%s' is not a finite number\n", value.c_str());
          continue;
        }
        *field = *number;
      }
      std::printf("gamma=%.3f theta=%.3f r=%.3f metric=%s\n", defaults.gamma,
                  defaults.theta, defaults.radius,
                  MetricName(defaults.metric));
      continue;
    }
    if (cmd == "query") {
      int issuer = -1, tau = 0, k = 1;
      if (!(in >> issuer >> tau)) {
        std::printf("usage: query <issuer> <tau> [k]\n");
        continue;
      }
      in >> k;
      GpssnQuery q = defaults;
      q.issuer = issuer;
      q.tau = tau;
      QueryStats stats;
      auto results = db->QueryTopK(q, std::max(1, k), QueryOptions{}, &stats);
      if (!results.ok()) {
        std::printf("error: %s\n", results.status().ToString().c_str());
        continue;
      }
      if (results->empty()) {
        std::printf("no answer (%.1f ms, %llu I/Os)\n",
                    stats.cpu_seconds * 1e3,
                    static_cast<unsigned long long>(stats.PageAccesses()));
        continue;
      }
      for (size_t rank = 0; rank < results->size(); ++rank) {
        const GpssnAnswer& a = (*results)[rank];
        std::printf("#%zu maxdist=%.3f  S = {", rank + 1, a.max_dist);
        for (size_t i = 0; i < a.users.size(); ++i) {
          std::printf("%s%d", i ? ", " : "", a.users[i]);
        }
        std::printf("}  R = %zu POIs around %d\n", a.pois.size(), a.center);
      }
      std::printf("(%.1f ms, %llu I/Os, %llu groups, %llu pairs)\n",
                  stats.cpu_seconds * 1e3,
                  static_cast<unsigned long long>(stats.PageAccesses()),
                  static_cast<unsigned long long>(stats.groups_enumerated),
                  static_cast<unsigned long long>(stats.pairs_examined));
      continue;
    }
    if (cmd == "save") {
      std::string path;
      if (!(in >> path)) {
        std::printf("usage: save <path>\n");
        continue;
      }
      const Status saved = SaveSnapshot(*db, path);
      std::printf("%s\n", saved.ok() ? "snapshot written" :
                                       saved.ToString().c_str());
      continue;
    }
    if (cmd == "addpoi") {
      EdgePosition pos;
      if (!(in >> pos.edge >> pos.t)) {
        std::printf("usage: addpoi <edge> <t in [0,1]> <keyword...>\n");
        continue;
      }
      std::vector<KeywordId> kws;
      KeywordId kw;
      while (in >> kw) kws.push_back(kw);
      auto id = db->AddPoi(pos, std::move(kws));
      if (!id.ok()) {
        std::printf("error: %s\n", id.status().ToString().c_str());
        continue;
      }
      std::printf("opened POI %d at (%.2f, %.2f); index patched\n", *id,
                  db->ssn().poi(*id).location.x,
                  db->ssn().poi(*id).location.y);
      continue;
    }
    if (cmd == "baseline") {
      int issuer = -1, tau = 0;
      if (!(in >> issuer >> tau)) {
        std::printf("usage: baseline <issuer> <tau>\n");
        continue;
      }
      GpssnQuery q = defaults;
      q.issuer = issuer;
      q.tau = tau;
      const auto est = EstimateBaselineCost(db->ssn(), q, 50);
      if (!est.ok()) {
        std::printf("error: %s\n", est.status().ToString().c_str());
        continue;
      }
      std::printf("candidate pairs: 10^%.1f; estimated Baseline cost: "
                  "%.3g days, %.3g I/Os\n",
                  est->log10_candidate_pairs, est->estimated_total_days,
                  est->estimated_total_ios);
      continue;
    }
    std::printf("unknown command '%s' — type 'help'\n", cmd.c_str());
  }
  return 0;
}
