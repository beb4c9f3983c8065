// Interactive GP-SSN shell: load or generate a spatial-social network, then
// issue queries and inspect results from a prompt. Reads commands from
// stdin (scriptable: `echo "gen UNI 0.05\nquery 10 3" | gpssn_shell`).
// A command runs only when it reads every token of its line: a missing,
// extra or malformed token prints its usage or an error and does nothing.
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
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

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
      "  tune [percentile in (0,1)]\n"
      "  set <gamma|theta|r|metric> <value>   (metric: dot | jaccard | "
      "hamming)\n"
      "  query <issuer> <tau> [k >= 1]\n"
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

// The int `text` spells in full, if it spells one.
std::optional<int> ParseInt(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
      value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    return std::nullopt;
  }
  return static_cast<int>(value);
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
    std::vector<std::string> args;
    for (std::string token; in >> token;) args.push_back(std::move(token));
    if (args.empty()) continue;
    const std::string cmd = args.front();
    args.erase(args.begin());
    if (cmd == "quit" || cmd == "exit") {
      if (args.empty()) break;
      std::printf("usage: %s\n", cmd.c_str());
      continue;
    }
    if (cmd == "help") {
      if (args.empty()) {
        PrintHelp();
      } else {
        std::printf("usage: help\n");
      }
      continue;
    }
    if (cmd == "gen") {
      const std::optional<double> scale =
          args.size() == 2 ? ParseNumber(args[1]) : std::nullopt;
      if (!scale.has_value() || *scale <= 0 || *scale > 1) {
        std::printf("usage: gen <BriCal|GowCol|UNI|ZIPF> <scale in (0,1]>\n");
        continue;
      }
      const std::string& name = args[0];
      if (!IsDataset(name)) {
        std::printf("unknown dataset '%s' (BriCal|GowCol|UNI|ZIPF)\n",
                    name.c_str());
        continue;
      }
      std::printf("generating %s at scale %.3f and building indexes...\n",
                  name.c_str(), *scale);
      WallTimer timer;
      db = std::make_unique<GpssnDatabase>(Generate(name, *scale));
      std::printf("ready in %.2f s (%d users, %d POIs)\n",
                  timer.ElapsedSeconds(), db->ssn().num_users(),
                  db->ssn().num_pois());
      continue;
    }
    if (cmd == "load") {
      if (args.size() != 1) {
        std::printf("usage: load <path>\n");
        continue;
      }
      auto loaded = LoadSsn(args[0]);
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
      if (args.size() != 1) {
        std::printf("usage: restore <path>\n");
        continue;
      }
      WallTimer timer;
      auto restored = LoadSnapshot(args[0]);
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
      if (!args.empty()) {
        std::printf("usage: stat\n");
        continue;
      }
      const SsnStats stats = ComputeStats(db->ssn());
      std::printf("|V(Gs)|=%d deg=%.2f  |V(Gr)|=%d deg=%.2f  POIs=%d d=%d\n",
                  stats.social_vertices, stats.social_avg_degree,
                  stats.road_vertices, stats.road_avg_degree, stats.num_pois,
                  stats.num_topics);
      continue;
    }
    if (cmd == "tune") {
      TuningOptions options;
      if (args.size() == 1) {
        options.percentile = ParseNumber(args[0]).value_or(0.0);
      }
      if (args.size() > 1 ||
          !(options.percentile > 0 && options.percentile < 1)) {
        std::printf("usage: tune [percentile in (0,1)]\n");
        continue;
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
      if (args.size() != 2) {
        std::printf("usage: set <gamma|theta|r|metric> <value>\n");
        continue;
      }
      const std::string& key = args[0];
      const std::string& value = args[1];
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
      const bool arity = args.size() == 2 || args.size() == 3;
      const std::optional<int> issuer =
          arity ? ParseInt(args[0]) : std::nullopt;
      const std::optional<int> tau = arity ? ParseInt(args[1]) : std::nullopt;
      const int k = args.size() == 3 ? ParseInt(args[2]).value_or(0) : 1;
      if (!issuer.has_value() || !tau.has_value() || k < 1) {
        std::printf("usage: query <issuer> <tau> [k >= 1]\n");
        continue;
      }
      GpssnQuery q = defaults;
      q.issuer = *issuer;
      q.tau = *tau;
      QueryStats stats;
      auto results = db->QueryTopK(q, k, QueryOptions{}, &stats);
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
      if (args.size() != 1) {
        std::printf("usage: save <path>\n");
        continue;
      }
      const Status saved = SaveSnapshot(*db, args[0]);
      std::printf("%s\n", saved.ok() ? "snapshot written" :
                                       saved.ToString().c_str());
      continue;
    }
    if (cmd == "addpoi") {
      const std::optional<int> edge =
          args.size() >= 2 ? ParseInt(args[0]) : std::nullopt;
      const std::optional<double> t =
          args.size() >= 2 ? ParseNumber(args[1]) : std::nullopt;
      std::vector<KeywordId> kws;
      bool keywords_ok = true;
      for (size_t i = 2; i < args.size() && keywords_ok; ++i) {
        const std::optional<int> kw = ParseInt(args[i]);
        keywords_ok = kw.has_value();
        if (keywords_ok) kws.push_back(*kw);
      }
      if (!edge.has_value() || !t.has_value() || !keywords_ok) {
        std::printf("usage: addpoi <edge> <t in [0,1]> <keyword...>\n");
        continue;
      }
      auto id = db->AddPoi(EdgePosition{*edge, *t}, std::move(kws));
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
      const std::optional<int> issuer =
          args.size() == 2 ? ParseInt(args[0]) : std::nullopt;
      const std::optional<int> tau =
          args.size() == 2 ? ParseInt(args[1]) : std::nullopt;
      if (!issuer.has_value() || !tau.has_value()) {
        std::printf("usage: baseline <issuer> <tau>\n");
        continue;
      }
      GpssnQuery q = defaults;
      q.issuer = *issuer;
      q.tau = *tau;
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
