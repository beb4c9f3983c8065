#include "core/stats.h"

#include <cstdio>

namespace gpssn {

void QueryStats::MergeFrom(const QueryStats& other) {
  cpu_seconds += other.cpu_seconds;
  io.logical_accesses += other.io.logical_accesses;
  io.page_misses += other.io.page_misses;
  social_nodes_visited += other.social_nodes_visited;
  social_nodes_pruned_interest += other.social_nodes_pruned_interest;
  social_nodes_pruned_distance += other.social_nodes_pruned_distance;
  users_seen += other.users_seen;
  users_pruned_interest += other.users_pruned_interest;
  users_pruned_distance += other.users_pruned_distance;
  users_pruned_corollary2 += other.users_pruned_corollary2;
  users_candidates += other.users_candidates;
  users_pruned_at_index_level += other.users_pruned_at_index_level;
  road_nodes_visited += other.road_nodes_visited;
  road_nodes_pruned_match += other.road_nodes_pruned_match;
  road_nodes_pruned_distance += other.road_nodes_pruned_distance;
  pois_seen += other.pois_seen;
  pois_pruned_match += other.pois_pruned_match;
  pois_pruned_distance += other.pois_pruned_distance;
  pois_candidates += other.pois_candidates;
  pois_pruned_at_index_level += other.pois_pruned_at_index_level;
  groups_enumerated += other.groups_enumerated;
  pairs_examined += other.pairs_examined;
  exact_distance_evals += other.exact_distance_evals;
  truncated = truncated || other.truncated;
  descent_seconds += other.descent_seconds;
  ball_seconds += other.ball_seconds;
  refine_seconds += other.refine_seconds;
  exact_dist_seconds += other.exact_dist_seconds;
  dist_cache_row_hits += other.dist_cache_row_hits;
  dist_cache_row_misses += other.dist_cache_row_misses;
  interest_pairs_scored += other.interest_pairs_scored;
  ball_queries += other.ball_queries;
  ball_range_engine_queries += other.ball_range_engine_queries;
  skipped_shards += other.skipped_shards;
  refined_shards += other.refined_shards;
  shard_msgs += other.shard_msgs;
  serve_gather_seconds += other.serve_gather_seconds;
  serve_plan_seconds += other.serve_plan_seconds;
  serve_refine_seconds += other.serve_refine_seconds;
}

std::string QueryStats::ToString() const {
  char buf[1280];
  std::snprintf(
      buf, sizeof(buf),
      "cpu=%.6fs io=%llu (logical=%llu)\n"
      "social: nodes visited=%llu pruned(interest=%llu, distance=%llu); "
      "users seen=%llu pruned(interest=%llu, distance=%llu, cor2=%llu) "
      "candidates=%llu index-pruned-users=%llu\n"
      "road: nodes visited=%llu pruned(match=%llu, distance=%llu); "
      "pois seen=%llu pruned(match=%llu, distance=%llu) candidates=%llu "
      "index-pruned-pois=%llu\n"
      "refine: groups=%llu pairs=%llu exact-dist=%llu truncated=%d "
      "interest-pairs=%llu balls=%llu (range-engine=%llu)\n"
      "phases: descent=%.6fs ball=%.6fs refine=%.6fs exact-dist=%.6fs; "
      "dist-cache rows hit=%llu miss=%llu\n"
      "serving: shards refined=%llu skipped=%llu msgs=%llu "
      "gather=%.6fs plan=%.6fs refine=%.6fs",
      cpu_seconds, static_cast<unsigned long long>(io.page_misses),
      static_cast<unsigned long long>(io.logical_accesses),
      static_cast<unsigned long long>(social_nodes_visited),
      static_cast<unsigned long long>(social_nodes_pruned_interest),
      static_cast<unsigned long long>(social_nodes_pruned_distance),
      static_cast<unsigned long long>(users_seen),
      static_cast<unsigned long long>(users_pruned_interest),
      static_cast<unsigned long long>(users_pruned_distance),
      static_cast<unsigned long long>(users_pruned_corollary2),
      static_cast<unsigned long long>(users_candidates),
      static_cast<unsigned long long>(users_pruned_at_index_level),
      static_cast<unsigned long long>(road_nodes_visited),
      static_cast<unsigned long long>(road_nodes_pruned_match),
      static_cast<unsigned long long>(road_nodes_pruned_distance),
      static_cast<unsigned long long>(pois_seen),
      static_cast<unsigned long long>(pois_pruned_match),
      static_cast<unsigned long long>(pois_pruned_distance),
      static_cast<unsigned long long>(pois_candidates),
      static_cast<unsigned long long>(pois_pruned_at_index_level),
      static_cast<unsigned long long>(groups_enumerated),
      static_cast<unsigned long long>(pairs_examined),
      static_cast<unsigned long long>(exact_distance_evals),
      truncated ? 1 : 0,
      static_cast<unsigned long long>(interest_pairs_scored),
      static_cast<unsigned long long>(ball_queries),
      static_cast<unsigned long long>(ball_range_engine_queries),
      descent_seconds, ball_seconds, refine_seconds,
      exact_dist_seconds, static_cast<unsigned long long>(dist_cache_row_hits),
      static_cast<unsigned long long>(dist_cache_row_misses),
      static_cast<unsigned long long>(refined_shards),
      static_cast<unsigned long long>(skipped_shards),
      static_cast<unsigned long long>(shard_msgs),
      serve_gather_seconds, serve_plan_seconds, serve_refine_seconds);
  return buf;
}

}  // namespace gpssn
