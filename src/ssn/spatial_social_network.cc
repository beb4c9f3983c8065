#include "ssn/spatial_social_network.h"

#include <algorithm>

#include "common/macros.h"

namespace gpssn {

SpatialSocialNetwork::SpatialSocialNetwork(RoadNetwork road,
                                           SocialNetwork social,
                                           std::vector<EdgePosition> user_homes,
                                           std::vector<Poi> pois)
    : road_(std::move(road)),
      social_(std::move(social)),
      user_homes_(std::move(user_homes)),
      pois_(std::move(pois)) {
  GPSSN_CHECK(static_cast<int>(user_homes_.size()) == social_.num_users());
}

Status SpatialSocialNetwork::Validate() const {
  if (static_cast<int>(user_homes_.size()) != social_.num_users()) {
    return Status::Internal("user home count does not match user count");
  }
  for (const EdgePosition& home : user_homes_) {
    if (home.edge < 0 || home.edge >= road_.num_edges()) {
      return Status::Internal("user home on invalid edge");
    }
    if (!(home.t >= 0.0 && home.t <= 1.0)) {  // Negated: NaN fails too.
      return Status::Internal("user home offset outside [0, 1]");
    }
  }
  for (size_t i = 0; i < pois_.size(); ++i) {
    const Poi& poi = pois_[i];
    if (poi.id != static_cast<PoiId>(i)) {
      return Status::Internal("POI ids must be dense and ordered");
    }
    if (poi.position.edge < 0 || poi.position.edge >= road_.num_edges()) {
      return Status::Internal("POI on invalid edge");
    }
    if (!(poi.position.t >= 0.0 && poi.position.t <= 1.0)) {
      return Status::Internal("POI offset outside [0, 1]");
    }
    for (KeywordId kw : poi.keywords) {
      if (kw < 0 || kw >= num_topics()) {
        return Status::Internal("POI keyword outside the vocabulary");
      }
    }
    if (!std::is_sorted(poi.keywords.begin(), poi.keywords.end())) {
      return Status::Internal("POI keywords must be sorted");
    }
  }
  return Status::OK();
}

Result<PoiId> SpatialSocialNetwork::AddPoi(const EdgePosition& position,
                                           std::vector<KeywordId> keywords) {
  if (position.edge < 0 || position.edge >= road_.num_edges()) {
    return Status::InvalidArgument("POI edge out of range");
  }
  if (!(position.t >= 0.0 && position.t <= 1.0)) {  // NaN fails too.
    return Status::InvalidArgument("POI offset outside [0, 1]");
  }
  std::sort(keywords.begin(), keywords.end());
  keywords.erase(std::unique(keywords.begin(), keywords.end()),
                 keywords.end());
  for (KeywordId kw : keywords) {
    if (kw < 0 || kw >= num_topics()) {
      return Status::InvalidArgument("POI keyword outside the vocabulary");
    }
  }
  Poi poi;
  poi.id = static_cast<PoiId>(pois_.size());
  poi.position = position;
  poi.location = road_.PositionPoint(position);
  poi.keywords = std::move(keywords);
  pois_.push_back(std::move(poi));
  return pois_.back().id;
}

SsnStats ComputeStats(const SpatialSocialNetwork& ssn) {
  SsnStats stats;
  stats.social_vertices = ssn.social().num_users();
  stats.social_avg_degree = ssn.social().AverageDegree();
  stats.road_vertices = ssn.road().num_vertices();
  stats.road_avg_degree = ssn.road().AverageDegree();
  stats.num_pois = ssn.num_pois();
  stats.num_topics = ssn.num_topics();
  return stats;
}

}  // namespace gpssn
