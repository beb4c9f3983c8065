#include "ssn/dataset.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "roadnet/road_generator.h"
#include "roadnet/road_locator.h"

namespace gpssn {

namespace {

// POIs per selected road edge are drawn from [0, kMaxPoisPerEdge], and
// each real-like user makes [kMinCheckins, kMaxCheckins] check-ins.
constexpr int kMaxPoisPerEdge = 5;
constexpr int kMinCheckins = 10;
constexpr int kMaxCheckins = 60;

// Draws a sorted, unique keyword set of size in [1, max_keywords] from the
// vocabulary [0, num_topics) with the given distribution (Zipf skews toward
// low keyword ids, making some topics far more common than others).
std::vector<KeywordId> DrawKeywords(int num_topics, int max_keywords,
                                    Distribution dist, double zipf_exponent,
                                    Rng* rng) {
  const int want = static_cast<int>(rng->UniformInt(1, max_keywords));
  std::vector<KeywordId> kws;
  if (dist == Distribution::kUniform) {
    for (size_t idx : rng->SampleWithoutReplacement(
             num_topics, std::min(want, num_topics))) {
      kws.push_back(static_cast<KeywordId>(idx));
    }
  } else {
    ZipfSampler sampler(num_topics, zipf_exponent);
    int guard = 0;
    while (static_cast<int>(kws.size()) < std::min(want, num_topics) &&
           guard++ < 20 * want) {
      const KeywordId kw = static_cast<KeywordId>(sampler.Sample(rng));
      if (std::find(kws.begin(), kws.end(), kw) == kws.end()) kws.push_back(kw);
    }
  }
  std::sort(kws.begin(), kws.end());
  return kws;
}

// Places `num_pois` POIs on the road network: random edges are selected and
// each receives a batch of w POIs (w in [0, kMaxPoisPerEdge], Uniform or
// Zipf), per the paper's synthetic recipe.
std::vector<Poi> PlacePois(const RoadNetwork& road, int num_pois,
                           int num_topics, int max_keywords, Distribution dist,
                           double zipf_exponent, Rng* rng) {
  std::vector<Poi> pois;
  pois.reserve(num_pois);
  ZipfSampler batch_sampler(kMaxPoisPerEdge + 1, zipf_exponent);
  while (static_cast<int>(pois.size()) < num_pois) {
    const EdgeId e = static_cast<EdgeId>(rng->NextBounded(road.num_edges()));
    int batch;
    if (dist == Distribution::kUniform) {
      batch = static_cast<int>(rng->UniformInt(0, kMaxPoisPerEdge));
    } else {
      batch = static_cast<int>(batch_sampler.Sample(rng));
    }
    for (int b = 0; b < batch && static_cast<int>(pois.size()) < num_pois; ++b) {
      Poi poi;
      poi.id = static_cast<PoiId>(pois.size());
      poi.position = EdgePosition{e, rng->UniformDouble()};
      poi.location = road.PositionPoint(poi.position);
      poi.keywords =
          DrawKeywords(num_topics, max_keywords, dist, zipf_exponent, rng);
      pois.push_back(std::move(poi));
    }
  }
  return pois;
}

}  // namespace

SpatialSocialNetwork MakeSynthetic(const SyntheticSsnOptions& options) {
  Rng rng(options.seed);

  RoadGenOptions road_options;
  road_options.num_vertices = options.num_road_vertices;
  road_options.avg_degree = options.road_avg_degree;
  road_options.space_size = options.space_size;
  road_options.seed = rng.Next();
  RoadNetwork road = GenerateRoadNetwork(road_options);

  std::vector<Poi> pois = PlacePois(
      road, options.num_pois, options.num_topics, options.max_keywords_per_poi,
      options.distribution, options.zipf_exponent, &rng);

  SocialGenOptions social_options;
  social_options.num_users = options.num_users;
  social_options.num_topics = options.num_topics;
  social_options.degree_distribution = options.distribution;
  social_options.interest_distribution = options.distribution;
  social_options.zipf_exponent = options.zipf_exponent;
  social_options.community_size = options.community_size;
  social_options.seed = rng.Next();
  SocialNetwork social = GenerateSocialNetwork(social_options);

  // "Randomly mapping social-network users to a 2D spatial location on the
  // road network."
  std::vector<EdgePosition> homes(options.num_users);
  for (auto& home : homes) {
    home = EdgePosition{static_cast<EdgeId>(rng.NextBounded(road.num_edges())),
                        rng.UniformDouble()};
  }

  SpatialSocialNetwork ssn(std::move(road), std::move(social),
                           std::move(homes), std::move(pois));
  GPSSN_CHECK_OK(ssn.Validate());
  return ssn;
}

RealLikeSsnOptions BriCalOptions(double scale, uint64_t seed) {
  GPSSN_CHECK(scale > 0.0 && scale <= 1.0);
  RealLikeSsnOptions o;
  o.name = "BriCal";
  o.num_users = std::max(64, static_cast<int>(40000 * scale));
  o.social_avg_degree = 10.3;
  o.power_law_exponent = 2.5;
  o.num_road_vertices = std::max(64, static_cast<int>(21000 * scale));
  o.road_avg_degree = 2.1;
  o.num_pois = std::max(32, static_cast<int>(10000 * scale));
  o.seed = seed;
  return o;
}

RealLikeSsnOptions GowColOptions(double scale, uint64_t seed) {
  GPSSN_CHECK(scale > 0.0 && scale <= 1.0);
  RealLikeSsnOptions o;
  o.name = "GowCol";
  o.num_users = std::max(64, static_cast<int>(40000 * scale));
  o.social_avg_degree = 32.1;
  o.power_law_exponent = 2.3;
  o.num_road_vertices = std::max(64, static_cast<int>(30000 * scale));
  o.road_avg_degree = 2.4;
  o.num_pois = std::max(32, static_cast<int>(10000 * scale));
  o.seed = seed;
  return o;
}

SpatialSocialNetwork MakeRealLike(const RealLikeSsnOptions& options) {
  Rng rng(options.seed);

  RoadGenOptions road_options;
  road_options.num_vertices = options.num_road_vertices;
  road_options.avg_degree = options.road_avg_degree;
  road_options.space_size = options.space_size;
  road_options.seed = rng.Next();
  RoadNetwork road = GenerateRoadNetwork(road_options);

  // Keyword popularity is Zipf-skewed (real POI categories are: many
  // restaurants, few observatories).
  std::vector<Poi> pois =
      PlacePois(road, options.num_pois, options.num_topics,
                options.max_keywords_per_poi, Distribution::kZipf,
                /*zipf_exponent=*/0.35, &rng);

  PowerLawSocialOptions social_options;
  social_options.num_users = options.num_users;
  social_options.num_topics = options.num_topics;
  social_options.avg_degree = options.social_avg_degree;
  social_options.power_law_exponent = options.power_law_exponent;
  social_options.community_size = options.community_size;
  social_options.seed = rng.Next();
  std::vector<int> community;
  SocialNetwork social =
      GeneratePowerLawSocialNetwork(social_options, &community);

  // --- Simulated check-in history (substitute for Brightkite/Gowalla
  // check-ins). Each community shares a home neighbourhood (anchor region
  // of the map) and a topic profile; each user has a latent preference
  // mixture concentrated on the profile. Check-ins favor nearby POIs whose
  // keywords match the preference.
  const int m = options.num_users;
  const int d = options.num_topics;
  const int n = static_cast<int>(pois.size());
  std::vector<double> interests(static_cast<size_t>(m) * d, 0.0);
  std::vector<EdgePosition> homes(m);
  RoadLocator locator(&road);

  // Spatial bucket of POIs for locality-biased sampling: sort POI ids by a
  // coarse grid cell so a contiguous slice ~ one neighbourhood.
  std::vector<PoiId> poi_by_cell(n);
  for (int i = 0; i < n; ++i) poi_by_cell[i] = i;
  const int grid = std::max(1, static_cast<int>(std::sqrt(n / 16.0)));
  auto cell_of = [&](const Poi& poi) {
    const int cx = std::clamp(
        static_cast<int>(poi.location.x / options.space_size * grid), 0, grid - 1);
    const int cy = std::clamp(
        static_cast<int>(poi.location.y / options.space_size * grid), 0, grid - 1);
    return cy * grid + cx;
  };
  std::sort(poi_by_cell.begin(), poi_by_cell.end(), [&](PoiId a, PoiId b) {
    return cell_of(pois[a]) < cell_of(pois[b]);
  });

  // Per-community anchors (shared home neighbourhood) and topic profiles.
  int num_communities = 1;
  for (int c : community) num_communities = std::max(num_communities, c + 1);
  const int window = std::max(16, n / 50);
  std::vector<int> community_anchor(num_communities);
  for (int& a : community_anchor) {
    a = static_cast<int>(rng.NextBounded(std::max(1, n - window)));
  }
  ZipfSampler topic_popularity(d, 0.0);  // Near-uniform: communities differ.
  std::vector<std::vector<KeywordId>> community_profile(num_communities);
  for (auto& profile : community_profile) {
    int guard = 0;
    while (static_cast<int>(profile.size()) < std::min(6, d) && guard++ < 200) {
      const KeywordId t = static_cast<KeywordId>(topic_popularity.Sample(&rng));
      if (std::find(profile.begin(), profile.end(), t) == profile.end()) {
        profile.push_back(t);
      }
    }
  }

  for (UserId u = 0; u < m; ++u) {
    // Latent preference mixture concentrated on the community profile.
    std::vector<double> pref(d, 0.0);
    double pref_sum = 0.0;
    for (KeywordId t : community_profile[community[u]]) {
      pref[t] = -std::log(std::max(rng.UniformDouble(), 1e-12));  // Exp(1).
      pref_sum += pref[t];
    }
    // A pinch of idiosyncratic taste outside the profile.
    for (int extra = 0; extra < 2; ++extra) {
      const KeywordId t = static_cast<KeywordId>(topic_popularity.Sample(&rng));
      const double wgt =
          0.3 * -std::log(std::max(rng.UniformDouble(), 1e-12));
      pref[t] += wgt;
      pref_sum += wgt;
    }
    if (pref_sum > 0) {
      for (double& p : pref) p /= pref_sum;
    }

    // Anchor neighbourhood: the community's window of co-located POIs.
    const int start = community_anchor[community[u]];

    const int checkins =
        static_cast<int>(rng.UniformInt(kMinCheckins, kMaxCheckins));
    double cx = 0.0, cy = 0.0;
    int accepted = 0;
    std::vector<int> visits(d, 0);
    int guard = 0;
    while (accepted < checkins && guard++ < 50 * checkins) {
      // 80% of check-ins near the anchor, 20% anywhere (travel).
      PoiId pid;
      if (rng.UniformDouble() < 0.8) {
        pid = poi_by_cell[start + static_cast<int>(rng.NextBounded(
                              std::min(window, n - start)))];
      } else {
        pid = static_cast<PoiId>(rng.NextBounded(n));
      }
      const Poi& poi = pois[pid];
      // Accept with probability proportional to topical affinity (the
      // constant keeps profile-matching POIs near-certain and off-topic
      // visits occasional, independent of the vocabulary size).
      double affinity = 0.02;  // Base rate: people visit off-topic places too.
      for (KeywordId kw : poi.keywords) affinity += pref[kw];
      if (rng.UniformDouble() >= std::min(1.0, affinity * 5.0)) continue;
      ++accepted;
      cx += poi.location.x;
      cy += poi.location.y;
      for (KeywordId kw : poi.keywords) ++visits[kw];
    }
    if (accepted == 0) {
      // Degenerate: fall back to one uniformly random check-in.
      const Poi& poi = pois[rng.NextBounded(n)];
      accepted = 1;
      cx = poi.location.x;
      cy = poi.location.y;
      for (KeywordId kw : poi.keywords) ++visits[kw];
    }
    // Interest vector: relative visit frequency of each keyword
    // ("percentage of times user u_j visits locations with keyword w_f"),
    // max-normalized so the favourite topic scores 1.0 — matching the
    // magnitudes of the paper's Table 1 example independent of the
    // vocabulary size. A text-based topic-discovery step keeps only the
    // handful of genuinely frequented topics: the top few keywords by
    // visit count, and only those visited at least 40% as often as the
    // favourite.
    constexpr int kKeptTopics = 4;
    std::vector<int> by_count(d);
    for (int f = 0; f < d; ++f) by_count[f] = f;
    std::partial_sort(by_count.begin(), by_count.begin() + kKeptTopics,
                      by_count.end(), [&](int a, int b) {
                        if (visits[a] != visits[b]) return visits[a] > visits[b];
                        return a < b;
                      });
    const int top = visits[by_count[0]];
    for (int rank = 0; rank < kKeptTopics && top > 0; ++rank) {
      const int f = by_count[rank];
      const double w = static_cast<double>(visits[f]) / top;
      if (w >= 0.4) interests[static_cast<size_t>(u) * d + f] = w;
    }
    // Home: centroid of check-ins snapped onto the road network.
    homes[u] = locator.NearestEdgePosition(
        Point{cx / accepted, cy / accepted});
  }

  social = WithInterests(social, std::move(interests), d);
  SpatialSocialNetwork ssn(std::move(road), std::move(social),
                           std::move(homes), std::move(pois));
  GPSSN_CHECK_OK(ssn.Validate());
  return ssn;
}

}  // namespace gpssn
