// Regression tests for backend/POI-set coherence: every DistanceEngine
// holds a PoiLocator over the backend's POI vector, which AddPoi grows. A
// locator registers the POIs appended since its last ball before each new
// one, so an engine kept across AddPoi must answer like a fresh one.
// Queries read their balls from I_R, which AddPoi patches, so the CH
// database must agree with the Dijkstra one and the oracle.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/baseline.h"
#include "core/database.h"
#include "roadnet/distance_backend.h"
#include "ssn/dataset.h"

namespace gpssn {
namespace {

SyntheticSsnOptions SmallData(uint64_t seed) {
  SyntheticSsnOptions data;
  data.num_road_vertices = 250;
  data.num_pois = 80;
  data.num_users = 150;
  data.num_topics = 15;
  data.space_size = 20.0;
  data.seed = seed;
  return data;
}

GpssnBuildOptions ChBuild() {
  GpssnBuildOptions build;
  build.num_road_pivots = 3;
  build.num_social_pivots = 3;
  build.social_index.leaf_cell_size = 16;
  build.distance_backend = DistanceBackendKind::kContractionHierarchy;
  return build;
}

TEST(BackendStalenessTest, KeptEngineBallsMatchFreshEngineAfterAddPoi) {
  GpssnDatabase db(MakeSynthetic(SmallData(3)), ChBuild());
  ASSERT_NE(db.distance_backend(), nullptr);
  const auto dijkstra = MakeDijkstraBackend(&db.ssn().road(), &db.ssn().pois());
  const EdgePosition center = db.ssn().poi(0).position;
  // Every POI on the center's own edge lies within this radius.
  const double radius = db.ssn().road().edge_weight(center.edge) + 1.0;
  const DistanceBackend* backends[] = {db.distance_backend(), dijkstra.get()};
  for (const DistanceBackend* backend : backends) {
    const std::unique_ptr<DistanceEngine> kept = backend->CreateEngine();
    kept->BallWithDistances(center, radius);
    Rng rng(9);
    for (int i = 0; i < 4; ++i) {
      auto id = db.AddPoi({center.edge, rng.UniformDouble()}, {1});
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      const auto fresh = backend->CreateEngine()->BallWithDistances(center,
                                                                    radius);
      ASSERT_EQ(kept->BallWithDistances(center, radius), fresh)
          << "a kept engine missed the POI AddPoi added";
    }
  }
}

TEST(BackendStalenessTest, ChQueriesSeeInsertedPois) {
  // Same inserts against a CH database and a Dijkstra database; after
  // every round both must agree with the brute-force oracle (and thus
  // with each other) — no stale POI set may serve a ball.
  GpssnBuildOptions dij_build = ChBuild();
  dij_build.distance_backend = DistanceBackendKind::kDijkstra;
  GpssnDatabase ch_db(MakeSynthetic(SmallData(4)), ChBuild());
  GpssnDatabase dij_db(MakeSynthetic(SmallData(4)), dij_build);
  ASSERT_NE(ch_db.distance_backend(), nullptr);

  GpssnQuery q;
  q.issuer = 11;
  q.tau = 3;
  q.gamma = 0.25;
  q.theta = 0.25;
  q.radius = 2.0;

  Rng rng(17);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 4; ++i) {
      const EdgePosition pos{
          static_cast<EdgeId>(rng.NextBounded(ch_db.ssn().road().num_edges())),
          rng.UniformDouble()};
      const KeywordId kw = static_cast<KeywordId>(rng.NextBounded(15));
      auto a = ch_db.AddPoi(pos, {kw});
      auto b = dij_db.AddPoi(pos, {kw});
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      ASSERT_EQ(a.value(), b.value());
    }
    auto ch_got = ch_db.Query(q);
    auto dij_got = dij_db.Query(q);
    ASSERT_TRUE(ch_got.ok());
    ASSERT_TRUE(dij_got.ok());
    const GpssnAnswer oracle = BruteForceGpssn(ch_db.ssn(), q);
    ASSERT_EQ(ch_got->found, oracle.found) << "round " << round;
    ASSERT_EQ(dij_got->found, oracle.found) << "round " << round;
    if (oracle.found) {
      EXPECT_NEAR(ch_got->max_dist, oracle.max_dist, 1e-9)
          << "round " << round;
      EXPECT_EQ(ch_got->users, dij_got->users) << "round " << round;
      EXPECT_EQ(ch_got->pois, dij_got->pois) << "round " << round;
    }
  }
}

TEST(BackendStalenessTest, InsertedPoiOnIssuerEdgeBecomesVisible) {
  // The sharpest form of the regression: with tau=1 the answer is the
  // issuer's best ball; a POI opened ON the issuer's home edge must
  // appear in the balls a CH database reads after the insert.
  GpssnDatabase db(MakeSynthetic(SmallData(5)), ChBuild());
  GpssnQuery q;
  q.issuer = 7;
  q.tau = 1;
  q.gamma = 0.0;
  q.theta = 0.0;
  q.radius = 1.0;
  auto before = db.Query(q);
  ASSERT_TRUE(before.ok());

  const EdgePosition home = db.ssn().user_home(q.issuer);
  auto id = db.AddPoi(home, {0});
  ASSERT_TRUE(id.ok());

  QueryStats stats;
  auto after = db.Query(q, QueryOptions(), &stats);
  ASSERT_TRUE(after.ok());
  ASSERT_TRUE(after->found);
  // The new facility is right at the issuer's home: it must be in the
  // answer ball (distance 0 beats everything).
  bool contains_new = false;
  for (const PoiId p : after->pois) contains_new |= (p == id.value());
  EXPECT_TRUE(contains_new)
      << "CH ball served a stale POI set after AddPoi";
  const GpssnAnswer oracle = BruteForceGpssn(db.ssn(), q);
  ASSERT_EQ(after->found, oracle.found);
  EXPECT_NEAR(after->max_dist, oracle.max_dist, 1e-9);
}

}  // namespace
}  // namespace gpssn
